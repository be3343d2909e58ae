"""Closed-form constants and analytic brackets for weighted monomial systems.

The closed forms are ordinary float arithmetic (all magnitudes moderate);
only the series that involve t**lam go through the log domain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .logdomain import LOG_FLOAT_MAX, logsumexp
from .sequences import ExponentSequence, is_r_lacunary


def conjugate(p: float) -> float:
    """Holder conjugate; inf at p = 1."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


class Lemma31Bound(NamedTuple):
    lhs: float
    rhs: float


def lemma31_bound(p: float, alpha: float, q_seq, r: float) -> Lemma31Bound:
    """Cross-term sum versus its geometric closed-form majorant.

    lhs = max over n of sum_{k != n} (q_n^{1/p} q_k^{1/p'} / (q_n/p + q_k/p'))^alpha,
    rhs = p'^alpha/(r^{alpha/p} - 1) + p^alpha/(r^{alpha/p'} - 1).
    The q sequence must be r-lacunary.
    """
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not r > 1.0:
        raise ValueError(f"r must exceed 1, got {r}")
    q = np.fromiter(q_seq, dtype=float)
    if not is_r_lacunary(q, r, rel_slack=1e-12):
        raise ValueError("q sequence is not r-lacunary for the given r")
    pp = conjugate(p)
    # row n, column k: the (n, k) term; the diagonal k = n is left out
    terms = (np.multiply.outer(q ** (1.0 / p), q ** (1.0 / pp))
             / np.add.outer(q / p, q / pp)) ** alpha
    np.fill_diagonal(terms, 0.0)
    lhs = float(terms.sum(axis=1).max(initial=0.0))
    rhs = pp ** alpha / (r ** (alpha / p) - 1.0) + p ** alpha / (r ** (alpha / pp) - 1.0)
    return Lemma31Bound(lhs, rhs)


@dataclass(frozen=True)
class NormBoundReport:
    """Upper bound for the synthesis-operator norm from the lacunarity ratio.

    ``r`` is the lacunarity ratio of (p*lam_n + 1), not of lam_n itself;
    callers compute it by classifying the shifted sequence.
    """

    p: float
    r: float
    upper_bound: float
    formula_id: str  # "prop32" (p >= 2) | "prop33" (p <= 2)

    def __post_init__(self) -> None:
        assert self.upper_bound >= 1.0


def jlambda_upper(p: float, r: float) -> NormBoundReport:
    if not r > 1.0:
        raise ValueError(f"r must exceed 1, got {r}")
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if p >= 2.0:
        inner = 1.0 + 2.0 * p ** (1.0 / (p - 1.0)) / (r ** (1.0 / (p * (p - 1.0))) - 1.0)
        formula = "prop32"
    else:
        inner = 1.0 + 4.0 / (math.sqrt(r) - 1.0)
        formula = "prop33"
    exponent = 0.0 if p == 1.0 else 1.0 / conjugate(p)
    return NormBoundReport(p=p, r=r, upper_bound=inner ** exponent, formula_id=formula)


def r_epsilon(p: float, eps: float) -> float:
    """Lacunarity threshold that forces the frame bracket [1-eps, 1+eps].

    Symmetric in p <-> p' through q = max(p, p').  The threshold
    (1 + 4 q**(1/(q-1)) / eps)**(q(q-1)) is compared with the float range in
    logs and is inf past it (already at p = 50 or p = 1.0001), where no
    ratio of floats meets it.
    """
    if not p > 1.0:
        raise ValueError(f"p must exceed 1, got {p}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0,1), got {eps}")
    q = max(p, conjugate(p))
    base, power = 1.0 + 4.0 * q ** (1.0 / (q - 1.0)) / eps, q * (q - 1.0)
    if power * math.log(base) >= LOG_FLOAT_MAX:
        return math.inf
    return base ** power


class EnvelopeBracket(NamedTuple):
    ratio_min: float
    ratio_max: float
    profile: tuple[tuple[float, float], ...]  # (t, ratio) pairs
    log_ratio_min: float  # the logs of the edges, kept where a ratio leaves the float range
    log_ratio_max: float


def envelope_check(seq: ExponentSequence, alpha: float) -> EnvelopeBracket:
    """Bracket of (sum_n lam_n^alpha t^lam_n) * (1-t)^alpha on t = 1 - 2^-j.

    For quasi-geometric prefixes both edges of the bracket should stay away
    from 0 and infinity; for merely lacunary ones only the upper edge is
    meaningful.  The series is summed in the log domain over the whole
    stored prefix; past 2^j ~ lam_max the ratio falls like 2^(-alpha j), so
    j runs over 1..min(40, max(1, floor(log2 lam_max))).  The bracket keeps
    the log of each edge beside its float, which underflows to 0 where the
    ratios lie below the smallest float (lam_0 = 1e-300 at alpha = 2).
    """
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    lams = np.array([l for l in seq if l > 0.0])
    j_max = min(40, max(1, math.floor(math.log2(lams.max(initial=1.0)))))
    eps = 2.0 ** -np.arange(1, j_max + 1.0)
    # j x prefix: log(lam**alpha t**lam) at t = 1 - eps_j
    term_logs = alpha * np.log(lams) + np.multiply.outer(np.log1p(-eps), lams)
    logs = logsumexp(term_logs, axis=1) + alpha * np.log(eps)
    ratios = np.exp(logs).tolist()
    profile = tuple(zip((1.0 - eps).tolist(), ratios))
    return EnvelopeBracket(min(ratios), max(ratios), profile,
                           float(logs.min()), float(logs.max()))


def point_eval_norm(seq: ExponentSequence, p: float, t: float) -> float:
    """Dual-norm surrogate for evaluation at t: (sum lam^{p'/p} t^{p' lam})^{1/p'}
    over the whole stored prefix.

    At p = 1 the p' -> inf limit is the sup of lam * t^lam.  This is the
    basis-side surrogate, not the exact reproducing-kernel norm of a
    truncation.
    """
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must be in [0,1), got {t}")
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    log_t = math.log1p(t - 1.0) if t > 0.0 else -math.inf
    lams = [l for l in seq.exponents if l > 0.0]  # lam = 0 contributes 0
    if t == 0.0 or not lams:
        return 0.0
    if p == 1.0:
        return math.exp(max(math.log(l) + l * log_t for l in lams))
    pp = conjugate(p)
    term_logs = [(pp / p) * math.log(l) + pp * l * log_t for l in lams]
    return math.exp(logsumexp(term_logs) / pp)
