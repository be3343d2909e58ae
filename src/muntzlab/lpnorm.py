"""Evaluation of weighted monomial polynomials and their L^p(mu) norms.

Pointwise values use per-term log magnitudes with compensated signed
summation.  Norms come back as a ``LogValue`` from ``log_lp_norm``:
against atoms, densities and restrictions they are log-domain sums over
the nodes x terms matrix on ``measures.measure_nodes``; ``lp_norm`` is the
float edge, where a norm below the smallest subnormal reads 0.0.  Lebesgue
norms alone add |f|**p in floats over dyadic panels.  Both quadratures
refine toward t = 1 to a depth that follows the largest exponent (a
monomial t**lam keeps its mass within O(1/lam) of t = 1, so fixed grids
silently miss everything once lam is large).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .logdomain import LogValue, NeumaierSum, logsumexp, signed_logsumexp
from .measures import (AtomicMeasure, Lebesgue, Measure, integrate_to_one, log_powers,
                       measure_nodes)
from .sequences import ExponentSequence, classify

QUADRATURE_EXPONENT_LIMIT = 1.0e12


@dataclass(frozen=True)
class MuntzPolynomial:
    """Finite coefficient vector against the monomials of a sequence prefix."""

    seq: ExponentSequence
    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        if len(coeffs) > len(self.seq):
            raise ValueError("more coefficients than exponents")
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError("coefficients must be finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def max_exponent(self) -> float:
        return self.seq[len(self.coefficients) - 1]


def eval_poly_logt(f: MuntzPolynomial, log_t: float) -> float:
    """Value at t = exp(log_t); log_t = -inf means t = 0."""
    acc = NeumaierSum()
    for a, lam in zip(f.coefficients, f.seq):
        if a == 0.0:
            continue
        if lam == 0.0:
            acc.add(a)
            continue
        if log_t == -math.inf:
            continue
        mag = lam * log_t + math.log(abs(a))
        acc.add(math.copysign(math.exp(mag), a) if mag > -745.0 else 0.0)
    return acc.total


def eval_poly(f: MuntzPolynomial, t: float) -> float:
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must be in [0,1), got {t}")
    return eval_poly_logt(f, math.log1p(t - 1.0) if t > 0.0 else -math.inf)


def _eval_poly_array(f: MuntzPolynomial, t: np.ndarray) -> np.ndarray:
    log_t = np.log1p(t - 1.0)
    out = np.zeros_like(t, dtype=float)
    for a, lam in zip(f.coefficients, f.seq):
        if a == 0.0:
            continue
        out += a * (np.exp(lam * log_t) if lam > 0.0 else np.ones_like(t))
    return out


def _log_values(f: MuntzPolynomial, log_t: np.ndarray) -> np.ndarray:
    """log|f(t_k)| at every node (-inf where f vanishes), one signed
    log-sum-exp per row of the nodes x terms matrix log|a_j| + lam_j log t_k."""
    a = np.array(f.coefficients)
    lam = np.array(f.seq.exponents[:len(a)])
    with np.errstate(divide="ignore"):
        logs = log_powers(log_t, lam) + np.log(np.abs(a))
    return signed_logsumexp(logs, a, axis=1)[0]


def log_lp_norm(f: MuntzPolynomial, mu: Measure, p: float) -> LogValue:
    """L^p(mu) norm as a LogValue: a log-domain sum over the measure's nodes.

    For every measure but Lebesgue, log|f(t_k)| is a signed log-sum-exp over
    the nodes x terms matrix of log|a_j| + lam_j log t_k on ``measure_nodes``
    and the norm is (1/p) logsumexp(log w_k + p log|f(t_k)|), so a norm far
    below the float range (t**1e13 at x = 1/2, t**1000 on [0, 1/2)) keeps
    its logarithm; for atoms the sum is exact at any exponent.  Lebesgue
    norms are the float quadrature ``integrate_to_one`` of |f|**p, where a
    norm whose p-th power underflows comes back zero.  Exponents beyond
    1e12 are refused on every non-atomic measure.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if not isinstance(mu, AtomicMeasure) and f.max_exponent > QUADRATURE_EXPONENT_LIMIT:
        raise ValueError(
            f"max exponent {f.max_exponent:.3e} exceeds the quadrature limit "
            f"{QUADRATURE_EXPONENT_LIMIT:.0e}; use an atomic measure or closed forms")
    sharp = p * max(f.max_exponent, 1.0)
    if isinstance(mu, Lebesgue):
        val = integrate_to_one(lambda t: np.abs(_eval_poly_array(f, t)) ** p, sharp)
        return LogValue.from_float(max(val, 0.0)).powf(1.0 / p)
    log_t, w = measure_nodes(mu, sharpness=sharp)
    with np.errstate(divide="ignore"):
        log_pth = logsumexp(np.log(w) + p * _log_values(f, log_t))
    return LogValue.from_log(log_pth / p)


def lp_norm(f: MuntzPolynomial, mu: Measure, p: float) -> float:
    """L^p(mu) norm as a float: ``log_lp_norm(f, mu, p).to_float()``.

    The float edge: a norm below about 5e-324 reads 0.0 here although its
    logarithm is exact for atomic measures; ask ``log_lp_norm`` for it.
    """
    return log_lp_norm(f, mu, p).to_float()


def l2_norm_gram(f: MuntzPolynomial) -> float:
    """Exact L2(dt) norm through the monomial Gram: sqrt(a^T G a)."""
    n = len(f.coefficients)
    lam = np.array(f.seq.exponents[:n])
    g = 1.0 / (lam[:, None] + lam[None, :] + 1.0)
    a = np.array(f.coefficients)
    return float(math.sqrt(max(a @ g @ a, 0.0)))


@dataclass(frozen=True)
class RatioBracket:
    min_ratio: float
    max_ratio: float
    trials: int


def gm_ratio_sample(seq: ExponentSequence, p: float, mu: Measure | None = None,
                    trials: int = 100, seed: int = 0,
                    n_count: int | None = None) -> RatioBracket:
    """Observed bracket of norm / weighted-coefficient-norm over random vectors.

    Coefficients are uniform on [-1,1], seeded; one extra trial per
    canonical basis vector (those have ratio exactly 1 by normalization).
    For p = 2 against Lebesgue the numerator is the exact Gram form.
    Warns when ``classify`` flags the prefix's ratio trend as non-lacunary,
    where the isomorphism with l^p is not expected and the bracket may
    degenerate.
    """
    mu = mu if mu is not None else Lebesgue()
    n_count = len(seq) if n_count is None else n_count
    if not 1 <= n_count <= len(seq):
        raise ValueError("n_count out of range")
    # classify needs two positive exponents; a leading 0 has no ratio
    if len(seq) >= (3 if seq[0] == 0.0 else 2) and classify(seq).trend_non_lacunary:
        warnings.warn("ratio sampling on a non-lacunary prefix; the bracket "
                      "may degenerate", stacklevel=2)
    rng = np.random.default_rng(seed)
    # a float product: p * lam beyond the float range is inf, no warning
    if not math.isfinite(p * seq[n_count - 1]):
        raise ValueError(f"p * lam = {p:g} * {seq[n_count - 1]:g} is beyond the float range")
    lam = np.array(seq.exponents[:n_count])
    q = p * lam + 1.0
    exact_gram = p == 2.0 and isinstance(mu, Lebesgue)

    def ratio(coeffs: np.ndarray) -> float:
        fpoly = MuntzPolynomial(seq, tuple(coeffs))
        num = l2_norm_gram(fpoly) if exact_gram else lp_norm(fpoly, mu, p)
        den = float(np.sum(np.abs(coeffs) ** p / q) ** (1.0 / p))
        return num / den

    ratios = []
    for k in range(n_count):
        e = np.zeros(n_count)
        e[k] = 1.0
        ratios.append(ratio(e))
    for _ in range(trials):
        ratios.append(ratio(rng.uniform(-1.0, 1.0, n_count)))
    return RatioBracket(min(ratios), max(ratios), len(ratios))


@dataclass(frozen=True)
class AmgmProbe:
    """Block-indicator lower bound for the synthesis norm.

    norm_lower_bound bounds ||J(1_A)||_p^p from below via the AM-GM
    inequality; ratio = norm_lower_bound^{1/p} / coeff_norm.  Along
    sequences that are not quasi-lacunary the ratio grows without bound as
    the block length grows; finite blocks only ever exhibit the trend.
    """

    block: tuple[int, int]
    norm_lower_bound: float
    coeff_norm: float
    ratio: float


def amgm_probe(seq: ExponentSequence, p: float, block_start: int, block_len: int) -> AmgmProbe:
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if block_len < 1 or block_start < 0 or block_start + block_len > len(seq):
        raise ValueError("block out of range")
    q = [p * seq[j] + 1.0 for j in range(block_start, block_start + block_len)]
    n = float(block_len)
    lower = n ** (p + 1.0) / math.fsum(q)
    coeff = math.fsum(1.0 / v for v in q) ** (1.0 / p)
    return AmgmProbe(
        block=(block_start, block_len),
        norm_lower_bound=lower,
        coeff_norm=coeff,
        ratio=lower ** (1.0 / p) / coeff,
    )


def pairing_integral(seq: ExponentSequence, p: float, n: int) -> tuple[float, float]:
    """Exact normalized pairing of adjacent monomials and its lower bound.

    value = q_{n+1}^{1/p} q_n^{1/p'} / ((p-1) lam_n + lam_{n+1} + 1) with
    q = p lam + 1; lower bound q_n / q_{n+1}.  The value tends to 0
    exactly along super-lacunary growth and stays bounded below otherwise.
    """
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if not 0 <= n < len(seq) - 1:
        raise ValueError(f"need n and n+1 within the prefix, got n={n}")
    qn = p * seq[n] + 1.0
    qn1 = p * seq[n + 1] + 1.0
    value = qn1 ** (1.0 / p) * qn ** (1.0 - 1.0 / p) / ((p - 1.0) * seq[n] + seq[n + 1] + 1.0)
    return value, qn / qn1
