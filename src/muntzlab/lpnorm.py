"""Evaluation of weighted monomial polynomials and their L^p(mu) norms.

Norms come back as a ``LogValue`` from ``log_lp_norm``: against atoms,
densities and restrictions they are log-domain sums over the nodes x terms
matrix on ``measures.measure_nodes``, with a signed log-sum-exp for the
value at each node; ``lp_norm`` is the float edge, where a norm below the
smallest subnormal reads 0.0.  ``gm_ratio_sample`` takes its Lebesgue
norms on those nodes too, one node set for its whole coefficient matrix.
Single Lebesgue norms alone add |f|**p in floats over the dyadic panels of
``measures.integrate_to_one``: on the nodes they run several times faster,
but the benchmark harness keeps every battery's outputs, so faster
batteries read as more peak memory (ROADMAP.md item 1; ``log_lp_norm``
gives three prototypes' figures).  Both quadratures refine toward t = 1 to a depth that
follows the largest exponent (a monomial t**lam keeps its mass within
O(1/lam) of t = 1, so fixed grids silently miss everything once lam is
large).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .logdomain import LogValue, logsumexp, signed_logsumexp
from .measures import (AtomicMeasure, Lebesgue, Measure, _cauchy_gram, integrate_to_one,
                       log_powers, measure_nodes)
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


def _eval_poly_array(f: MuntzPolynomial, log_t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(log_t, dtype=float)
    for a, lam in zip(f.coefficients, f.seq):
        if a == 0.0:
            continue
        out += a * (np.exp(lam * log_t) if lam > 0.0 else np.ones_like(log_t))
    return out


def _check_quadrature(max_exponent: float, mu: Measure, p: float) -> None:
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    if not isinstance(mu, AtomicMeasure) and max_exponent > QUADRATURE_EXPONENT_LIMIT:
        raise ValueError(
            f"max exponent {max_exponent:.3e} exceeds the quadrature limit "
            f"{QUADRATURE_EXPONENT_LIMIT:.0e}; use an atomic measure or closed forms")


def _node_logs(mu: Measure, lam: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    """The nodes x terms matrix lam_j log t_k and log w_k on ``measure_nodes``
    sized by p * lam_max, for any number of ``_log_pth_power`` calls."""
    log_t, w = measure_nodes(mu, sharpness=p * max(float(lam[-1]), 1.0))
    with np.errstate(divide="ignore"):
        return log_powers(log_t, lam), np.log(w)


def _log_pth_power(log_pow: np.ndarray, log_w: np.ndarray, a: np.ndarray, p: float) -> float:
    """log sum_k w_k |f(t_k)|**p for f = sum_j a_j t**lam_j, given the nodes x
    terms matrix log_pow of lam_j log t_k and the log weights log_w.

    log|f(t_k)| is a signed log-sum-exp along each row of log|a_j| + log_pow,
    then one log-sum-exp over the nodes; no step leaves the log domain.
    """
    with np.errstate(divide="ignore"):
        logs = log_pow + np.log(np.abs(a))
    return logsumexp(log_w + p * signed_logsumexp(logs, a, axis=1)[0])


def log_lp_norm(f: MuntzPolynomial, mu: Measure, p: float) -> LogValue:
    """L^p(mu) norm as a LogValue: a log-domain sum over the measure's nodes.

    For every measure but Lebesgue the norm is (1/p) ``_log_pth_power`` on
    the nodes of ``_node_logs``, so a norm far below the float range
    (t**1e13 at x = 1/2, t**1000 on [0, 1/2)) keeps its logarithm; for
    atoms the sum is exact at any exponent.  ``gm_ratio_sample`` runs the
    same kernel, on Lebesgue measure too, with one node set for all its
    vectors.  A single Lebesgue norm here (``suite_diagonal``'s random
    vectors, the ``norm`` command) is still the float quadrature
    ``integrate_to_one`` of |f|**p, where a norm whose p-th power
    underflows comes back zero.  On the nodes it runs several times faster,
    but perfbench keeps the outputs of every battery it runs, so more
    batteries in its 35 s read as more peak memory.  Three prototypes, one
    35 s run each (``battery_s``; ``peak_rss_mb``, past the 10 % bound in
    each): batched ``gm_ratio_sample`` norms on report-p3 0.029 -> 0.011 s,
    48.3 -> 55.5 MiB; a matrix integrand in ``integrate_to_one`` on
    report-default 0.238 -> 0.075 s, 44.6 -> 50.6 MiB; one node set for
    ``suite_diagonal``'s 100 norms on report-atoms64 0.044 -> 0.034 s,
    53.3 -> 59.7 MiB.  This branch moves to the nodes once perfbench stops
    keeping them (ROADMAP.md item 1).
    Exponents beyond 1e12 are refused on every non-atomic measure.
    """
    _check_quadrature(f.max_exponent, mu, p)
    if isinstance(mu, Lebesgue):
        val = integrate_to_one(lambda log_t: np.abs(_eval_poly_array(f, log_t)) ** p,
                               p * max(f.max_exponent, 1.0))
        return LogValue.from_float(max(val, 0.0)).powf(1.0 / p)
    a = np.array(f.coefficients)
    log_pow, log_w = _node_logs(mu, np.array(f.seq.exponents[:len(a)]), p)
    return LogValue.from_log(_log_pth_power(log_pow, log_w, a, p) / p)


def lp_norm(f: MuntzPolynomial, mu: Measure, p: float) -> float:
    """L^p(mu) norm as a float: ``log_lp_norm(f, mu, p).to_float()``.

    The float edge: a norm below about 5e-324 reads 0.0 here although its
    logarithm is exact for atomic measures; ask ``log_lp_norm`` for it.
    """
    return log_lp_norm(f, mu, p).to_float()


def l2_norm_gram(f: MuntzPolynomial) -> float:
    """Exact L2(dt) norm through the monomial Gram: sqrt(a^T G a)."""
    a = np.array(f.coefficients)
    g = _cauchy_gram(np.array(f.seq.exponents[:len(a)]))
    return float(math.sqrt(max(a @ g @ a, 0.0)))


@dataclass(frozen=True)
class RatioBracket:
    """min and max of the sampled ratios and how many there were (``trials``,
    canonical rows included); ``canonical`` is (min, max) over the canonical
    rows alone."""

    min_ratio: float
    max_ratio: float
    trials: int
    canonical: tuple[float, float]


def gm_ratio_sample(seq: ExponentSequence, p: float, trials: int = 100, seed: int = 0,
                    n_count: int | None = None) -> RatioBracket:
    """Observed bracket of norm / weighted-coefficient-norm over one coefficient matrix.

    The ratio of a = (a_j) is ||sum_j a_j t**lam_j||_p / (sum_j |a_j|**p / q_j)**(1/p)
    with q_j = p lam_j + 1, the norm taken against Lebesgue measure dt.  The
    matrix has n = n_count columns: its first n rows are the canonical basis
    vectors (ratio exactly 1 by normalization), the other ``trials`` rows are
    ``rng.uniform(-1, 1, (trials, n))`` with ``rng = np.random.default_rng(seed)``,
    the same numbers as one draw of n per trial.  The bracket spans all rows;
    ``canonical`` spans the first n.  For p = 2 the numerators are the exact
    Gram form sqrt(a^T G a), one stacked matmul over the rows.  At every other
    p they take the node route of ``log_lp_norm``: the sample builds one
    ``measure_nodes`` set, sized by p * lam_{n-1}, and the nodes x terms matrix
    lam_j log t_k once, and each row takes one ``_log_pth_power`` over them, so
    the working set is one nodes x terms matrix.  The denominators are one
    array expression up to the 1/p root, which each row takes as a float.
    Warns when ``classify`` flags the prefix's ratio trend as non-lacunary,
    where the isomorphism with l^p is not expected and the bracket may
    degenerate.
    """
    n_count = len(seq) if n_count is None else n_count
    if not 1 <= n_count <= len(seq):
        raise ValueError("n_count out of range")
    # classify needs two positive exponents; a leading 0 has no ratio
    if len(seq) >= (3 if seq[0] == 0.0 else 2) and classify(seq).trend_non_lacunary:
        warnings.warn("ratio sampling on a non-lacunary prefix; the bracket "
                      "may degenerate", stacklevel=2)
    # a float product: p * lam beyond the float range is inf, no warning
    if not math.isfinite(p * seq[n_count - 1]):
        raise ValueError(f"p * lam = {p:g} * {seq[n_count - 1]:g} is beyond the float range")
    lam = np.array(seq.exponents[:n_count])
    rng = np.random.default_rng(seed)
    coeffs = np.vstack([np.eye(n_count), rng.uniform(-1.0, 1.0, (trials, n_count))])
    if p == 2.0:
        # (1 x n) @ (n x n) @ (n x 1) per row: the vector-matrix and dot
        # products of l2_norm_gram, so each form equals its a @ g @ a
        forms = (coeffs[:, None, :] @ _cauchy_gram(lam) @ coeffs[:, :, None])[:, 0, 0]
        norms = np.sqrt(np.maximum(forms, 0.0))
    else:
        _check_quadrature(seq[n_count - 1], Lebesgue(), p)
        log_pow, log_w = _node_logs(Lebesgue(), lam, p)
        norms = np.array([LogValue.from_log(_log_pth_power(log_pow, log_w, a, p) / p).to_float()
                          for a in coeffs])
    sums = np.sum(np.abs(coeffs) ** p / (p * lam + 1.0), axis=1)
    # a float root: numpy's vectorised power can differ from it in the last bit
    ratios = norms / np.array([s ** (1.0 / p) for s in sums.tolist()])
    return RatioBracket(float(ratios.min()), float(ratios.max()), len(ratios),
                        (float(ratios[:n_count].min()), float(ratios[:n_count].max())))


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
