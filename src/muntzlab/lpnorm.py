"""Evaluation of weighted monomial polynomials and their L^p(mu) norms.

``log_lp_norms`` is the entry point for many vectors: it takes the norms of
all the rows of one coefficient matrix, validated once, on one node set.
Against atoms, densities and restrictions each norm is a log-domain sum
over the nodes x terms matrix on ``measures.measure_nodes``, with a signed
log-sum-exp for the value at each node, computed in place in the one
nodes x terms array a row allocates.  Rows with one nonzero coefficient are
monomials, where that signed sum is the identity: they take one
log-sum-exp over the nodes together, bit for bit the per-row result.
``log_lp_norm`` is its one-row view and comes back as a ``LogValue``;
``lp_norm`` is the float edge, where a norm below the smallest subnormal
reads 0.0.  ``gm_ratio_sample`` takes its Lebesgue norms on those nodes too,
through the same rows (``_node_log_norms``).  The nodes are graded toward
t = 0 when p * lam_0 is not an integer, where |f|**p is not smooth there.
Lebesgue rows alone add |f|**p in floats over the dyadic panels of
``measures.integrate_to_one``: a nodes x vectors matmul over all rows runs
several times faster, but the benchmark harness keeps every battery's
outputs, so faster batteries read as more peak memory (ROADMAP.md item 1;
``log_lp_norm`` gives the figures).  The random coefficient rows of
``gm_ratio_sample`` and of the diagonal-domination suite come from
``_uniform_rows``, which takes the standard library's generator: no module
of the package imports ``numpy.random``.  Both quadratures refine toward t = 1
to a depth that follows the largest exponent (a monomial t**lam keeps its
mass within O(1/lam) of t = 1, so fixed grids silently miss everything
once lam is large).
"""
from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .logdomain import LogValue, _exp_shifted, _signed_log_sum, logsumexp
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


def _eval_poly_array(a: list[float], lam: list[float], log_t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(log_t, dtype=float)
    for aj, lj in zip(a, lam):
        if aj == 0.0:
            continue
        out += aj * (np.exp(lj * log_t) if lj > 0.0 else np.ones_like(log_t))
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
    sized by p * lam_max toward t = 1 and graded by p * lam_0 toward t = 0,
    for any number of ``_log_pth_power`` calls."""
    log_t, w = measure_nodes(mu, sharpness=p * max(float(lam[-1]), 1.0),
                             low_power=p * float(lam[0]))
    with np.errstate(divide="ignore"):
        return log_powers(log_t, lam), np.log(w)


def _log_pth_power(log_pow: np.ndarray, log_w: np.ndarray, a: np.ndarray, p: float) -> float:
    """log sum_k w_k |f(t_k)|**p for f = sum_j a_j t**lam_j, given the nodes x
    terms matrix log_pow of lam_j log t_k and the log weights log_w.

    log|f(t_k)| is a signed log-sum-exp along each row of log|a_j| + log_pow,
    then one log-sum-exp over the nodes; no step leaves the log domain.  The
    one nodes x terms array it allocates, log|a_j| + log_pow, is overwritten
    in place by the signed kernel (``signed_logsumexp`` on a copy).
    """
    with np.errstate(divide="ignore"):
        logs = log_pow + np.log(np.abs(a))
    return logsumexp(log_w + p * _signed_log_sum(logs, a, axis=1)[0])


def _node_log_norms(log_pow: np.ndarray, log_w: np.ndarray, coeffs: np.ndarray,
                    p: float) -> np.ndarray:
    """log ||f||_p of each row of coeffs on the nodes of ``_node_logs``.

    A row with one nonzero coefficient a_j is a monomial, on which the signed
    log-sum-exp of ``_log_pth_power`` is the identity, so all such rows take
    one log-sum-exp along the nodes of the contiguous rows x nodes matrix
    p (lam_j log t_k + log|a_j|) + log w_k: the per-row result bit for bit.
    Every other row takes one ``_log_pth_power`` over the one nodes x terms
    matrix; an all-zero row is -inf.
    """
    nonzero = np.count_nonzero(coeffs, axis=1)
    out = np.full(len(coeffs), -math.inf)
    mono = np.flatnonzero(nonzero == 1)
    if mono.size:
        cols = np.argmax(coeffs[mono] != 0.0, axis=1)
        terms = np.ascontiguousarray(log_pow.T[cols])
        terms += np.log(np.abs(coeffs[mono, cols]))[:, None]
        terms *= p
        terms += log_w
        out[mono] = _exp_shifted(terms, 1)[0] / p
    for i in np.flatnonzero(nonzero > 1).tolist():
        out[i] = _log_pth_power(log_pow, log_w, coeffs[i], p) / p
    return out


def log_lp_norms(seq: ExponentSequence, coeffs, mu: Measure, p: float) -> np.ndarray:
    """log ||sum_j a_j t**lam_j||_{L^p(mu)} for every row a of ``coeffs``.

    The entry point for many vectors.  The vectors x terms matrix is checked
    once as ``MuntzPolynomial`` checks one vector, and the p >= 1 and
    quadrature-limit refusals of ``_check_quadrature`` are made once.  Every
    measure but Lebesgue builds one node set and one nodes x terms matrix
    (``_node_logs``, which refuses p * lam past the float range) and takes
    each row's norm from it; for atoms the sum is exact at any exponent.
    Lebesgue rows each take the float quadrature ``integrate_to_one`` of
    |f|**p (see ``log_lp_norm``).  A zero norm (an all-zero row, an empty
    restriction) is -inf.
    """
    a = np.array(coeffs, dtype=float)
    if a.ndim != 2:
        raise ValueError("coefficients must be a vectors x terms matrix")
    if a.shape[1] == 0:
        raise ValueError("polynomial needs at least one coefficient")
    if a.shape[1] > len(seq):
        raise ValueError("more coefficients than exponents")
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    lam = seq.exponents[:a.shape[1]]
    _check_quadrature(lam[-1], mu, p)
    if not isinstance(mu, Lebesgue):
        return _node_log_norms(*_node_logs(mu, np.array(lam), p), a, p)
    logs, sharpness = [], p * max(lam[-1], 1.0)
    for row in a.tolist():
        val = integrate_to_one(
            lambda log_t, b=row: np.abs(_eval_poly_array(b, lam, log_t)) ** p, sharpness,
            low_power=p * lam[0])
        norm = LogValue.from_float(max(val, 0.0)).powf(1.0 / p)
        logs.append(-math.inf if norm.is_zero else norm.log)
    return np.array(logs)


def log_lp_norm(f: MuntzPolynomial, mu: Measure, p: float) -> LogValue:
    """L^p(mu) norm as a LogValue: the one-row view of ``log_lp_norms``, the
    entry point for many vectors.

    For every measure but Lebesgue the norm is (1/p) ``_log_pth_power`` on
    the nodes of ``_node_logs``, so a norm far below the float range
    (t**1e13 at x = 1/2, t**1000 on [0, 1/2)) keeps its logarithm; for
    atoms the sum is exact at any exponent.  ``_log_pth_power`` overwrites
    its one nodes x terms array in place; a monomial row skips it for the
    log-sum-exp over the nodes that it reduces to, with the same bits.
    ``gm_ratio_sample`` takes the same rows (``_node_log_norms``), on
    Lebesgue measure too, with one node set for all its vectors.  A Lebesgue
    norm here (``suite_diagonal``'s random vectors, the ``norm`` command) is
    still the float quadrature ``integrate_to_one`` of |f|**p, where a norm
    whose p-th power underflows comes back zero.  A nodes x vectors matmul
    over the rows with two nonzero terms or more would be faster still, but
    perfbench keeps the outputs of every battery it runs, so more batteries
    in its 35 s read as more peak memory.  Measured with that kernel in
    ``log_lp_norms`` (2 pairs each, while the coefficient draws still
    imported ``numpy.random``): report-atoms64 ``battery_s`` 0.037 -> 0.020 s
    and report-p3 0.030 -> 0.010 s, with ``peak_rss_mb`` up 19 % and 17 %,
    past the 10 % bound.  Dropping ``numpy.random`` took report-p3's
    two-battery peak from 42.1 to 36.9 MiB; report-atoms64's stays at
    41.6 MiB, because the benchmark's own atom draw imports ``numpy.random``.
    It lands once perfbench stops keeping the outputs (ROADMAP.md item 1), as
    a change inside ``_node_log_norms``.
    Exponents beyond 1e12 are refused on every non-atomic measure.
    """
    return LogValue.from_log(float(log_lp_norms(f.seq, [f.coefficients], mu, p)[0]))


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


def _uniform_rows(seed: int, rows: int, n: int) -> np.ndarray:
    """rows x n doubles in [-1, 1) on the 2**-52 grid, drawn from ``random.Random(seed)``.

    ``randbytes(8 * rows * n)`` read as little-endian uint64 words w gives
    (w >> 11) * 2**-52 - 1, row after row.  The draw is deterministic per
    seed and prefix-stable: the first r rows of an R-row draw are the r-row
    draw.  The standard library's generator is used because importing
    ``numpy.random`` also loads ``secrets``, ``hashlib`` and OpenSSL's
    libcrypto: 6.1 MiB of resident memory on top of ``import numpy``, and
    5.4 MiB of the 40.8 MiB two-battery peak of the default ``report``.  The
    one array expression takes 0.12 ms for report-p3's 2,400 values and
    0.36 ms for report-atoms64's 12,800 (2-vCPU Intel Xeon VM, CPython 3.11,
    numpy 2.4); a Python loop over ``Random.uniform`` would cost milliseconds.
    A negative seed is refused, since ``random.Random`` would take -s as s.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    bits = np.frombuffer(random.Random(seed).randbytes(8 * rows * n), dtype="<u8")
    return ((bits >> 11) * 2.0 ** -52 - 1.0).reshape(rows, n)


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
    ``_uniform_rows(seed, trials, n)``: uniform on [-1, 1) from the standard
    library's generator seeded with ``seed``, and the first r trials are the
    same whatever ``trials`` is.  The bracket spans all rows;
    ``canonical`` spans the first n.  For p = 2 the numerators are the exact
    Gram form sqrt(a^T G a), one stacked matmul over the rows.  At every other
    p they take the node route of ``log_lp_norms``: the sample builds one
    ``measure_nodes`` set, sized by p * lam_{n-1} toward t = 1 and graded by
    p * lam_0 toward t = 0, and the nodes x terms matrix lam_j log t_k once.
    The n canonical rows are monomials and take one log-sum-exp over the
    nodes together; each other row takes one ``_log_pth_power``, which
    works in place in one nodes x terms array, so the working set is two
    such matrices.  The denominators are one array expression up to the 1/p
    root, which each row takes as a float.
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
    coeffs = np.vstack([np.eye(n_count), _uniform_rows(seed, trials, n_count)])
    if p == 2.0:
        # (1 x n) @ (n x n) @ (n x 1) per row: the vector-matrix and dot
        # products of l2_norm_gram, so each form equals its a @ g @ a
        forms = (coeffs[:, None, :] @ _cauchy_gram(lam) @ coeffs[:, :, None])[:, 0, 0]
        norms = np.sqrt(np.maximum(forms, 0.0))
    else:
        _check_quadrature(seq[n_count - 1], Lebesgue(), p)
        logs = _node_log_norms(*_node_logs(Lebesgue(), lam, p), coeffs, p)
        norms = np.array([LogValue.from_log(v).to_float() for v in logs.tolist()])
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
