"""Evaluation of weighted monomial polynomials and their L^p(mu) norms.

``log_lp_norms`` is the one entry point for norms, validated once per
coefficient matrix.  Its rows, and those of ``gm_ratio_sample`` on
Lebesgue measure, are log-domain sums over the terms x nodes matrix of
``measures.node_log_powers`` (``_node_log_norms``), except the Lebesgue
rows of ``log_lp_norms``, which add |f|**p in floats over the dyadic panels
of ``measures.integrate_to_one``, which deepens toward t = 1 until its
closing panel is negligible or two passes agree.  Both quadratures are
graded toward t = 0 by ``measures._grading_power`` and refined toward t = 1
at least as far as p * lam_max asks.  Neither sees the kink of |f|**p at a
sign change of f when p is not an even integer (ROADMAP.md item 7).  Every
norm refuses p < 1 (``_check_p``); beyond that each route refuses only what
it cannot represent: the nodes, in u = 1 - t and in logs, p * lam past the
float range, and the float panels, which stop at u = 2**-53, p * lam from
about 2**46 = 7.0e13 on.  No refusal is keyed on lam alone.  The random
rows of ``gm_ratio_sample`` and of the diagonal-domination suite come from
``_uniform_rows``, on the standard library's generator: no module of the
package imports ``numpy.random``.
"""
from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .logdomain import _exp_shifted, _signed_log_sum, logsumexp, materialize
from .measures import (Lebesgue, Measure, _cauchy_gram, _grading_power, integrate_to_one,
                       node_log_powers)
from .sequences import ExponentSequence, classify


def _eval_poly_array(a: list[float], lam: list[float], log_t: np.ndarray) -> np.ndarray:
    out = np.zeros_like(log_t, dtype=float)
    for aj, lj in zip(a, lam):
        if aj == 0.0:
            continue
        out += aj * (np.exp(lj * log_t) if lj > 0.0 else np.ones_like(log_t))
    return out


def _check_p(p: float) -> None:
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")


def _log_pth_power(log_pow: np.ndarray, log_w: np.ndarray, a: np.ndarray, p: float) -> float:
    """log sum_k w_k |f(t_k)|**p for f = sum_j a_j t**lam_j, given the terms x
    nodes matrix log_pow of lam_j log t_k and the log weights log_w.

    log|f(t_k)| is a signed log-sum-exp down each node's column of
    log|a_j| + log_pow (whole-row operations along the nodes), then one
    log-sum-exp over the nodes; no step leaves the log domain.  The one
    array it allocates, log|a_j| + log_pow, is overwritten in place by the
    signed kernel (``signed_logsumexp`` on a copy).
    """
    with np.errstate(divide="ignore"):
        logs = log_pow + np.log(np.abs(a))[:, None]
    return logsumexp(log_w + p * _signed_log_sum(logs, a[:, None], axis=0)[0])


def _node_log_norms(log_pow: np.ndarray, log_w: np.ndarray, coeffs: np.ndarray,
                    p: float) -> np.ndarray:
    """log ||f||_p of each row of coeffs on the nodes of ``node_log_powers``.

    A row with one nonzero coefficient a_j is a monomial, on which the signed
    log-sum-exp of ``_log_pth_power`` is the identity, so all such rows take
    one log-sum-exp along the nodes of their rows log_pow[j], made
    p (lam_j log t_k + log|a_j|) + log w_k: the per-row result bit for bit.
    Every other row takes one ``_log_pth_power``; an all-zero row is -inf.
    """
    nonzero = np.count_nonzero(coeffs, axis=1)
    out = np.full(len(coeffs), -math.inf)
    mono = np.flatnonzero(nonzero == 1)
    if mono.size:
        cols = np.argmax(coeffs[mono] != 0.0, axis=1)
        terms = log_pow[cols]
        terms += np.log(np.abs(coeffs[mono, cols]))[:, None]
        terms *= p
        terms += log_w
        out[mono] = _exp_shifted(terms, 1)[0] / p
    for i in np.flatnonzero(nonzero > 1).tolist():
        out[i] = _log_pth_power(log_pow, log_w, coeffs[i], p) / p
    return out


def log_lp_norms(seq: ExponentSequence, coeffs, mu: Measure, p: float) -> np.ndarray:
    """log ||sum_j a_j t**lam_j||_{L^p(mu)} for every row a of ``coeffs``.

    The one entry point for norms, one vector being a one-row matrix.  The
    vectors x terms matrix is checked once (nonempty rows, no more terms
    than exponents, finite entries), and so is p >= 1.  Every measure but
    Lebesgue builds one node set and one terms x nodes matrix
    (``measures.node_log_powers``, which refuses p * lam past the float
    range) and takes each row's norm from it, so a norm far below the float
    range (t**1e13 at x = 1/2, t**1000 on [0, 1/2)) keeps its logarithm.
    Lebesgue rows each take the float quadrature ``integrate_to_one`` of
    |f|**p, where a norm whose p-th power underflows comes back zero; a row
    stops once two passes of its panels agree, 42 panels for a row of
    geometric:1,2,16 at p = 2, and the refusal past u = 2**-53 comes on the
    first row, so once per call.  Faster forms of that route with identical
    outputs stay parked on peak memory (ROADMAP.md items 1 and 2).  A zero
    norm is -inf.
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
    _check_p(p)
    if not isinstance(mu, Lebesgue):
        return _node_log_norms(*node_log_powers(mu, lam, p), a, p)
    logs, sharpness = [], p * max(lam[-1], 1.0)
    low_power = _grading_power(np.array(lam), p)
    for row in a.tolist():
        val = integrate_to_one(
            lambda log_t, b=row: np.abs(_eval_poly_array(b, lam, log_t)) ** p, sharpness,
            low_power=low_power)
        if math.isnan(val):
            raise ValueError(f"the quadrature of |f|**{p:g} is NaN")
        logs.append(math.log(val) * (1.0 / p) if val > 0.0 else -math.inf)
    return np.array(logs)


def l2_norm_gram(seq: ExponentSequence, coeffs) -> float:
    """Exact L2(dt) norm of sum_j a_j t**lam_j through the monomial Gram:
    sqrt(a^T G a)."""
    a = np.array(coeffs, dtype=float)
    g = _cauchy_gram(np.array(seq.exponents[:len(a)]))
    return float(math.sqrt(max(a @ g @ a, 0.0)))


def _uniform_rows(seed: int, rows: int, n: int) -> np.ndarray:
    """rows x n doubles in [-1, 1) on the 2**-52 grid, drawn from ``random.Random(seed)``.

    ``randbytes(8 * rows * n)`` read as little-endian uint64 words w gives
    (w >> 11) * 2**-52 - 1, row after row: deterministic per seed and
    prefix-stable (the first r rows of an R-row draw are the r-row draw).
    ``numpy.random`` would also load OpenSSL's libcrypto, 6.1 MiB resident.
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
    ``_uniform_rows(seed, trials, n)``, prefix-stable in ``trials``.  The
    bracket spans all rows; ``canonical`` spans the first n.  At p = 2 the
    numerators are the exact Gram forms sqrt(a^T G a), one stacked matmul;
    at every other p, ``_node_log_norms`` on one terms x nodes matrix, so
    only p < 1 and p * lam past the float range are refused.  The
    denominators are one array expression up to the 1/p root, which each
    row takes as a float.  Warns when ``classify`` flags the prefix's ratio
    trend as non-lacunary, where the bracket may degenerate.
    """
    _check_p(p)
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
        logs = _node_log_norms(*node_log_powers(Lebesgue(), lam, p), coeffs, p)
        norms = np.array([materialize(v) for v in logs.tolist()])
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
    _check_p(p)
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
    _check_p(p)
    if not 0 <= n < len(seq) - 1:
        raise ValueError(f"need n and n+1 within the prefix, got n={n}")
    qn = p * seq[n] + 1.0
    qn1 = p * seq[n + 1] + 1.0
    value = qn1 ** (1.0 / p) * qn ** (1.0 - 1.0 / p) / ((p - 1.0) * seq[n] + seq[n + 1] + 1.0)
    return value, qn / qn1
