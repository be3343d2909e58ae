"""Evaluation of weighted monomial polynomials and their L^p(mu) norms.

``log_lp_norms`` is the one entry point for norms, validated once per
coefficient matrix.  Its rows, and those of ``gm_ratio_sample`` on
Lebesgue measure, are log-domain sums over the terms x nodes matrix of
``measures.node_log_powers`` (``_node_log_norms``), except the Lebesgue
rows of ``log_lp_norms``, which add |f|**p in floats over the dyadic panels
of ``measures.integrate_to_one``, which deepens toward t = 1 one halving a
pass until its closing panel is negligible or two passes agree; each
panel's monomials are one exp of ``measures.log_powers`` per call, shared
by all its rows (each row still adds its terms one at a time; that loop as
one array reduction, and rows batched on a panel, stay parked on peak
memory, ROADMAP.md item 1), and each row is scaled by a power of two first,
so |f|**p stays near 1.  Both quadratures are graded toward t = 0 by
``measures._grading_power`` and refined toward t = 1 at least as far as
p * lam_max asks.  Neither sees the kink of |f|**p at a
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

import contextlib
import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_FLOAT_MAX, _exp_shifted, _signed_log_sum, logsumexp, materialize
from .measures import (DensityMeasure, Lebesgue, Measure, _cauchy_gram, _grading_power,
                       integrate_to_one, log_powers, node_log_powers)
from .sequences import ExponentSequence, classify

_LOG2 = math.log(2.0)


def _eval_poly_array(a: list[float], powers: np.ndarray) -> np.ndarray:
    """f(t) = sum_j a_j t**lam_j at one panel's nodes, given its monomials.

    ``powers`` is the panel's terms x nodes matrix of t_k**lam_j, one exp of
    ``measures.log_powers`` (t**0 = 1 also at t = 0), which ``log_lp_norms``
    builds once per panel and shares among its rows, so it is read, never
    written: each row is scaled by its a_j into a new array and added in term
    order, zero coefficients skipped, so each node's value is the per-term sum
    of a_j * exp(lam_j log t), bit for bit.  ``log_lp_norms`` passes rows
    scaled by a power of two, so |f| is at most the number of terms.
    """
    out = np.zeros(powers.shape[1])
    for aj, row in zip(a, powers):
        if aj != 0.0:
            out += row * aj
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
    Every other row takes one ``_log_pth_power`` on its terms up to its last
    nonzero coefficient, since those past it add nothing to f; an all-zero
    row is -inf.
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
        width = np.flatnonzero(coeffs[i])[-1] + 1
        out[i] = _log_pth_power(log_pow[:width], log_w, coeffs[i, :width], p) / p
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
    |f|**p on the row scaled by 2**-e, e the frexp exponent of its largest
    |a_j| (``_pow2_exponents``; 0 for a largest |a_j| in [0.5, 1)), and add
    e log 2 back to the log norm, so coefficients of 1e-200 or 1e200 neither
    underflow nor overflow in |f|**p.  The panels evaluate f through
    ``_eval_poly_array`` on the panel's monomials, one exp of
    ``measures.log_powers`` per panel and call: the first row to reach a
    panel builds its terms x nodes matrix, keyed by the bytes of the log t
    that ``integrate_to_one`` hands it (a function of the panel alone, graded
    panels included), and every later row reads it, so the 100 rows of
    report-default take 27 exps, not 2,700, and each norm is the one-row
    call's bit for bit.  A row stops once two passes of its panels agree, 27
    panels for a row of geometric:1,2,16 at p = 2 (passes at depths 24 and
    25, each with its closing panel), and the refusal past u = 2**-53 comes
    on the first row, so once per call.  The scaling bounds the largest
    |a_j|, not |f|: a row whose |f|**p overflows a panel (sixteen 1s at
    p = 400) is refused, not reported as inf.  Faster forms of that route
    with identical outputs, the term loop of each row as one array reduction
    and rows batched on each panel, stay parked on peak memory (ROADMAP.md
    items 1 and 2).  A zero norm is -inf.
    """
    a = _coefficient_matrix(seq, coeffs)
    lam = seq.exponents[:a.shape[1]]
    _check_p(p)
    if not isinstance(mu, Lebesgue):
        return _node_log_norms(*node_log_powers(mu, lam, p), a, p)
    logs, sharpness, lam = [], p * max(lam[-1], 1.0), np.array(lam)
    low_power = _grading_power(lam, p)
    exps = _pow2_exponents(a)
    # a scaled row's |f| is at most its number of terms n, so |f|**p can overflow
    # only where n**p comes within a factor e of the float range; only there do the
    # rows run where an overflow raises, as numpy's errstate slows each ufunc call
    guard = np.errstate(over="raise") if p * math.log(a.shape[1]) > LOG_FLOAT_MAX - 1.0 \
        else contextlib.nullcontext()
    # each panel's monomials, keyed by the bytes of its log t (exact, graded
    # panels included), built on the first row that reaches it and shared by the rest
    panels: dict[bytes, np.ndarray] = {}

    def monomials(log_t: np.ndarray) -> np.ndarray:
        key = log_t.tobytes()
        powers = panels.get(key)
        if powers is None:
            powers = panels[key] = np.exp(log_powers(log_t, lam))
        return powers

    try:
        with guard:
            for row, e in zip(np.ldexp(a, -exps[:, None]).tolist(), exps.tolist()):
                val = integrate_to_one(
                    lambda log_t, b=row: np.abs(_eval_poly_array(b, monomials(log_t))) ** p,
                    sharpness, low_power=low_power)
                if math.isnan(val):
                    raise ValueError(f"the quadrature of |f|**{p:g} is NaN")
                logs.append(math.log(val) * (1.0 / p) + e * _LOG2 if val > 0.0 else -math.inf)
    except FloatingPointError:
        raise ValueError(f"|f|**p at p = {p:g} overflows the float range on the Lebesgue "
                         "panels") from None
    return np.array(logs)


def _pow2_exponents(a: np.ndarray) -> np.ndarray:
    """e per row of a, with the row's largest |a_j| in [2**(e-1), 2**e): the
    ``frexp`` exponent, 0 for an all-zero row.  Scaling a row by 2**-e is
    exact (bar entries 2**1022 below its largest, far under one ulp of f)."""
    return np.frexp(np.abs(a).max(axis=-1, initial=0.0))[1]


def _coefficient_matrix(seq: ExponentSequence, coeffs) -> np.ndarray:
    """``coeffs`` as a float vectors x terms matrix of 1..len(seq) finite terms."""
    a = np.array(coeffs, dtype=float)
    if a.ndim != 2:
        raise ValueError("coefficients must be a vectors x terms matrix")
    if a.shape[1] == 0:
        raise ValueError("polynomial needs at least one coefficient")
    if a.shape[1] > len(seq):
        raise ValueError("more coefficients than exponents")
    if not np.isfinite(a).all():
        raise ValueError("coefficients must be finite")
    return a


def l2_norm_gram(seq: ExponentSequence, coeffs) -> np.ndarray:
    """Exact L2(dt) norm sqrt(a^T G a) of sum_j a_j t**lam_j, G the monomial Gram, for
    every row a of the vectors x terms matrix ``coeffs``, each on a scaled by its own
    2**-e (``_pow2_exponents``), so no form under- or overflows; the root is scaled
    back by 2**e, exactly, and is inf only past the float range."""
    a = _coefficient_matrix(seq, coeffs)
    e = _pow2_exponents(a)
    a = np.ldexp(a, -e[:, None])
    forms = (a[:, None, :] @ _cauchy_gram(np.array(seq.exponents[:a.shape[1]]))
             @ a[:, :, None])[:, 0, 0]
    with np.errstate(over="ignore"):
        return np.ldexp(np.sqrt(np.maximum(forms, 0.0)), e)


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
    """min and max of the sampled ratios over all rows, how many random rows
    there were (``trials``, as asked), and (min, max) over the canonical rows
    alone (``canonical``)."""

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
    numerators are the exact Gram forms of ``l2_norm_gram``; at every other
    p, ``log_lp_norms`` on the nodes of ``DensityMeasure()``, one terms x nodes
    matrix, so only p < 1 and p * lam past the float range are refused.  The
    denominators are one array expression up to the 1/p root, which each
    row takes as a float.  Warns when ``classify`` flags the prefix's ratio
    trend as non-lacunary, where the bracket may degenerate.
    """
    _check_p(p)
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")
    n_count = len(seq) if n_count is None else n_count
    if not 1 <= n_count <= len(seq):
        raise ValueError(f"n_count {n_count} out of range 1..{len(seq)}")
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
        norms = l2_norm_gram(seq, coeffs)
    else:
        logs = log_lp_norms(seq, coeffs, DensityMeasure(), p)
        norms = np.array([materialize(v) for v in logs.tolist()])
    sums = np.sum(np.abs(coeffs) ** p / (p * lam + 1.0), axis=1)
    # a float root: numpy's vectorised power can differ from it in the last bit
    ratios = norms / np.array([s ** (1.0 / p) for s in sums.tolist()])
    return RatioBracket(float(ratios.min()), float(ratios.max()), trials,
                        (float(ratios[:n_count].min()), float(ratios[:n_count].max())))
