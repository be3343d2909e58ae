"""Evaluation of weighted monomial polynomials and their L^p(mu) norms.

``log_lp_norms`` is the one entry point for norms, validated once per
coefficient matrix.  Its rows, and those of ``gm_ratio_sample``, are
log-domain sums over the terms x nodes matrix of
``measures.node_log_powers``, graded toward t = 0 by
``measures._grading_power`` and refined toward t = 1 at least as far as
p * lam_max asks: ``_node_log_norms`` takes each row on its own support,
one signed log-sum-exp down the terms and one log-sum-exp over the nodes,
monomial rows and sums alike.  The one exception is a row on dt, the value
``DensityMeasure()`` (``Lebesgue()`` returns it), that the float panels take
as they are: nothing to grade toward t = 0, |f|**p within the float range
and p * lam_max below their edge 2**46.  Such a row adds
|f|**p in floats over the dyadic panels of ``measures.integrate_to_one``,
which deepens toward t = 1 one halving a pass until its closing panel is
negligible or two passes agree; each panel's monomials are one exp of
``measures.log_powers`` per call, shared by all its rows (each row still
adds its terms one at a time; that loop as one array reduction, and rows
batched on a panel, stay parked on peak memory, ROADMAP.md item 1), and
each row is scaled by a power of two first, so |f|**p stays near 1.  Every
other row on dt takes the nodes.  The route is keyed on the measure's value,
not on its type, so every spelling of dt takes it alike.  Neither route sees
the kink of |f|**p at a sign change of f when p is not an even integer
(ROADMAP.md item 7).
Every norm refuses p < 1 (``_check_p``) and p * lam past the float range,
which the nodes, in u = 1 - t and in logs, cannot represent; no refusal is
keyed on lam alone.  The random rows of ``gm_ratio_sample`` and of the
diagonal-domination suite come from ``_uniform_rows``, on the standard
library's generator: no module of the package imports ``numpy.random``.
"""
from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_FLOAT_MAX, _signed_log_sum, logsumexp, materialize
from .measures import (_PANEL_EDGE, DensityMeasure, Measure, _cauchy_gram, _grading_power,
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


def _node_log_norms(log_pow: np.ndarray, log_w: np.ndarray, coeffs: np.ndarray,
                    p: float) -> np.ndarray:
    """log ||f||_p of each row of coeffs on the nodes of ``node_log_powers``,
    given its terms x nodes matrix log_pow of lam_j log t_k and the log
    weights log_w.

    Each row takes only its support, from its first to its last nonzero
    coefficient a_j, since the terms outside it add nothing to f.  log|f(t_k)|
    is a signed log-sum-exp down each node's column of log|a_j| + log_pow
    (whole-row operations along the nodes, on that one array, overwritten in
    place), then log ||f||_p**p is one log-sum-exp over the nodes; no step
    leaves the log domain.  An all-zero row is -inf.
    """
    out = np.full(len(coeffs), -math.inf)
    for i in np.flatnonzero(coeffs.any(axis=1)).tolist():
        support = np.flatnonzero(coeffs[i])
        lo, hi = support[0], support[-1] + 1
        a = coeffs[i, lo:hi]
        with np.errstate(divide="ignore"):
            logs = log_pow[lo:hi] + np.log(np.abs(a))[:, None]
        out[i] = logsumexp(log_w + p * _signed_log_sum(logs, a[:, None], axis=0)[0]) / p
    return out


def log_lp_norms(seq: ExponentSequence, coeffs, mu: Measure, p: float) -> np.ndarray:
    """log ||sum_j a_j t**lam_j||_{L^p(mu)} for every row a of ``coeffs``.

    The one entry point for norms, one vector being a one-row matrix.  The
    vectors x terms matrix is checked once (nonempty rows, no more terms
    than exponents, finite entries), and so is p >= 1.  The rows take one
    node set and one terms x nodes matrix (``measures.node_log_powers``,
    which refuses p * lam past the float range), so a norm far below the
    float range (t**1e13 at x = 1/2, t**1000 on [0, 1/2)) keeps its
    logarithm.  Rows on dt (``mu == DensityMeasure()``, however it is spelled)
    take the float quadrature ``integrate_to_one`` instead where its panels
    need no grading toward t = 0 (``_grading_power`` is None), p log n is at
    least 1 below the log of the largest float (n terms, and n**p bounds a
    scaled row's |f|**p), and p * lam_max is below the panels' edge
    ``measures._PANEL_EDGE`` = 2**46.  Every other row on dt
    (geometric:0.01,2,16, sixteen 1s at p = 400, lam = 1e300) takes the nodes.
    On the panels each row is scaled by 2**-e, e the frexp exponent of its
    largest |a_j| (``_pow2_exponents``; 0 for a largest |a_j| in [0.5, 1)),
    and e log 2 is added back to the log norm, so coefficients of 1e-200 or
    1e200 neither underflow nor overflow in |f|**p.  The panels evaluate f
    through ``_eval_poly_array`` on the panel's monomials, one exp of
    ``measures.log_powers`` per panel and call: the first row to reach a
    panel builds its terms x nodes matrix, keyed by the bytes of the log t
    that ``integrate_to_one`` hands it (a function of the panel alone), and
    every later row reads it, so the 100 rows of report-default take 27
    exps, not 2,700, and each norm is the one-row call's bit for bit.  A row
    stops once two passes of its panels agree, 27 panels for a row of
    geometric:1,2,16 at p = 2 (passes at depths 24 and 25, each with its
    closing panel).  Faster forms of that route with identical outputs, the
    term loop of each row as one array reduction and rows batched on each
    panel, stay parked on peak memory (ROADMAP.md items 1 and 2).  A zero
    norm is -inf.
    """
    a = _coefficient_matrix(seq, coeffs)
    lam = np.array(seq.exponents[:a.shape[1]])
    _check_p(p)
    sharpness = p * max(float(lam[-1]), 1.0)  # a float product: inf past the range, no warning
    # a scaled row's |f| is at most its number of terms n, so n**p below the float
    # range bounds |f|**p on the panels
    if not (mu == DensityMeasure() and _grading_power(lam, p) is None
            and p * math.log(a.shape[1]) <= LOG_FLOAT_MAX - 1.0 and sharpness < _PANEL_EDGE):
        return _node_log_norms(*node_log_powers(mu, lam, p), a, p)
    logs, exps = [], _pow2_exponents(a)
    # each panel's monomials, keyed by the bytes of its log t (exact), built on
    # the first row that reaches it and shared by the rest
    panels: dict[bytes, np.ndarray] = {}

    def monomials(log_t: np.ndarray) -> np.ndarray:
        key = log_t.tobytes()
        powers = panels.get(key)
        if powers is None:
            powers = panels[key] = np.exp(log_powers(log_t, lam))
        return powers

    for row, e in zip(np.ldexp(a, -exps[:, None]).tolist(), exps.tolist()):
        val = integrate_to_one(
            lambda log_t, b=row: np.abs(_eval_poly_array(b, monomials(log_t))) ** p, sharpness)
        if math.isnan(val):
            raise ValueError(f"the quadrature of |f|**{p:g} is NaN")
        logs.append(math.log(val) * (1.0 / p) + e * _LOG2 if val > 0.0 else -math.inf)
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
    p, ``_node_log_norms`` on the nodes of ``DensityMeasure()``, one terms x nodes
    matrix (``log_lp_norms`` would send smooth rows on dt to the slower float
    panels), so only p < 1 and p * lam past the float range are refused.  The
    denominators are one array expression up to the 1/p root, which each
    row takes as a float: each row is divided by its largest |a_j| inside the
    sum, (|a_j| / max|a|)**p / q_j, and the root multiplied by that max, so
    the sum keeps a term 1/q_j and never underflows to 0 (p = 1e300).  Warns when ``classify`` flags the prefix's ratio
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
        logs = _node_log_norms(*node_log_powers(DensityMeasure(), lam, p), coeffs, p)
        norms = np.array([materialize(v) for v in logs.tolist()])
    tops = np.abs(coeffs).max(axis=1)
    sums = np.sum((np.abs(coeffs) / tops[:, None]) ** p / (p * lam + 1.0), axis=1)
    # a float root: numpy's vectorised power can differ from it in the last bit
    ratios = norms / np.array([m * s ** (1.0 / p) for m, s in zip(tops.tolist(), sums.tolist())])
    return RatioBracket(float(ratios.min()), float(ratios.max()), trials,
                        (float(ratios[:n_count].min()), float(ratios[:n_count].max())))
