"""Exact p = 2 spectral computations on truncated operators.

Every p = 2 quantity comes from one node factor V[k, j] = sqrt(w_k) *
t_k**lam_j, formed in the log domain from ``measures.node_log_powers`` (the
one builder of node integrals, with its one grading rule, at p = 2), so
V^T V is the measure Gram of the monomials.  Singular values are those of
V times a small matrix, computed by an SVD: an eigensolve of the squared
Gram would put a noise floor of about sqrt(eps * cond) under them.  The
Cauchy Gram 1/(lam_i + lam_j + 1) of Lebesgue measure enters through its
Cholesky factor (``_cauchy_factor``), factored once per call:
``essential_norm_estimate`` solves every cut's node factor against the same
one (on atoms, one node factor serves every cut).  A failed pivot surfaces
as a ConditioningError naming the index instead of being masked.

Every result is a truncation: it carries N and an N/2 drift diagnostic
rather than claiming a value for the underlying infinite operator.  This
module computes spectra only; comparisons with the D_n(2) profile of
``dnp`` (the chain sigma_{k+1} <= D*_k, the Schatten and Hilbert-Schmidt
bounds) are made by the callers that report them, from a profile they
compute once.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .logdomain import logsumexp, materialize
from .measures import (AtomicMeasure, DensityMeasure, Measure, Restriction, _atoms_within,
                       _cauchy_gram, _log_poisson_kernel, measure_nodes, node_log_powers,
                       poisson_integral, restrict)
from .sequences import ExponentSequence

DEFAULT_TRUNCATION = 16
SCHATTEN_ORDERS = (1.0, 2.0, 4.0)  # every reported Schatten norm, spectra and D_n bounds alike
MAX_TRUNCATION = 64
_FLUSH_LOG = math.log(1e-300)
_S_BLOCK = 64  # s-nodes per block of the s x atoms kernel matrix
# prop511_value's inner nodes for a non-atomic measure halve 16 more times than
# its outer s-nodes, so they resolve the kernel's scale u_s at every outer node
_INNER_REFINE = 2.0 ** 16


class ConditioningError(RuntimeError):
    """Cholesky pivot failure; carries the offending index."""

    def __init__(self, pivot: int, value: float):
        self.pivot = pivot
        self.value = value
        super().__init__(
            f"Cholesky pivot {pivot} is {value:.3e}; the monomial Gram is numerically "
            f"singular at this truncation (exponents too dense or N too large)")


@dataclass(frozen=True)
class SpectralResult:
    operator: str
    n: int
    singular_values: tuple[float, ...]
    schatten: dict[float, float]
    drift: dict[str, float]
    extras: dict = field(default_factory=dict)

    @property
    def sigma_max(self) -> float:
        return self.singular_values[0]


def _check_truncation(seq: ExponentSequence, n: int) -> None:
    if not 1 <= n <= len(seq):
        raise ValueError(f"truncation {n} out of range 1..{len(seq)}")
    if n > MAX_TRUNCATION:
        raise ValueError(f"truncation {n} exceeds the supported maximum {MAX_TRUNCATION}")


def _cauchy_factor(lam: np.ndarray) -> np.ndarray:
    """Cholesky factor L of the Cauchy Gram, G = L L^T."""
    return cholesky_lower(_cauchy_gram(lam))


def _node_factor(seq: ExponentSequence, mu: Measure, n: int) -> tuple[np.ndarray, int]:
    """V[k, j] = sqrt(w_k) * t_k**lam_j on the nodes of mu, j < n, and the
    count of entries set to 0 below the materialization floor 1e-300."""
    _check_truncation(seq, n)
    log_pow, log_w = node_log_powers(mu, seq.exponents[:n], 2.0)
    log_v = log_pow.T + 0.5 * log_w[:, None]
    small = log_v < _FLUSH_LOG
    flushed = int(np.count_nonzero(small & (log_v > -math.inf)))
    return np.where(small, 0.0, np.exp(log_v)), flushed


def _synthesis_factor(seq: ExponentSequence, mu: Measure, n: int) -> tuple[np.ndarray, int]:
    """V diag(sqrt(lam)): the synthesis operator with weights 1/lam."""
    if not seq[0] > 0.0:
        raise ValueError("weights 1/lam need a positive first exponent")
    v, flushed = _node_factor(seq, mu, n)
    return v * np.sqrt(np.array(seq.exponents[:n])), flushed


def cholesky_lower(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    low = np.zeros_like(a)
    for j in range(n):
        d = a[j, j] - float(low[j, :j] @ low[j, :j])
        if not d > 0.0 or not math.isfinite(d):
            raise ConditioningError(pivot=j, value=d)
        low[j, j] = math.sqrt(d)
        if j + 1 < n:
            low[j + 1:, j] = (a[j + 1:, j] - low[j + 1:, :j] @ low[j, :j]) / low[j, j]
    return low


def _embedding(low: np.ndarray, v: np.ndarray, m: int) -> np.ndarray:
    """The embedding V L^-T on the first m monomials, from the node factor V
    and the Cauchy factor L of at least m monomials."""
    return np.linalg.solve(low[:m, :m], v[:, :m].T).T


def _singular_values(a: np.ndarray) -> np.ndarray:
    """All a.shape[1] singular values, nonincreasing; zeros past the row count."""
    s = np.linalg.svd(a, compute_uv=False)
    return np.concatenate([s, np.zeros(a.shape[1] - len(s))])


def _schatten_norms(values) -> dict[float, float]:
    """(sum_k s_k**r)**(1/r) of nonnegative values for every r in ``SCHATTEN_ORDERS``,
    formed as c (sum_k (s_k / c)**r)**(1/r) with c the power of two just above
    max_k s_k, so no power overflows while the norm is finite; dividing by a
    power of two is exact, so the scaling moves no bit where nothing overflows."""
    s = np.asarray(values, dtype=float)
    scale = math.ldexp(1.0, math.frexp(float(s.max(initial=0.0)))[1])
    return {r: scale * float(np.sum((s / scale) ** r)) ** (1.0 / r) for r in SCHATTEN_ORDERS}


def _spectral_result(operator: str, n: int, leading, extras: dict) -> SpectralResult:
    """Spectrum of leading(n), with leading(m) the operator on the first m monomials.

    The drift compares sigma_1 and the Hilbert-Schmidt (Frobenius) norm at
    N and N/2, each norm the Schatten 2-norm of singular values already
    taken, so no square of an entry overflows.
    """
    sigma = _singular_values(leading(n))
    schatten = _schatten_norms(sigma)
    drift = {}
    if n >= 2:
        sigma_half = _singular_values(leading(n // 2))
        drift = {"sigma1_half": float(sigma_half[0]),
                 "sigma1": float(sigma[0]),
                 "hs_half": _schatten_norms(sigma_half)[2.0],
                 "hs": schatten[2.0]}
    return SpectralResult(
        operator=operator,
        n=n,
        singular_values=tuple(float(s) for s in sigma),
        schatten=schatten,
        drift=drift,
        extras=extras,
    )


def embedding_spectrum(seq: ExponentSequence, mu: Measure,
                       n: int = DEFAULT_TRUNCATION) -> SpectralResult:
    """Singular values of the truncated embedding of the monomial span into L2(mu).

    With L the Cholesky factor of the Cauchy Gram, the columns of L^-T are
    an orthonormal basis of the span in L2(dt), so the embedding is V L^-T.
    The leading m x m block of L factors the leading block of the Gram.
    """
    v, flushed = _node_factor(seq, mu, n)
    low = _cauchy_factor(np.array(seq.exponents[:n]))
    return _spectral_result("i_mu_embedding", n, lambda m: _embedding(low, v, m),
                            {"flushed": flushed})


def t_mu_spectrum(seq: ExponentSequence, mu: Measure,
                  n: int = DEFAULT_TRUNCATION) -> SpectralResult:
    """Singular values of the truncated synthesis operator with weights 1/lam.

    The operator is the synthesis factor A = sqrt(w) t**lam_j sqrt(lam_j) on
    the nodes of mu, so its Gram A^T A has the entries sqrt(lam_j lam_k)
    times the integral of t**(lam_j + lam_k) against mu.  extras carries the
    count of flushed factor entries and the trace of the Gram (the squared
    Frobenius norm of the factor), which the Hilbert-Schmidt norm must equal.
    The D_n(2) profile that bounds these singular values is not computed
    here; see ``dnp.compute_dn`` and ``dnp.operator_bounds``.
    """
    a, flushed = _synthesis_factor(seq, mu, n)
    return _spectral_result("t_mu_inverse_lambda", n, lambda m: a[:, :m],
                            {"flushed": flushed, "trace": float(np.sum(a * a))})


@dataclass(frozen=True)
class FrameBounds:
    """Extreme singular values of the normalized monomial Gram."""

    n: int
    sigma_min: float
    sigma_max: float
    singular_values: tuple[float, ...]


def frame_bounds(seq: ExponentSequence, n: int) -> FrameBounds:
    """Square roots of the eigenvalues of the normalized monomial Gram D G D,
    D = diag(sqrt(2 lam + 1)): with G = L L^T, the singular values of D L."""
    _check_truncation(seq, n)
    lam = np.array(seq.exponents[:n])
    low = _cauchy_factor(lam)
    sigma = _singular_values(np.sqrt(2.0 * lam + 1.0)[:, None] * low)
    return FrameBounds(n=n, sigma_min=float(sigma[-1]), sigma_max=float(sigma[0]),
                       singular_values=tuple(float(s) for s in sigma))


@dataclass(frozen=True)
class CutTrend:
    """sigma_1 of the embedding over restrictions to [a_j, 1)."""

    cuts: tuple[float, ...]
    sigma1: tuple[float, ...]
    limit_proxy: float
    drop_factor: float  # first/last, inf when the last value is 0


def essential_norm_estimate(seq: ExponentSequence, mu: Measure, n: int,
                            cut_grid) -> CutTrend:
    """sigma_1 of the embedding of the first n monomials into L2 of each
    restriction of mu to [a, 1), a in ``cut_grid``.

    The Cauchy Gram is factored once for all cuts.  On atoms the nodes of
    every restriction are a subset of mu's own, so the embedding is formed
    once and each cut's sigma_1 is that of the rows of the atoms in [a, 1)
    (the mask ``restrict`` uses).  Every other measure takes one node factor
    per cut, since a restriction's panels are refined toward its own end.
    Only sigma_max is formed, with no N/2 drift or Schatten norms; it equals
    ``embedding_spectrum(seq, restrict(mu, a, 1), n).sigma_max`` exactly.
    """
    cuts = [float(a) for a in cut_grid]
    if any(b <= a for a, b in zip(cuts, cuts[1:])) or not cuts:
        raise ValueError("cut grid must be nonempty and increasing")
    if any(not 0.0 <= c < 1.0 for c in cuts):
        raise ValueError("cuts must lie in [0,1)")
    if isinstance(mu, AtomicMeasure):
        v, _ = _node_factor(seq, mu, n)
        emb = _embedding(_cauchy_factor(np.array(seq.exponents[:n])), v, n)
        sig = [float(_singular_values(emb[_atoms_within(mu, a, 1.0)])[0]) for a in cuts]
    else:
        low, sig = None, []
        for a in cuts:
            v, _ = _node_factor(seq, restrict(mu, a, 1.0), n)
            if low is None:
                # factored after the first node factor, as in embedding_spectrum, so an
                # exponent the nodes refuse is reported before a pivot it breaks
                low = _cauchy_factor(np.array(seq.exponents[:n]))
            sig.append(float(_singular_values(_embedding(low, v, n))[0]))
    drop = math.inf if sig[-1] == 0.0 else sig[0] / sig[-1]
    return CutTrend(tuple(cuts), tuple(sig), limit_proxy=sig[-1], drop_factor=drop)


@dataclass(frozen=True)
class HsReport:
    """Hilbert-Schmidt criteria side by side.

    hs_embedding comes from the embedding spectrum; hs_synthesis is the
    trace-route Hilbert-Schmidt norm of the weighted synthesis operator
    (the one the exact Schatten bound applies to); poisson and the kernel
    double integral are the integral criteria.  ``ratios`` holds the
    pairwise comparisons the equivalences predict to be O(1).
    """

    n: int
    hs_embedding: float
    hs_synthesis: float
    poisson_divergent: bool
    poisson_value: float | None
    kernel_values: dict[float, float]  # q -> double-integral expression
    ratios: dict[str, float | None]
    expected_divergent_note: str | None


def prop511_value(mu: Measure, q: float) -> float:
    """(integral_0^1 (integral dmu(t)/(1-st)^{2/q+1})^{q/2} ds)^{1/q}.

    Both integrals are log-domain sums over ``measure_nodes``: the outer
    one over nodes in u_s = 1 - s, refined toward s = 1 down to the smallest
    atom distance (2**-40 for other measures), the inner one over the nodes
    of mu, with 1 - st formed as u_s + s u_t.  For atoms the inner sum is
    exact, and at q = 2 the square equals the Poisson integral.  A density
    reaching t = 1 as u**alpha makes the outer integrand behave like
    u_s**beta, beta = q*alpha/2 - 1, near s = 1: the outer nodes are those of
    the measure u**beta ds, whose closing panel is the Gauss-Jacobi rule for
    that power, and the integrand is divided by u_s**beta.  The inner nodes
    of a non-atomic mu go 16 halvings deeper than the outer ones, since the
    kernel varies on the scale u_s.  The value is inf when the Poisson
    integral diverges.
    """
    if not q > 0.0:
        raise ValueError(f"q must be positive, got {q}")
    if poisson_integral(mu).divergent:
        return math.inf
    beta = 0.0
    if isinstance(mu, AtomicMeasure):
        sharp = 1.0 / float(np.min(mu._deltas)) if not mu.is_empty else 2.0 ** 40
        log_t, log_w = measure_nodes(mu, sharpness=sharp)
    else:
        sharp = 2.0 ** 40
        log_t, log_w = measure_nodes(mu, sharpness=sharp * _INNER_REFINE)
        if not (isinstance(mu, Restriction) and mu.b < 1.0):
            # a convergent Poisson integral up to t = 1 means a density u**alpha, alpha > 0
            base = mu.base if isinstance(mu, Restriction) else mu
            beta = 0.5 * q * base.exponent - 1.0
    # the nodes of u**beta ds; beta = 0 gives Lebesgue's
    log_s, log_w_s = measure_nodes(DensityMeasure("oneminus_power", alpha=beta), sharpness=sharp)
    s, u_s = np.exp(log_s), -np.expm1(log_s)
    log_outer = np.empty_like(log_s)
    for k in range(0, len(log_s), _S_BLOCK):
        blk = slice(k, k + _S_BLOCK)
        log_outer[blk] = _log_poisson_kernel(log_t, log_w, s[blk], u_s[blk], 2.0 / q + 1.0)
    log_val = logsumexp(log_w_s + 0.5 * q * log_outer - beta * np.log(u_s)) / q
    return materialize(log_val)


def hs_criteria(spec: SpectralResult, tmu: SpectralResult, mu: Measure,
                q_values: tuple[float, ...] = (2.0,)) -> HsReport:
    """The Hilbert-Schmidt criteria of mu beside its truncated spectra.

    ``spec`` and ``tmu`` are ``embedding_spectrum`` and ``t_mu_spectrum`` of
    mu at one truncation N, computed by the caller, which may read them
    elsewhere too.
    """
    if (spec.operator, tmu.operator) != ("i_mu_embedding", "t_mu_inverse_lambda") \
            or spec.n != tmu.n:
        raise ValueError("hs_criteria needs the embedding and synthesis spectra of one N")
    n = spec.n
    pois = poisson_integral(mu)
    kernel = {float(q): prop511_value(mu, q) for q in q_values}
    pois_val = None if pois.divergent else pois.value.to_float()

    def _ratio(num: float, den: float | None) -> float | None:
        if den is None or den == 0.0 or not (math.isfinite(num) and math.isfinite(den)):
            return None
        return num / den

    ratios: dict[str, float | None] = {
        "embedding_over_synthesis": _ratio(spec.schatten[2.0], tmu.schatten[2.0]),
        "embedding_over_sqrt_poisson": _ratio(
            spec.schatten[2.0], None if pois_val is None else math.sqrt(pois_val)),
        "kernel2_sq_over_poisson": None if 2.0 not in kernel
        else _ratio(kernel[2.0] ** 2, pois_val),
    }
    note = None
    if pois.divergent:
        note = ("poisson integral divergent: truncated Hilbert-Schmidt norms "
                "grow with the truncation instead of converging")
    return HsReport(
        n=n,
        hs_embedding=spec.schatten[2.0],
        hs_synthesis=tmu.schatten[2.0],
        poisson_divergent=pois.divergent,
        poisson_value=pois_val,
        kernel_values=kernel,
        ratios=ratios,
        expected_divergent_note=note,
    )
