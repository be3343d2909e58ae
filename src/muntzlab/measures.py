"""Finite positive measures on [0,1) and their structural functionals.

Supported variants: Lebesgue, finite atomic lists, built-in densities and
interval restrictions of these.  Every measure is represented by one set
of quadrature nodes in u = 1 - t with log weights (``measure_nodes``):
atoms are stored as delta = 1 - x, never as x, so x = 1 - 1e-30 keeps full
precision (x itself would round to 1.0, the forbidden point t = 1), and the
other measures get panels in u.  Each weight is formed as a log where it is
made, so none underflows while its log is representable.  Integrals of the
monomials t**lam_j (moments, L^p norms, D_n, the p = 2 node factor) take
the terms x nodes matrix lam_j log t_k, contiguous along the nodes, and
the log weights from one builder, ``node_log_powers``: nodes sized by
p * lam_max toward t = 1 and graded toward t = 0 by one rule
(``_grading_power``): the smallest non-integer s among p * lam_j and
lam_j - lam_0 adds ceil(40 / (1 + s)) panels, and none are added when
all of them are integers.  Closed forms (Lebesgue moments, the Poisson
integral of a density reaching t = 1) stay as the exact special cases they
are.  The one other quadrature, ``integrate_to_one`` for Lebesgue L^p
norms, deepens its dyadic panels toward t = 1 pass by pass until the
closing panel is negligible or two passes agree, and refuses exponents past
its float panels' edge u = 2**-53 itself.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np

from .logdomain import LogValue, NeumaierSum, _exp_shifted, logsumexp

GL_ORDER = 24
DEFAULT_REL_TOL = 1e-12
_MAX_DEPTH = 53


# ---------------------------------------------------------------------------
# panel quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gauss_jacobi(alpha: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss nodes on [0,1] for the weight s**alpha, alpha > -1, their
    weights and the logs of those weights (Golub-Welsch on the Jacobi
    polynomials P^(0,alpha) of x = 2s - 1; alpha = 0 is Gauss-Legendre)."""
    k = np.arange(1, GL_ORDER)
    c = 2.0 * k + alpha
    diag = np.concatenate([[alpha / (alpha + 2.0)], alpha ** 2 / (c * (c + 2.0))])
    off = 2.0 * k * (k + alpha) / (c * np.sqrt(c * c - 1.0))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    head = vecs[0]
    norm = float(np.sum(head ** 2)) * (alpha + 1.0)
    return 0.5 * (x + 1.0), head ** 2 / norm, 2.0 * np.log(np.abs(head)) - math.log(norm)


@lru_cache(maxsize=1)
def _gl_nodes() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The GL_ORDER-point Gauss-Legendre rule on [-1, 1], weights and log
    weights: ``_gauss_jacobi(0.0)`` mapped from [0, 1]."""
    s, w, log_w = _gauss_jacobi(0.0)
    return 2.0 * s - 1.0, 2.0 * w, log_w + math.log(2.0)


def _gl_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> float:
    """Gauss-Legendre rule for f(log t) over the panel [lo, hi] in u = 1 - t."""
    x, w, _ = _gl_nodes()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(np.dot(w, f(np.log1p(-(mid + half * x)))))


def _grading_power(lam: np.ndarray, p: float) -> float | None:
    """The grading power toward t = 0 of integrands built from t**lam_j at
    power p: the smallest non-integer among p * lam_j and lam_j - lam_0
    (lam_0 the smallest), None when all are integers."""
    if not lam.size:
        return None
    with np.errstate(over="ignore"):  # p * lam past the float range is inf, refused later
        powers = np.concatenate([p * lam, lam - lam.min()])
    frac = powers[powers != np.floor(powers)]
    return float(frac.min()) if frac.size else None


def _graded_edges(low_power: float | None, hi: float) -> np.ndarray | None:
    """Panel edges in t that grade [0, hi / 2] toward t = 0, or None.

    t**s with s not an integer is not smooth at t = 0, where one
    Gauss-Legendre panel on [0, hi / 2] misses up to 5e-5 of its integral
    (Schwab, Computing 53, 1994).  For such an s (``_grading_power``), the
    panel is split into K = ceil(40 / (1 + s)) panels on t in
    hi * [2**-(k+1), 2**-k], k = 1..K, and a closing panel on
    [0, hi * 2**-(K+1)], which holds about 2**-40 of the integral.  An integer
    s (or none) keeps the one panel.
    """
    if low_power is None or float(low_power).is_integer():
        return None
    count = math.ceil(40.0 / (1.0 + low_power))
    return hi * np.concatenate([[0.0], 2.0 ** -np.arange(count + 1, 0.0, -1.0)])


def _gl_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and log weights on the panels between ``edges``,
    one row per panel: the log half-width plus the rule's log weight."""
    x, _, log_w = _gl_nodes()
    left, right = edges[:-1, None], edges[1:, None]
    half = 0.5 * (right - left)
    return 0.5 * (left + right) + half * x, np.log(half) + log_w


def _first_depth(sharpness: float) -> int:
    """The depth in halvings of u to which panels first refine toward t = 1
    for ``sharpness``: log2(sharpness) + 8, at least 12."""
    if not math.isfinite(sharpness):
        raise ValueError(f"node sharpness must be finite, got {sharpness} "
                         "(p * lam beyond the float range?)")
    return max(12, int(math.log2(max(sharpness, 1.0))) + 8)


def integrate_to_one(f: Callable[[np.ndarray], np.ndarray], sharpness: float,
                     low_power: float | None = None) -> float:
    """Integrate g over [0, 1] on dyadic panels in u = 1 - t refined toward u = 0.

    The float quadrature of Lebesgue L^p norms; f receives log t = log1p(-u)
    at the nodes and returns g there.  Panel j covers u in [2**-j, 2**(1-j)]
    and a closing panel [0, 2**-depth], so no node is t = 1.  The first
    depth is ``_first_depth`` of ``sharpness`` (a for t**a).  A pass ends
    with the total of the running compensated sum and its closing panel; it
    is the last when the closing panel holds at most DEFAULT_REL_TOL of that
    total, or when the total agrees with the previous pass's to
    DEFAULT_REL_TOL relative, so a closing panel that its rule already
    takes exactly is not split again.  Otherwise the next pass adds 16
    panels, up to depth _MAX_DEPTH = 53, to the running sum, so no panel is
    evaluated twice; a smooth integrand ends after its second pass.  One
    whose scale in u is finer than ``sharpness`` says deepens until two
    passes agree, as long as the first pass's nodes see it (t**(2**40) at
    sharpness 1 reads 0 after one pass).  A first depth past _MAX_DEPTH
    (sharpness 2**46 = 7.0e13 or more) is refused before any panel: the
    package's one exponent edge.  A non-integer ``low_power``
    (``_grading_power``) grades panel 1 toward t = 0, with log t of t itself.
    """
    depth = _first_depth(sharpness)
    if depth > _MAX_DEPTH:
        raise ValueError(
            f"p * lam = {sharpness:.3e} needs Lebesgue panels below u = 2**-{_MAX_DEPTH}, the "
            "edge of the float quadrature (a uniform density takes the node route)")
    # previous is the last pass's total; the first pass agrees with no NaN
    acc, right, summed, previous = NeumaierSum(), 1.0, 0, math.nan
    graded = _graded_edges(low_power, 1.0)
    while True:
        for j in range(summed + 1, depth + 1):
            left = 2.0 ** (-j)
            if j == 1 and graded is not None:
                t, log_w = _gl_panels(graded)
                for t_k, log_w_k in zip(t, log_w):
                    acc.add(float(np.dot(np.exp(log_w_k), f(np.log(t_k)))))
            else:
                acc.add(_gl_panel(f, left, right))
            right = left
        summed = depth
        closing = _gl_panel(f, 0.0, right)
        trial = copy.copy(acc)
        trial.add(closing)
        total = trial.total
        scale = DEFAULT_REL_TOL * max(abs(total), 1e-300)
        if abs(closing) <= scale or abs(total - previous) <= scale or depth >= _MAX_DEPTH:
            return total
        previous = total
        depth = min(_MAX_DEPTH, depth + 16)


# ---------------------------------------------------------------------------
# measure variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    """Point mass at x = 1 - delta, delta in (0, 1]."""

    delta: float
    mass: float

    def __post_init__(self) -> None:
        if not 0.0 < self.delta <= 1.0:
            raise ValueError(f"atom delta must be in (0,1], got {self.delta}")
        if not self.mass > 0.0:
            raise ValueError(f"atom mass must be positive, got {self.mass}")


@dataclass(frozen=True)
class AtomicMeasure:
    """Finite list of atoms, held sorted by ascending position.

    An empty atom list (zero total mass) is legal only as the result of a
    restriction; ``is_empty`` flags it.
    """

    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.atoms, key=lambda a: -a.delta))
        deltas = [a.delta for a in ordered]
        if len(set(deltas)) != len(deltas):
            raise ValueError("atom positions must be distinct")
        object.__setattr__(self, "atoms", ordered)

    @property
    def is_empty(self) -> bool:
        return not self.atoms

    @cached_property
    def _deltas(self) -> np.ndarray:
        return np.array([a.delta for a in self.atoms])

    @cached_property
    def _masses(self) -> np.ndarray:
        return np.array([a.mass for a in self.atoms])

    @cached_property
    def _log_masses(self) -> np.ndarray:
        return np.log(self._masses)

    @cached_property
    def _log_x(self) -> np.ndarray:
        # log(x_k) = log1p(-delta_k); -inf for an atom at 0
        with np.errstate(divide="ignore"):
            return np.log1p(-self._deltas)


@dataclass(frozen=True)
class Lebesgue:
    """Lebesgue measure dt on [0,1]."""


_DENSITY_FAMILIES = ("uniform", "oneminus_power")


@dataclass(frozen=True)
class DensityMeasure:
    """Built-in density g dt on [0,1), written in u = 1 - t.

    uniform:         g = scale
    oneminus_power:  g = scale * u**alpha, alpha > -1
    """

    name: str
    scale: float = 1.0
    alpha: float = 0.0

    def __post_init__(self) -> None:
        if self.name not in _DENSITY_FAMILIES:
            raise ValueError(f"unknown density family {self.name!r}; have {_DENSITY_FAMILIES}")
        if not self.scale > 0.0:
            raise ValueError("density scale must be positive")
        if self.name == "oneminus_power" and not self.alpha > -1.0:
            raise ValueError("oneminus_power needs alpha > -1 for finite mass")

    @property
    def exponent(self) -> float:
        """The power of u in g: alpha, or 0 for uniform."""
        return self.alpha if self.name == "oneminus_power" else 0.0

    def log_g(self, u: np.ndarray) -> np.ndarray:
        """log of the density at u = 1 - t, log scale + alpha log u; taking u
        keeps points near t = 1 exact, and the log keeps tiny u from
        underflowing."""
        return math.log(self.scale) + self.exponent * np.log(u)

    def tail_mass(self, eps: float) -> float:
        """mu([1-eps, 1)) in closed form."""
        return self.scale * eps ** (self.exponent + 1.0) / (self.exponent + 1.0)


@dataclass(frozen=True)
class Restriction:
    """base measure restricted to [a, b), base Lebesgue or a density."""

    base: Union[Lebesgue, DensityMeasure]
    a: float
    b: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.a < self.b <= 1.0:
            raise ValueError(f"restriction needs 0 <= a < b <= 1, got [{self.a},{self.b})")


Measure = Union[Lebesgue, AtomicMeasure, DensityMeasure, Restriction]


def atoms(pairs) -> AtomicMeasure:
    """Build a (nonempty) atomic measure from (delta, mass) pairs."""
    atom_list = tuple(Atom(float(d), float(m)) for d, m in pairs)
    if not atom_list:
        raise ValueError("atomic measure needs at least one atom")
    return AtomicMeasure(atom_list)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def moments(mu: Measure, exponents, p: float = 1.0) -> np.ndarray:
    """log of the integral of t**(p * a) against mu, for every a in ``exponents``.

    The one moment kernel.  Lebesgue measure and its restrictions take their
    closed forms, -log(e) and log((b**e - a0**e) / e) for [a0, b) with
    e = p * a + 1; where p * a overflows, log e is log p + log a, since the
    + 1 is then far below rounding.  Every other measure is one log-sum-exp
    of log w + p * a * log t over the nodes of ``node_log_powers`` for the
    exponents p * a: its exponents x nodes matrix summed in place along the
    nodes, the exact atom sum for atoms.  Those nodes need p * a in the
    float range, so a larger one is refused.  A zero moment (an empty
    restriction) is -inf.
    """
    lam = np.asarray(exponents, dtype=float)
    if not np.all(np.isfinite(lam)):
        raise ValueError("moment exponents must be finite")
    if not np.all(lam >= 0.0):
        raise ValueError(f"moment exponents must be >= 0, got min {lam.min()}")
    with np.errstate(over="ignore"):
        a = p * lam
    big = np.isinf(a)
    log_big = math.log(p) + np.log(lam[big]) if big.any() else 0.0  # log e where p * a overflows
    if isinstance(getattr(mu, "base", mu), Lebesgue):
        # log((b**e - a0**e) / e) on [a0, b), arranged for large exponents
        a0, b = (mu.a, mu.b) if isinstance(mu, Restriction) else (0.0, 1.0)
        e = a + 1.0
        log_e = np.log1p(a)
        log_e[big] = log_big
        diff = e * math.log(b) if b < 1.0 else np.zeros_like(e)
        if a0 > 0.0:
            with np.errstate(invalid="ignore"):  # inf - inf where e is inf, set below
                diff += np.log1p(-np.exp(e * math.log(a0) - diff))
        if b < 1.0:
            # e * log b without e; a0**e is then far below b**e
            with np.errstate(over="ignore"):
                diff[big] = p * (lam[big] * math.log(b))
        return -(log_e - diff)  # -log e on [0, 1), with its sign of zero
    if big.any():
        raise ValueError("moment exponents must be finite (p * lam beyond the float range?)")
    terms, log_w = node_log_powers(mu, a)
    terms += log_w
    return _exp_shifted(terms, 1)[0]


def _cauchy_gram(lam: np.ndarray) -> np.ndarray:
    """Lebesgue Gram of the monomials t**lam_j: 1 / (lam_i + lam_j + 1), the
    moments of their products."""
    return 1.0 / (lam[:, None] + lam[None, :] + 1.0)


def moment(mu: Measure, a: float) -> LogValue:
    """Integral of t**a against mu: ``moments`` at the one exponent a.  Only
    perfbench reads it (ROADMAP.md item 1 moves it to ``moments``)."""
    return LogValue.from_log(float(moments(mu, [a])[0]))


def _atoms_within(mu: AtomicMeasure, a: float, b: float) -> np.ndarray:
    """Mask of the atoms of mu in [a, b), in the order of ``mu.atoms`` (and of
    its ``measure_nodes``), decided on delta: 1 - b < delta <= 1 - a.  The
    position 1 - delta rounds to 1.0 for delta < 2**-53, so a test on it
    would drop such an atom from every restriction."""
    return (1.0 - b < mu._deltas) & (mu._deltas <= 1.0 - a)


def restrict(mu: Measure, a: float, b: float) -> Measure:
    """Restriction mu|[a,b).  Atomic restrictions may come back empty."""
    if not 0.0 <= a < b <= 1.0:
        raise ValueError(f"restriction needs 0 <= a < b <= 1, got [{a},{b})")
    if isinstance(mu, AtomicMeasure):
        kept = _atoms_within(mu, a, b)
        return AtomicMeasure(tuple(at for at, keep in zip(mu.atoms, kept) if keep))
    if isinstance(mu, Restriction):
        lo, hi = max(a, mu.a), min(b, mu.b)
        if lo >= hi:
            return AtomicMeasure(())
        return Restriction(mu.base, lo, hi)
    return Restriction(mu, a, b)


def tail_mass(mu: Measure, eps: float) -> float:
    """mu([1-eps, 1)) for eps in (0, 1]."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"eps must be in (0,1], got {eps}")
    cut = 1.0 - eps
    if isinstance(mu, Lebesgue):
        return eps
    if isinstance(mu, AtomicMeasure):
        if mu.is_empty:
            return 0.0
        return float(mu._masses[mu._deltas <= eps].sum())
    if isinstance(mu, DensityMeasure):
        return mu.tail_mass(eps)
    if isinstance(mu, Restriction):
        lo = max(mu.a, cut)
        if lo >= mu.b:
            return 0.0
        if isinstance(mu.base, Lebesgue):
            return mu.b - lo
        return mu.base.tail_mass(1.0 - lo) - mu.base.tail_mass(1.0 - mu.b)
    raise TypeError(f"not a measure: {mu!r}")


# the eps of every vanishing profile: 1, 1/2, ..., 2**-40
_EPS_GRID = tuple(2.0 ** -k for k in range(41))


@dataclass(frozen=True)
class SublinearReport:
    """sup over eps of mu([1-eps,1)) / eps, with the profile behind it.

    ``vanishing_profile`` holds (eps, mu([1-eps,1)) / eps) at eps = 2**-k,
    k = 0..40.  ``exact`` is True for atomic measures, where the supremum is
    attained at an atom's delta and enumerated exactly; otherwise the
    reported norm is the maximum over that grid, a lower bound for the true
    supremum.
    """

    norm_s: float
    attaining_epsilon: float
    vanishing_profile: tuple[tuple[float, float], ...]
    exact: bool


def _sublinear_sup(mu: Measure, lo: float, hi: float) -> tuple[float, float]:
    """(sup, an eps attaining it) of mu([1-eps,1)) / eps over eps in [lo, hi].

    For atoms the ratio falls between deltas, so it is taken at lo (when
    positive) and at the deltas in the window, on one compensated running
    tail in order of delta: exact.  Otherwise it is taken at the
    ``_EPS_GRID`` points in the window, then at hi and lo (when positive),
    the first of equal ratios winning: exact for Lebesgue measure and the
    densities, where the ratio is monotone in eps, and a lower bound for a
    restriction.
    """
    if isinstance(mu, AtomicMeasure):
        # a massless stop at lo, after the atoms at lo, reads the tail there
        walk = [(at.delta, at.mass) for at in mu.atoms] + ([(lo, 0.0)] if lo > 0.0 else [])
        best, best_eps = 0.0, hi
        running = NeumaierSum()
        for delta, mass in sorted(walk, key=lambda stop: stop[0]):
            if delta > hi:
                break
            running.add(mass)
            if delta >= lo and running.total / delta > best:
                best, best_eps = running.total / delta, delta
        return best, best_eps
    eps = [e for e in _EPS_GRID if lo <= e <= hi] + [e for e in (hi, lo) if e > 0.0]
    ratio, best_eps = max(((tail_mass(mu, e) / e, e) for e in eps), key=lambda pair: pair[0])
    return ratio, best_eps


def sublinear_norm(mu: Measure) -> SublinearReport:
    """The sublinear norm of mu and its vanishing profile (``SublinearReport``)."""
    profile = tuple((e, tail_mass(mu, e) / e) for e in _EPS_GRID)
    norm_s, attaining = _sublinear_sup(mu, 0.0, 1.0)
    return SublinearReport(norm_s, attaining, profile, isinstance(mu, AtomicMeasure))


def windowed_sublinear_sup(mu: Measure, lo: float, hi: float) -> float:
    """sup of mu([1-eps,1)) / eps over eps in [lo, hi], 0 <= lo <= hi <= 1.

    The routine behind ``sublinear_norm``, so over [0, 1] it is norm_s to
    the last bit: exact for atoms, Lebesgue measure and the densities, a
    lower bound for a restriction.
    """
    if not 0.0 <= lo <= hi <= 1.0 or hi == 0.0:
        raise ValueError(f"window needs 0 <= lo <= hi <= 1 and hi > 0, got [{lo}, {hi}]")
    return _sublinear_sup(mu, lo, hi)[0]


@dataclass(frozen=True)
class PoissonResult:
    """Integral of 1/(1-t) against mu; ``divergent`` wins over ``value``."""

    value: LogValue | None
    divergent: bool


def poisson_integral(mu: Measure) -> PoissonResult:
    """Integral of 1/(1-t) against mu, exact on every branch.

    A measure reaching t = 1 has density scale * u**alpha near u = 1 - t = 0
    (alpha = 0 for Lebesgue), so the integral over [a, 1) is the closed form
    scale * (1-a)**alpha / alpha, divergent when alpha <= 0.  Atoms and
    restrictions ending at b < 1 sum w/u over ``measure_nodes``, where
    u >= 1 - b is bounded away from 0.
    """
    if isinstance(mu, AtomicMeasure) or isinstance(mu, Restriction) and mu.b < 1.0:
        log_t, log_w = measure_nodes(mu, sharpness=1.0)
        log_val = logsumexp(log_w - np.log(-np.expm1(log_t)))
        return PoissonResult(LogValue.from_log(log_val), False)
    base, lo = (mu.base, mu.a) if isinstance(mu, Restriction) else (mu, 0.0)
    density = DensityMeasure("uniform") if isinstance(base, Lebesgue) else base
    alpha = density.exponent
    if alpha <= 0.0:
        return PoissonResult(None, True)
    log_val = math.log(density.scale) + alpha * math.log1p(-lo) - math.log(alpha)
    return PoissonResult(LogValue.from_log(log_val), False)


def _log_poisson_kernel(log_t: np.ndarray, log_w: np.ndarray, s: np.ndarray,
                        u_s: np.ndarray, power: float) -> np.ndarray:
    """log of sum_k w_k (1 - s t_k)**(-power) for each s, from the log
    weights and u_s = 1 - s: the inner integral of ``hilbert.prop511_value``
    on the nodes of mu.

    1 - s t is formed as u_s + s u_t with u_t = 1 - t, so neither factor
    loses precision near s = 1 or t = 1.
    """
    base = np.asarray(u_s)[..., None] + np.multiply.outer(s, -np.expm1(log_t))
    return logsumexp(log_w - power * np.log(base), axis=-1)


def measure_nodes(mu: Measure, sharpness: float,
                  low_power: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(log t, log w) pairs so that integral f dmu ~= sum exp(log w_i) f(t_i).

    The one node generator; each log weight is formed where it is made.
    Atoms map to themselves (log t = log1p(-delta), the cached log masses).
    Lebesgue, densities and their restrictions to [a, b) get Gauss-Legendre
    panels in u = 1 - t: log t = log1p(-u), log w = log half-width + the
    rule's log weight + log scale + alpha log u, and no node is t = 1.  The
    panels halve toward u = 1 - b until finer than 1/sharpness of the
    support and than 1 - b, but no finer than the float spacing at 1 - b;
    the closing panel is Gauss-Jacobi for the density's u**alpha where it
    reaches u = 0 (exact where that is singular), Gauss-Legendre otherwise.
    A non-integer ``low_power`` (``_grading_power``) grades the panel next
    to t = 0 toward it, in t, when the support starts there.
    """
    depth = _first_depth(sharpness)
    if isinstance(mu, AtomicMeasure):
        return mu._log_x.copy(), mu._log_masses.copy()
    if isinstance(mu, (Lebesgue, DensityMeasure)):
        lo, hi, base = 0.0, 1.0, mu
    elif isinstance(mu, Restriction):
        lo, hi, base = mu.a, mu.b, mu.base
    else:
        raise TypeError(f"not a measure: {mu!r}")
    density = base if isinstance(base, DensityMeasure) else DensityMeasure("uniform")
    u_end = 1.0 - hi
    if u_end > 0.0:
        # u**alpha and 1/u vary on the scale u_end near the right end, and a panel
        # narrower than the float spacing at u_end would have zero weight
        scale = int(math.log2((hi - lo) / u_end))
        depth = min(max(depth, scale + 8), max(1, scale + 52))
    edges = u_end + (hi - lo) * 2.0 ** -np.arange(depth, -1.0, -1.0)
    graded = _graded_edges(low_power, hi) if lo == 0.0 else None
    if graded is not None:
        edges = edges[:-1]  # the panel t in [0, hi / 2] is graded below
    u, log_w = (v.ravel() for v in _gl_panels(edges))
    log_w += density.log_g(u)
    # closing panel [u_end, edges[0]]: Gauss-Jacobi(0) is Gauss-Legendre; a
    # Gauss-Jacobi(alpha) rule holds the factor u**alpha in its weights
    alpha = density.exponent if u_end == 0.0 else 0.0
    s, _, log_ws = _gauss_jacobi(alpha)
    eps = edges[0] - u_end
    u_close = u_end + eps * s
    log_w_close = (log_ws + (alpha + 1.0) * math.log(eps) + math.log(density.scale)
                   + (density.exponent - alpha) * np.log(u_close))
    log_t, log_w = np.log1p(-np.concatenate([u_close, u])), np.concatenate([log_w_close, log_w])
    if graded is None:
        return log_t, log_w
    # built in t: near t = 0, 1 - u has lost the digits of t
    t, log_wt = (v.ravel() for v in _gl_panels(graded))
    log_wt += density.log_g(1.0 - t)
    return np.concatenate([log_t, np.log(t)]), np.concatenate([log_w, log_wt])


def node_log_powers(mu: Measure, lam, p: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """The terms x nodes matrix lam_j log t_k and the log weights log w_k of
    mu for integrands built from the monomials t**lam_j at power p: the one
    builder behind ``moments``, ``lpnorm``, the D_n node route and the p = 2
    node factor, C-contiguous along the nodes.  The nodes of
    ``measure_nodes`` are sized by p * lam_max and graded toward t = 0 by
    ``_grading_power``; p * lam past the float range is refused.
    """
    lam = np.asarray(lam, dtype=float)
    log_t, log_w = measure_nodes(mu, sharpness=p * float(lam.max(initial=0.0)),
                                 low_power=_grading_power(lam, p))
    return log_powers(log_t, lam), log_w


def log_powers(log_t: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """log(t_k**lam_j), row j and column k; t**0 = 1 also at t = 0."""
    with np.errstate(invalid="ignore"):  # 0 * -inf at t = 0, zeroed below
        out = np.multiply.outer(exponents, log_t)
    out[exponents == 0.0] = 0.0
    return out
