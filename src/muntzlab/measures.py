"""Finite positive measures on [0,1) and their structural functionals.

Supported variants: Lebesgue, finite atomic lists, built-in densities with
panel quadrature, and interval restrictions of these.  Atoms are stored as
delta = 1 - x, never as x, so positions like x = 1 - 1e-30 keep full
precision (x itself would round to 1.0 and the mass would silently land on
the forbidden point t = 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Union

import numpy as np

from .logdomain import LogValue, NeumaierSum, logsumexp

GL_ORDER = 24
DEFAULT_REL_TOL = 1e-12


# ---------------------------------------------------------------------------
# panel quadrature
# ---------------------------------------------------------------------------

@lru_cache(maxsize=8)
def _gl_nodes(order: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


@lru_cache(maxsize=8)
def _gauss_jacobi(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights on [0,1] for the weight s**alpha, alpha > -1
    (Golub-Welsch on the Jacobi polynomials P^(0,alpha) of x = 2s - 1)."""
    k = np.arange(1, GL_ORDER)
    c = 2.0 * k + alpha
    diag = np.concatenate([[alpha / (alpha + 2.0)], alpha ** 2 / (c * (c + 2.0))])
    off = 2.0 * k * (k + alpha) / (c * np.sqrt(c * c - 1.0))
    x, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    w = vecs[0] ** 2
    return 0.5 * (x + 1.0), w / (w.sum() * (alpha + 1.0))


def _gl_panel(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
              order: int = GL_ORDER) -> float:
    x, w = _gl_nodes(order)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    return half * float(np.dot(w, f(mid + half * x)))


def integrate_to_one(f: Callable[[np.ndarray], np.ndarray], sharpness: float,
                     lo: float = 0.0, rel_tol: float = DEFAULT_REL_TOL,
                     max_depth: int = 160) -> float:
    """Integrate f over [lo, 1] on dyadic panels refined toward t = 1.

    The integrand is evaluated only at interior Gauss nodes (never at 1),
    so bounded integrands on [0,1) are fine.  ``sharpness`` is the scale of
    the fastest variation near 1 (for t**a that is a); the panel depth is
    at least log2(sharpness) + 8 and deepens until the closing panel's
    contribution is below rel_tol of the running total.
    """
    if not 0.0 <= lo < 1.0:
        raise ValueError(f"lower bound must be in [0,1), got {lo}")
    depth = min(max(12, int(math.log2(max(sharpness, 1.0))) + 8), max_depth)
    gap = 1.0 - lo
    while True:
        acc = NeumaierSum()
        left = lo
        for j in range(1, depth + 1):
            right = 1.0 - gap * 2.0 ** (-j)
            if right > left:
                acc.add(_gl_panel(f, left, right))
                left = right
        closing = _gl_panel(f, left, 1.0)
        acc.add(closing)
        total = acc.total
        if abs(closing) <= rel_tol * max(abs(total), 1e-300) or depth >= max_depth:
            return total
        depth = min(max_depth, depth + 16)


def integrate_interval(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                       sharpness: float, rel_tol: float = DEFAULT_REL_TOL) -> float:
    """Integrate over [lo, hi]; refines toward 1 only when hi == 1."""
    if hi == 1.0:
        return integrate_to_one(f, sharpness, lo=lo, rel_tol=rel_tol)
    n_panels = 16
    acc = NeumaierSum()
    edges = np.linspace(lo, hi, n_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        acc.add(_gl_panel(f, float(a), float(b)))
    return acc.total


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

    @property
    def x(self) -> float:
        return 1.0 - self.delta


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

    def g(self, u: np.ndarray) -> np.ndarray:
        """Density at u = 1 - t; taking u keeps points near t = 1 exact."""
        return self.scale * np.asarray(u, dtype=float) ** self.exponent

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

def moment(mu: Measure, a: float) -> LogValue:
    """Integral of t**a against mu.

    Exact for Lebesgue (1/(a+1)) and for restrictions of Lebesgue.  Every
    other measure is a log-sum-exp of log w + a log t over ``measure_nodes``
    (in fixed node order), which for atoms is the exact atom sum.
    """
    if a < 0.0:
        raise ValueError(f"moment exponent must be >= 0, got {a}")
    if isinstance(mu, Lebesgue):
        return LogValue.from_log(-math.log1p(a))
    if isinstance(mu, Restriction) and isinstance(mu.base, Lebesgue):
        # (b**(a+1) - a0**(a+1)) / (a+1), arranged for large exponents
        e = a + 1.0
        log_hi = e * math.log(mu.b) if mu.b < 1.0 else 0.0
        if mu.a == 0.0:
            diff = log_hi
        else:
            log_lo = e * math.log(mu.a)
            diff = log_hi + math.log1p(-math.exp(log_lo - log_hi))
        return LogValue.from_log(diff - math.log(e))
    log_t, w = measure_nodes(mu, sharpness=a)
    return LogValue.from_log(logsumexp(np.log(w) + log_powers(log_t, a)))


def total_mass(mu: Measure) -> float:
    return moment(mu, 0.0).to_float()


def restrict(mu: Measure, a: float, b: float) -> Measure:
    """Restriction mu|[a,b).  Atomic restrictions may come back empty."""
    if not 0.0 <= a < b <= 1.0:
        raise ValueError(f"restriction needs 0 <= a < b <= 1, got [{a},{b})")
    if isinstance(mu, AtomicMeasure):
        kept = tuple(at for at in mu.atoms if a <= at.x < b)
        return AtomicMeasure(kept)
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


@dataclass(frozen=True)
class GeometricGrid:
    """eps_max, eps_max*factor, ... down to eps_min."""

    eps_min: float = 2.0 ** -40
    eps_max: float = 1.0
    factor: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.eps_min <= self.eps_max <= 1.0:
            raise ValueError("grid needs 0 < eps_min <= eps_max <= 1")
        if not 0.0 < self.factor < 1.0:
            raise ValueError("grid factor must be in (0,1)")

    def points(self) -> list[float]:
        pts = []
        e = self.eps_max
        while e >= self.eps_min * (1.0 - 1e-12):
            pts.append(e)
            e *= self.factor
        return pts


@dataclass(frozen=True)
class SublinearReport:
    """sup over eps of mu([1-eps,1)) / eps, with the profile behind it.

    ``exact`` is True for atomic measures, where the supremum is attained
    at an atom's delta and enumerated exactly; otherwise the reported norm
    is a grid maximum, a lower bound for the true supremum.
    """

    norm_s: float
    attaining_epsilon: float
    vanishing_profile: tuple[tuple[float, float], ...]
    exact: bool


def sublinear_norm(mu: Measure, grid: GeometricGrid | None = None) -> SublinearReport:
    grid = grid or GeometricGrid()
    profile = tuple((e, tail_mass(mu, e) / e) for e in grid.points())
    if isinstance(mu, AtomicMeasure):
        if mu.is_empty:
            return SublinearReport(0.0, 1.0, profile, True)
        # tail/eps is maximized at a breakpoint eps = delta_k
        best, best_eps = -math.inf, 1.0
        running = NeumaierSum()
        for at in sorted(mu.atoms, key=lambda at: at.delta):
            running.add(at.mass)
            ratio = running.total / at.delta
            if ratio > best:
                best, best_eps = ratio, at.delta
        return SublinearReport(best, best_eps, profile, True)
    best_eps, best = max(profile, key=lambda p: p[1])
    return SublinearReport(best, best_eps, profile, False)


@dataclass(frozen=True)
class PoissonResult:
    """Integral of 1/(1-t) against mu; ``divergent`` wins over ``value``."""

    value: LogValue | None
    divergent: bool
    method: str  # "exact" | "heuristic"


def poisson_integral(mu: Measure) -> PoissonResult:
    if isinstance(mu, Lebesgue):
        return PoissonResult(None, True, "exact")
    if isinstance(mu, Restriction) and mu.b < 1.0 and isinstance(mu.base, Lebesgue):
        val = math.log((1.0 - mu.a) / (1.0 - mu.b))
        return PoissonResult(LogValue.from_float(val), False, "exact")
    if isinstance(mu, AtomicMeasure) or (isinstance(mu, Restriction) and mu.b < 1.0):
        # sum of w / u over the nodes, u = 1 - t bounded away from 0
        log_t, w = measure_nodes(mu, sharpness=1.0)
        log_val = logsumexp(np.log(w) - np.log(-np.expm1(log_t)))
        return PoissonResult(LogValue.from_log(log_val), False, "exact")
    # density reaching t=1: dyadic panel sums decide convergence
    base = mu.base if isinstance(mu, Restriction) else mu
    lo = mu.a if isinstance(mu, Restriction) else 0.0
    fn = lambda t: base.g(1.0 - t) / (1.0 - t)
    gap = 1.0 - lo
    panel_sums = []
    left = lo
    for j in range(1, 51):
        right = 1.0 - gap * 2.0 ** (-j)
        if right > left:
            panel_sums.append(_gl_panel(fn, left, right))
            left = right
    tail = panel_sums[-5:]
    ratios = [b / a for a, b in zip(tail, tail[1:]) if a > 0]
    if not ratios or max(ratios) >= 0.95:
        return PoissonResult(None, True, "heuristic")
    rho = max(ratios)
    total = math.fsum(panel_sums) + panel_sums[-1] * rho / (1.0 - rho)
    return PoissonResult(LogValue.from_float(total), False, "heuristic")


def poisson_kernel_integral(mu: Measure, s: float, power: float) -> float:
    """Integral of (1 - s t)**(-power) against mu, for s in [0,1].

    Closed form for Lebesgue, where s = 1 and power >= 1 diverge to inf.
    Every other measure sums over ``measure_nodes``, with 1 - s t written
    as (1-s) + s*u, u = 1 - t, to keep precision near t = 1; for atoms
    that sum is exact.
    """
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"s must be in [0,1], got {s}")
    if isinstance(mu, Lebesgue):
        if s == 0.0:
            return 1.0
        if s == 1.0 and power >= 1.0:
            return math.inf
        if power == 1.0:
            return -math.log1p(-s) / s
        return ((1.0 - s) ** (1.0 - power) - 1.0) / (s * (power - 1.0))
    log_t, w = measure_nodes(mu, sharpness=1.0 / max(1.0 - s, 1e-15))
    total = logsumexp(np.log(w) - power * np.log((1.0 - s) - s * np.expm1(log_t)))
    return math.inf if total > 709.0 else math.exp(total)


def measure_nodes(mu: Measure, sharpness: float) -> tuple[np.ndarray, np.ndarray]:
    """(log t, weight) pairs so that integral f dmu ~= sum w_i f(t_i).

    Atoms map to themselves (weights = masses, log t = log1p(-delta)).
    Lebesgue, densities and their restrictions get Gauss-Legendre panels
    in u = 1 - t, with log t = log1p(-u) and density weights taken at u,
    so no node lands on t = 1.  Toward u = 0 the panels halve until finer
    than 1/sharpness; the closing panel [0, eps] is a Gauss-Jacobi rule for
    the density's factor u**alpha, exact even where that is singular.  A
    restriction ending below t = 1 gets 16 equal panels.
    """
    if isinstance(mu, AtomicMeasure):
        return mu._log_x.copy(), mu._masses.copy()
    if isinstance(mu, (Lebesgue, DensityMeasure)):
        lo, hi, base = 0.0, 1.0, mu
    elif isinstance(mu, Restriction):
        lo, hi, base = mu.a, mu.b, mu.base
    else:
        raise TypeError(f"not a measure: {mu!r}")
    density = base if isinstance(base, DensityMeasure) else DensityMeasure("uniform")
    xg, wg = _gl_nodes(GL_ORDER)
    if hi < 1.0:
        edges = np.linspace(1.0 - hi, 1.0 - lo, 17)
    else:
        depth = max(12, int(math.log2(max(sharpness, 1.0))) + 8)
        edges = (1.0 - lo) * 2.0 ** -np.arange(depth, -1.0, -1.0)
    left, right = edges[:-1, None], edges[1:, None]
    u = (0.5 * (left + right) + 0.5 * (right - left) * xg).ravel()
    w = (0.5 * (right - left) * wg).ravel() * density.g(u)
    if hi == 1.0:
        eps, alpha = edges[0], density.exponent
        s, ws = _gauss_jacobi(alpha)
        u = np.concatenate([eps * s, u])
        w = np.concatenate([density.scale * eps ** (alpha + 1.0) * ws, w])
    return np.log1p(-u), w


def log_powers(log_t: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """log(t_k**lam_j) for every node k and exponent j; t**0 = 1 also at t = 0."""
    with np.errstate(invalid="ignore"):
        return np.where(exponents == 0.0, 0.0, np.multiply.outer(log_t, exponents))
