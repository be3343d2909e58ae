"""The diagonal-domination sequence D_n(p) and the operator bounds it yields.

D_n(p)**p integrates w_n**(-1/p) t**lam_n times the (p-1) power of the full
weighted monomial series against the measure.  Everything is accumulated in
the log domain.  The exact p = 2 moment route truncates its inner series
with a guarded rule (a floor below which no cutoff is accepted, then a
decreasing-term relative test); the general route sums the whole prefix at
every node of the measure in one log-sum-exp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logdomain import LogValue, log_sum, logsumexp
from .measures import (AtomicMeasure, Lebesgue, Measure, log_powers, measure_nodes,
                       moment)
from .sequences import ExponentSequence

_CUTOFF_FLOOR = 5  # no inner-series cutoff before this many terms past the peak guard


@dataclass(frozen=True)
class WeightScheme:
    """Weight w_n for the coefficient space: 1/lam_n or 1/(p*lam_n + 1)."""

    kind: str  # "inverse_lambda" | "classical"
    p: float

    def __post_init__(self) -> None:
        if self.kind not in ("inverse_lambda", "classical"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if not self.p >= 1.0:
            raise ValueError(f"p must be >= 1, got {self.p}")

    def log_inv_weight(self, lam: float) -> float:
        """log of w**(-1) = lam or p*lam + 1."""
        if self.kind == "inverse_lambda":
            if not lam > 0.0:
                raise ValueError("inverse_lambda weights need positive exponents")
            return math.log(lam)
        return math.log(self.p * lam + 1.0)

    def log_inv_weight_root(self, lam: float) -> float:
        """log of w**(-1/p)."""
        return self.log_inv_weight(lam) / self.p


@dataclass(frozen=True)
class TruncationInfo:
    cutoff: int          # last inner index summed; general route: last any node needs at tol
    tail_ratio: float    # (first omitted term) / sum, or (last term) / sum when unsafe
    safe: bool           # False when the prefix ended before the series settled


@dataclass(frozen=True)
class DnProfile:
    values: tuple[float, ...]
    weight: WeightScheme
    truncation: tuple[TruncationInfo, ...]

    def __post_init__(self) -> None:
        assert all(v >= 0.0 for v in self.values)

    @property
    def all_safe(self) -> bool:
        return all(t.safe for t in self.truncation)


def _log_series_with_cutoff(term_log_fn, count: int, tol: float, floor: int) -> tuple[float, TruncationInfo]:
    """Sum exp(term_log_fn(k)) for k = 0.. with the guarded cutoff rule.

    Stops after index K (>= floor) as soon as the next term is both below
    tol * partial_sum and smaller than the current term.  Runs of the full
    available range mark the result unsafe unless the last term is already
    below tol * sum.
    """
    logs: list[float] = []
    partial = -math.inf
    prev = math.inf
    for k in range(count):
        cur = term_log_fn(k)
        if k >= 1 and k - 1 >= floor:
            if cur < math.log(tol) + partial and cur < prev:
                tail_ratio = math.exp(cur - partial) if partial > -math.inf else 0.0
                return partial, TruncationInfo(cutoff=k - 1, tail_ratio=tail_ratio, safe=True)
        logs.append(cur)
        partial = log_sum(logs)
        prev = cur
    safe = partial == -math.inf or (prev < math.log(tol) + partial)
    tail = 0.0 if partial == -math.inf else math.exp(min(prev - partial, 0.0))
    return partial, TruncationInfo(cutoff=count - 1, tail_ratio=tail if not safe else 0.0, safe=safe)


def compute_dn(seq: ExponentSequence, mu: Measure, weight: WeightScheme,
               n_count: int | None = None, tol: float = 1e-12,
               route: str = "auto") -> DnProfile:
    """D_n(p) for n = 0..n_count-1.

    Routes: p == 1 reduces to a single moment; p == 2 with atomic or
    Lebesgue measures sums the exact double series of moments; any other
    case evaluates the inner weighted series at each measure node and
    integrates.  route="general" forces the last path (the two routes are
    cross-checked against each other in the tests).  Inner sums run over
    the whole stored prefix of ``seq``, so the prefix must extend beyond
    n_count for trustworthy tails.
    """
    if route not in ("auto", "general"):
        raise ValueError(f"route must be 'auto' or 'general', got {route!r}")
    n_count = len(seq) if n_count is None else n_count
    if not 1 <= n_count <= len(seq):
        raise ValueError(f"n_count {n_count} out of range 1..{len(seq)}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    p = weight.p
    lams = seq.exponents
    inv_root = [weight.log_inv_weight_root(l) for l in lams]

    values: list[float] = []
    infos: list[TruncationInfo] = []

    if p == 1.0 and route == "auto":
        for n in range(n_count):
            m = moment(mu, lams[n])
            d = LogValue.from_log(weight.log_inv_weight(lams[n])) * m
            values.append(d.to_float())
            infos.append(TruncationInfo(cutoff=n, tail_ratio=0.0, safe=True))
        return DnProfile(tuple(values), weight, tuple(infos))

    if p == 2.0 and route == "auto" and isinstance(mu, (AtomicMeasure, Lebesgue)):
        mom_cache: dict[int, LogValue] = {}

        def cross_moment(n: int, k: int) -> LogValue:
            key = min(n, k) * len(lams) + max(n, k)
            if key not in mom_cache:
                mom_cache[key] = moment(mu, lams[n] + lams[k])
            return mom_cache[key]

        for n in range(n_count):
            def term(k: int, n=n) -> float:
                m = cross_moment(n, k)
                return -math.inf if m.is_zero else inv_root[n] + inv_root[k] + m.log

            log_d2, info = _log_series_with_cutoff(term, len(lams), tol, n + _CUTOFF_FLOOR)
            values.append(math.exp(0.5 * log_d2) if log_d2 > -math.inf else 0.0)
            infos.append(info)
        return DnProfile(tuple(values), weight, tuple(infos))

    # general route: the inner series at every node of mu, then the outer sum
    log_t, node_w = measure_nodes(mu, sharpness=p * lams[n_count - 1])
    terms = log_powers(log_t, np.array(lams))  # nodes x prefix, updated in place
    terms += np.array(inv_root)
    inner = logsumexp(terms, axis=1)
    # a node at t = 0 with every lam > 0 has only -inf terms; 0 keeps it out of the sums
    inner[inner == -math.inf] = 0.0
    log_tol = math.log(tol)
    last = terms[:, -1] - inner
    safe = bool(np.all(last < log_tol))
    needed = (terms >= (inner + log_tol)[:, None]).any(axis=0)
    info = TruncationInfo(
        cutoff=int(np.flatnonzero(needed).max(initial=0)),
        tail_ratio=0.0 if safe else float(np.exp(last.max())),
        safe=safe)
    head = terms[:, :n_count]
    head += ((p - 1.0) * inner + np.log(node_w))[:, None]
    log_dp = logsumexp(head, axis=0)
    values = [math.exp(v / p) if v > -math.inf else 0.0 for v in log_dp.tolist()]
    return DnProfile(tuple(values), weight, (info,) * n_count)


def decreasing_rearrangement(values) -> tuple[float, ...]:
    """Sorted-nonincreasing copy of a finite list of nonnegative reals."""
    vals = [float(v) for v in values]
    if any(v < 0.0 or not math.isfinite(v) for v in vals):
        raise ValueError("rearrangement needs finite nonnegative values")
    return tuple(sorted(vals, reverse=True))


@dataclass(frozen=True)
class OperatorBounds:
    """Bounds on the weighted synthesis operator derived from a D profile.

    rearranged[k] upper-bounds the (k+2)-nd approximation number on the
    prefix; the limsup proxy is a trailing-window maximum and is an
    estimate, not an asymptotic claim.
    """

    sup_dn: float
    limsup_estimate: float
    window: int
    rearranged: tuple[float, ...]
    nuclear_bound: float
    schatten: dict[float, float] | None  # only for p == 2


def operator_bounds(profile: DnProfile, mu: Measure, seq: ExponentSequence,
                    schatten_r: tuple[float, ...] = (1.0, 2.0, 4.0),
                    window_frac: float = 0.25) -> OperatorBounds:
    vals = profile.values
    window = max(1, int(round(window_frac * len(vals))))
    rearranged = decreasing_rearrangement(vals)
    p = profile.weight.p

    nuclear_terms = []
    for n in range(len(vals)):
        m = moment(mu, p * seq[n])
        lg = profile.weight.log_inv_weight_root(seq[n]) + (m.log / p if not m.is_zero else -math.inf)
        nuclear_terms.append(math.exp(lg) if not m.is_zero else 0.0)
    nuclear = math.fsum(nuclear_terms)

    schatten = None
    if p == 2.0:
        schatten = {}
        for r in schatten_r:
            if not r > 0.0:
                raise ValueError("Schatten order must be positive")
            schatten[r] = math.fsum(v ** r for v in vals) ** (1.0 / r)

    return OperatorBounds(
        sup_dn=max(vals),
        limsup_estimate=max(vals[-window:]),
        window=window,
        rearranged=rearranged,
        nuclear_bound=nuclear,
        schatten=schatten,
    )
