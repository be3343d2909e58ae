"""The diagonal-domination sequence D_n(p) and the operator bounds it yields.

D_n(p)**p integrates w_n**(-1/p) t**lam_n times the (p-1) power of the
weighted monomial series s(t) = sum_k w_k**(-1/p) t**lam_k against the
measure; s runs over the whole stored prefix.  Everything is accumulated
in the log domain, on one of three routes:

- p = 1: s does not enter, and D_n(1) = w_n**(-1) times one moment.  Every
  n comes from one ``measures.moments`` call.
- p = 2 on Lebesgue measure: the exact double series
  sum_k w_n**(-1/2) w_k**(-1/2) / (lam_n + lam_k + 1), one row of
  closed-form moments per n, cut off by a guarded rule (a floor below which
  no cutoff is accepted, then a decreasing-term relative test).
- every other case, atoms at p = 2 included: the node route.  s is summed
  at every node of ``measure_nodes`` in one nodes x prefix log-sum-exp, and
  the outer integral is one more log-sum-exp over the nodes.  For atoms the
  nodes are the atoms themselves, so at p = 2 this is the exact double
  series, reordered.  The nodes are sized by p * lam of the last prefix
  entry, not of the last n asked for, because the late terms of s live
  that close to t = 1.

The Lebesgue p = 2 series keeps its own route for now.  Moving it onto one
N x K log-sum-exp as well made the benchmark's stress battery 2.5x faster
in a prototype, but the benchmark keeps every battery's outputs, so its
peak-memory metric grows with the number of batteries a faster run fits
and the speedup reads as a 10.8 % memory regression (ROADMAP item 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logdomain import LogValue, log_sum, logsumexp
from .measures import Lebesgue, Measure, log_powers, measure_nodes, moments
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
    """How much of D_n**p the finite prefix may leave out.

    Node route:
      tail_ratio  the estimated relative change of D_n**p if the inner
                  series s ran on past the prefix: (p - 1) times the sum
                  over nodes of the node's share of D_n**p times tau, the
                  node's omitted tail of s over s.  tau extends the node's
                  last two terms as a geometric series,
                  last * rho / (1 - rho) / s with rho = last / second-to-last,
                  and is 1 where s still grows at the end of the prefix
                  (rho >= 1).  Against mpmath sums over longer prefixes it
                  lies between 1 and 10 times the true change (tests).
      cutoff      the last inner index that any node needs at tol.
      safe        tail_ratio < tol.
    Lebesgue p = 2 series:
      tail_ratio  first omitted term / sum when the cutoff fired; when the
                  prefix ran out, last term / sum if that is not below tol,
                  else 0.
      cutoff      the last inner index summed.
      safe        the cutoff fired, or the last term is below tol * sum.
    p = 1 has no inner series: tail_ratio 0, cutoff n, safe.
    """

    cutoff: int
    tail_ratio: float
    safe: bool


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


def _log_series_with_cutoff(logs: list[float], tol: float, floor: int) -> tuple[float, TruncationInfo]:
    """Sum exp(logs[k]) for k = 0.. with the guarded cutoff rule.

    Stops after index K (>= floor) as soon as the next term is both below
    tol * partial_sum and smaller than the current term.  Runs of the full
    available range mark the result unsafe unless the last term is already
    below tol * sum.
    """
    partial = -math.inf
    prev = math.inf
    for k, cur in enumerate(logs):
        if k >= 1 and k - 1 >= floor:
            if cur < math.log(tol) + partial and cur < prev:
                tail_ratio = math.exp(cur - partial) if partial > -math.inf else 0.0
                return partial, TruncationInfo(cutoff=k - 1, tail_ratio=tail_ratio, safe=True)
        partial = log_sum(logs[:k + 1])
        prev = cur
    safe = partial == -math.inf or (prev < math.log(tol) + partial)
    tail = 0.0 if partial == -math.inf else math.exp(min(prev - partial, 0.0))
    return partial, TruncationInfo(cutoff=len(logs) - 1, tail_ratio=tail if not safe else 0.0,
                                   safe=safe)


def _log_tail_over_sum(terms: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """log tau per node: the omitted tail of the inner series over its sum,
    by a geometric extension of the last two terms (see TruncationInfo)."""
    last = terms[:, -1]
    prev = terms[:, -2] if terms.shape[1] > 1 else np.full_like(last, -math.inf)
    with np.errstate(invalid="ignore"):
        log_rho = last - prev  # NaN at a node where both are -inf: nothing omitted
    log_tau = np.where(log_rho >= 0.0, 0.0, -math.inf)
    dec = log_rho < 0.0
    r = log_rho[dec]
    log_tau[dec] = last[dec] - inner[dec] + r - np.log(-np.expm1(r))
    return log_tau


def _node_route(lams: np.ndarray, inv_root: np.ndarray, mu: Measure, p: float,
                n_count: int, tol: float) -> tuple[tuple[float, ...], tuple[TruncationInfo, ...]]:
    log_t, node_w = measure_nodes(mu, sharpness=p * lams[-1])
    terms = log_powers(log_t, lams)  # nodes x prefix, updated in place
    terms += inv_root
    inner = logsumexp(terms, axis=1)
    # a node at t = 0 with every lam > 0 has only -inf terms; 0 keeps it out of the sums
    inner[inner == -math.inf] = 0.0
    needed = (terms >= (inner + math.log(tol))[:, None]).any(axis=0)
    cutoff = int(np.flatnonzero(needed).max(initial=0))
    log_tau = _log_tail_over_sum(terms, inner)
    head = terms[:, :n_count]
    head += ((p - 1.0) * inner + np.log(node_w))[:, None]
    log_dp = logsumexp(head, axis=0)
    head += log_tau[:, None]
    log_tail = logsumexp(head, axis=0)
    tail = np.zeros(n_count)
    carried = log_dp > -math.inf
    tail[carried] = (p - 1.0) * np.exp(log_tail[carried] - log_dp[carried])
    values = tuple(math.exp(v / p) if v > -math.inf else 0.0 for v in log_dp.tolist())
    infos = tuple(TruncationInfo(cutoff=cutoff, tail_ratio=t, safe=t < tol) for t in tail.tolist())
    return values, infos


def compute_dn(seq: ExponentSequence, mu: Measure, weight: WeightScheme,
               n_count: int | None = None, tol: float = 1e-12,
               route: str = "auto") -> DnProfile:
    """D_n(p) for n = 0..n_count-1, the inner series over the whole prefix.

    route="auto" takes the module's three routes: p = 1 is one vector of
    moments; p = 2 on Lebesgue measure is the exact double series with its
    guarded cutoff; every other measure and p, atoms at p = 2 included,
    takes the node route (the inner series at every node of the measure,
    then the outer sum).  route="general" forces the node route, which the
    tests cross-check against the other two.  The prefix must extend beyond
    n_count for the tails to settle; ``TruncationInfo`` says how far they
    did.
    """
    if route not in ("auto", "general"):
        raise ValueError(f"route must be 'auto' or 'general', got {route!r}")
    n_count = len(seq) if n_count is None else n_count
    if not 1 <= n_count <= len(seq):
        raise ValueError(f"n_count {n_count} out of range 1..{len(seq)}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    p = weight.p
    lams = np.array(seq.exponents)
    inv_root = np.array([weight.log_inv_weight_root(l) for l in seq.exponents])

    if p == 1.0 and route == "auto":
        logs = moments(mu, lams[:n_count]).tolist()
        values = tuple(LogValue.from_log(weight.log_inv_weight(l) + m).to_float()
                       for l, m in zip(seq.exponents, logs))
        infos = tuple(TruncationInfo(cutoff=n, tail_ratio=0.0, safe=True)
                      for n in range(n_count))
    elif p == 2.0 and route == "auto" and isinstance(mu, Lebesgue):
        vals: list[float] = []
        info_list: list[TruncationInfo] = []
        for n in range(n_count):
            row = (inv_root[n] + inv_root + moments(mu, lams[n] + lams)).tolist()
            log_d2, info = _log_series_with_cutoff(row, tol, n + _CUTOFF_FLOOR)
            vals.append(math.exp(0.5 * log_d2) if log_d2 > -math.inf else 0.0)
            info_list.append(info)
        values, infos = tuple(vals), tuple(info_list)
    else:
        values, infos = _node_route(lams, inv_root, mu, p, n_count, tol)
    return DnProfile(values, weight, infos)


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

    lams = seq.exponents[:len(vals)]
    logs = moments(mu, p * np.array(lams)).tolist()
    nuclear = math.fsum(math.exp(profile.weight.log_inv_weight_root(l) + m / p)
                        if m > -math.inf else 0.0 for l, m in zip(lams, logs))

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
