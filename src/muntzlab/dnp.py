"""The diagonal-domination sequence D_n(p) and the operator bounds it yields.

D_n(p)**p integrates w_n**(-1/p) t**lam_n times the (p-1) power of the
weighted monomial series s(t) = sum_k w_k**(-1/p) t**lam_k against the
measure; s runs over the whole stored prefix.  Everything is accumulated
in the log domain, on one of three routes:

- p = 1: s does not enter, and D_n(1) = w_n**(-1) times one moment.  Every
  n comes from one ``measures.moments`` call.
- p = 2 on a uniform density (``measures.has_closed_form_moments``, dt
  among them): the exact double series sum_k w_n**(-1/2) w_k**(-1/2) times
  the moment of t**(lam_n + lam_k), from one ``moments`` call on the halved
  sums lam_n / 2 + lam_k / 2 (finite up to lam = 1e308), as one n x prefix
  matrix of logs and one log-sum-exp along its rows; faster than nodes.
- every other case (atoms, densities of alpha != 0, uniform densities at
  p != 2): the node route, on the prefix x nodes matrix of
  ``measures.node_log_powers``, the one builder of node integrals.  s at
  every node is one log-sum-exp down its column (whole rows at a time),
  the outer integral one along the nodes, the contiguous axis.  For atoms
  the nodes are the atoms themselves, so at p = 2 this is the exact double
  series, reordered.  The nodes are sized by p * lam of the last prefix
  entry, not of the last n asked for, because the late terms of s live
  that close to t = 1, and graded toward t = 0 by the builder's one rule
  (the smallest non-integer among p * lam_k and lam_k - lam_0).

Both series routes report their truncation the same way (``TruncationInfo``).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .hilbert import _schatten_norms
from .logdomain import _log_shares, logsumexp, materialize
from .measures import Measure, has_closed_form_moments, moments, node_log_powers
from .sequences import ExponentSequence

_WINDOW_FRAC = 0.25  # operator_bounds' limsup proxy: the trailing quarter of the profile


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
        inv = self.p * lam + 1.0
        # past the float range the + 1 is far below rounding
        return math.log(inv) if math.isfinite(inv) else math.log(self.p) + math.log(lam)

    def log_inv_weight_root(self, lam: float) -> float:
        """log of w**(-1/p)."""
        return self.log_inv_weight(lam) / self.p


@dataclass(frozen=True)
class TruncationInfo:
    """How much of D_n**p the finite prefix may leave out, and how much of
    the prefix it needed, by one rule on both series routes of
    ``compute_dn``: the closed-form p = 2 rows on uniform densities, where
    row n of the double series plays the node, and the node route.
      tail_ratio  the estimated relative change of D_n**p if the inner
                  series s ran on past the prefix: (p - 1) times the sum
                  over nodes of the node's share of D_n**p times tau, the
                  node's omitted tail of s over s.  tau extends the last two
                  terms as a geometric series, last * rho / (1 - rho) / s
                  with rho = last / second-to-last, and is 1 where s still
                  grows at the end of the prefix (rho >= 1).  Against mpmath
                  sums over longer prefixes it lies between 1 and 10 times
                  the true change (tests).
      cutoff      the last inner index k whose first-order share of D_n**p,
                  (p - 1) * sum over nodes of the node's share times
                  term_k / s, is at least tol; 0 if none.  The terms past
                  it change D_n**p by less than tol each.
      safe        tail_ratio < tol.
    The p = 1 route has no inner series: tail_ratio 0, cutoff n, safe.
    """

    cutoff: int
    tail_ratio: float
    safe: bool


@dataclass(frozen=True)
class DnProfile:
    """D_n(p) per n: ``log_values`` as the routes compute them, finite where
    D_n underflows (D_n(1) on far atoms), and ``values``, their floats."""

    log_values: tuple[float, ...]
    weight: WeightScheme
    truncation: tuple[TruncationInfo, ...]
    values: tuple[float, ...] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(materialize(v) for v in self.log_values))

    @property
    def all_safe(self) -> bool:
        return all(t.safe for t in self.truncation)


def _log_tail_over_sum(terms: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """log tau per row of ``terms`` (a node, or n on the closed-form p = 2 rows):
    the omitted tail of the row's series over its sum, by a geometric
    extension of the last two terms (see TruncationInfo)."""
    last = terms[:, -1]
    prev = terms[:, -2] if terms.shape[1] > 1 else np.full_like(last, -math.inf)
    with np.errstate(invalid="ignore"):
        log_rho = last - prev  # NaN at a node where both are -inf: nothing omitted
    log_tau = np.where(log_rho >= 0.0, 0.0, -math.inf)
    dec = log_rho < 0.0
    r = log_rho[dec]
    log_tau[dec] = last[dec] - inner[dec] + r - np.log(-np.expm1(r))
    return log_tau


def _log_values_and_truncation(log_dp: np.ndarray, tail: np.ndarray, share: np.ndarray,
                               p: float, tol: float
                               ) -> tuple[tuple[float, ...], tuple[TruncationInfo, ...]]:
    """log D_n and TruncationInfo per n from log D_n**p, the tail estimates
    and the first-order share of D_n**p of every inner term (n x prefix)."""
    needed = share >= tol
    last = needed.shape[1] - 1 - np.argmax(needed[:, ::-1], axis=1)
    cutoffs = np.where(needed.any(axis=1), last, 0)
    logs = tuple(v / p for v in log_dp.tolist())
    infos = tuple(TruncationInfo(cutoff=c, tail_ratio=t, safe=t < tol)
                  for c, t in zip(cutoffs.tolist(), tail.tolist()))
    return logs, infos


def _closed_form_p2_route(lams: np.ndarray, inv_root: np.ndarray, mu: Measure, n_count: int,
                          tol: float) -> tuple[tuple[float, ...], tuple[TruncationInfo, ...]]:
    """The exact double series: row n holds the logs of w_n**(-1/2) w_k**(-1/2)
    times the moment of t**(lam_n + lam_k) over the prefix, from one ``moments``
    call at p = 2 on lam_n / 2 + lam_k / 2, finite where lam_n + lam_k is not."""
    half = lams / 2.0
    terms = inv_root[:n_count, None] + inv_root + moments(mu, half[:n_count, None] + half, 2.0)
    log_d2, share = logsumexp(terms, axis=1, return_shares=True)
    tail = np.exp(_log_tail_over_sum(terms, log_d2))
    return _log_values_and_truncation(log_d2, tail, share, 2.0, tol)


def _node_route(lams: np.ndarray, inv_root: np.ndarray, mu: Measure, p: float,
                n_count: int, tol: float) -> tuple[tuple[float, ...], tuple[TruncationInfo, ...]]:
    terms, log_w = node_log_powers(mu, lams, p)  # prefix x nodes, updated in place
    terms += inv_root[:, None]
    head, last = terms[:n_count].copy(), terms[-2:].T.copy()
    inner = _log_shares(terms, axis=0)  # terms now holds term_k / s per node
    # a node at t = 0 with every lam > 0 has only -inf terms; 0 keeps it out of the sums
    inner[inner == -math.inf] = 0.0
    tau = np.exp(_log_tail_over_sum(last, inner))
    head += (p - 1.0) * inner + log_w
    log_dp = _log_shares(head, axis=1)  # head now holds each node's share of D_n**p
    tail = (p - 1.0) * (head @ tau)
    share = (p - 1.0) * (head @ terms.T)
    return _log_values_and_truncation(log_dp, tail, share, p, tol)


def compute_dn(seq: ExponentSequence, mu: Measure, weight: WeightScheme,
               n_count: int | None = None, tol: float = 1e-12) -> DnProfile:
    """D_n(p) for n = 0..n_count-1, the inner series over the whole prefix.

    The module's three routes, in this order: p = 1 is one vector of moments;
    p = 2 on a uniform density is the exact double series as one n x prefix
    log-sum-exp; every other measure and p, atoms at p = 2 included, takes
    the node route (the inner series at every node of the measure, then the
    outer sum), which the tests cross-check against the other two.  The
    prefix must extend beyond n_count for the tails to settle;
    ``TruncationInfo`` says how far they did, by one tail rule on both series
    routes, and which inner terms mattered at tol.
    """
    n_count = len(seq) if n_count is None else n_count
    if not 1 <= n_count <= len(seq):
        raise ValueError(f"n_count {n_count} out of range 1..{len(seq)}")
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    p = weight.p
    lams = np.array(seq.exponents)
    inv_root = np.array([weight.log_inv_weight_root(l) for l in seq.exponents])

    if p == 1.0:
        logs = tuple(weight.log_inv_weight(l) + m
                     for l, m in zip(seq.exponents, moments(mu, lams[:n_count]).tolist()))
        infos = tuple(TruncationInfo(cutoff=n, tail_ratio=0.0, safe=True)
                      for n in range(n_count))
    elif p == 2.0 and has_closed_form_moments(mu):
        logs, infos = _closed_form_p2_route(lams, inv_root, mu, n_count, tol)
    else:
        logs, infos = _node_route(lams, inv_root, mu, p, n_count, tol)
    return DnProfile(logs, weight, infos)


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
    prefix; the limsup proxy is the maximum over the trailing quarter of the
    profile and is an estimate, not an asymptotic claim.
    """

    sup_dn: float
    limsup_estimate: float
    window: int
    rearranged: tuple[float, ...]
    nuclear_bound: float
    schatten: dict[float, float] | None  # only for p == 2


def operator_bounds(profile: DnProfile, mu: Measure, seq: ExponentSequence) -> OperatorBounds:
    vals = profile.values
    window = max(1, int(round(_WINDOW_FRAC * len(vals))))
    rearranged = decreasing_rearrangement(vals)
    p = profile.weight.p

    lams = seq.exponents[:len(vals)]
    logs = moments(mu, lams, p).tolist()
    nuclear = materialize(logsumexp([profile.weight.log_inv_weight_root(l) + m / p
                                     for l, m in zip(lams, logs)]))

    schatten = None
    if p == 2.0:
        schatten = _schatten_norms(vals)

    return OperatorBounds(
        sup_dn=max(vals),
        limsup_estimate=max(vals[-window:]),
        window=window,
        rearranged=rearranged,
        nuclear_bound=nuclear,
        schatten=schatten,
    )
