"""Two extremal constructions separating boundedness and compactness across p.

Both place atoms at x_n = 1 - log(n)/lam_n over a rapidly growing exponent
sequence with lam_2 = 1 and lam_n = n**gamma * lam_{n-1}:

  A: gamma = p+1,          masses c_n = n**p * log(n) / lam_n
  B: gamma = p*max(p,p'),  masses c_n = n**p / (lam_n * log(n))

Construction A breaks the monomial test at exponent p while passing it for
every q > p; construction B keeps the diagonal-domination values decaying
at p itself.  Generators take the equality form of the growth condition
(the extremal admissible case), so the checks run at the constructions'
boundary.  Exponents blow up fast (count = 20 at p = 1 reaches ~1e38);
everything downstream stays in the log domain.

The module returns numbers only, for the CLI to decide (``cli._decide``): the
monomial tests M_n(q) from ``measures.moments`` on the atoms, and closed-form
brackets of them that read neither the atoms nor the instance's exponents.  Each
instance is built one index past the reported range, so every reported index
has its right neighbour, the largest term its monomial test would otherwise miss.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .logdomain import LOG_FLOAT_MAX, logsumexp
from .measures import Atom, AtomicMeasure, moments
from .sequences import ExponentSequence, generate_recursive_power

_FIRST_INDEX = 2
_MIN_LOG10 = -290.0  # atoms keep plain-float deltas and masses above this


@dataclass(frozen=True)
class ExampleInstance:
    label: str
    p: float
    gamma: float
    seq: ExponentSequence      # lam_n over the reported indices and one index past them
    mu: AtomicMeasure          # one atom per exponent of seq, in index order
    n_range: tuple[int, ...]   # the reported construction indices, 2 .. len(seq)


def build_example(label: str, p: float, count: int) -> ExampleInstance:
    """Construction ``label`` at p with ``count`` reported indices, fewer where lam_n
    would pass 1e306, an atom's delta or mass fall below 1e-290 or its mass pass the
    float range, and the atom one index past."""
    if label not in ("A", "B"):
        raise ValueError(f"label must be 'A' or 'B', got {label!r}")
    if count < 3:
        raise ValueError(f"count must be >= 3, got {count}")
    if label == "A":
        if p < 1.0:
            raise ValueError("construction A needs p >= 1")
        gamma = p + 1.0
    else:
        if not p > 1.0:
            raise ValueError("construction B needs p > 1")
        gamma = p * max(p, p / (p - 1.0))

    grown = generate_recursive_power(1.0, _FIRST_INDEX, gamma, count + 1)  # lam_2 = 1
    lams: list[float] = []
    atoms: list[Atom] = []
    for n, lam in enumerate(grown, start=_FIRST_INDEX):
        log_lam = math.log(lam)
        log_n = math.log(n)
        log_delta = math.log(log_n) - log_lam
        log_c = p * log_n + (1.0 if label == "A" else -1.0) * math.log(log_n) - log_lam
        if min(log_delta, log_c) < _MIN_LOG10 * math.log(10.0) or log_c > LOG_FLOAT_MAX:
            break
        lams.append(lam)
        atoms.append(Atom(delta=math.exp(log_delta), mass=math.exp(log_c)))
    if len(lams) < 4:
        raise ValueError("construction collapses below 3 usable indices")
    seq = ExponentSequence(tuple(lams), requested_count=count + 1 if len(lams) <= count else None)
    return ExampleInstance(label=label, p=p, gamma=gamma, seq=seq, mu=AtomicMeasure(tuple(atoms)),
                           n_range=tuple(range(_FIRST_INDEX, _FIRST_INDEX + len(lams) - 1)))


def log_monomial_tests(inst: ExampleInstance, q: float) -> np.ndarray:
    """log M_n(q), M_n(q) = lam_n * integral t**(q lam_n) dmu, per reported n, on the atoms."""
    lam = np.array(inst.seq.exponents[:len(inst.n_range)])
    return np.log(lam) + moments(inst.mu, lam, q)


def _closed_log_lambda(gamma: float, n) -> np.ndarray:
    """log lam_n = gamma log(n! / 2) per index n, the growth rule from lam_2 = 1 summed."""
    return gamma * (np.array([math.lgamma(k + 1.0) for k in n]) - math.log(2.0))


def log_monomial_bracket(inst: ExampleInstance, q: float) -> tuple[np.ndarray, np.ndarray]:
    """(log L_n(q), log U_n(q)) per reported n, closed forms with L_n <= M_n <= U_n,
    which take lam_k and c_k from their formulas in k, not from the instance.

    Atom k's share of M_n(q) is T_{n,k}(q) = lam_n c_k (1 - log k / lam_k)**(q lam_n).
    L_n sums it over k <= n + 1, the atoms every reported index has, and
    U_n = L_n + 2 lam_n c_{n+2} bounds the atoms k >= n + 2 of the infinite
    construction, so of every finite prefix of it.  Each of those terms is at
    most lam_n c_k, since x_k**(q lam_n) <= 1, and the masses fall by half at
    least: by the growth rule lam_{k+1} = (k+1)**gamma lam_k, with gamma >= p + 1
    (A: p + 1; B: p max(p, p') >= 2p),
      c_{k+1} / c_k = ((k+1) / k)**p (k+1)**-gamma l_k
                    <= k**-p (k+1)**-1 l_k <= (1/2) (1/3) log 3 / log 2 = 0.26,
    with l_k = log(k+1) / log k (A) or its inverse (B), at most log 3 / log 2,
    and k**-p / (k+1) l_k falling in k >= 2 at p >= 1.  So
    sum_{k >= n+2} c_k <= c_{n+2} sum_j 2**-j = 2 c_{n+2}, and
    log(lam_n c_{n+2}) = p log(n+2) +- log log(n+2) - gamma (log(n+1) + log(n+2)).
    """
    n_rep = len(inst.n_range)
    k = np.arange(_FIRST_INDEX, _FIRST_INDEX + n_rep + 1, dtype=float)  # 2 .. N + 1
    log_lam = _closed_log_lambda(inst.gamma, k)
    lam, sign = np.exp(log_lam), (1.0 if inst.label == "A" else -1.0)
    log_c = inst.p * np.log(k) + sign * np.log(np.log(k)) - log_lam
    with np.errstate(over="ignore"):  # q lam_n log x_k past the float range is -inf
        terms = log_lam[:n_rep, None] + log_c + q * lam[:n_rep, None] * np.log1p(-np.log(k) / lam)
    terms[k[None, :] > k[:n_rep, None] + 1.0] = -math.inf  # only k <= n + 1
    log_lower = logsumexp(terms, axis=1)
    n = k[:n_rep]
    log_tail = (math.log(2.0) + inst.p * np.log(n + 2.0) + sign * np.log(np.log(n + 2.0))
                - inst.gamma * (np.log(n + 1.0) + np.log(n + 2.0)))
    return log_lower, np.logaddexp(log_lower, log_tail)


def atom_power_products(inst: ExampleInstance) -> tuple[float, ...]:
    """n * x_n**lam_n per reported n, from the atoms; tends to 1 along the
    construction.  The measure holds its atoms by ascending position, which
    is the index order."""
    return tuple(n * math.exp(lam * math.log1p(-at.delta))
                 for n, lam, at in zip(inst.n_range, inst.seq, inst.mu.atoms))


def atom_power_floors(inst: ExampleInstance) -> tuple[float, ...]:
    """exp(-log(n)**2 / (lam_n - log n)) per reported n, closed forms with
    floor <= n * x_n**lam_n <= 1: with y = log n / lam_n < 1,
    -y / (1 - y) <= log(1 - y) <= -y, times lam_n, plus log n."""
    log_n = np.log(np.array(inst.n_range, dtype=float))
    lam = np.exp(_closed_log_lambda(inst.gamma, inst.n_range))
    return tuple(np.exp(-log_n ** 2 / (lam - log_n)).tolist())
