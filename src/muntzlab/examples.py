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
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .dnp import WeightScheme, compute_dn
from .logdomain import materialize
from .measures import Atom, AtomicMeasure, moments
from .sequences import ExponentSequence, generate_recursive_power

_FIRST_INDEX = 2
_MIN_LOG10 = -290.0  # atoms keep plain-float deltas and masses above this
# check_example_claims judges a trend on the last _WINDOW values of an instance
_WINDOW = 5
_RATIO_BAND = (0.8, 1.2)   # construction A: M_n(p) / log n
_GROWTH_BAND = (0.5, 2.0)  # construction B: M_n(q) log n / n**(p - q)


@dataclass(frozen=True)
class ExampleInstance:
    label: str
    p: float
    gamma: float
    seq: ExponentSequence
    mu: AtomicMeasure
    n_range: tuple[int, ...]           # construction indices (start at 2)


def build_example(label: str, p: float, count: int) -> ExampleInstance:
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

    grown = generate_recursive_power(1.0, _FIRST_INDEX, gamma, count)  # lam_2 = 1
    lams: list[float] = []
    atoms: list[Atom] = []
    for n, lam in enumerate(grown, start=_FIRST_INDEX):
        log_lam = math.log(lam)
        log_n = math.log(n)
        log_delta = math.log(log_n) - log_lam
        log_c = p * log_n + (1.0 if label == "A" else -1.0) * math.log(log_n) - log_lam
        if min(log_delta, log_c) < _MIN_LOG10 * math.log(10.0):
            break
        lams.append(lam)
        atoms.append(Atom(delta=math.exp(log_delta), mass=math.exp(log_c)))
    if len(lams) < 3:
        raise ValueError("construction collapses below 3 usable indices")
    seq = ExponentSequence(tuple(lams), requested_count=count if len(lams) < count else None)
    return ExampleInstance(label=label, p=p, gamma=gamma, seq=seq, mu=AtomicMeasure(tuple(atoms)),
                           n_range=tuple(range(_FIRST_INDEX, _FIRST_INDEX + len(lams))))


def monomial_test_values(inst: ExampleInstance, q: float) -> tuple[float, ...]:
    """M_n(q) = lam_n * integral t**(q lam_n) dmu over the instance range."""
    logs = moments(inst.mu, inst.seq.exponents, q).tolist()
    return tuple(materialize(math.log(lam) + m) for lam, m in zip(inst.seq, logs))


def atom_power_products(inst: ExampleInstance) -> tuple[float, ...]:
    """n * x_n**lam_n per index; tends to 1 along the construction.  The
    measure holds its atoms by ascending position, which is the index order."""
    vals = []
    for n, lam, at in zip(inst.n_range, inst.seq, inst.mu.atoms):
        vals.append(n * math.exp(lam * math.log1p(-at.delta)))
    return tuple(vals)


@dataclass(frozen=True)
class ClaimCheck:
    name: str
    status: str  # PASS | FAIL | EVIDENCE | UNMET
    data: dict


@dataclass(frozen=True)
class ClaimReport:
    label: str
    p: float
    q_values: tuple[float, ...]
    monomial_tests: dict[float, tuple[float, ...]]
    dn_values: tuple[float, ...] | None
    checks: tuple[ClaimCheck, ...]


def _band_check(name: str, key: str, values, band: tuple[float, float]) -> ClaimCheck:
    """EVIDENCE when the last _WINDOW values lie in ``band``, else FAIL.

    The window must lie in the later half of the instance, the half that
    ``_decreasing_tail`` reads: an instance with fewer than 2 * _WINDOW
    indices is too short to show the trend, so the check is UNMET (missing
    data), whatever its values.
    """
    data = {key: values[-_WINDOW:], "band": band}
    if len(values) < 2 * _WINDOW:
        return ClaimCheck(name, "UNMET", {**data, "note": (
            f"instance too short: a window of {_WINDOW} needs {2 * _WINDOW} indices, "
            f"have {len(values)}")})
    lo, hi = band
    ok = all(lo <= v <= hi for v in values[-_WINDOW:])
    return ClaimCheck(name, "EVIDENCE" if ok else "FAIL", data)


def _decreasing_tail(values) -> bool:
    k = max(2, len(values) // 2)
    tail = values[-k:]
    return all(b < a for a, b in zip(tail, tail[1:]))


def check_example_claims(inst: ExampleInstance, q_list, tol: float = 1e-12) -> ClaimReport:
    """Trend checks for the construction's claimed monomial-test behavior.

    Trend statuses are EVIDENCE when they pass (finite data cannot prove a
    limit) and FAIL when the window breaks; a band check on an
    instance too short for its window is UNMET.  ``tol`` goes to
    ``compute_dn`` for construction B's D_n(p) profile.
    """
    q_values = tuple(float(q) for q in q_list)
    ns = inst.n_range
    tests = {q: monomial_test_values(inst, q) for q in q_values}
    checks: list[ClaimCheck] = []

    prods = atom_power_products(inst)
    late = [(n, v) for n, v in zip(ns, prods) if n >= 10]
    if late:
        ok = all(abs(v - 1.0) <= 0.05 for _, v in late)
        checks.append(ClaimCheck(
            name="atom-power-approaches-1-over-n",
            status="PASS" if ok else "FAIL",
            data={"max_deviation": max(abs(v - 1.0) for _, v in late)}))

    if inst.label == "A":
        if inst.p in q_values:
            ratios = tuple(v / math.log(n) for n, v in zip(ns, tests[inst.p]))
            checks.append(_band_check("monomial-test-at-p-grows-like-log", "window_ratios",
                                      ratios, _RATIO_BAND))
        for q in q_values:
            if q > inst.p:
                vals = tests[q]
                ok = _decreasing_tail(vals)
                checks.append(ClaimCheck(
                    name=f"monomial-test-decays-at-q={q:g}",
                    status="EVIDENCE" if ok else "FAIL",
                    data={"last_values": vals[-_WINDOW:], "final": vals[-1]}))
    else:
        for q in q_values:
            if q < inst.p:
                vals = tests[q]
                scale = tuple(v * math.log(n) / n ** (inst.p - q)
                              for n, v in zip(ns, vals))
                checks.append(_band_check(f"monomial-test-grows-at-q={q:g}", "window_scaled",
                                          scale, _GROWTH_BAND))

    dn_values: tuple[float, ...] | None = None
    if inst.label == "B":
        profile = compute_dn(inst.seq, inst.mu,
                             WeightScheme("inverse_lambda", inst.p), tol=tol)
        dn_values = profile.values
        ok = _decreasing_tail(dn_values)
        checks.append(ClaimCheck(
            name="diagonal-domination-decays-at-p",
            status="EVIDENCE" if ok else "FAIL",
            data={"last_values": dn_values[-_WINDOW:], "final": dn_values[-1],
                  "tails_safe": profile.all_safe}))

    return ClaimReport(
        label=inst.label, p=inst.p, q_values=q_values,
        monomial_tests=tests, dn_values=dn_values, checks=tuple(checks),
    )
