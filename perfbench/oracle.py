"""Independent reference values for numbers the report battery prints.

Nothing here calls muntzlab.  Atomic moments, Poisson sums and the frame
Gram spectrum are evaluated in mpmath; the Lebesgue diagonal-domination
profile D_n(p) at integer p is the closed (p-1)-fold sum

    D_n(p)^p = sum_{k_1..k_{p-1}} (lam_n lam_k1 ... )^(1/p) / (lam_n + lam_k1 + ... + 1)

over the whole prefix, a sum of positive terms taken exactly rounded with
math.fsum.  `compare` pairs each number a workload's battery reports with
its reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np

DPS = 40
# atomic terms further than this below the largest one (in log) cannot move a
# 40-digit sum
_LOG_NEGLIGIBLE = 100.0
_ROOTS = {2: np.sqrt, 3: np.cbrt, 4: lambda x: np.sqrt(np.sqrt(x))}


class Reference:
    """Reference functionals for one exponent prefix and one measure.

    ``atoms`` is a list of (delta, mass) pairs, or None for Lebesgue measure.
    """

    def __init__(self, lams: list[float], atoms: list[tuple[float, float]] | None):
        self.lams = [float(v) for v in lams]
        self.atoms = atoms
        self._moments: dict[float, mpmath.mpf] = {}
        if atoms is not None:
            with mpmath.workdps(DPS):
                self._log_x = [mpmath.log1p(-mpmath.mpf(d)) for d, _ in atoms]
                self._mass = [mpmath.mpf(m) for _, m in atoms]
            self._log_x_float = np.log1p(-np.array([d for d, _ in atoms]))

    def moment(self, a: float) -> mpmath.mpf:
        """Integral of t**a against the measure."""
        if a not in self._moments:
            with mpmath.workdps(DPS):
                if self.atoms is None:
                    val = 1 / (mpmath.mpf(a) + 1)
                else:
                    screen = a * self._log_x_float
                    keep = np.nonzero(screen >= screen.max() - _LOG_NEGLIGIBLE)[0]
                    val = mpmath.fsum(self._mass[k] * mpmath.exp(mpmath.mpf(a) * self._log_x[k])
                                      for k in keep)
            self._moments[a] = val
        return self._moments[a]

    def dn(self, p: int, n_count: int) -> list[float]:
        """D_n(p) for n < n_count with weights 1/lam, inner sums over the prefix.

        p = 1 and atomic p = 2 are moment sums; Lebesgue p >= 2 is the
        closed multiple sum in the module docstring.
        """
        lams = self.lams
        if p == 1:
            return [float(lams[n] * self.moment(lams[n])) for n in range(n_count)]
        if self.atoms is not None:
            if p != 2:
                raise ValueError("atomic reference D_n is implemented for p = 1, 2")
            with mpmath.workdps(DPS):
                return [float(mpmath.sqrt(mpmath.fsum(
                    mpmath.sqrt(mpmath.mpf(lams[n]) * lams[k]) * self.moment(lams[n] + lams[k])
                    for k in range(len(lams))))) for n in range(n_count)]
        lam = np.array(lams)
        root = _ROOTS[p](lam)
        prod, total = root, lam
        for _ in range(p - 2):
            prod = np.multiply.outer(prod, root)
            total = np.add.outer(total, lam)
        return [math.fsum((root[n] * prod / (lam[n] + total + 1.0)).ravel().tolist()) ** (1.0 / p)
                for n in range(n_count)]

    def trace(self, n_count: int) -> float:
        """Trace of the p = 2 synthesis Gram: the squared Hilbert-Schmidt norm."""
        with mpmath.workdps(DPS):
            return float(mpmath.fsum(self.lams[n] * self.moment(2.0 * self.lams[n])
                                     for n in range(n_count)))

    def poisson(self) -> float:
        """Integral of 1/(1-t): sum m_k / delta_k.  Also prop511_value(q=2) squared."""
        with mpmath.workdps(DPS):
            return float(mpmath.fsum(mpmath.mpf(m) / d for d, m in self.atoms))

    def frame_sigma(self, n: int) -> tuple[float, float]:
        """(sigma_min, sigma_max) of the normalized monomial Gram of order n."""
        with mpmath.workdps(DPS):
            lam = [mpmath.mpf(v) for v in self.lams[:n]]
            gram = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    gram[i, j] = (mpmath.sqrt((2 * lam[i] + 1) * (2 * lam[j] + 1))
                                  / (lam[i] + lam[j] + 1))
            eig = sorted(mpmath.eigsy(gram, eigvals_only=True))
            return float(mpmath.sqrt(eig[0])), float(mpmath.sqrt(eig[-1]))


@dataclass(frozen=True)
class Item:
    label: str
    reported: float
    reference: float

    @property
    def relerr(self) -> float:
        if not isinstance(self.reported, (int, float)) or not math.isfinite(self.reported):
            return math.inf
        if self.reference == 0.0:
            return abs(self.reported)
        return abs(self.reported - self.reference) / abs(self.reference)


def _schatten(values: list[float], r: float) -> float:
    return math.fsum(v ** r for v in values) ** (1.0 / r)


def compare(workload, atoms, outputs: dict[str, dict]) -> list[Item]:
    """Reported-versus-reference pairs for one battery's per-suite JSON.

    Raises KeyError when a number the list expects is missing from the
    output.
    """
    l0, ratio, count = workload.seq
    lams = [l0 * ratio ** k for k in range(count)]
    ref = Reference(lams, atoms)
    lebesgue = ref if atoms is None else Reference(lams, None)
    m = min(workload.n, count)
    p = int(workload.p)
    items: list[Item] = []

    def data(suite, check):
        for c in outputs[suite]["checks"]:
            if c["name"] == check:
                return c["data"]
        raise KeyError(f"{suite}: no check {check!r}")

    def add(suite, check, key, reference):
        items.append(Item(f"{suite}/{check}/{key}", data(suite, check)[key], reference))

    suites = workload.suites
    if "basis" in suites:
        add("basis", "canonical-vectors-normalized", "min_ratio", 1.0)
        add("basis", "canonical-vectors-normalized", "max_ratio", 1.0)
        dn = lebesgue.dn(p, m)
        window = max(1, int(round(0.25 * m)))
        add("basis", "lebesgue-diagonal-bounded", "sup", max(dn))
        add("basis", "lebesgue-diagonal-bounded", "trailing_max", max(dn[-window:]))
        if workload.p == 2.0 and m == 16:
            lo, hi = lebesgue.frame_sigma(m)
            add("basis", "frame-bracket", "sigma_min", lo)
            add("basis", "frame-bracket", "sigma_max", hi)
    if "diagonal-domination" in suites:
        trace = ref.trace(m)
        add("diagonal-domination", "hilbert-schmidt-equals-trace", "trace", trace)
        add("diagonal-domination", "hilbert-schmidt-equals-trace", "hs_squared", trace)
        dn2 = ref.dn(2, m)
        for r in (1, 2, 4):
            add("diagonal-domination", f"schatten-bound-r={r}", "bound", _schatten(dn2, r))
    if "carleson" in suites:
        tests = [float(lam * ref.moment(workload.p * lam)) for lam in lams]
        add("carleson", "monomial-test-constant", "sup", max(tests))
        add("carleson", "monomial-test-constant", "last", tests[-1])
        for q in workload.q:
            if q > workload.p and atoms is None:
                add("carleson", f"diagonal-profile-finite-q={q:g}", "sup",
                    max(lebesgue.dn(int(q), count)))
        if workload.p == 2.0:
            add("carleson", "synthesis-norm-below-sup-profile", "sup_profile",
                max(ref.dn(2, m)))
    if "compact" in suites:
        dn1 = ref.dn(1, count)
        add("compact", "monomial-test-decay", "first", dn1[count // 2])
        add("compact", "monomial-test-decay", "last", dn1[-1])
        if atoms is not None:
            add("compact", "order-boundedness-integral", "value", ref.poisson())
    if "hs" in suites and atoms is not None:
        pois, trace = ref.poisson(), ref.trace(m)
        add("hs", "kernel-double-integral-matches-poisson", "kernel_sq", pois)
        add("hs", "kernel-double-integral-matches-poisson", "poisson", pois)
        add("hs", "synthesis-hs-below-profile-l2", "hs_squared", trace)
        add("hs", "synthesis-hs-below-profile-l2", "bound",
            math.fsum(v * v for v in ref.dn(2, count)))
        add("hs", "hs-three-way", "hs_synthesis", math.sqrt(trace))
        items.append(Item("hs/hs-three-way/kernel[2]",
                          data("hs", "hs-three-way")["kernel"]["2"], math.sqrt(pois)))
    return items
