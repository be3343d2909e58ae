"""Exponent sequences: construction, validation and growth classification.

All properties are computed on the stored finite prefix.  Lacunarity,
quasi-geometric bounds and super-lacunary growth are asymptotic notions, so
the classification reports prefix statistics plus a trend label and never
claims anything about the underlying infinite sequence.  The recursive
generator is also the one that grows the constructions of ``examples``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ExponentSequence:
    """Strictly increasing finite prefix of nonnegative exponents."""

    exponents: tuple[float, ...]
    requested_count: int | None = None  # set when a generator truncated early

    def __post_init__(self) -> None:
        exps = tuple(float(v) for v in self.exponents)
        if len(exps) < 1:
            raise ValueError("sequence needs at least one exponent")
        if not all(math.isfinite(v) for v in exps):
            raise ValueError("exponents must be finite")
        if exps[0] < 0.0:
            raise ValueError(f"first exponent must be >= 0, got {exps[0]}")
        for a, b in zip(exps, exps[1:]):
            if not b > a:
                raise ValueError(f"exponents must be strictly increasing ({a} !< {b})")
        object.__setattr__(self, "exponents", exps)

    def __len__(self) -> int:
        return len(self.exponents)

    def __getitem__(self, i: int) -> float:
        return self.exponents[i]

    def __iter__(self):
        return iter(self.exponents)

    @property
    def gap(self) -> float:
        """Smallest consecutive difference on the prefix (inf for length 1)."""
        if len(self.exponents) < 2:
            return math.inf
        return min(b - a for a, b in zip(self.exponents, self.exponents[1:]))

    @property
    def truncated(self) -> bool:
        return self.requested_count is not None and self.requested_count > len(self.exponents)


@dataclass(frozen=True)
class Classification:
    """Prefix ratio statistics of an exponent sequence.

    The smallest and largest consecutive ratio, as floats (``r_inf``,
    ``r_sup``; inf where a ratio is past the float range) and as logs
    (``log_r_inf``, ``log_r_sup``, differences of the exponents' logs, finite
    on every prefix).  On a finite prefix every ratio exceeds 1 and is
    finite, so the prefix is lacunary and quasi-geometric whatever the
    sequence; ``trend_non_lacunary`` is the flag that can tell: it is set
    when the last ratios (``super_lacunary_trend``) decrease step by step,
    beyond rounding, as for (1, 2, 3) or the squares; ``trend_note`` says the
    same in words.  The trend is decided on the log ratios, so a ratio past
    the float range still counts as larger than the one before it.
    """

    r_inf: float
    r_sup: float
    log_r_inf: float
    log_r_sup: float
    super_lacunary_trend: tuple[float, ...]  # last min(5, N-1) consecutive ratios
    ratios_from_index: int  # 1 when the leading exponent is 0, else 0
    trend_note: str
    trend_non_lacunary: bool

    def __post_init__(self) -> None:
        assert self.log_r_inf <= self.log_r_sup


def generate_geometric(lambda0: float, ratio: float, count: int) -> ExponentSequence:
    """lambda0 * ratio**n for n = 0..count-1."""
    if not lambda0 > 0.0:
        raise ValueError(f"lambda0 must be positive, got {lambda0}")
    if not ratio > 1.0:
        raise ValueError(f"ratio must exceed 1, got {ratio}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    values = []
    v = float(lambda0)
    for _ in range(count):
        if not math.isfinite(v):
            break
        values.append(v)
        v *= ratio
    requested = count if len(values) < count else None
    return ExponentSequence(tuple(values), requested_count=requested)


def generate_recursive_power(
    lambda_start: float, start_index: int, exponent_power: float, count: int
) -> ExponentSequence:
    """lambda_{start_index} = lambda_start, then lambda_n = n**gamma * lambda_{n-1}.

    Values blow past float range quickly for large counts; each step is
    decided in logs, so the sequence is truncated and flagged before the
    first value past 1e306, even where n**gamma alone overflows.  A kept
    value is the float product, or exp of its log where only n**gamma
    overflows.  A gamma so small that n**gamma rounds to 1 gives a value that
    is not above the one before it, which ``ExponentSequence`` refuses as
    soon as it appears.
    """
    if not lambda_start > 0.0:
        raise ValueError(f"lambda_start must be positive, got {lambda_start}")
    if start_index < 2:
        raise ValueError(f"start_index must be >= 2, got {start_index}")
    if not exponent_power > 0.0:
        raise ValueError(f"exponent_power must be positive, got {exponent_power}")
    if count < 1:
        raise ValueError(f"count must be positive, got {count}")
    values = [float(lambda_start)]
    for n in range(start_index + 1, start_index + count):
        log_next = math.log(values[-1]) + exponent_power * math.log(n)
        if log_next > math.log(1e306):
            break  # headroom: downstream code forms p * lam and lam_n + lam_k
        try:
            values.append(values[-1] * float(n) ** exponent_power)
        except OverflowError:  # n**gamma alone is past the float range
            values.append(math.exp(log_next))
        if not values[-1] > values[-2]:
            break
    requested = count if len(values) < count else None
    return ExponentSequence(tuple(values), requested_count=requested)


# Steps of the log ratios within this many ulps of max(1, |log lam|) count as
# equal.  A step L_{k+2} - 2 L_{k+1} + L_k carries the rounding of its three
# logs (an ulp each, weighted 1, 2, 1), of the two subtractions before it, and
# of a generated lam: generate_geometric(2.7, 1.5, 3) stores the ratios
# 1.5000000000000002 and 1.5, under an ulp of 1 apart in log.  About 7 ulps.
_LOG_ULPS = 8.0


def _trend(log_ratios: list[float], log_scale: float) -> tuple[str, bool]:
    """(trend_note, trend_non_lacunary) from one comparison of the log ratios;
    ``log_scale`` is the largest |log lam| among the exponents they come from."""
    if len(log_ratios) < 2:
        return "too short for a trend", False
    tol = _LOG_ULPS * math.ulp(max(1.0, log_scale))
    diffs = [b - a for a, b in zip(log_ratios, log_ratios[1:])]
    if all(d > tol for d in diffs):
        return "super-lacunary trend (ratios increasing)", False
    if all(d < -tol for d in diffs):
        return "prefix-lacunary, trend non-lacunary (ratios decreasing toward 1)", True
    return "steady", False


def classify(seq: ExponentSequence) -> Classification:
    """Exact prefix ratios; requires two usable (positive) entries."""
    if len(seq) < 2:
        raise ValueError("classification needs at least two exponents")
    start = 0
    if seq[0] == 0.0:
        start = 1
        if len(seq) < 3:
            raise ValueError("leading exponent 0: need two positive entries for ratios")
    ratios = tuple(seq[i + 1] / seq[i] for i in range(start, len(seq) - 1))
    logs = [math.log(v) for v in seq.exponents[start:]]
    log_ratios = [b - a for a, b in zip(logs, logs[1:])]
    k = min(5, len(ratios))
    note, non_lacunary = _trend(log_ratios[-k:], max(abs(v) for v in logs[-k - 1:]))
    return Classification(
        r_inf=min(ratios),
        r_sup=max(ratios),
        log_r_inf=min(log_ratios),
        log_r_sup=max(log_ratios),
        super_lacunary_trend=ratios[-k:],
        ratios_from_index=start,
        trend_note=note,
        trend_non_lacunary=non_lacunary,
    )


def is_r_lacunary(values, r: float, rel_slack: float = 0.0) -> bool:
    """True when consecutive ratios are all >= r (optionally with slack)."""
    vals = list(values)
    if any(v <= 0 for v in vals):
        return False
    return all(b >= r * a * (1.0 - rel_slack) for a, b in zip(vals, vals[1:]))


def decompose_quasi_lacunary(seq: ExponentSequence, r: float) -> list[ExponentSequence]:
    """Greedy first-fit partition into r-lacunary subsequences.

    Each exponent goes to the first part whose last element e satisfies
    lambda >= r*e.  The union of the parts is the input; the number of
    parts is the greedy count, not a certified minimum.
    """
    if not r > 1.0:
        raise ValueError(f"lacunarity ratio must exceed 1, got {r}")
    parts: list[list[float]] = []
    for lam in seq:
        for part in parts:
            if lam >= r * part[-1] and (part[-1] > 0 or lam > 0):
                part.append(lam)
                break
        else:
            parts.append([lam])
    return [ExponentSequence(tuple(p)) for p in parts]
