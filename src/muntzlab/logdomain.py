"""Log-domain scalars and reproducible compensated summation.

Quantities of the form t**lam appear throughout the package with lam as
large as 1e38 and positions t exponentially close to 1.  Any fixed-exponent
float representation of such a term underflows, so every series in the
package is accumulated on logarithms and materialized only at the end.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# exp() overflows just above this; matrix builders flush below -LOG_HUGE.
LOG_HUGE = 709.0


class NeumaierSum:
    """Running compensated sum (Kahan-Babuska variant).

    Summation order is whatever order ``add`` is called in; callers fix the
    order themselves to get bit-reproducible results.
    """

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def total(self) -> float:
        # an infinite term turns the compensation into inf - inf = nan
        return self._s if math.isinf(self._s) else self._s + self._c


@dataclass(frozen=True, slots=True)
class LogValue:
    """A nonnegative real stored as its natural logarithm plus a zero flag.

    ``log`` is ignored when ``is_zero`` is set.  Multiplication adds logs,
    addition goes through a stable log-sum-exp, so chains of operations on
    terms like t**lam never leave the representable range.
    """

    log: float = 0.0
    is_zero: bool = False

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(0.0, True)

    @staticmethod
    def one() -> "LogValue":
        return LogValue(0.0)

    @staticmethod
    def from_float(x: float) -> "LogValue":
        if math.isnan(x) or x < 0.0:
            raise ValueError(f"LogValue requires a nonnegative real, got {x!r}")
        if x == 0.0:
            return LogValue.zero()
        return LogValue(math.log(x))

    @staticmethod
    def from_log(log: float) -> "LogValue":
        if math.isnan(log):
            raise ValueError("LogValue log magnitude is NaN")
        if log == -math.inf:
            return LogValue.zero()
        return LogValue(log)

    def to_float(self) -> float:
        """Materialize; overflows to inf and underflows to 0.0 like exp."""
        if self.is_zero:
            return 0.0
        if self.log > LOG_HUGE:
            return math.inf
        return math.exp(self.log)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __mul__(self, other: "LogValue") -> "LogValue":
        if self.is_zero or other.is_zero:
            return LogValue.zero()
        return LogValue(self.log + other.log)

    def __truediv__(self, other: "LogValue") -> "LogValue":
        if other.is_zero:
            raise ZeroDivisionError("division by LogValue zero")
        if self.is_zero:
            return LogValue.zero()
        return LogValue(self.log - other.log)

    def __add__(self, other: "LogValue") -> "LogValue":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        hi, lo = (self.log, other.log) if self.log >= other.log else (other.log, self.log)
        return LogValue(hi + math.log1p(math.exp(lo - hi)))

    def powf(self, exponent: float) -> "LogValue":
        if self.is_zero:
            if exponent <= 0.0:
                raise ValueError("0 raised to a nonpositive power")
            return LogValue.zero()
        return LogValue(self.log * exponent)

    def _key(self) -> float:
        return -math.inf if self.is_zero else self.log

    def __lt__(self, other: "LogValue") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "LogValue") -> bool:
        return self._key() <= other._key()


def log_sum(logs: Sequence[float]) -> float:
    """log(sum(exp(l) for l in logs)), stable, in the given order.

    Entries equal to -inf are allowed (they contribute nothing); the sum of
    an empty or all-(-inf) sequence is -inf.  The maximum is factored out
    and the mantissa sum is compensated, so the result is reproducible for
    a fixed input order.
    """
    m = -math.inf
    for l in logs:
        if l > m:
            m = l
    if m == -math.inf:
        return -math.inf
    acc = NeumaierSum()
    for l in logs:
        acc.add(math.exp(l - m))
    return m + math.log(acc.total)


def logsumexp(logs, axis: int | None = None):
    """log(sum(exp(logs))) along ``axis`` of an array, or over all of it.

    The vectorised counterpart of ``log_sum``: the maximum of each slice is
    factored out before numpy's (pairwise, fixed-order) sum, and a slice
    that is empty or all -inf gives -inf.  Returns a float for axis=None.
    """
    a = np.asarray(logs, dtype=float)
    m = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
    m = np.where(m == -np.inf, 0.0, m)
    scaled = a - m
    np.exp(scaled, out=scaled)
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(scaled, axis=axis, keepdims=True)) + m
    return float(out.item()) if axis is None else np.squeeze(out, axis=axis)


def signed_logsumexp(logs, signs, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """(log|s|, sign(s)) of s = sum(signs * exp(logs)) along ``axis``.

    The signed counterpart of ``logsumexp``: each slice is shifted by its
    largest log before the signed terms are summed, so a sum far below the
    float range keeps its logarithm.  A slice that is empty, all -inf or
    cancels exactly gives (-inf, 0).
    """
    a = np.asarray(logs, dtype=float)
    m = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
    m = np.where(m == -np.inf, 0.0, m)
    s = np.sum(np.sign(signs) * np.exp(a - m), axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(s)) + m
    return np.squeeze(log_abs, axis=axis), np.squeeze(np.sign(s), axis=axis)
