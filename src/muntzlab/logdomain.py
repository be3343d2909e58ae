"""Log-domain scalars, log-sum-exp kernels and compensated summation.

Quantities of the form t**lam appear throughout the package with lam as
large as 1e306 and positions t exponentially close to 1.  Any fixed-exponent
float representation of such a term underflows, so every series in the
package is accumulated on logarithms (``logsumexp``, ``signed_logsumexp``)
and materialized only at the end, by ``materialize``: the one place a log
becomes a float.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# the log of the largest float: exp() overflows past it and nowhere below
LOG_FLOAT_MAX = math.log(sys.float_info.max)


def materialize(log: float) -> float:
    """exp(log) as a float: ``math.exp`` itself wherever it is finite, so no
    bit moves; 0.0 at -inf and wherever exp underflows; inf only past
    ``LOG_FLOAT_MAX``, where exp would raise.  A NaN log is refused."""
    if math.isnan(log):
        raise ValueError("log magnitude is NaN")
    return math.inf if log > LOG_FLOAT_MAX else math.exp(log)


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

    ``log`` is ignored when ``is_zero`` is set.  Only ``measures.moment``
    and ``PoissonResult.value`` still return one; everything else keeps a
    plain log and calls ``materialize``.
    """

    log: float = 0.0
    is_zero: bool = False

    @staticmethod
    def from_log(log: float) -> "LogValue":
        if math.isnan(log):
            raise ValueError("LogValue log magnitude is NaN")
        return LogValue(0.0, True) if log == -math.inf else LogValue(log)

    def to_float(self) -> float:
        return 0.0 if self.is_zero else materialize(self.log)


def logsumexp(logs, axis: int | None = None, return_shares: bool = False):
    """log(sum(exp(logs))) along ``axis`` of an array, or over all of it.

    The maximum of each slice is factored out before numpy's (pairwise,
    fixed-order) sum, so terms far outside the float range keep their
    logarithm; a slice that is empty or all -inf gives -inf.  Returns a
    float for axis=None.  With ``return_shares`` it also returns
    exp(logs - result), each term's share of its slice's sum (0 throughout
    a slice that sums to 0), from the same exponentials.
    """
    scaled = np.array(logs, dtype=float)
    if return_shares:
        return _log_shares(scaled, axis), scaled
    return _exp_shifted(scaled, axis)[0]


def _shift_exp(a: np.ndarray, axis: int | None) -> np.ndarray:
    """Overwrite ``a`` with exp(a - m), m the maximum of each slice (0 for an
    all -inf one); return m, kept as a length-1 axis."""
    m = np.max(a, axis=axis, keepdims=True, initial=-np.inf)
    m = np.where(m == -np.inf, 0.0, m)
    a -= m
    np.exp(a, out=a)
    return m


def _exp_shifted(a: np.ndarray, axis: int | None) -> tuple:
    """Overwrite ``a`` with exp(a - m) (``_shift_exp``); return the
    log-sum-exp and the slice sums of the result."""
    m = _shift_exp(a, axis)
    total = np.sum(a, axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        out = np.log(total) + m
    return (float(out.item()) if axis is None else np.squeeze(out, axis=axis)), total


def _log_shares(a: np.ndarray, axis: int | None):
    """``logsumexp(a, axis, return_shares=True)`` that leaves the shares in
    ``a`` itself (a float array or a view of one) instead of in a copy;
    returns the log-sums."""
    out, total = _exp_shifted(a, axis)
    np.divide(a, total, out=a, where=total > 0.0)
    return out


def signed_logsumexp(logs, signs, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """(log|s|, sign(s)) of s = sum(signs * exp(logs)) along ``axis``.

    The signed counterpart of ``logsumexp``: each slice is shifted by its
    largest log before the signed terms are summed, so a sum far below the
    float range keeps its logarithm.  A slice that is empty, all -inf or
    cancels exactly gives (-inf, 0).  ``logs`` is left as it is: the kernel
    ``_signed_log_sum`` works on a copy.
    """
    return _signed_log_sum(np.array(logs, dtype=float), signs, axis)


def _signed_log_sum(a: np.ndarray, signs, axis: int) -> tuple[np.ndarray, np.ndarray]:
    """``signed_logsumexp(a, signs, axis)`` that overwrites ``a`` (a float
    array; ``signs`` broadcasts against it) with the signed terms
    sign * exp(a - m) instead of allocating them: the same operations in the
    same order, so the same bits."""
    m = _shift_exp(a, axis)
    a *= np.sign(signs)
    s = np.sum(a, axis=axis, keepdims=True)
    with np.errstate(divide="ignore"):
        log_abs = np.log(np.abs(s)) + m
    return np.squeeze(log_abs, axis=axis), np.squeeze(np.sign(s), axis=axis)
