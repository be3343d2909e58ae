import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from muntzlab.logdomain import (LogValue, NeumaierSum, log_sum,
                                logsumexp, signed_logsumexp)

finite_pos = st.floats(min_value=1e-150, max_value=1e150)


def test_zero_flag():
    z = LogValue.zero()
    assert z.is_zero and z.to_float() == 0.0
    assert LogValue.from_float(0.0).is_zero
    assert not LogValue.from_float(2.0).is_zero


def test_from_float_rejects_negative():
    with pytest.raises(ValueError):
        LogValue.from_float(-1.0)


@given(finite_pos, finite_pos)
def test_mul_matches_floats(a, b):
    got = (LogValue.from_float(a) * LogValue.from_float(b)).to_float()
    assert got == pytest.approx(a * b, rel=1e-12)


@given(finite_pos, finite_pos)
def test_add_matches_floats(a, b):
    got = (LogValue.from_float(a) + LogValue.from_float(b)).to_float()
    assert got == pytest.approx(a + b, rel=1e-12)


@given(finite_pos)
def test_zero_is_identity_and_absorbing(a):
    v = LogValue.from_float(a)
    assert (v + LogValue.zero()).to_float() == pytest.approx(a)
    assert (v * LogValue.zero()).is_zero


def test_extreme_exponent_products_stay_representable():
    tiny = LogValue.from_log(-1e6)   # t**lam for lam ~ 1e6 / e-scale
    big = LogValue.from_log(4e5)
    prod = tiny * big
    assert prod.log == pytest.approx(-6e5)
    assert prod.to_float() == 0.0  # underflows only at materialization


def test_powf():
    v = LogValue.from_float(9.0)
    assert v.powf(0.5).to_float() == pytest.approx(3.0)
    with pytest.raises(ValueError):
        LogValue.zero().powf(-1.0)


def test_division():
    v = LogValue.from_float(6.0) / LogValue.from_float(2.0)
    assert v.to_float() == pytest.approx(3.0)
    with pytest.raises(ZeroDivisionError):
        LogValue.from_float(1.0) / LogValue.zero()


def test_ordering():
    assert LogValue.zero() < LogValue.from_float(1e-300)
    assert LogValue.from_float(2.0) <= LogValue.from_float(2.0)


def test_log_sum_empty_and_neg_inf():
    assert log_sum([]) == -math.inf
    assert log_sum([-math.inf, -math.inf]) == -math.inf


@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=30))
def test_log_sum_matches_fsum(logs):
    expect = math.fsum(math.exp(l) for l in logs)
    assert log_sum(logs) == pytest.approx(math.log(expect), abs=1e-12)


def test_log_sum_spread_beyond_float_range():
    # the small term is 1e-600 relative: must not perturb, must not crash
    assert log_sum([0.0, -1400.0]) == pytest.approx(0.0, abs=1e-15)
    assert log_sum([-1400.0, -1400.0]) == pytest.approx(-1400.0 + math.log(2.0))


def test_neumaier_recovers_cancellation():
    acc = NeumaierSum()
    for x in [1e16, 1.0, -1e16]:
        acc.add(x)
    assert acc.total == 1.0


def test_neumaier_keeps_infinity():
    acc = NeumaierSum()
    for x in [1.0, math.inf, 2.0]:
        acc.add(x)
    assert acc.total == math.inf


def test_logsumexp_matches_log_sum_along_axes():
    logs = np.array([[0.0, -1400.0, 3.5], [-math.inf, -math.inf, -math.inf]])
    rows = logsumexp(logs, axis=1)
    assert rows[0] == pytest.approx(log_sum(logs[0].tolist()), abs=1e-15)
    assert rows[1] == -math.inf
    assert logsumexp(logs[0]) == pytest.approx(log_sum(logs[0].tolist()), abs=1e-15)
    assert logsumexp(np.empty((0, 3)), axis=0).tolist() == [-math.inf] * 3


def test_signed_logsumexp_below_float_range():
    # rows: 2**-1000 - 2**-1001 (terms below e**-745), an exact cancellation,
    # a negative sum, all -inf
    l2 = math.log(2.0)
    logs = np.array([[-1000 * l2, -1001 * l2], [0.0, 0.0], [0.0, math.log(3.0)],
                     [-math.inf, -math.inf]])
    signs = np.array([[1.0, -1.0], [1.0, -1.0], [1.0, -1.0], [1.0, 1.0]])
    log_abs, sign = signed_logsumexp(logs, signs, axis=1)
    assert log_abs[0] == pytest.approx(-1001 * l2, rel=1e-15)
    assert log_abs[1] == -math.inf and log_abs[3] == -math.inf
    assert log_abs[2] == pytest.approx(math.log(2.0), rel=1e-15)
    assert sign.tolist() == [1.0, 0.0, -1.0, 0.0]
