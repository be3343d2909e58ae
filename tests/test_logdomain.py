import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from muntzlab.logdomain import (LOG_FLOAT_MAX, LogValue, NeumaierSum, _signed_log_sum,
                                logsumexp, materialize, signed_logsumexp)


def log_sum(logs):
    """Reference log of sum(exp(logs)): the maximum factored out, the rest
    summed exactly rounded by fsum."""
    m = max(logs, default=-math.inf)
    if m == -math.inf:
        return -math.inf
    return m + math.log(math.fsum(math.exp(l - m) for l in logs))


def test_zero_flag():
    z = LogValue.from_log(-math.inf)
    assert z.is_zero and z.to_float() == 0.0
    assert not LogValue.from_log(math.log(2.0)).is_zero


def test_from_log_refuses_nan():
    with pytest.raises(ValueError, match="LogValue log magnitude is NaN"):
        LogValue.from_log(math.nan)


class TestMaterialize:
    """The one float edge: exp itself up to the largest float, inf only past it."""

    def test_zero_at_minus_inf(self):
        assert materialize(-math.inf) == 0.0

    def test_finite_between_709_and_the_float_edge(self):
        # the old cut at 709.0 read this 1.35e308 as inf
        assert materialize(709.5) == pytest.approx(1.3549863193146328e308, rel=1e-15)
        assert math.isfinite(materialize(LOG_FLOAT_MAX))
        assert LogValue.from_log(709.5).to_float() == materialize(709.5)

    def test_inf_past_the_float_edge(self):
        assert materialize(710.0) == math.inf
        assert materialize(math.nextafter(LOG_FLOAT_MAX, math.inf)) == math.inf
        assert materialize(math.inf) == math.inf

    def test_nan_is_refused(self):
        with pytest.raises(ValueError, match="NaN"):
            materialize(math.nan)

    def test_exactly_exp_from_underflow_to_the_float_edge(self):
        grid = np.linspace(-745.0, 709.78, 20001).tolist() + [LOG_FLOAT_MAX]
        assert [materialize(x) for x in grid] == [math.exp(x) for x in grid]


def test_log_sum_empty_and_neg_inf():
    assert logsumexp([]) == -math.inf
    assert logsumexp([-math.inf, -math.inf]) == -math.inf


@given(st.lists(st.floats(min_value=-50.0, max_value=50.0), min_size=1, max_size=30))
def test_log_sum_matches_fsum(logs):
    expect = math.fsum(math.exp(l) for l in logs)
    assert logsumexp(logs) == pytest.approx(math.log(expect), abs=1e-12)


def test_log_sum_spread_beyond_float_range():
    # the small term is 1e-600 relative: must not perturb, must not crash
    assert logsumexp([0.0, -1400.0]) == pytest.approx(0.0, abs=1e-15)
    assert logsumexp([-1400.0, -1400.0]) == pytest.approx(-1400.0 + math.log(2.0))


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


def test_logsumexp_shares():
    # each term's share of its slice's sum; a slice summing to 0 has none
    logs = np.array([[0.0, -1400.0, 3.5], [-math.inf, -math.inf, -math.inf]])
    rows, shares = logsumexp(logs, axis=1, return_shares=True)
    assert rows.tolist() == logsumexp(logs, axis=1).tolist()
    expect = [math.exp(l - log_sum(logs[0].tolist())) for l in logs[0]]
    assert shares[0].tolist() == pytest.approx(expect, rel=1e-15)
    assert shares[1].tolist() == [0.0, 0.0, 0.0]
    cols, col_shares = logsumexp(logs, axis=0, return_shares=True)
    assert col_shares.tolist() == [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]


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


def test_signed_logsumexp_leaves_its_input_unchanged():
    logs = np.array([[-1000.0, 2.0, -math.inf], [0.5, 0.5, 0.0]])
    kept = logs.copy()
    signed_logsumexp(logs, np.array([1.0, -1.0, 1.0]), axis=1)
    assert np.array_equal(logs, kept)


def test_signed_kernel_in_place_is_the_allocating_formula_bit_for_bit():
    # sign * exp(a - m) summed along the axis, each temporary a new array
    rng = np.random.default_rng(3)
    logs = rng.uniform(-800.0, 5.0, (300, 24))
    logs[:, 5] = -math.inf
    logs[7] = -math.inf
    signs = rng.choice([-1.0, 0.0, 1.0], 24)
    m = np.max(logs, axis=1, keepdims=True, initial=-np.inf)
    m = np.where(m == -np.inf, 0.0, m)
    s = np.sum(np.sign(signs) * np.exp(logs - m), axis=1, keepdims=True)
    with np.errstate(divide="ignore"):
        want = (np.log(np.abs(s)) + m)[:, 0], np.sign(s)[:, 0]
    scratch = logs.copy()
    got = _signed_log_sum(scratch, signs, axis=1)
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()
    assert not np.array_equal(scratch, logs)  # its terms were overwritten
    assert [v.tolist() for v in signed_logsumexp(logs, signs, axis=1)] == \
        [v.tolist() for v in want]
