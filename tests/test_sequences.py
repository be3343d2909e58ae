import math
import warnings

import mpmath
import pytest
from hypothesis import given, strategies as st

from muntzlab.sequences import (ExponentSequence, classify,
                                decompose_quasi_lacunary, generate_geometric,
                                generate_recursive_power, is_r_lacunary)


class TestExponentSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentSequence(())
        with pytest.raises(ValueError):
            ExponentSequence((1.0, 1.0))
        with pytest.raises(ValueError):
            ExponentSequence((2.0, 1.0))
        with pytest.raises(ValueError):
            ExponentSequence((-1.0, 2.0))
        with pytest.raises(ValueError):
            ExponentSequence((0.0, math.inf))

    def test_gap(self):
        assert ExponentSequence((1.0, 3.0, 4.0)).gap == 1.0
        assert ExponentSequence((5.0,)).gap == math.inf


class TestGenerators:
    def test_geometric_direct_powers(self):
        assert generate_geometric(1, 2, 4).exponents == (1.0, 2.0, 4.0, 8.0)
        assert generate_geometric(1000, 300, 3).exponents == (1000.0, 300000.0, 9e7)

    def test_geometric_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_geometric(0.5, 1, 3)
        with pytest.raises(ValueError):
            generate_geometric(-1, 2, 3)
        with pytest.raises(ValueError):
            generate_geometric(1, 2, 0)

    def test_geometric_overflow_truncates(self):
        seq = generate_geometric(1, 10, 400)
        assert seq.truncated and len(seq) < 400
        assert seq.requested_count == 400

    def test_recursive_power_unrolled(self):
        assert generate_recursive_power(1, 2, 2, 4).exponents == (1.0, 9.0, 144.0, 3600.0)
        assert generate_recursive_power(1, 2, 4, 3).exponents == (1.0, 81.0, 20736.0)

    def test_recursive_power_ratios_exact(self):
        seq = generate_recursive_power(1.5, 3, 2.5, 6)
        for i in range(1, len(seq)):
            n = 3 + i
            assert seq[i] / seq[i - 1] == pytest.approx(n ** 2.5, rel=1e-15)

    def test_recursive_power_truncates_with_report(self):
        seq = generate_recursive_power(1, 2, 6, 400)
        assert seq.truncated
        assert seq.exponents[-1] <= 1e306

    @pytest.mark.parametrize("args, want", [
        # 101**160 alone overflows; lam_101 = 1e-300 * 101**160 does not, lam_102 passes
        # 1e306.  lam_101 is exp of its log, a sum near 47 of two logs near 700, whose
        # ulp is 1.1e-13: the value is within 1e-13 relative, not to the last bit
        ((1e-300, 100, 160.0, 3), (1e-300, float(mpmath.mpf(1e-300) * 101 ** 160))),
        # 3**10002 (construction B at p = 1.0001) is past the float range at once
        ((1.0, 2, 10002.0, 10), (1.0,)),
    ], ids=["n**gamma-past-the-float-range", "first-step-past-1e306"])
    def test_recursive_power_decides_each_step_in_logs(self, args, want):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            seq = generate_recursive_power(*args)
        assert seq.truncated and seq.requested_count == args[3]
        assert seq.exponents == pytest.approx(want, rel=1e-13)

    def test_recursive_power_refuses_the_first_flat_step(self):
        # n**1e-300 rounds to 1: the second value equals the first, and the
        # generator stops there instead of running all count steps
        class CountingPower(float):
            steps = 0

            def __rpow__(self, base):
                CountingPower.steps += 1
                return base ** float(self)

        with pytest.raises(ValueError, match=r"strictly increasing \(1\.0 !< 1\.0\)"):
            generate_recursive_power(1, 2, CountingPower(1e-300), 100_000)
        assert CountingPower.steps == 1

    @given(st.floats(min_value=0.1, max_value=100.0),
           st.floats(min_value=1.1, max_value=10.0),
           st.integers(min_value=1, max_value=40))
    def test_geometric_ratio_recovered(self, lam0, r, count):
        seq = generate_geometric(lam0, r, count)
        if len(seq) >= 2:
            cls = classify(seq)
            assert cls.r_inf == pytest.approx(r, rel=1e-15)


class TestClassify:
    def test_constant_ratio(self):
        cls = classify(generate_geometric(1, 2, 4))
        assert cls.r_inf == 2.0 and cls.r_sup == 2.0
        # differences of logs: log 8 - log 4 is log 2 within an ulp of log 8
        assert cls.log_r_inf == pytest.approx(math.log(2.0), abs=4e-16)
        assert cls.log_r_sup == pytest.approx(math.log(2.0), abs=4e-16)

    def test_squares_prefix_lacunary_trend_down(self):
        cls = classify(ExponentSequence((1.0, 4.0, 9.0, 16.0, 25.0)))
        assert cls.super_lacunary_trend == (4.0, 2.25, 16.0 / 9.0, 25.0 / 16.0)
        assert cls.r_inf == pytest.approx(1.5625)
        assert cls.log_r_inf == pytest.approx(math.log(1.5625), rel=1e-15)
        assert "trend non-lacunary" in cls.trend_note

    def test_super_lacunary_trend_up(self):
        seq = generate_recursive_power(1, 2, 2, 6)  # ratios n^2 increase
        cls = classify(seq)
        assert all(b > a for a, b in zip(cls.super_lacunary_trend,
                                         cls.super_lacunary_trend[1:]))
        assert "super-lacunary" in cls.trend_note

    def test_trend_up_across_orders_of_magnitude(self):
        # decided on the log ratios: four ulps of the largest ratio, 64, exceed
        # the first step 3 - 2, so the floats would read steady (a ratio past
        # the float range: classify-ratio-past-the-float-range in test_cli)
        cls = classify(ExponentSequence((1.0, 2.0, 6.0, 6e17)))
        assert cls.super_lacunary_trend == (2.0, 3.0, 1e17)
        assert cls.trend_note == "super-lacunary trend (ratios increasing)"
        assert not cls.trend_non_lacunary

    def test_trend_flag_set_for_decreasing_ratios(self):
        cls = classify(ExponentSequence((1.0, 1.1, 1.2, 1.3)))
        assert cls.trend_non_lacunary
        assert "trend non-lacunary" in cls.trend_note

    @pytest.mark.parametrize("args", [(2.7, 1.5, 3), (2.7, 1.5, 4), (0.3, 1.7, 3),
                                      (1, 2, 16), (1, 2, 60), (1, 2, 64)])
    def test_trend_flag_ignores_rounded_geometric_ratios(self, args):
        # the first three have computed ratios an ulp apart, e.g.
        # (1.5000000000000002, 1.5, 1.4999999999999998) for (2.7, 1.5, 4)
        cls = classify(generate_geometric(*args))
        assert not cls.trend_non_lacunary
        assert cls.trend_note == "steady"

    def test_leading_zero_flagged(self):
        cls = classify(ExponentSequence((0.0, 1.0, 2.0)))
        assert cls.ratios_from_index == 1
        assert cls.r_inf == 2.0

    def test_too_short(self):
        with pytest.raises(ValueError):
            classify(ExponentSequence((1.0,)))
        with pytest.raises(ValueError):
            classify(ExponentSequence((0.0, 1.0)))

    def test_invariants(self):
        cls = classify(ExponentSequence((1.0, 1.5, 6.0)))
        assert cls.r_inf <= cls.r_sup and cls.log_r_inf <= cls.log_r_sup

    def test_ratio_past_the_float_range_keeps_its_log(self):
        # lam = 1e-300, 101**160 * 1e-300 = 4.9e20: the ratio 4.9e320 overflows, its log not
        seq = generate_recursive_power(1e-300, 100, 160, 3)
        cls = classify(seq)
        assert cls.r_inf == cls.r_sup == math.inf
        assert cls.log_r_inf == cls.log_r_sup == pytest.approx(160 * math.log(101), rel=1e-13)


@pytest.mark.parametrize("values", [(0.0, 1.0, 4.0), (1.0, -2.0, 4.0)], ids=["zero", "negative"])
def test_is_r_lacunary_is_false_on_a_nonpositive_entry(values):
    # a ratio to or from a nonpositive entry says nothing about lacunarity
    assert not is_r_lacunary(values, 2.0)
    assert is_r_lacunary([v for v in values if v > 0.0], 2.0)


class TestDecompose:
    def test_two_geometric_strands(self):
        merged = ExponentSequence((1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0, 24.0))
        parts = decompose_quasi_lacunary(merged, 2.0)
        assert [p.exponents for p in parts] == [
            (1.0, 2.0, 4.0, 8.0, 16.0), (3.0, 6.0, 12.0, 24.0)]

    def test_already_lacunary_single_part(self):
        seq = generate_geometric(1, 2, 4)
        parts = decompose_quasi_lacunary(seq, 2.0)
        assert len(parts) == 1 and parts[0].exponents == seq.exponents

    def test_dense_all_singletons(self):
        parts = decompose_quasi_lacunary(ExponentSequence((1.0, 1.1, 1.2)), 2.0)
        assert [len(p) for p in parts] == [1, 1, 1]

    def test_rejects_small_ratio(self):
        with pytest.raises(ValueError):
            decompose_quasi_lacunary(generate_geometric(1, 2, 4), 1.0)

    @given(st.lists(st.floats(min_value=0.01, max_value=1e6), min_size=1,
                    max_size=25, unique=True),
           st.floats(min_value=1.1, max_value=4.0))
    def test_partition_properties(self, values, r):
        seq = ExponentSequence(tuple(sorted(values)))
        parts = decompose_quasi_lacunary(seq, r)
        rebuilt = sorted(v for p in parts for v in p)
        assert rebuilt == list(seq.exponents)
        for p in parts:
            assert is_r_lacunary(p.exponents, r, rel_slack=1e-12)
