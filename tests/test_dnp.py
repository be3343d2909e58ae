import math

import pytest
from hypothesis import given, strategies as st

from muntzlab.dnp import (WeightScheme, compute_dn, decreasing_rearrangement,
                          operator_bounds)
from muntzlab.measures import DensityMeasure, Lebesgue, atoms, restrict
from muntzlab.sequences import ExponentSequence, generate_geometric

GEO = generate_geometric(1, 2, 24)
HALF_ATOM = atoms([(0.5, 1.0)])


class TestWeightScheme:
    def test_validation(self):
        with pytest.raises(ValueError):
            WeightScheme("bogus", 2.0)
        with pytest.raises(ValueError):
            WeightScheme("classical", 0.5)

    def test_inverse_lambda_needs_positive(self):
        w = WeightScheme("inverse_lambda", 2.0)
        with pytest.raises(ValueError):
            w.log_inv_weight(0.0)

    def test_classical_value(self):
        w = WeightScheme("classical", 3.0)
        assert w.log_inv_weight(2.0) == pytest.approx(math.log(7.0))


class TestComputeDn:
    def test_p1_single_atom(self):
        prof = compute_dn(GEO, HALF_ATOM, WeightScheme("inverse_lambda", 1.0), n_count=6)
        # D_2(1) = lam_2 * (1/2)**lam_2 = 4/16
        assert prof.values[2] == pytest.approx(0.25, rel=1e-14)

    def test_p2_single_atom_series(self):
        prof = compute_dn(GEO, HALF_ATOM, WeightScheme("inverse_lambda", 2.0), n_count=4)
        assert prof.values[0] == pytest.approx(0.7034425955693373, rel=1e-10)
        assert prof.all_safe

    def test_p1_lebesgue_closed_form(self):
        seq = ExponentSequence((4.0,))
        prof = compute_dn(seq, Lebesgue(), WeightScheme("inverse_lambda", 1.0))
        assert prof.values[0] == pytest.approx(0.8, rel=1e-14)

    def test_routes_agree_for_p2_atomic(self):
        mu = atoms([(0.5, 1.0), (0.125, 0.7), (0.01, 0.3)])
        w = WeightScheme("inverse_lambda", 2.0)
        a = compute_dn(GEO, mu, w, n_count=10)
        b = compute_dn(GEO, mu, w, n_count=10, route="general")
        for x, y in zip(a.values, b.values):
            assert y == pytest.approx(x, rel=1e-10)

    def test_routes_agree_for_p2_lebesgue(self):
        w = WeightScheme("inverse_lambda", 2.0)
        a = compute_dn(GEO, Lebesgue(), w, n_count=8)
        b = compute_dn(GEO, Lebesgue(), w, n_count=8, route="general")
        for x, y in zip(a.values, b.values):
            assert y == pytest.approx(x, rel=1e-9)

    def test_routes_agree_over_long_lebesgue_prefix(self):
        seq = generate_geometric(1, 2, 60)
        w = WeightScheme("inverse_lambda", 2.0)
        a = compute_dn(seq, Lebesgue(), w)
        b = compute_dn(seq, Lebesgue(), w, route="general")
        for x, y in zip(a.values, b.values):
            assert y == pytest.approx(x, rel=1e-12)

    def test_general_route_truncation_report(self):
        long_geo = generate_geometric(1, 2, 34)
        mu = DensityMeasure("oneminus_power", alpha=1.0)
        settled = compute_dn(long_geo, mu, WeightScheme("inverse_lambda", 3.0), n_count=6)
        info = settled.truncation[0]
        assert info.safe and info.tail_ratio == 0.0
        assert 6 <= info.cutoff < len(long_geo) - 1
        short = compute_dn(GEO, Lebesgue(), WeightScheme("inverse_lambda", 3.0), n_count=6)
        info = short.truncation[0]
        assert not info.safe and info.tail_ratio > 0.0
        assert info.cutoff == len(GEO) - 1

    def test_general_p_density(self):
        # quadrature nodes reach t ~ 1 - 2^-(depth+10); the prefix must let
        # the inner series settle there, so it extends well past the depth
        long_geo = generate_geometric(1, 2, 34)
        mu = DensityMeasure("oneminus_power", alpha=1.0)
        prof = compute_dn(long_geo, mu, WeightScheme("inverse_lambda", 3.0), n_count=6)
        assert all(v > 0.0 for v in prof.values)
        assert prof.all_safe

    def test_restriction_monotonicity(self):
        mu = atoms([(0.6, 0.5), (0.2, 1.0), (0.04, 0.8)])
        w = WeightScheme("inverse_lambda", 2.0)
        full = compute_dn(GEO, mu, w, n_count=8)
        cut = compute_dn(GEO, restrict(mu, 0.5, 1.0), w, n_count=8)
        for a, b in zip(cut.values, full.values):
            assert a <= b * (1 + 1e-12)

    def test_classical_weight_matches_shifted_formula(self):
        # p = 1, classical: D_n(1) = (lam_n + 1) * moment(lam_n)
        prof = compute_dn(GEO, HALF_ATOM, WeightScheme("classical", 1.0), n_count=4)
        expect = (GEO[2] + 1.0) * 0.5 ** GEO[2]
        assert prof.values[2] == pytest.approx(expect, rel=1e-14)

    def test_truncation_report_unsafe_when_prefix_short(self):
        short = generate_geometric(1, 2, 7)
        mu = atoms([(1e-9, 1.0)])  # atom so close to 1 the series cannot settle
        prof = compute_dn(short, mu, WeightScheme("inverse_lambda", 2.0), n_count=2)
        assert not prof.all_safe

    def test_bad_args(self):
        w = WeightScheme("inverse_lambda", 2.0)
        with pytest.raises(ValueError):
            compute_dn(GEO, HALF_ATOM, w, n_count=0)
        with pytest.raises(ValueError):
            compute_dn(GEO, HALF_ATOM, w, n_count=4, tol=0.0)
        with pytest.raises(ValueError):
            compute_dn(GEO, HALF_ATOM, w, route="fancy")


class TestRearrangement:
    def test_examples(self):
        assert decreasing_rearrangement([0.2, 0.5, 0.1]) == (0.5, 0.2, 0.1)
        assert decreasing_rearrangement([1.0, 1.0, 1.0]) == (1.0, 1.0, 1.0)
        assert decreasing_rearrangement([]) == ()

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            decreasing_rearrangement([0.5, -0.1])

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), max_size=40))
    def test_is_sorted_permutation(self, values):
        out = decreasing_rearrangement(values)
        assert sorted(out) == sorted(values)
        assert all(a >= b for a, b in zip(out, out[1:]))


class TestOperatorBounds:
    def test_profile_book_keeping(self):
        prof = compute_dn(GEO, HALF_ATOM, WeightScheme("inverse_lambda", 2.0), n_count=8)
        ob = operator_bounds(prof, HALF_ATOM, GEO)
        assert ob.sup_dn == max(prof.values)
        assert ob.limsup_estimate == max(prof.values[-ob.window:])
        assert ob.rearranged == decreasing_rearrangement(prof.values)

    def test_nuclear_bound_value(self):
        prof = compute_dn(GEO, HALF_ATOM, WeightScheme("inverse_lambda", 1.0), n_count=20)
        ob = operator_bounds(prof, HALF_ATOM, GEO)
        assert ob.nuclear_bound == pytest.approx(1.2814941480755806, rel=1e-12)

    def test_schatten_only_for_p2(self):
        prof1 = compute_dn(GEO, HALF_ATOM, WeightScheme("inverse_lambda", 1.0), n_count=6)
        assert operator_bounds(prof1, HALF_ATOM, GEO).schatten is None
        prof2 = compute_dn(GEO, HALF_ATOM, WeightScheme("inverse_lambda", 2.0), n_count=6)
        ob = operator_bounds(prof2, HALF_ATOM, GEO)
        assert ob.schatten[2.0] == pytest.approx(
            math.sqrt(math.fsum(v * v for v in prof2.values)), rel=1e-14)
        assert ob.schatten[2.0] >= ob.schatten[4.0]


class TestDomination:
    @pytest.mark.parametrize("p", [1.0, 2.0, 2.5])
    def test_random_vectors_dominated(self, p):
        # the weighted D profile bounds the measure norm of every finite sum
        import numpy as np
        from muntzlab.lpnorm import MuntzPolynomial, lp_norm
        mu = atoms([(0.7, 0.4), (0.3, 1.2), (0.05, 0.6)])
        w = WeightScheme("inverse_lambda", p)
        n = 10
        prof = compute_dn(GEO, mu, w, n_count=n)
        rng = np.random.default_rng(42)
        for _ in range(100):
            b = rng.uniform(-1.0, 1.0, n)
            lhs = lp_norm(MuntzPolynomial(GEO, tuple(b)), mu, p)
            rhs = math.fsum(
                abs(bv) ** p * math.exp(-w.log_inv_weight(GEO[i])) * prof.values[i] ** p
                for i, bv in enumerate(b)) ** (1.0 / p)
            assert lhs <= rhs + 1e-9
