import math

import pytest

from muntzlab.examples import (atom_power_products, build_example,
                               check_example_claims, monomial_test_values)


class TestBuild:
    def test_a_sequence_recursion(self):
        inst = build_example("A", 1.0, 4)
        assert inst.seq.exponents == (1.0, 9.0, 144.0, 3600.0)
        assert inst.n_range == (2, 3, 4, 5)

    def test_a_atom_formulas(self):
        inst = build_example("A", 1.0, 4)
        # index n = 3: delta = log(3)/9, mass = 3*log(3)/9
        at = inst.mu.atoms[1]
        assert at.delta == pytest.approx(math.log(3.0) / 9.0, rel=1e-12)
        assert at.mass == pytest.approx(3.0 * math.log(3.0) / 9.0, rel=1e-12)

    def test_b_growth_power(self):
        inst = build_example("B", 2.0, 3)
        assert inst.gamma == 4.0
        assert inst.seq.exponents == (1.0, 81.0, 20736.0)

    def test_b_mass_formula(self):
        inst = build_example("B", 2.0, 3)
        at = inst.mu.atoms[1]
        assert at.mass == pytest.approx(9.0 / (81.0 * math.log(3.0)), rel=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            build_example("C", 2.0, 5)
        with pytest.raises(ValueError):
            build_example("A", 2.0, 2)
        with pytest.raises(ValueError):
            build_example("B", 1.0, 5)  # needs p > 1

    def test_huge_count_truncates(self):
        inst = build_example("A", 3.0, 400)
        assert inst.truncated
        assert len(inst.seq) >= 3
        assert inst.seq[-1] <= 1e306

    @pytest.mark.parametrize("p", [50.0, 1.0001])
    def test_b_exponent_past_the_float_range_collapses(self, p):
        # gamma = 2500 or 10002: 3**gamma alone is past the float range
        with pytest.raises(ValueError, match="collapses below 3 usable indices"):
            build_example("B", p, 20)

    def test_b_truncates_before_1e306(self):
        # gamma = 100: lam_6 is about 4e255 and lam_7 = 7**100 lam_6 about 1e340
        inst = build_example("B", 10.0, 20)
        assert inst.truncated and inst.n_range == (2, 3, 4, 5, 6)
        assert inst.seq[-1] <= 1e306
        assert math.log(inst.seq[-1]) + inst.gamma * math.log(7.0) > math.log(1e306)

    def test_exponents_reach_extreme_scale(self):
        inst = build_example("A", 1.0, 20)
        assert inst.seq[-1] > 1e38
        assert not inst.truncated


class TestClaims:
    def test_atom_power_products_near_inverse_index(self):
        inst = build_example("A", 1.0, 20)
        prods = atom_power_products(inst)
        for n, v in zip(inst.n_range, prods):
            if n >= 10:
                assert abs(v - 1.0) <= 0.05

    def test_a_monomial_test_at_p_tracks_log(self):
        inst = build_example("A", 1.0, 20)
        vals = monomial_test_values(inst, 1.0)
        ratios = [v / math.log(n) for n, v in zip(inst.n_range, vals)]
        assert all(0.8 <= r <= 1.2 for r in ratios[-5:])

    def test_a_fails_monomial_bound_monotonically(self):
        # the defining failure: the test value at p grows like log n
        inst = build_example("A", 1.0, 20)
        vals = monomial_test_values(inst, 1.0)
        assert vals[-1] > vals[4] > vals[2]

    def test_a_decay_above_p(self):
        inst = build_example("A", 1.0, 20)
        vals = monomial_test_values(inst, 2.0)
        half = vals[len(vals) // 2:]
        assert all(b < a for a, b in zip(half, half[1:]))

    def test_b_growth_below_p(self):
        inst = build_example("B", 2.0, 15)
        vals = monomial_test_values(inst, 1.0)
        scaled = [v * math.log(n) / n for n, v in zip(inst.n_range, vals)]
        assert all(0.5 <= s <= 2.0 for s in scaled[-5:])
        assert vals[-1] > vals[0]

    def test_b_profile_decays_on_tail(self):
        inst = build_example("B", 2.0, 15)
        rep = check_example_claims(inst, [1.0])
        dn = rep.dn_values
        half = dn[len(dn) // 2:]
        assert all(b < a for a, b in zip(half, half[1:]))

    def test_claim_reports_have_no_failures(self):
        rep_a = check_example_claims(build_example("A", 1.0, 20), [1.0, 2.0])
        assert rep_a.all_ok
        assert {c.status for c in rep_a.checks} <= {"PASS", "EVIDENCE"}
        rep_b = check_example_claims(build_example("B", 2.0, 15), [1.0])
        assert rep_b.all_ok

    def test_claims_at_other_p(self):
        rep = check_example_claims(build_example("A", 2.0, 15), [2.0, 3.0])
        assert rep.all_ok
