import math

import mpmath
import numpy as np
import pytest

from muntzlab.dnp import WeightScheme, compute_dn
from muntzlab.examples import (atom_power_floors, atom_power_products, build_example,
                               log_monomial_bracket, log_monomial_tests)
from muntzlab.sequences import generate_recursive_power


class TestBuild:
    def test_a_sequence_recursion(self):
        # four reported indices and the one past them
        inst = build_example("A", 1.0, 4)
        assert inst.seq.exponents == (1.0, 9.0, 144.0, 3600.0, 129600.0)
        assert inst.n_range == (2, 3, 4, 5)
        assert len(inst.mu.atoms) == len(inst.seq)

    def test_a_atom_formulas(self):
        inst = build_example("A", 1.0, 4)
        # index n = 3: delta = log(3)/9, mass = 3*log(3)/9
        at = inst.mu.atoms[1]
        assert at.delta == pytest.approx(math.log(3.0) / 9.0, rel=1e-12)
        assert at.mass == pytest.approx(3.0 * math.log(3.0) / 9.0, rel=1e-12)

    def test_b_growth_power(self):
        inst = build_example("B", 2.0, 3)
        assert inst.gamma == 4.0
        assert inst.seq.exponents == (1.0, 81.0, 20736.0, 12960000.0)
        assert inst.n_range == (2, 3, 4)

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
        assert inst.seq.truncated
        assert len(inst.n_range) >= 3
        assert inst.seq[-1] <= 1e306

    @pytest.mark.parametrize("p", [50.0, 1.0001])
    def test_b_exponent_past_the_float_range_collapses(self, p):
        # gamma = 2500 or 10002: 3**gamma alone is past the float range
        with pytest.raises(ValueError, match="collapses below 3 usable indices"):
            build_example("B", p, 20)

    def test_b_truncates_before_1e306(self):
        # gamma = 100: lam_6 is about 4e255 and lam_7 = 7**100 lam_6 about 1e340, so
        # n = 6 is the last index built and n = 5 the last with its right neighbour
        inst = build_example("B", 10.0, 20)
        assert inst.seq.truncated and inst.n_range == (2, 3, 4, 5)
        assert inst.seq[-1] <= 1e306
        assert math.log(inst.seq[-1]) + inst.gamma * math.log(7.0) > math.log(1e306)

    @pytest.mark.parametrize("label, p, count", [
        ("A", 1.0, 20), ("A", 2.0, 20), ("A", 3.0, 400), ("A", 50.0, 20),
        ("B", 1.5, 20), ("B", 2.0, 20), ("B", 10.0, 20)])
    def test_exponents_are_the_recursive_generator_s(self, label, p, count):
        # the constructions grow lam through the one generator, one index past the
        # reported range, cut only by their atom rule
        inst = build_example(label, p, count)
        grown = generate_recursive_power(1.0, 2, inst.gamma, count + 1)
        assert inst.seq.exponents == grown.exponents[:len(inst.seq)]
        assert len(inst.seq) == len(inst.n_range) + 1
        assert inst.seq.truncated == (len(inst.n_range) < count)

    def test_exponents_reach_extreme_scale(self):
        inst = build_example("A", 1.0, 20)
        assert inst.seq[-1] > 1e38
        assert not inst.seq.truncated


class TestClaims:
    """The constructions' own numbers: the claims the CLI records, read here on the
    instances the paper's statements are about."""

    def test_atom_power_products_near_inverse_index(self):
        inst = build_example("A", 1.0, 20)
        for n, v in zip(inst.n_range, atom_power_products(inst)):
            if n >= 10:
                assert abs(v - 1.0) <= 0.05

    def test_a_monomial_test_at_p_tracks_log(self):
        # M_n(1) / log n falls towards 1 from above: 1.0564 .. 1.0459 over n = 17..21
        inst = build_example("A", 1.0, 20)
        ratios = np.exp(log_monomial_tests(inst, 1.0)) / np.log(inst.n_range)
        assert all(1.0 <= r <= 1.06 for r in ratios[-5:])
        assert all(b < a for a, b in zip(ratios[-5:], ratios[-4:]))

    def test_a_fails_monomial_bound_monotonically(self):
        # the defining failure: the test value at p grows, like log n, at every index
        vals = np.exp(log_monomial_tests(build_example("A", 1.0, 20), 1.0))
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_a_decay_above_p(self):
        vals = np.exp(log_monomial_tests(build_example("A", 1.0, 20), 2.0))
        half = vals[len(vals) // 2:]
        assert all(b < a for a, b in zip(half, half[1:]))

    def test_b_growth_below_p(self):
        inst = build_example("B", 2.0, 15)
        vals = np.exp(log_monomial_tests(inst, 1.0))
        scaled = [v * math.log(n) / n for n, v in zip(inst.n_range, vals)]
        assert all(1.0 <= s <= 1.001 for s in scaled[-5:])
        assert vals[-1] > vals[0]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_b_profile_decays_on_tail(self, p):
        inst = build_example("B", p, 15)
        dn = compute_dn(inst.seq, inst.mu, WeightScheme("inverse_lambda", p),
                        n_count=len(inst.n_range)).values
        half = dn[len(dn) // 2:]
        assert all(b < a for a, b in zip(half, half[1:]))


def _mp_monomial_test(label, p, q, n, last):
    """M_n(q) of construction ``label`` at p, with exact exponents lam_2 = 1,
    lam_k = k**gamma lam_{k-1} and atoms k = 2..last, at 50 digits."""
    with mpmath.workdps(50):
        p, q = mpmath.mpf(p), mpmath.mpf(q)
        gamma = p + 1 if label == "A" else p * max(p, p / (p - 1))
        lam = {2: mpmath.mpf(1)}
        for k in range(3, last + 1):
            lam[k] = k ** gamma * lam[k - 1]
        total = mpmath.mpf(0)
        for k in range(2, last + 1):
            log_k = mpmath.log(k)
            c = k ** p * (log_k if label == "A" else 1 / log_k) / lam[k]
            total += c * mpmath.exp(q * lam[n] * mpmath.log1p(-log_k / lam[k]))
        return lam[n] * total


# M_n(q) at p = 2 on the instance of count 39 (reported n = 2..40, atoms to 41), from
# _mp_monomial_test at 50 digits, pinned to 40
_PINS = {
    ("A", 2.0): {10: "2.519947198055830202164603056593343767851",
                 20: "3.140629414993398338306472254180745781388",
                 40: "3.779444622456342259937069005747682506664"},
    ("A", 3.0): {10: "0.4472296529500925716530420254974353805264",
                 20: "0.2946361334874333774896970075529582877237",
                 40: "0.1827822750327595923992404250341447419237"},
    ("B", 1.0): {10: "4.346390994180221635559053359297029304172",
                 20: "6.676908810080379672525006496761322082171",
                 40: "10.84356141891703671544296032864614627865"},
}


class TestMonomialTests:
    @pytest.mark.parametrize("label, q", list(_PINS))
    def test_pinned_at_forty_digits(self, label, q):
        inst = build_example(label, 2.0, 39)
        assert inst.n_range[-1] == 40 and not inst.seq.truncated
        logs = log_monomial_tests(inst, q)
        for n, pin in _PINS[label, q].items():
            with mpmath.workdps(50):
                assert mpmath.almosteq(_mp_monomial_test(label, 2, q, n, 41), mpmath.mpf(pin),
                                       rel_eps=mpmath.mpf(10) ** -39)
            # the masses are exp of logs near -400, so a float M_n keeps about 13 digits
            assert math.exp(logs[n - 2]) == pytest.approx(float(pin), rel=1e-12)

    @pytest.mark.parametrize("label, p, q_list", [
        ("A", 1.0, (1.0, 2.0)), ("A", 1.5, (1.5, 2.5)), ("A", 2.0, (2.0, 3.0)),
        ("A", 3.0, (3.0, 4.0)), ("B", 1.5, (1.0,)), ("B", 2.0, (1.0,)), ("B", 3.0, (1.0,))])
    @pytest.mark.parametrize("count", [3, 10, 20, 41])
    def test_bracket_holds_at_every_index(self, label, p, q_list, count):
        inst = build_example(label, p, count)
        for q in q_list:
            logs = log_monomial_tests(inst, q)
            lower, upper = log_monomial_bracket(inst, q)
            assert (lower - logs).max() <= 1e-12 and (logs - upper).max() <= 1e-12
            # at the last index the atoms end at n + 1: M_N is L_N
            assert logs[-1] == pytest.approx(lower[-1], abs=1e-12)

    @pytest.mark.parametrize("p, width", [(1.0, 1.8e-4), (2.0, 8.1e-6), (3.0, 3.7e-7)])
    def test_bracket_is_narrow_at_the_last_index(self, p, width):
        lower, upper = log_monomial_bracket(build_example("A", p, 20), p)
        assert math.expm1(upper[-1] - lower[-1]) <= width

    @pytest.mark.parametrize("label, p", [("A", 1.0), ("A", 2.5), ("B", 1.25), ("B", 4.0)])
    def test_masses_fall_by_half_past_every_index(self, label, p):
        # the step of the tail bound 2 lam_n c_{n+2}: c_{k+1} / c_k <= 1/2 for k >= 2
        inst = build_example(label, p, 12)
        masses = [at.mass for at in inst.mu.atoms]
        assert all(b <= 0.5 * a for a, b in zip(masses, masses[1:]))

    def test_last_index_sees_its_right_neighbour(self):
        # A at p = 2: M_21(2) / log 21 read 1.000 with no atom past n = 21, and
        # about 1 + log 22 / (22 log 21) = 1.0461 with it
        short, long = build_example("A", 2.0, 20), build_example("A", 2.0, 21)
        assert short.n_range[-1] == 21
        m_short = math.exp(log_monomial_tests(short, 2.0)[-1])
        m_long = math.exp(log_monomial_tests(long, 2.0)[-2])
        assert m_short / math.log(21) == pytest.approx(1.0461, abs=1e-4)
        # what the longer instance adds at n = 21 is atom 23's term, within its tail bound
        assert m_short < m_long < m_short * (1.0 + 1e-5)


class TestAtomPowers:
    @pytest.mark.parametrize("label, p", [("A", 1.0), ("A", 3.0), ("B", 1.5), ("B", 2.0)])
    def test_products_lie_in_their_bracket(self, label, p):
        inst = build_example(label, p, 20)
        prods, floors = atom_power_products(inst), atom_power_floors(inst)
        # the products round to 1 within a few ulps once lam_n passes 1e13
        assert all(f * (1.0 - 1e-13) <= v <= 1.0 + 1e-13 for f, v in zip(floors, prods))
        assert floors[0] < floors[1] < floors[2] < 1.0

    def test_floor_closed_form(self):
        inst = build_example("A", 1.0, 4)
        # n = 2, lam = 1: exp(-log(2)**2 / (1 - log 2)); the product is 2 (1 - log 2)
        assert atom_power_floors(inst)[0] == pytest.approx(
            math.exp(-math.log(2.0) ** 2 / (1.0 - math.log(2.0))), rel=1e-15)
        assert atom_power_products(inst)[0] == pytest.approx(2.0 * (1.0 - math.log(2.0)),
                                                             rel=1e-15)
