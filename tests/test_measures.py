import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muntzlab.logdomain import NeumaierSum, logsumexp
from muntzlab.measures import (Atom, AtomicMeasure, DensityMeasure, Lebesgue, Restriction,
                               _gl_panel, _log_poisson_kernel, atoms, integrate_to_one,
                               log_powers, measure_nodes, moment, moments, node_log_powers,
                               poisson_integral, restrict, sublinear_norm, tail_mass,
                               windowed_sublinear_sup)

GEOM30 = atoms([(2.0 ** -k, 4.0 ** -k) for k in range(1, 31)])


def beta_moment(a, alpha):
    # integral t^a (1-t)^alpha dt on [0,1]
    return math.exp(math.lgamma(a + 1) + math.lgamma(alpha + 1)
                    - math.lgamma(a + alpha + 2))


class TestConstruction:
    def test_atom_validation(self):
        with pytest.raises(ValueError):
            Atom(0.0, 1.0)      # position 1 is forbidden
        with pytest.raises(ValueError):
            Atom(1.5, 1.0)
        with pytest.raises(ValueError):
            Atom(0.5, 0.0)

    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            atoms([(0.5, 1.0), (0.5, 2.0)])

    def test_atoms_sorted_by_position(self):
        mu = atoms([(0.1, 1.0), (0.9, 2.0), (0.4, 3.0)])
        assert [a.delta for a in mu.atoms] == [0.9, 0.4, 0.1]

    def test_empty_only_via_restriction(self):
        with pytest.raises(ValueError):
            atoms([])
        out = restrict(atoms([(0.5, 1.0)]), 0.6, 1.0)
        assert isinstance(out, AtomicMeasure) and out.is_empty

    def test_density_validation(self):
        with pytest.raises(ValueError):
            DensityMeasure("nope")
        with pytest.raises(ValueError):
            DensityMeasure("oneminus_power", alpha=-1.0)
        with pytest.raises(ValueError):
            DensityMeasure("uniform", scale=0.0)


class TestMoments:
    EXPONENTS = [0.0, 0.5, 3.0, 2.0 ** 10, 2.0 ** 40, 1e30]

    @pytest.mark.parametrize("mu", [
        GEOM30, DensityMeasure("oneminus_power", scale=2.0, alpha=-0.5),
        restrict(DensityMeasure("oneminus_power", alpha=1.5), 0.25, 0.75),
    ], ids=["atoms", "density", "density-restriction"])
    def test_node_measures_match_one_exponent_at_a_time(self, mu):
        # reference: the scalar path, with nodes sized and graded by each exponent alone
        got = moments(mu, self.EXPONENTS)
        for a, g in zip(self.EXPONENTS, got):
            log_pow, log_w = node_log_powers(mu, [a])
            ref = logsumexp(log_w + log_pow[0])
            assert g == pytest.approx(ref, rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("mu, lo, hi", [
        (Lebesgue(), 0.0, 1.0), (Restriction(Lebesgue(), 0.0, 0.5), 0.0, 0.5),
        (Restriction(Lebesgue(), 0.25, 0.75), 0.25, 0.75),
        (Restriction(Lebesgue(), 0.5, 1.0), 0.5, 1.0),
    ], ids=["lebesgue", "head", "interior", "tail"])
    def test_lebesgue_closed_forms_against_mpmath(self, mu, lo, hi):
        got = moments(mu, self.EXPONENTS)
        with mpmath.workdps(30):
            for a, g in zip(self.EXPONENTS, got):
                e = mpmath.mpf(a) + 1
                ref = mpmath.log((mpmath.mpf(hi) ** e - mpmath.mpf(lo) ** e) / e)
                assert g == pytest.approx(float(ref), rel=1e-14, abs=1e-15)

    @pytest.mark.parametrize("mu, lo, hi", [
        (Lebesgue(), 0.0, 1.0), (Restriction(Lebesgue(), 0.5, 1.0), 0.5, 1.0),
        (Restriction(Lebesgue(), 0.25, 0.75), 0.25, 0.75),
    ], ids=["lebesgue", "tail", "interior"])
    def test_lebesgue_closed_forms_past_the_float_range(self, mu, lo, hi):
        # p * lam overflows at p = 400, lam = 1e306: log e from log p + log lam
        lams, p = [1.0, 1e300, 1e306], 400.0
        got = moments(mu, lams, p)
        with mpmath.workdps(30):
            for lam, g in zip(lams, got):
                e = p * mpmath.mpf(lam) + 1
                ref = mpmath.log((mpmath.mpf(hi) ** e - mpmath.mpf(lo) ** e) / e)
                assert g == pytest.approx(float(ref), rel=1e-14)

    @pytest.mark.parametrize("a", [0.01, 0.3, 0.5])
    def test_density_moments_below_one_against_mpmath(self, a):
        # t**a (1 - t)**0.5 is not smooth at t = 0: the nodes are graded by a
        got = moments(DensityMeasure("oneminus_power", alpha=0.5), [a])[0]
        with mpmath.workdps(40):
            want = float(mpmath.log(mpmath.beta(mpmath.mpf(a) + 1, 1.5)))
        assert got == pytest.approx(want, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("a", [1e100, 1e200, 1e300])
    def test_density_moments_with_weights_below_the_float_range(self, a):
        # nodes sized by a reach u ~ 1 / a, where the weight of u**0.5 du is far
        # below the float range; its log is not.  The moment is B(a + 1, 1.5).
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = moments(DensityMeasure("oneminus_power", alpha=0.5), [a])[0]
        assert got == pytest.approx(math.lgamma(1.5) - 1.5 * math.log(a), rel=1e-14)

    def test_node_measures_refuse_past_the_float_range(self):
        for mu in (GEOM30, DensityMeasure("oneminus_power", alpha=0.5)):
            with pytest.raises(ValueError, match="float range"):
                moments(mu, [1.0, 1e306], 400.0)

    def test_empty_measure_and_bad_exponents(self):
        empty = restrict(atoms([(0.5, 1.0)]), 0.6, 1.0)
        assert moments(empty, [0.0, 2.0]).tolist() == [-math.inf, -math.inf]
        with pytest.raises(ValueError):
            moments(Lebesgue(), [1.0, -0.5])
        with pytest.raises(ValueError):
            moments(GEOM30, [math.nan])
        # a non-finite exponent: the closed form read it as 0
        for mu in (Lebesgue(), GEOM30, DensityMeasure("oneminus_power", alpha=0.5)):
            with pytest.raises(ValueError):
                moments(mu, [1.0, math.inf])


class TestMoment:
    def test_lebesgue_exact(self):
        assert moment(Lebesgue(), 3.0).to_float() == pytest.approx(0.25, abs=1e-16)

    def test_single_atom_power(self):
        mu = atoms([(0.5, 1.0)])
        assert moment(mu, 10.0).to_float() == pytest.approx(2.0 ** -10, rel=1e-15)

    def test_geometric_masses_total(self):
        got = moment(GEOM30, 0.0).to_float()
        assert got == pytest.approx((1 - 4.0 ** -30) / 3.0, rel=1e-14)
        assert math.exp(moments(GEOM30, [0.0])[0]) == pytest.approx(1 / 3, rel=1e-8)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ValueError):
            moment(Lebesgue(), -0.5)

    def test_extreme_exponent_atom(self):
        # delta = 1e-30: t**lam must come out as exp(lam*log1p(-delta))
        mu = atoms([(1e-30, 1.0)])
        got = moment(mu, 1e30)
        assert got.log == pytest.approx(-1.0, rel=1e-6)

    def test_atom_at_zero(self):
        mu = atoms([(1.0, 2.0)])  # atom at x = 0
        assert moment(mu, 0.0).to_float() == pytest.approx(2.0)
        assert moment(mu, 3.0).is_zero

    def test_density_against_beta(self):
        for a in (0.0, 1.0, 7.5, 300.0):
            mu = DensityMeasure("oneminus_power", alpha=1.5, scale=2.0)
            assert moment(mu, a).to_float() == pytest.approx(
                2.0 * beta_moment(a, 1.5), rel=1e-11)

    @pytest.mark.parametrize("alpha", [-0.9, -0.5, 1.0])
    def test_oneminus_power_against_mpmath_beta(self, alpha):
        mu = DensityMeasure("oneminus_power", alpha=alpha, scale=2.0)
        for a in (0.0, 1.0, 7.5, 300.0, 1e6, 1e12):
            ref = 2 * mpmath.beta(a + 1, alpha + 1)
            assert moment(mu, a).to_float() == pytest.approx(float(ref), rel=1e-12)

    @pytest.mark.parametrize("lo,hi", [(0.5, 1.0), (0.25, 0.75), (0.3, 1.0 - 1e-10)])
    def test_density_restriction_against_mpmath(self, lo, hi):
        mu = restrict(DensityMeasure("oneminus_power", alpha=-0.5), lo, hi)
        for a in (0.0, 3.0, 40.0):
            ref = mpmath.betainc(a + 1, 0.5, lo, hi)
            assert moment(mu, a).to_float() == pytest.approx(float(ref), rel=1e-12)

    def test_interior_restriction_at_large_exponent(self):
        # t**1e5 on [0, 1/2) lives within 1e-5 of the right end t = 1/2
        got = moment(restrict(DensityMeasure("uniform"), 0.0, 0.5), 1e5)
        assert got.log == pytest.approx(100001 * math.log(0.5) - math.log(100001), rel=1e-14)

    def test_restriction_of_lebesgue_exact(self):
        mu = restrict(Lebesgue(), 0.0, 0.5)
        assert math.exp(moments(mu, [0.0])[0]) == pytest.approx(0.5, rel=1e-15)
        assert moment(mu, 1.0).to_float() == pytest.approx(0.125, rel=1e-13)
        tail = restrict(Lebesgue(), 0.5, 1.0)
        assert moment(tail, 2.0).to_float() == pytest.approx((1 - 0.125) / 3, rel=1e-13)

    def test_moment_nonincreasing_in_exponent(self):
        for mu in (Lebesgue(), GEOM30,
                   DensityMeasure("oneminus_power", alpha=0.5)):
            vals = [moment(mu, a).to_float() for a in (0.0, 0.5, 1, 2, 5, 20, 100)]
            assert all(b <= a * (1 + 1e-12) for a, b in zip(vals, vals[1:]))

    def test_atomic_split_additivity(self):
        mu = atoms([(0.8, 0.3), (0.35, 1.1), (0.02, 0.7)])
        for a in (0.0, 1.0, 17.0, 400.0):
            left = moment(restrict(mu, 0.0, 0.5), a)
            right = moment(restrict(mu, 0.5, 1.0), a)
            whole = moment(mu, a).to_float()
            assert left.to_float() + right.to_float() == pytest.approx(whole, rel=1e-14)

    @given(st.lists(st.tuples(st.floats(min_value=1e-6, max_value=1.0),
                              st.floats(min_value=1e-3, max_value=10.0)),
                    min_size=1, max_size=8, unique_by=lambda t: t[0]),
           st.floats(min_value=0.0, max_value=1e4))
    @settings(max_examples=60)
    def test_matches_direct_sum(self, pairs, a):
        mu = atoms(pairs)
        direct = math.fsum(m * (1.0 - d) ** a for d, m in pairs)
        assert moment(mu, a).to_float() == pytest.approx(direct, rel=1e-11, abs=1e-300)


class TestNodes:
    @pytest.mark.parametrize("mu,mass", [
        (Lebesgue(), 1.0),
        (DensityMeasure("uniform", scale=0.5), 0.5),
        (DensityMeasure("oneminus_power", alpha=-0.5), 2.0),
        (DensityMeasure("oneminus_power", alpha=-0.9), 10.0),
        (DensityMeasure("oneminus_power", alpha=1.0), 0.5),
        (restrict(Lebesgue(), 0.5, 1.0), 0.5),
    ], ids=["lebesgue", "uniform", "alpha=-0.5", "alpha=-0.9", "alpha=1", "restricted"])
    def test_no_node_at_one_and_exact_mass(self, mu, mass):
        log_t, log_w = measure_nodes(mu, 2.0 ** 50)
        assert not np.any(log_t == 0.0)
        assert np.all(np.isfinite(log_w))
        assert math.fsum(np.exp(log_w)) == pytest.approx(mass, rel=1e-14)

    @pytest.mark.parametrize("sharpness", [math.inf, math.nan])
    def test_non_finite_sharpness_refused(self, sharpness):
        for mu in (Lebesgue(), GEOM30):
            with pytest.raises(ValueError):
                measure_nodes(mu, sharpness)

    @pytest.mark.parametrize("mu", [Lebesgue(), GEOM30,
                                    DensityMeasure("oneminus_power", alpha=0.5),
                                    restrict(Lebesgue(), 0.25, 0.75)],
                             ids=["lebesgue", "atoms", "density", "restriction"])
    def test_node_log_powers_are_terms_by_nodes(self, mu):
        # one row per exponent, C-contiguous along the nodes
        lam = np.array([0.0, 1.0, 2.5, 8.0])
        log_pow, log_w = node_log_powers(mu, lam, 2.0)
        assert log_pow.shape == (len(lam), len(log_w)) and log_pow.flags.c_contiguous
        assert np.array_equal(log_pow[0], np.zeros(len(log_w)))
        assert np.array_equal(log_pow[3], 8.0 * log_pow[1])

    def test_log_powers_rows_are_exponents(self):
        # t**0 = 1 also at t = 0, where 0 * log t would be nan
        got = log_powers(np.array([-math.inf, -1.0, -0.5]), np.array([0.0, 2.0]))
        assert got.flags.c_contiguous
        assert got.tolist() == [[0.0, 0.0, 0.0], [-math.inf, -2.0, -1.0]]


class TestGradedTowardZero:
    """A non-integer smallest power s near t = 0 grades the panel [0, hi/2]."""

    @pytest.mark.parametrize("lam, p, count", [
        ([1.0, 2.0, 4.0], 3.0, 0), ([0.0, 1.0, 8.0], 1.0, 0), ([1.0, 2.5], 2.0, 16),
        ([0.25, 1.0], 2.0, 27), ([0.0, 0.5, 2.0, 8.0], 1.0, 27),
        ([1.0, 1.0 + 2.0 ** -40], 1.0, 40),
    ], ids=["integers", "leading-zero", "gap-1.5", "p-lam-0.5", "lam-0.5", "tiny-gap"])
    def test_one_rule_for_the_builder(self, lam, p, count):
        # s is the smallest non-integer among p * lam_j and lam_j - lam_0, and
        # K = ceil(40 / (1 + s)) panels of 24 nodes are added; none for integers
        log_pow, log_w = node_log_powers(Lebesgue(), lam, p)
        plain = measure_nodes(Lebesgue(), p * max(lam))[0]
        assert log_pow.shape == (len(lam), len(plain) + 24 * count) == (len(lam), len(log_w))
        assert log_pow.flags.c_contiguous

    @pytest.mark.parametrize("mu", [Lebesgue(), DensityMeasure("oneminus_power", alpha=0.5),
                                    restrict(Lebesgue(), 0.0, 0.5),
                                    restrict(Lebesgue(), 0.25, 1.0), GEOM30],
                             ids=["lebesgue", "density", "restricted-at-0",
                                  "restricted-past-0", "atoms"])
    @pytest.mark.parametrize("low_power", [None, 0.0, 1.0, 3.0, 12.0])
    def test_integer_power_keeps_the_nodes_bit_for_bit(self, mu, low_power):
        log_t, log_w = measure_nodes(mu, 96.0, low_power=low_power)
        want_t, want_w = measure_nodes(mu, 96.0)
        assert log_t.tolist() == want_t.tolist() and log_w.tolist() == want_w.tolist()

    @pytest.mark.parametrize("s, count", [(0.01, 40), (0.3, 31), (1.5, 16), (20.5, 2)])
    def test_panel_count_and_exact_power(self, s, count):
        log_t, log_w = measure_nodes(Lebesgue(), 96.0, low_power=s)
        assert len(log_t) == len(measure_nodes(Lebesgue(), 96.0)[0]) + 24 * count
        w = np.exp(log_w)
        assert math.fsum(w) == pytest.approx(1.0, rel=1e-14)
        assert float(np.dot(w, np.exp(s * log_t))) == pytest.approx(1.0 / (1.0 + s), rel=1e-15)
        assert integrate_to_one(lambda lt: np.exp(s * lt), 96.0, low_power=s) == \
            pytest.approx(1.0 / (1.0 + s), rel=1e-15)

    def test_nodes_near_zero_keep_their_digits(self):
        # the closing panel reaches t ~ 2**-45; log t from 1 - u would read
        # log(1 - (1 - t)) with t's low digits gone
        log_t, _ = measure_nodes(Lebesgue(), 8.0, low_power=0.01)
        assert log_t.min() < -45.0 * math.log(2.0)
        assert np.unique(log_t).size == log_t.size

    @pytest.mark.parametrize("s", [0.2, 0.5, 2.4])
    def test_restriction_at_zero_is_graded_in_its_own_scale(self, s):
        # integral of t**s over [0, 1/2) = 2**-(1+s) / (1+s)
        log_t, log_w = measure_nodes(restrict(Lebesgue(), 0.0, 0.5), 8.0, low_power=s)
        assert float(np.dot(np.exp(log_w), np.exp(s * log_t))) == pytest.approx(
            0.5 ** (1.0 + s) / (1.0 + s), rel=1e-15)

    def test_integer_power_keeps_integrate_to_one_bit_for_bit(self):
        def f(lt):
            return np.abs(np.exp(lt) - 0.5 * np.exp(3.0 * lt)) ** 3.0

        assert integrate_to_one(f, 9.0, low_power=3.0) == integrate_to_one(f, 9.0)


def _resumming_integrate_to_one(f, sharpness):
    """integrate_to_one with every pass summing from panel 1 again: the same
    panels in u = 1 - t, closing rule, stopping rule and summation order.
    Returns the total of every pass; the last is the result."""
    depth, totals = min(max(12, int(math.log2(max(sharpness, 1.0))) + 8), 53), []
    while True:
        acc, right = NeumaierSum(), 1.0
        for j in range(1, depth + 1):
            left = 2.0 ** (-j)
            acc.add(_gl_panel(f, left, right))
            right = left
        closing = _gl_panel(f, 0.0, right)
        acc.add(closing)
        totals.append(acc.total)
        scale = 1e-12 * max(abs(acc.total), 1e-300)
        if (abs(closing) <= scale or depth >= 53
                or len(totals) > 1 and abs(totals[-1] - totals[-2]) <= scale):
            return totals
        depth = min(53, depth + 16)


class TestIntegrateToOne:
    # (integrand of log t, sharpness, the depth of each pass); a pass is the
    # last when its closing panel holds at most 1e-12 of the total (about
    # 2**-depth times g(1) / integral) or its total agrees with the previous
    # pass's to 1e-12
    CASES = {
        "one-pass": (lambda log_t: (-np.expm1(log_t)) ** 4, 1.0, (12,)),
        "two-passes": (lambda log_t: -np.expm1(log_t), 1.0, (12, 28)),
        "two-passes-agree": (lambda log_t: np.exp(2.0 * log_t), 1.0, (12, 28)),
        "sharp-two-passes-agree": (lambda log_t: np.exp(32768.0 * log_t), 65536.0, (24, 40)),
        "steep-two-passes-agree": (lambda log_t: np.exp(100.0 * log_t), 1.0, (12, 28)),
        # the integrand's scale 2**-20 in u is 2**20 finer than sharpness 1 asks
        "three-passes": (lambda log_t: np.exp(2.0 ** 20 * log_t), 1.0, (12, 28, 44)),
        "to-53": (lambda log_t: np.exp(2.0 ** 48 * log_t), 2.0 ** 28, (36, 52, 53)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_each_panel_evaluated_once_and_sum_unchanged(self, case):
        f, sharpness, depths = self.CASES[case]
        nodes = []

        def recording(log_t):
            nodes.append(tuple(log_t))
            return f(log_t)

        got = integrate_to_one(recording, sharpness)
        resummed = []
        totals = _resumming_integrate_to_one(
            lambda log_t: resummed.append(log_t) or f(log_t), sharpness)
        assert got == totals[-1]
        # re-summing evaluates every panel of every pass; now each pass adds its
        # new panels and one closing panel, and no interval is evaluated twice
        assert len(resummed) == sum(d + 1 for d in depths)
        assert len(nodes) == depths[-1] + len(depths)
        assert len(set(nodes)) == len(nodes)

    @pytest.mark.parametrize("scale", [2.0 ** 20, 2.0 ** 24])
    def test_passes_that_disagree_deepen_until_two_agree(self, scale):
        # t**a with a 2**20 (2**24) times the sharpness passed: the first pass's
        # closing panel [0, 2**-12] misses the integrand's scale 1/a in u
        totals = _resumming_integrate_to_one(lambda log_t: np.exp(scale * log_t), 1.0)
        assert len(totals) == 3
        assert abs(totals[1] - totals[0]) > 1e-6 * totals[1]
        assert abs(totals[2] - totals[1]) <= 1e-12 * totals[2]
        got = integrate_to_one(lambda log_t: np.exp(scale * log_t), 1.0)
        assert got == totals[-1]
        assert got == pytest.approx(1.0 / (scale + 1.0), rel=1e-13)

    def test_no_node_at_t_equal_one(self):
        # the depth-53 closing panel is [0, 2**-53] in u: its nodes keep u > 0
        nodes = []
        integrate_to_one(lambda log_t: nodes.append(log_t) or np.exp(2.0 ** 48 * log_t),
                         2.0 ** 28)
        assert len(nodes) == 53 + 3
        assert max(float(v.max()) for v in nodes) < 0.0


class TestSublinear:
    def test_single_atom(self):
        rep = sublinear_norm(atoms([(0.25, 1.0)]))
        assert rep.norm_s == pytest.approx(4.0)
        assert rep.attaining_epsilon == 0.25
        assert rep.exact

    def test_lebesgue_is_one(self):
        rep = sublinear_norm(Lebesgue())
        assert rep.norm_s == pytest.approx(1.0)
        assert not rep.exact

    def test_two_atoms_breakpoints(self):
        rep = sublinear_norm(atoms([(0.5, 1.0), (0.25, 1.0)]))
        assert rep.norm_s == pytest.approx(4.0)

    def test_breakpoint_formula_vs_grid(self):
        mu = atoms([(0.6, 0.2), (0.3, 1.0), (0.07, 0.5), (0.004, 0.25)])
        rep = sublinear_norm(mu)
        best = max(
            sum(a.mass for a in mu.atoms if a.delta <= at.delta) / at.delta
            for at in mu.atoms)
        assert rep.norm_s == pytest.approx(best, rel=1e-12)
        grid_max = max(r for _, r in rep.vanishing_profile)
        assert grid_max <= rep.norm_s * (1 + 1e-12)

    def test_density_profile(self):
        rep = sublinear_norm(DensityMeasure("oneminus_power", alpha=1.0))
        # tail/eps = eps/2 -> sup on the grid at eps = 1
        assert rep.norm_s == pytest.approx(0.5)
        assert rep.vanishing_profile[-1][1] < 1e-10


class TestWindowedSublinearSup:
    """sup of mu([1-eps,1)) / eps over a window of eps."""

    @pytest.mark.parametrize("lo, hi", [(1e-4, 0.5), (0.05, 0.2), (0.3, 0.3), (0.0, 1.0)])
    def test_atoms_against_a_dense_grid(self, lo, hi):
        mu = atoms([(0.6, 0.2), (0.3, 1.0), (0.07, 0.5), (0.004, 0.25), (1e-300, 1.0)])
        got = windowed_sublinear_sup(mu, lo, hi)
        grid = np.concatenate([np.geomspace(max(lo, 1e-6), hi, 20001), [hi]])
        assert got >= max(tail_mass(mu, e) / e for e in grid) * (1 - 1e-12)
        # attained at lo or at a delta in the window, where the ratio jumps up
        assert got == pytest.approx(max(tail_mass(mu, e) / e for e in
                                        [lo, hi] + [a.delta for a in mu.atoms]
                                        if lo <= e <= hi and e > 0.0), rel=1e-15)

    def test_atom_outside_the_window_is_unseen(self):
        mu = atoms([(1e-300, 1.0), (0.5, 1.0)])
        assert sublinear_norm(mu).norm_s == pytest.approx(1e300)
        # at eps = 2**-16 only the atom at 1e-300 lies within: 1 / 2**-16
        assert windowed_sublinear_sup(mu, 2.0 ** -16, 0.5) == 65536.0
        assert windowed_sublinear_sup(mu, 0.0, 0.5) == sublinear_norm(mu).norm_s

    @pytest.mark.parametrize("mu", [
        GEOM30,
        atoms([(0.6, 0.2), (0.3, 1.0), (0.07, 0.5), (0.004, 0.25), (1e-300, 1.0)]),
        # six masses 0.1 a hair apart: a plain running sum reads the sup 1 ulp off
        atoms([(0.5 * (1 + k * 1e-12), 0.1) for k in range(6)]),
        Lebesgue(),
        DensityMeasure("oneminus_power", alpha=1.0),
        restrict(Lebesgue(), 0.2, 0.9),
    ], ids=["geometric-atoms", "five-atoms", "six-tenths", "lebesgue", "density",
            "restriction"])
    def test_full_window_is_norm_s_to_the_last_bit(self, mu):
        assert windowed_sublinear_sup(mu, 0.0, 1.0) == sublinear_norm(mu).norm_s

    @settings(max_examples=60, deadline=None)
    @given(st.dictionaries(st.floats(1e-300, 1.0), st.floats(1e-200, 1e200),
                           min_size=1, max_size=40))
    def test_full_window_is_norm_s_on_random_atoms(self, pairs):
        mu = atoms(pairs.items())
        assert windowed_sublinear_sup(mu, 0.0, 1.0) == sublinear_norm(mu).norm_s

    def test_atom_at_lo_counts_in_the_tail_at_lo(self):
        mu = atoms([(0.25, 1.0), (0.5, 1.0)])
        # at eps = 1/4 both the window's end and the atom: 1 / (1/4)
        assert windowed_sublinear_sup(mu, 0.25, 0.3) == 4.0
        # between the atoms the ratio is largest at lo: 1 / 0.3
        assert windowed_sublinear_sup(mu, 0.3, 0.4) == 1.0 / 0.3

    def test_lebesgue_and_densities_at_the_window_ends(self):
        assert windowed_sublinear_sup(Lebesgue(), 1e-5, 0.5) == 1.0
        # tail / eps = eps**alpha / (alpha + 1): largest at hi for alpha > 0
        mu = DensityMeasure("oneminus_power", alpha=1.0)
        assert windowed_sublinear_sup(mu, 1e-3, 0.3) == pytest.approx(0.15, rel=1e-15)

    @pytest.mark.parametrize("lo, hi", [(0.5, 0.25), (-1.0, 0.5), (0.0, 0.0), (0.5, 2.0)])
    def test_window_refused(self, lo, hi):
        with pytest.raises(ValueError, match="window"):
            windowed_sublinear_sup(Lebesgue(), lo, hi)


class TestPoisson:
    def test_geometric_sum(self):
        res = poisson_integral(GEOM30)
        assert not res.divergent
        assert res.value.to_float() == pytest.approx(1 - 2.0 ** -30, rel=1e-14)

    def test_lebesgue_divergent(self):
        assert poisson_integral(Lebesgue()).divergent

    def test_single_atom(self):
        res = poisson_integral(atoms([(0.1, 2.0)]))
        assert res.value.to_float() == pytest.approx(20.0, rel=1e-14)

    def test_uniform_density_divergent_heuristic(self):
        res = poisson_integral(DensityMeasure("uniform"))
        assert res.divergent

    def test_integrable_density_converges(self):
        res = poisson_integral(DensityMeasure("oneminus_power", alpha=0.75))
        assert not res.divergent
        assert res.value.to_float() == pytest.approx(1 / 0.75, rel=1e-14)

    def test_slowly_integrable_density_closed_form(self):
        res = poisson_integral(DensityMeasure("oneminus_power", alpha=0.05))
        assert not res.divergent
        assert res.value.to_float() == pytest.approx(20.0, rel=1e-14)

    def test_restricted_density_closed_form(self):
        res = poisson_integral(restrict(DensityMeasure("oneminus_power", scale=3.0, alpha=0.5),
                                        0.75, 1.0))
        assert res.value.to_float() == pytest.approx(3.0, rel=1e-14)

    def test_lebesgue_tail_restriction_divergent(self):
        assert poisson_integral(restrict(Lebesgue(), 0.5, 1.0)).divergent

    def test_interior_restriction_exact(self):
        res = poisson_integral(restrict(Lebesgue(), 0.0, 0.5))
        assert res.value.to_float() == pytest.approx(math.log(2.0), rel=1e-13)


def _log_kernel(mu, s, power):
    """log of the integral of (1 - s t)**(-power) against mu, on the nodes of mu
    refined to the scale 1 - s of the kernel, as prop511_value takes it."""
    log_t, log_w = measure_nodes(mu, sharpness=1.0 / max(1.0 - s, 1e-15))
    return float(_log_poisson_kernel(log_t, log_w, s, 1.0 - s, power))


class TestRestrictAndKernel:
    def test_atom_filter(self):
        mu = atoms([(0.5, 1.0), (0.1, 2.0)])
        out = restrict(mu, 0.8, 1.0)
        assert [a.delta for a in out.atoms] == [0.1]

    def test_atom_next_to_one_is_kept(self):
        # x = 1 - 1e-20 rounds to 1.0; membership is decided on delta
        mu = atoms([(1e-20, 1.0), (0.25, 1.0)])
        assert [a.delta for a in restrict(mu, 0.0, 1.0).atoms] == [0.25, 1e-20]
        assert [a.delta for a in restrict(mu, 0.9, 1.0).atoms] == [1e-20]
        assert [a.delta for a in restrict(mu, 0.0, 0.9).atoms] == [0.25]

    def test_atom_interval_is_half_open(self):
        mu = atoms([(0.5, 1.0)])
        assert [a.delta for a in restrict(mu, 0.5, 1.0).atoms] == [0.5]
        assert restrict(mu, 0.0, 0.5).is_empty

    def test_restriction_of_restriction_intersects(self):
        out = restrict(restrict(Lebesgue(), 0.2, 0.9), 0.5, 1.0)
        assert isinstance(out, Restriction)
        assert (out.a, out.b) == (0.5, 0.9)
        empty = restrict(restrict(Lebesgue(), 0.2, 0.4), 0.5, 1.0)
        assert isinstance(empty, AtomicMeasure) and empty.is_empty

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            restrict(Lebesgue(), 0.5, 0.5)

    def test_tail_mass(self):
        assert tail_mass(Lebesgue(), 0.25) == 0.25
        assert tail_mass(GEOM30, 2.0 ** -3) == pytest.approx(
            sum(4.0 ** -k for k in range(3, 31)), rel=1e-14)

    def test_kernel_integral_atoms_exact(self):
        mu = atoms([(0.5, 2.0)])
        got = math.exp(_log_kernel(mu, 0.5, 2.0))
        assert got == pytest.approx(2.0 / (1 - 0.25) ** 2, rel=1e-14)

    @pytest.mark.parametrize("mu,alpha,lo,hi", [
        (DensityMeasure("oneminus_power", alpha=1.0), 1.0, 0.0, 1.0),
        (restrict(DensityMeasure("oneminus_power", alpha=-0.5), 0.5, 1.0), -0.5, 0.5, 1.0),
        (restrict(Lebesgue(), 0.25, 0.75), 0.0, 0.25, 0.75),
    ], ids=["density", "density-tail", "lebesgue-interval"])
    def test_kernel_integral_on_nodes_against_mpmath(self, mu, alpha, lo, hi):
        for s in (0.5, 0.999):
            with mpmath.workdps(30):
                ref = mpmath.quad(lambda t: (1 - t) ** alpha * (1 - s * t) ** -2, [lo, hi])
            assert math.exp(_log_kernel(mu, s, 2.0)) == pytest.approx(float(ref), rel=1e-12)

    def test_kernel_integral_saturates_instead_of_raising(self):
        # (1e-304)**-3 is past the float range; its log is not
        log_val = _log_kernel(atoms([(1e-304, 1.0)]), 1.0, 3.0)
        assert math.isfinite(log_val) and log_val > 709.0
