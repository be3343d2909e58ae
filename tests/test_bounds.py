import math

import mpmath
import pytest

from muntzlab.bounds import (conjugate, envelope_check, jlambda_upper, lemma31_bound,
                             log_shifted_ratios, r_epsilon)
from muntzlab.hilbert import frame_bounds
from muntzlab.sequences import ExponentSequence, generate_geometric

GEO50 = generate_geometric(1, 2, 50)


class TestConjugate:
    def test_values(self):
        assert conjugate(2.0) == 2.0
        assert conjugate(1.0) == math.inf
        assert conjugate(4.0) == pytest.approx(4.0 / 3.0)


class TestLemma31:
    def test_rhs_closed_form(self):
        res = lemma31_bound(2.0, 1.0, [1.0, 4.0, 16.0, 64.0], 4.0)
        assert res.rhs == pytest.approx(4.0, rel=1e-15)
        assert res.lhs <= res.rhs

    def test_singleton_lhs_zero(self):
        res = lemma31_bound(2.0, 1.0, [7.0], 4.0)
        assert res.lhs == 0.0

    def test_rejects_non_lacunary(self):
        with pytest.raises(ValueError):
            lemma31_bound(2.0, 1.0, [1.0, 2.0, 3.0], 2.0)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            lemma31_bound(1.0, 1.0, [1.0, 2.0], 2.0)
        with pytest.raises(ValueError):
            lemma31_bound(2.0, 0.0, [1.0, 2.0], 2.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 5.0])
    @pytest.mark.parametrize("r", [2.0, 4.0, 16.0])
    def test_inequality_on_grid(self, p, r):
        q = [r ** k for k in range(30)]
        for alpha in (1.0 / (p - 1.0), 1.0):
            res = lemma31_bound(p, alpha, q, r)
            assert res.lhs <= res.rhs


def _lemma31_lhs_by_loop(p, alpha, q):
    """max_n sum_{k != n} (q_n^{1/p} q_k^{1/p'} / (q_n/p + q_k/p'))^alpha term by
    term: the oracle for lemma31_bound's array form."""
    pp = conjugate(p)
    lhs = 0.0
    for n, qn in enumerate(q):
        s = 0.0
        for k, qk in enumerate(q):
            if k == n:
                continue
            num = qn ** (1.0 / p) * qk ** (1.0 / pp)
            s += (num / (qn / p + qk / pp)) ** alpha
        lhs = max(lhs, s)
    return lhs


# the 24 cases of the crossterm-bound suite: p, alpha in (1/(p-1), 1), r, 30 terms
_CROSSTERM_CASES = [(p, alpha, r) for p in (1.5, 2.0, 3.0, 5.0)
                    for alpha in (1.0 / (p - 1.0), 1.0) for r in (2.0, 4.0, 16.0)]


class TestLemma31Loop:
    @pytest.mark.parametrize("p,alpha,r", _CROSSTERM_CASES,
                             ids=[f"{i}-p={p:g}-alpha={a:g}-r={r:g}"
                                  for i, (p, a, r) in enumerate(_CROSSTERM_CASES)])
    def test_matches_the_double_loop(self, p, alpha, r):
        q = [r ** k for k in range(30)]
        res = lemma31_bound(p, alpha, q, r)
        want = _lemma31_lhs_by_loop(p, alpha, q)
        assert res.lhs == pytest.approx(want, rel=1e-15, abs=0.0)
        assert (res.lhs <= res.rhs) == (want <= res.rhs)


class TestLogShiftedRatios:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 400.0])
    @pytest.mark.parametrize("seq", [generate_geometric(1, 2, 16),
                                     generate_geometric(0.01, 1.2, 40),
                                     ExponentSequence((0.0, 1e-17, 1.0, 1e300))],
                             ids=["geometric:1,2,16", "geometric:0.01,1.2,40", "wide"])
    def test_logs_of_the_shifted_ratios(self, seq, p):
        # log(q_{n+1} / q_n), q = p lam + 1, in 30 digits from the same floats
        with mpmath.workdps(30):
            q = [mpmath.mpf(p) * mpmath.mpf(lam) + 1 for lam in seq]
            want = [float(mpmath.log(b / a)) for a, b in zip(q, q[1:])]
        got = log_shifted_ratios(seq, p)
        assert got.shape == (len(seq) - 1,)
        assert got.tolist() == pytest.approx(want, rel=1e-13, abs=1e-30)

    def test_past_the_float_range(self):
        # 3 * 1e308 is no float; its log is log 3 + log 1e308, the + 1 far below rounding
        with mpmath.workdps(30):
            want = float(mpmath.log((3 * mpmath.mpf(1e308) + 1) / 4))
        assert log_shifted_ratios(ExponentSequence((1.0, 1e308)), 3.0).tolist() == \
            pytest.approx([want], rel=1e-15)

    def test_one_exponent_has_no_ratio(self):
        assert log_shifted_ratios(ExponentSequence((2.0,)), 2.0).tolist() == []

    def test_refuses_p_below_1(self):
        with pytest.raises(ValueError, match="p must be >= 1, got 0.5"):
            log_shifted_ratios(generate_geometric(1, 2, 4), 0.5)


class TestJlambdaUpper:
    def test_p2_value(self):
        rep = jlambda_upper(2.0, 4.0)
        assert rep.upper_bound == pytest.approx(math.sqrt(5.0), rel=1e-15)
        assert rep.formula_id == "prop32"

    def test_p1_is_one(self):
        for r in (1.5, 4.0, 100.0):
            assert jlambda_upper(1.0, r).upper_bound == 1.0

    def test_formulas_coincide_at_p2(self):
        # p*(p-1) = 2 and 2*p^{1/(p-1)} = 4 at p = 2, so both branches agree
        for r in (2.0, 4.0, 10.0):
            a = (1.0 + 2.0 * 2.0 / (r ** 0.5 - 1.0)) ** 0.5
            b = (1.0 + 4.0 / (math.sqrt(r) - 1.0)) ** 0.5
            assert jlambda_upper(2.0, r).upper_bound == pytest.approx(a, rel=1e-12)
            assert a == pytest.approx(b, rel=1e-12)

    def test_decreasing_in_r(self):
        for p in (1.3, 2.0, 3.5):
            vals = [jlambda_upper(p, r).upper_bound for r in (1.5, 2, 4, 10, 100)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            jlambda_upper(2.0, 1.0)

    @pytest.mark.parametrize("lambda0, ratio, count, share", [
        (1, 2, 16, 0.715), (1, 4, 16, 0.811), (1, 1.5, 32, 0.705), (1, 16, 12, 0.900),
        (0.01, 2, 16, 0.157), (1, 1.2, 17, 0.488), (1, 100, 8, 0.953), (1, 1e4, 8, 0.995)])
    def test_exact_p2_norm_below_the_bound(self, lambda0, ratio, count, share):
        # Props 3.2 and 3.3 at p = 2 against the exact synthesis norm of the prefix,
        # sigma_max of its normalized Gram (Cholesky and SVD), r its smallest
        # shifted ratio q_{n+1} / q_n, q_n = 2 lam_n + 1
        seq = generate_geometric(lambda0, ratio, count)
        q = [2.0 * lam + 1.0 for lam in seq]
        r = min(b / a for a, b in zip(q, q[1:]))
        got = frame_bounds(seq, count).sigma_max / jlambda_upper(2.0, r).upper_bound
        assert got <= 1.0 and got == pytest.approx(share, abs=5e-4)


class TestREpsilon:
    def test_plug_in_values(self):
        assert r_epsilon(2.0, 0.5) == pytest.approx(289.0, rel=1e-13)
        assert r_epsilon(2.0, 1.0 - 1e-12) == pytest.approx(81.0, rel=1e-9)

    def test_symmetric_in_conjugates(self):
        assert r_epsilon(4.0 / 3.0, 0.3) == pytest.approx(r_epsilon(4.0, 0.3), rel=1e-12)

    def test_decreasing_in_eps(self):
        vals = [r_epsilon(2.0, e) for e in (0.1, 0.3, 0.5, 0.9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [18.0, 50.0, 1.0001, 1e200])
    def test_inf_past_the_float_range(self, p):
        assert r_epsilon(p, 0.5) == math.inf

    def test_float_power_just_inside_the_range(self):
        # p = 17: (1 + 8 * 17**(1/16))**272 is about e**641, the largest finite p
        got = r_epsilon(17.0, 0.5)
        want = mpmath.power(1 + 8 * mpmath.root(17, 16), 272)
        assert got == pytest.approx(float(want), rel=1e-13)

    def test_rejects_bad_eps(self):
        with pytest.raises(ValueError):
            r_epsilon(2.0, 0.0)
        with pytest.raises(ValueError):
            r_epsilon(2.0, 1.0)


class TestEnvelope:
    def test_known_point(self):
        # sum 2^n t^{2^n} at t = 1/2 equals 1.2814941...; ratio scales by (1-t)
        t, ratio = envelope_check(GEO50, 1.0).profile[0]  # j = 1
        assert t == 0.5
        assert ratio == pytest.approx(1.2814941480755806 * 0.5, rel=1e-12)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_bracket_positive_finite(self, alpha):
        br = envelope_check(GEO50, alpha)
        assert 0.0 < br.ratio_min <= br.ratio_max < math.inf

    def test_j_range_follows_the_largest_exponent(self):
        # j = 1..min(40, max(1, floor(log2 lam_max)))
        for seq, count in ((GEO50, 40), (generate_geometric(1, 2, 16), 15),
                           (ExponentSequence((0.5,)), 1)):
            assert len(envelope_check(seq, 1.0).profile) == count

    def test_default_prefix_bracket_stays_bounded(self):
        # the CLI default geometric:1,2,16 (lam up to 2^15) is quasi-geometric
        for alpha in (0.5, 1.0, 2.0):
            br = envelope_check(generate_geometric(1, 2, 16), alpha)
            assert br.ratio_max / br.ratio_min < 10.0

    def test_upper_edge_for_merely_lacunary(self):
        # super-lacunary growth keeps the majorization but loses the lower edge
        seq = ExponentSequence(tuple(2.0 ** (n * n) for n in range(7)))
        br = envelope_check(seq, 1.0)
        assert math.isfinite(br.ratio_max)
        assert br.ratio_min < 0.1  # lower edge collapses

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            envelope_check(GEO50, 0.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_log_edges_are_the_logs_of_the_ratios(self, alpha):
        br = envelope_check(GEO50, alpha)
        ratios = [r for _, r in br.profile]
        assert math.exp(br.log_ratio_min) == pytest.approx(min(ratios), rel=1e-14)
        assert math.exp(br.log_ratio_max) == pytest.approx(max(ratios), rel=1e-14)

    def test_log_edges_below_the_float_range(self):
        # lam_n = 1e-300 2**n: the one ratio (j = 1) at alpha = 2 is
        # (sum_n lam_n**2 2**-lam_n) / 4 = 1e-600 (sum_n 4**n 2**-lam_n) / 4,
        # about e**-1361.9
        br = envelope_check(generate_geometric(1e-300, 2, 16), 2.0)
        assert br.ratio_min == br.ratio_max == 0.0
        want = 2.0 * math.log(1e-300) + math.log(
            math.fsum(4.0 ** n * 0.5 ** (1e-300 * 2.0 ** n) for n in range(16)) / 4.0)
        assert br.log_ratio_min == br.log_ratio_max == pytest.approx(want, rel=1e-14)

