import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st

from muntzlab import dnp, measures
from muntzlab.dnp import (WeightScheme, compute_dn, decreasing_rearrangement,
                          operator_bounds)
from muntzlab.logdomain import logsumexp
from muntzlab.measures import (DensityMeasure, Lebesgue, atoms, log_powers, measure_nodes,
                               restrict)
from muntzlab.sequences import ExponentSequence, generate_geometric
from test_lpnorm import lp_norm

GEO = generate_geometric(1, 2, 24)
HALF_ATOM = atoms([(0.5, 1.0)])
# measured tail estimates of test_general_p_density's profile, D_n(3) on u dt
DENSITY_TAILS = (4.0408e-12, 4.9566e-12, 6.8108e-12, 1.0627e-11, 1.8681e-11, 3.6177e-11)


def lebesgue_moment(a):
    return 1 / (a + 1)


def density_moment(a):
    # integral of t**a (1 - t) dt
    return 1 / ((a + 1) * (a + 2))


def node_route_dn(seq, mu, weight, n_count=None, tol=1e-12):
    """compute_dn on its node route (dnp._node_route) whatever the measure
    and p, to check the other two routes against."""
    n_count = len(seq) if n_count is None else n_count
    inv_root = np.array([weight.log_inv_weight_root(l) for l in seq.exponents])
    logs, infos = dnp._node_route(np.array(seq.exponents), inv_root, mu, weight.p, n_count, tol)
    return dnp.DnProfile(logs, weight, infos)


def closed_dp(lams, n, p, moment):
    """D_n(p)**p over the prefix as the closed (p - 1)-fold sum of moments,
    in mpmath (p = 2 or 3, weights 1/lam)."""
    lam = [mp.mpf(l) for l in lams]
    c = [mp.root(l, p) for l in lam]
    if p == 2:
        return mp.fsum(c[n] * c[k] * moment(lam[n] + lam[k]) for k in range(len(lam)))
    total = mp.mpf(0)
    for k in range(len(lam)):
        total += c[n] * c[k] * c[k] * moment(lam[n] + 2 * lam[k])
        for j in range(k + 1, len(lam)):
            total += 2 * c[n] * c[k] * c[j] * moment(lam[n] + lam[k] + lam[j])
    return total


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

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_logs_stay_finite_where_the_values_underflow(self, p):
        # D_n(p) of an atom at delta = 1e-12 from lam = 2**50 on is below the float
        # range: its log, about log(lam) / p - lam * 1e-12, is not
        seq = generate_geometric(1, 2, 64)
        prof = compute_dn(seq, atoms([(1e-12, 1.0)]), WeightScheme("inverse_lambda", p))
        assert prof.values == tuple(math.exp(v) for v in prof.log_values)
        assert prof.values[-1] == 0.0 and math.isfinite(prof.log_values[-1])
        if p == 1.0:  # one moment: D_n(1) = lam_n (1 - 1e-12)**lam_n
            lam = seq.exponents[-1]
            assert prof.log_values[-1] == pytest.approx(
                math.log(lam) + lam * math.log1p(-1e-12), rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_values_are_the_logs_materialized(self, p):
        prof = compute_dn(GEO, Lebesgue(), WeightScheme("inverse_lambda", p), n_count=12)
        assert prof.values == tuple(math.exp(v) for v in prof.log_values)

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
        b = node_route_dn(GEO, mu, w, n_count=10)
        for x, y in zip(a.values, b.values):
            assert y == pytest.approx(x, rel=1e-10)

    def test_routes_agree_for_p2_lebesgue(self):
        w = WeightScheme("inverse_lambda", 2.0)
        a = compute_dn(GEO, Lebesgue(), w, n_count=8)
        b = node_route_dn(GEO, Lebesgue(), w, n_count=8)
        for x, y in zip(a.values, b.values):
            assert y == pytest.approx(x, rel=1e-9)

    @pytest.mark.parametrize("kind", ["inverse_lambda", "classical"])
    def test_node_route_graded_at_non_integer_exponents(self, kind):
        # 2 lam_0 = 0.02 and lam_1 - lam_0 = 0.01: the nodes are graded toward t = 0
        seq = generate_geometric(0.01, 2, 20)
        w = WeightScheme(kind, 2.0)
        a = compute_dn(seq, Lebesgue(), w)
        b = node_route_dn(seq, Lebesgue(), w)
        for x, y in zip(a.values, b.values):
            assert y == pytest.approx(x, rel=1e-12)

    def test_routes_agree_over_long_lebesgue_prefix(self):
        seq = generate_geometric(1, 2, 60)
        w = WeightScheme("inverse_lambda", 2.0)
        a = compute_dn(seq, Lebesgue(), w)
        b = node_route_dn(seq, Lebesgue(), w)
        for x, y in zip(a.values, b.values):
            assert y == pytest.approx(x, rel=1e-13)

    def test_general_route_truncation_report(self):
        w = WeightScheme("inverse_lambda", 3.0)
        settled = compute_dn(GEO, HALF_ATOM, w, n_count=6)
        info = settled.truncation[0]
        assert info.safe and info.tail_ratio == 0.0
        assert 0 < info.cutoff < len(GEO) - 1
        # the density's estimates lie between 4e-12 and 4e-11 (DENSITY_TAILS):
        # settled at tol 1e-10, not at 1e-12
        long_geo = generate_geometric(1, 2, 34)
        mu = DensityMeasure(alpha=1.0)
        assert compute_dn(long_geo, mu, w, n_count=6, tol=1e-10).all_safe
        tight = compute_dn(long_geo, mu, w, n_count=6)
        assert not any(t.safe for t in tight.truncation)
        # nodes reach u ~ 2**-8 / (p lam_last), but the terms there carry almost
        # none of D_0**3: the first-order share of the last term is below 1e-12
        assert tight.truncation[0].cutoff == 32
        short = compute_dn(GEO, Lebesgue(), w, n_count=6)
        info = short.truncation[0]
        assert not info.safe and info.tail_ratio > 0.0
        assert info.cutoff == len(GEO) - 1

    def test_cutoff_bounds_the_truncated_series(self):
        # cutoff is the last inner term with a first-order share of at least tol;
        # the inner series summed only that far, on the same nodes, moves D_n**p
        # by less than tol per omitted term
        seq = generate_geometric(1, 2, 34)
        mu = DensityMeasure(alpha=1.0)
        p, tol = 3.0, 1e-10
        prof = compute_dn(seq, mu, WeightScheme("inverse_lambda", p), n_count=6, tol=tol)
        cutoffs = [t.cutoff for t in prof.truncation]
        assert max(cutoffs) < len(seq) - 1
        lams = np.array(seq.exponents)
        log_t, log_w = measure_nodes(mu, sharpness=p * lams[-1])
        terms = log_powers(log_t, lams) + (np.log(lams) / p)[:, None]

        def log_dp(n, k_end):
            inner = logsumexp(terms[:k_end], axis=0)
            return float(logsumexp(terms[n] + (p - 1.0) * inner + log_w))

        for n, cut in enumerate(cutoffs):
            full = log_dp(n, len(seq))
            assert math.exp(full / p) == pytest.approx(prof.values[n], rel=1e-14)
            change = -math.expm1(log_dp(n, cut + 1) - full)
            assert 0.0 < change < (len(seq) - 1 - cut) * tol

    def test_lebesgue_p2_past_the_float_range(self):
        # lam_n + lam_k overflows at 1e308; it read as a zero moment, D_1 = 1e-77
        w_inv = WeightScheme("inverse_lambda", 2.0)
        w_cls = WeightScheme("classical", 2.0)
        cases = [(w_inv, (1.0, 1e308), lambda l: l),
                 (w_cls, (0.0, 1e308), lambda l: 2 * l + 1)]
        for weight, lams, inv_w in cases:
            prof = compute_dn(ExponentSequence(lams), Lebesgue(), weight)
            with mp.workdps(40):
                lam = [mp.mpf(l) for l in lams]
                refs = [float(mp.sqrt(mp.fsum(mp.sqrt(inv_w(lam[n]) * inv_w(k)) / (lam[n] + k + 1)
                                              for k in lam))) for n in range(2)]
            assert list(prof.values) == pytest.approx(refs, rel=1e-13)

    def test_general_p_density(self):
        # nodes reach u ~ 2**-8 / (3 lam_last), so the prefix does not settle
        # there to 1e-12: the tail estimates are asserted as measured, and
        # test_tail_estimate_against_longer_prefix checks them with mpmath
        long_geo = generate_geometric(1, 2, 34)
        mu = DensityMeasure(alpha=1.0)
        prof = compute_dn(long_geo, mu, WeightScheme("inverse_lambda", 3.0), n_count=6)
        assert all(v > 0.0 for v in prof.values)
        assert [t.tail_ratio for t in prof.truncation] == pytest.approx(DENSITY_TAILS, rel=1e-4)
        assert not prof.all_safe

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


class TestOracle:
    """compute_dn against 40-digit mpmath sums."""

    def test_atomic_p2_node_route_against_double_series(self):
        pairs = [(0.5, 0.3), (1e-3, 1.0), (1e-6, 0.7), (1e-9, 0.2), (1e-12, 0.5)]
        seq = generate_geometric(1, 2, 64)
        prof = compute_dn(seq, atoms(pairs), WeightScheme("inverse_lambda", 2.0))
        with mp.workdps(40):
            lam = [mp.mpf(l) for l in seq.exponents]
            log_x = [mp.log1p(-mp.mpf(d)) for d, _ in pairs]
            refs = [float(mp.sqrt(mp.fsum(
                mp.sqrt(lam[n] * lam[k]) * mp.fsum(m * mp.exp((lam[n] + lam[k]) * lx)
                                                   for (_, m), lx in zip(pairs, log_x))
                for k in range(len(lam))))) for n in range(len(lam))]
        compared = 0
        for n, ref in enumerate(refs):
            if ref == 0.0:  # below the float range; so is the profile
                assert prof.values[n] == 0.0
                continue
            assert prof.values[n] == pytest.approx(ref, rel=1e-13)
            compared += 1
        assert compared >= 40
        assert prof.all_safe

    def test_lebesgue_p2_against_closed_sum(self):
        seq = generate_geometric(1, 2, 60)
        prof = compute_dn(seq, Lebesgue(), WeightScheme("inverse_lambda", 2.0))
        with mp.workdps(40):
            refs = [float(mp.sqrt(closed_dp(seq.exponents, n, 2, lebesgue_moment)))
                    for n in range(len(seq))]
        assert list(prof.values) == pytest.approx(refs, rel=1e-13)

    def test_lebesgue_p3_against_closed_sum(self):
        # nodes sized by the last n instead of the last prefix entry left this 3.4e-3 off
        seq = generate_geometric(1, 2, 60)
        prof = compute_dn(seq, Lebesgue(), WeightScheme("inverse_lambda", 3.0), n_count=24)
        with mp.workdps(30):
            refs = [float(mp.cbrt(closed_dp(seq.exponents, n, 3, lebesgue_moment)))
                    for n in range(24)]
        assert list(prof.values) == pytest.approx(refs, rel=1e-12)

    @pytest.mark.parametrize("mu, moment, p, count, n_count, route", [
        (Lebesgue(), lebesgue_moment, 3, 24, 6, node_route_dn),
        (DensityMeasure(alpha=1.0), density_moment, 3, 34, 6, node_route_dn),
        (Lebesgue(), lebesgue_moment, 2, 16, 16, node_route_dn),
        (Lebesgue(), lebesgue_moment, 2, 16, 16, compute_dn),
        (Lebesgue(), lebesgue_moment, 2, 40, 24, compute_dn),
    ], ids=["lebesgue-p3", "density-p3", "lebesgue-p2", "lebesgue-p2-auto",
            "lebesgue-p2-auto-long"])
    def test_tail_estimate_against_longer_prefix(self, mu, moment, p, count, n_count, route):
        # the estimate is at least the change of D_n**p when the prefix runs on
        # (here 40 more terms, enough to converge) and at most 10 times it
        seq = generate_geometric(1, 2, count)
        longer = generate_geometric(1, 2, count + 40).exponents
        prof = route(seq, mu, WeightScheme("inverse_lambda", float(p)), n_count=n_count)
        for n in sorted({0, n_count // 2, n_count - 1}):
            with mp.workdps(40):
                prefix = closed_dp(seq.exponents, n, p, moment)
                change = float(closed_dp(longer, n, p, moment) / prefix - 1)
            assert prof.values[n] ** p == pytest.approx(float(prefix), rel=1e-13)
            assert change <= prof.truncation[n].tail_ratio <= 10.0 * change


def mp_log_dn2_uniform(lams, n, scale, a, b):
    """log D_n(2) on the density scale dt on [a, b), weights 1/lam, as the
    40-digit double series sum_k sqrt(lam_n lam_k) scale (b**e - a**e) / e,
    e = lam_n + lam_k + 1, each term taken from its log."""
    with mp.workdps(40):
        lam = [mp.mpf(l) for l in lams]
        log_a, log_b = (mp.log(mp.mpf(v)) if v > 0 else -mp.inf for v in (a, b))
        terms = []
        for k in lam:
            e = lam[n] + k + 1
            log_diff = e * log_b + (mp.log(-mp.expm1(e * (log_a - log_b))) if a > 0 else 0)
            terms.append((mp.log(lam[n]) + mp.log(k)) / 2 + mp.log(scale) + log_diff - mp.log(e))
        top = max(terms)
        return (top + mp.log(mp.fsum(mp.exp(t - top) for t in terms))) / 2


class TestClosedFormP2:
    """D_n(2) on every uniform density is the double series of one moments call."""

    SEQS = {"geometric:1,2,16": generate_geometric(1, 2, 16),
            "explicit:1,1e308": ExponentSequence((1.0, 1e308))}
    # absolute tolerance on log D_n: at lam = 1e308 each term's log is a sum of
    # logs near 709 that cancel to about -0.7, and the ulp of 709 is 1.1e-13
    LOG_TOL = {"geometric:1,2,16": 1e-14, "explicit:1,1e308": 2.5e-13}
    MEASURES = {"[0,1)": (1.0, 0.0, 1.0), "[0.25,0.75)-scale-3": (3.0, 0.25, 0.75),
                "[0,1e-20)": (1.0, 0.0, 1e-20), "scale-1e300": (1e300, 0.0, 1.0)}

    @pytest.mark.parametrize("mu", list(MEASURES))
    @pytest.mark.parametrize("seq", list(SEQS))
    def test_against_the_mpmath_double_series(self, seq, mu):
        exps, (scale, a, b) = self.SEQS[seq], self.MEASURES[mu]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            prof = compute_dn(exps, DensityMeasure(scale, 0.0, a, b),
                              WeightScheme("inverse_lambda", 2.0))
        for n, got in enumerate(prof.log_values):
            # log D_1 on [0, 1e-20) at lam = 1e308 is about -2.3e309: -inf as a float;
            # rel on the log, since a log D_n near e log b carries that product's rounding
            want = float(mp_log_dn2_uniform(exps.exponents, n, scale, a, b))
            assert got == pytest.approx(want, rel=1e-14, abs=self.LOG_TOL[seq])

    @pytest.mark.parametrize("seq", list(SEQS))
    def test_lebesgue_and_the_uniform_density_give_the_same_bits(self, seq):
        for kind in ("inverse_lambda", "classical"):
            w = WeightScheme(kind, 2.0)
            assert compute_dn(self.SEQS[seq], Lebesgue(), w) == \
                compute_dn(self.SEQS[seq], DensityMeasure(), w)

    def test_one_moments_call_of_halved_sums(self, monkeypatch):
        calls = []
        real = measures.moments
        monkeypatch.setattr(dnp, "moments", lambda mu, lam, p=1.0: calls.append(
            (np.array(lam), p)) or real(mu, lam, p))
        mu = DensityMeasure(3.0, 0.0, 0.25, 0.75)
        compute_dn(GEO, mu, WeightScheme("inverse_lambda", 2.0), n_count=5)
        ((lam, p),) = calls
        half = np.array(GEO.exponents) / 2.0
        assert p == 2.0 and np.array_equal(lam, half[:5, None] + half)

    def test_densities_of_other_alpha_keep_the_node_route(self, monkeypatch):
        monkeypatch.setattr(dnp, "_closed_form_p2_route", None)  # any call would raise
        compute_dn(GEO, DensityMeasure(alpha=0.5), WeightScheme("inverse_lambda", 2.0))


def _where_log_powers(log_t, exponents):
    """log_powers as an np.where over a second terms x nodes array."""
    with np.errstate(invalid="ignore"):
        return np.where((exponents == 0.0)[:, None], 0.0, np.multiply.outer(exponents, log_t))


def _copying_node_route(lams, inv_root, mu, p, n_count, tol):
    """dnp._node_route with the per-node shares of D_n**p in logsumexp's copy,
    on the terms x nodes matrix of measures.node_log_powers (with its
    log_powers patched to the np.where form)."""
    log_pow, log_w = measures.node_log_powers(mu, lams, p)
    terms = log_pow + inv_root[:, None]
    inner, ratio = logsumexp(terms, axis=0, return_shares=True)
    inner[inner == -math.inf] = 0.0
    tau = np.exp(dnp._log_tail_over_sum(terms.T, inner))
    head = terms[:n_count] + ((p - 1.0) * inner + log_w)
    log_dp, node_share = logsumexp(head, axis=1, return_shares=True)
    tail = (p - 1.0) * (node_share @ tau)
    share = (p - 1.0) * (node_share @ ratio.T)
    return dnp._log_values_and_truncation(log_dp, tail, share, p, tol)


class TestWorkingSet:
    """The node route forms its shares in place and log_powers zeroes the
    lam = 0 columns in place; both give the same bits as the copying forms."""

    SEQS = {
        "geometric": (GEO, "inverse_lambda"),
        "ratio-3": (generate_geometric(0.5, 3, 14), "inverse_lambda"),
        "leading-zero": (ExponentSequence((0.0, 1.0, 3.0, 7.0, 15.0, 31.0, 63.0, 127.0,
                                           255.0, 511.0)), "classical"),
    }
    MEASURES = {
        "lebesgue": Lebesgue(),
        "atoms-with-t0": atoms([(1.0, 0.5), (0.5, 1.0), (1e-3, 2.0), (1e-9, 0.25)]),
        "density": DensityMeasure(alpha=1.0),
        "restriction": restrict(Lebesgue(), 0.25, 0.75),
    }

    def _profiles_and_moments(self):
        out = []
        for seq, kind in self.SEQS.values():
            lams = np.array(seq.exponents)
            for mu in self.MEASURES.values():
                for p in (1.5, 2.0, 3.0, 4.0):
                    prof = compute_dn(seq, mu, WeightScheme(kind, p), n_count=len(seq) - 4)
                    out.append((prof, measures.moments(mu, lams, p)))
        return out

    def test_profiles_and_moments_bit_identical(self, monkeypatch):
        got = self._profiles_and_moments()
        monkeypatch.setattr(measures, "log_powers", _where_log_powers)
        monkeypatch.setattr(dnp, "_node_route", _copying_node_route)
        want = self._profiles_and_moments()
        assert len(got) == 48
        for (prof, mom), (ref_prof, ref_mom) in zip(got, want):
            assert prof == ref_prof
            assert np.array_equal(mom, ref_mom)


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

    @pytest.mark.parametrize("exps", [(1.0, 1e308), (0.5, 3.0, 1e300, 1e308), GEO.exponents],
                             ids=["past-float-range", "mixed", "geometric"])
    def test_lebesgue_nuclear_bound_against_mpmath(self, exps):
        # sum_n (lam_n / (1 + 2 lam_n))**(1/2); 2 lam overflows at lam = 1e308
        seq = ExponentSequence(exps)
        prof = compute_dn(seq, Lebesgue(), WeightScheme("inverse_lambda", 2.0))
        ob = operator_bounds(prof, Lebesgue(), seq)
        with mp.workdps(40):
            want = mp.fsum(mp.sqrt(mp.mpf(l) / (1 + 2 * mp.mpf(l))) for l in exps)
        assert ob.nuclear_bound == pytest.approx(float(want), rel=1e-13)

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
        mu = atoms([(0.7, 0.4), (0.3, 1.2), (0.05, 0.6)])
        w = WeightScheme("inverse_lambda", p)
        n = 10
        prof = compute_dn(GEO, mu, w, n_count=n)
        rng = np.random.default_rng(42)
        for _ in range(100):
            b = rng.uniform(-1.0, 1.0, n)
            lhs = lp_norm(GEO, b, mu, p)
            rhs = math.fsum(
                abs(bv) ** p * math.exp(-w.log_inv_weight(GEO[i])) * prof.values[i] ** p
                for i, bv in enumerate(b)) ** (1.0 / p)
            assert lhs <= rhs + 1e-9
