import collections
import itertools
import math
import random
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from muntzlab import lpnorm, measures
from muntzlab.logdomain import NeumaierSum, logsumexp, materialize, signed_logsumexp
from muntzlab.lpnorm import (_log_pth_power, _node_log_norms, amgm_probe, gm_ratio_sample,
                             l2_norm_gram, log_lp_norms, pairing_integral)
from muntzlab.measures import DensityMeasure, Lebesgue, atoms, node_log_powers, restrict
from muntzlab.sequences import ExponentSequence, generate_geometric

GEO = generate_geometric(1, 2, 16)


def log_norm(seq, coeffs, mu, p) -> float:
    """log ||sum_j a_j t**lam_j||_{L^p(mu)} of one vector: a one-row ``log_lp_norms``."""
    return float(log_lp_norms(seq, [coeffs], mu, p)[0])


def lp_norm(seq, coeffs, mu, p) -> float:
    """The same norm as a float (0.0 below the smallest subnormal)."""
    return materialize(log_norm(seq, coeffs, mu, p))


# pointwise oracle: per-term magnitudes, compensated signed summation
def eval_poly_logt(seq, coeffs, log_t: float) -> float:
    """Value of sum_j a_j t**lam_j at t = exp(log_t); log_t = -inf means t = 0."""
    acc = NeumaierSum()
    for a, lam in zip(coeffs, seq):
        if a == 0.0:
            continue
        if lam == 0.0:
            acc.add(a)
            continue
        if log_t == -math.inf:
            continue
        mag = lam * log_t + math.log(abs(a))
        acc.add(math.copysign(math.exp(mag), a) if mag > -745.0 else 0.0)
    return acc.total


def eval_poly(seq, coeffs, t: float) -> float:
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must be in [0,1), got {t}")
    return eval_poly_logt(seq, coeffs, math.log1p(t - 1.0) if t > 0.0 else -math.inf)


class TestEval:
    def test_single_monomial(self):
        assert eval_poly(ExponentSequence((3.0,)), (1.0,), 0.5) == pytest.approx(0.125)

    def test_signed_pair(self):
        assert eval_poly(ExponentSequence((1.0, 2.0)), (1.0, -1.0), 0.5) == pytest.approx(0.25)

    def test_constant_term_at_zero(self):
        assert eval_poly(ExponentSequence((0.0, 1.0)), (3.0, 5.0), 0.0) == 3.0

    def test_rejects_t_out_of_range(self):
        with pytest.raises(ValueError):
            eval_poly(ExponentSequence((1.0,)), (1.0,), 1.0)

    def test_coefficient_validation(self):
        with pytest.raises(ValueError, match="at least one coefficient"):
            log_lp_norms(GEO, [()], Lebesgue(), 2.0)
        with pytest.raises(ValueError, match="more coefficients than exponents"):
            log_lp_norms(ExponentSequence((1.0,)), [(1.0, 2.0)], Lebesgue(), 2.0)


class TestLpNorm:
    def test_t_minus_t2_l2(self):
        assert lp_norm(ExponentSequence((1.0, 2.0)), (1.0, -1.0), Lebesgue(), 2.0) == pytest.approx(
            math.sqrt(1.0 / 30.0), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.5])
    @pytest.mark.parametrize("lam", [1.0, 32.0, 1000.0])
    def test_monomial_norm_closed_form(self, p, lam):
        assert lp_norm(ExponentSequence((lam,)), (1.0,), Lebesgue(), p) == pytest.approx(
            (p * lam + 1.0) ** (-1.0 / p), rel=1e-11)

    def test_atomic_exact(self):
        mu = atoms([(0.5, 2.0), (0.25, 1.0)])
        direct = (2.0 * abs(0.5 - 0.25) ** 3 + 1.0 * abs(0.75 - 0.5625) ** 3) ** (1 / 3)
        assert lp_norm(ExponentSequence((1.0, 2.0)), (1.0, -1.0), mu, 3.0) == pytest.approx(
            direct, rel=1e-14)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_atomic_matches_pointwise_oracle(self, p):
        # atoms at t = 1 - delta; the oracle takes log t = log1p(-delta)
        points = [(0.5, 2.0), (0.1, 1.0), (1e-3, 0.25), (0.99, 3.0)]
        mu = atoms(points)
        rng = np.random.default_rng(12)
        for _ in range(10):
            a = rng.uniform(-1.0, 1.0, len(GEO)).tolist()
            direct = math.fsum(w * abs(eval_poly_logt(GEO, a, math.log1p(-delta))) ** p
                               for delta, w in points) ** (1 / p)
            assert lp_norm(GEO, a, mu, p) == pytest.approx(direct, rel=1e-12)

    def test_gram_route_agrees(self):
        rng = np.random.default_rng(9)
        seq = generate_geometric(1, 2, 10)
        for _ in range(20):
            a = rng.uniform(-1, 1, 10)
            quad = lp_norm(seq, a, Lebesgue(), 2.0)
            gram = l2_norm_gram(seq, a)
            assert quad == pytest.approx(gram, rel=1e-10)

    def test_refuses_monster_exponents_on_lebesgue(self):
        # p * lam = 2e14 needs float panels below u = 2**-53
        seq = ExponentSequence((1e14,))
        with pytest.raises(ValueError, match=r"below u = 2\*\*-53"):
            lp_norm(seq, (1.0,), Lebesgue(), 2.0)
        # the same polynomial against atoms stays exact; its norm 2**-1e14
        # is below every float, so the check is on the logarithm
        assert log_norm(seq, (1.0,), atoms([(0.5, 1.0)]), 2.0) == pytest.approx(
            1e14 * math.log(0.5), rel=1e-15)

    @pytest.mark.parametrize("exps, coeffs, expected", [
        ((1000.0,), (1.0,), 0.5 ** 1000),
        ((1000.0, 1001.0), (1.0, -1.0), 0.5 ** 1001),
    ])
    def test_atomic_norm_below_exp_underflow(self, exps, coeffs, expected):
        # each term is below e**-745 although the norm is a normal float
        assert lp_norm(ExponentSequence(exps), coeffs, atoms([(0.5, 1.0)]), 2.0) == pytest.approx(
            expected, rel=1e-12)

    def test_zero_polynomial_and_empty_restriction_give_zero(self):
        mu = atoms([(0.5, 1.0), (0.1, 2.0)])
        seq = ExponentSequence((1.0, 2.0))
        assert lp_norm(seq, (0.0, 0.0), mu, 2.0) == 0.0
        assert log_norm(seq, (0.0, 0.0), mu, 2.0) == -math.inf
        empty = restrict(mu, 0.0, 0.1)
        assert lp_norm(seq, (1.0, -1.0), empty, 3.0) == 0.0
        assert log_norm(seq, (1.0, -1.0), empty, 3.0) == -math.inf

    def test_singular_density(self):
        # integral of t**2 (1-t)**-0.5 dt = B(3, 1/2) = 16/15
        mu = DensityMeasure("oneminus_power", alpha=-0.5)
        assert lp_norm(ExponentSequence((1.0,)), (1.0,), mu, 2.0) ** 2 == pytest.approx(
            16 / 15, rel=1e-13)

    def test_restriction_norm_below_exp_underflow(self):
        # ||t**1000||_2 on [0, 1/2): its square 0.5**2001 / 2001 underflows
        got = log_norm(ExponentSequence((1000.0,)), (1.0,), restrict(Lebesgue(), 0.0, 0.5), 2.0)
        assert got == pytest.approx(0.5 * (2001 * math.log(0.5) - math.log(2001)),
                                        rel=1e-14)

    @given(st.floats(min_value=-100.0, max_value=100.0))
    @settings(max_examples=30)
    def test_homogeneity(self, c):
        seq, a = ExponentSequence((1.0, 2.0, 4.0)), (0.3, -1.0, 0.5)
        assert lp_norm(seq, [c * v for v in a], Lebesgue(), 2.0) == pytest.approx(
            abs(c) * lp_norm(seq, a, Lebesgue(), 2.0), rel=1e-12, abs=1e-12)

    def test_monotone_under_restriction(self):
        mu = atoms([(0.7, 1.0), (0.2, 2.0)])
        seq = ExponentSequence((1.0, 2.0))
        assert lp_norm(seq, (1.0, 1.0), restrict(mu, 0.5, 1.0), 2.0) <= lp_norm(
            seq, (1.0, 1.0), mu, 2.0)


class TestLogLpNorms:
    """All the rows of one coefficient matrix: one check, one node set."""

    MEASURES = {
        "atoms": atoms([(0.5, 1.0), (0.1, 2.0), (1e-6, 0.25), (1e-20, 0.5)]),
        "density": DensityMeasure("oneminus_power", alpha=0.5),
        "restriction": restrict(Lebesgue(), 0.25, 0.75),
        "lebesgue": Lebesgue(),
    }

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    @pytest.mark.parametrize("name", list(MEASURES))
    def test_rows_are_the_one_row_norms_bit_for_bit(self, name, p):
        mu, seq = self.MEASURES[name], generate_geometric(1, 2, 8)
        coeffs = np.vstack([np.random.default_rng(5).uniform(-1.0, 1.0, (5, 8)),
                            np.zeros(8), np.eye(8)[3]])
        got = log_lp_norms(seq, coeffs, mu, p)
        assert got.tolist() == [log_norm(seq, a, mu, p) for a in coeffs]
        assert got[5] == -math.inf and np.isfinite(got[[0, 1, 2, 3, 4, 6]]).all()

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_zero_row_and_empty_restriction_are_minus_inf_silently(self, p):
        seq, mu = ExponentSequence((1.0, 2.0)), atoms([(0.5, 1.0), (0.1, 2.0)])
        coeffs = np.array([[0.0, 0.0], [1.0, -1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            on_atoms = log_lp_norms(seq, coeffs, mu, p)
            empty = log_lp_norms(seq, coeffs, restrict(mu, 0.0, 0.1), p)
            on_lebesgue = log_lp_norms(seq, coeffs, Lebesgue(), p)
        assert on_atoms[0] == on_lebesgue[0] == -math.inf
        assert np.isfinite([on_atoms[1], on_lebesgue[1]]).all()
        assert empty.tolist() == [-math.inf, -math.inf]

    def test_one_node_set_for_all_rows(self, monkeypatch):
        calls = []
        real = lpnorm.node_log_powers
        monkeypatch.setattr(lpnorm, "node_log_powers", lambda *a: calls.append(1) or real(*a))
        got = log_lp_norms(GEO, np.ones((40, 16)), self.MEASURES["atoms"], 2.0)
        assert len(got) == 40 and len(calls) == 1

    @pytest.mark.parametrize("exps, mu, p, match", [
        # p * lam just past 2**46: the first panel depth would pass 53
        ((1.0, 2.0 ** 46 / 3.0 * (1.0 + 1e-12)), Lebesgue(), 3.0, r"below u = 2\*\*-53"),
        ((1.0, 2.0), atoms([(0.5, 1.0)]), 0.5, "p must be >= 1"),
        ((1.0, 2.0), Lebesgue(), 0.5, "p must be >= 1"),
        ((1.0, 1e308), atoms([(0.5, 1.0)]), 2.0, "beyond the float range"),
        ((1.0, 2.0), Lebesgue(), 1e308, "beyond the float range"),
    ], ids=["limit-lebesgue", "p-atoms", "p-lebesgue", "overflow-atoms", "overflow-lebesgue"])
    def test_refusals_are_made_once_per_call(self, exps, mu, p, match, monkeypatch):
        # p is checked once, and the route that refuses is entered at most once:
        # the first Lebesgue row's quadrature refuses before any panel
        calls = {"_check_p": 0, "integrate_to_one": 0, "node_log_powers": 0}
        for name in calls:
            real = getattr(lpnorm, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(lpnorm, name, counting)
        with pytest.raises(ValueError, match=match):
            log_lp_norms(ExponentSequence(exps), np.ones((50, 2)), mu, p)
        assert calls["_check_p"] == 1
        assert calls["integrate_to_one"] + calls["node_log_powers"] <= 1

    def test_density_past_the_old_cap_takes_one_node_set(self, monkeypatch):
        # lam = 1e13 was refused on every non-atomic measure; the nodes have no such edge
        calls = []
        real = lpnorm.node_log_powers
        monkeypatch.setattr(lpnorm, "node_log_powers", lambda *a: calls.append(1) or real(*a))
        got = log_lp_norms(ExponentSequence((1.0, 1e13)), np.eye(2), DensityMeasure("uniform"),
                           3.0)
        assert len(calls) == 1
        want = [-math.log(3.0 * lam + 1.0) / 3.0 for lam in (1.0, 1e13)]
        assert got.tolist() == pytest.approx(want, rel=1e-14)

    @pytest.mark.parametrize("coeffs, match", [
        ([1.0, 2.0], "vectors x terms matrix"),
        (np.zeros((2, 0)), "at least one coefficient"),
        (np.ones((2, 17)), "more coefficients than exponents"),
        ([[1.0, math.inf]], "finite"),
    ])
    def test_matrix_is_checked_like_a_polynomial(self, coeffs, match):
        with pytest.raises(ValueError, match=match):
            log_lp_norms(GEO, coeffs, Lebesgue(), 2.0)


def per_row_log_norm(log_pow, log_w, a, p):
    """log ||f||_p on the nodes, one row alone, through the public kernels:
    a signed log-sum-exp over the terms at each node (down each column of
    the terms x nodes matrix), then one over the nodes."""
    with np.errstate(divide="ignore"):
        logs = log_pow + np.log(np.abs(a))[:, None]
    return logsumexp(log_w + p * signed_logsumexp(logs, a[:, None], axis=0)[0]) / p


class TestNodeLogNorms:
    """Monomial rows as one log-sum-exp over the nodes, the others row by row."""

    MEASURES = {
        "lebesgue": Lebesgue(),
        "atoms-at-t=0": atoms([(1.0, 0.5), (0.5, 1.0), (0.1, 2.0), (1e-6, 0.25)]),
        "density": DensityMeasure("oneminus_power", alpha=0.5),
    }
    SEQS = {
        "geometric:1,2,8": generate_geometric(1, 2, 8),
        "lam0=0": ExponentSequence((0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)),
        "geometric:0.3,2,8": generate_geometric(0.3, 2, 8),  # graded toward t = 0
    }

    @staticmethod
    def rows(n):
        eye = np.eye(n)
        return np.vstack([
            eye,                                     # canonical rows
            -3.0 * eye[1], 1e-300 * eye[2], -1e-300 * eye[n - 1], 0.7 * eye[0],
            np.zeros(n),                             # all zero
            np.where(np.arange(n) % 3 == 0, 0.0, 1.0) * np.linspace(-1.0, 1.0, n),
            eye[0] - 2.0 * eye[n - 1],               # two nonzero, the rest zero
            1e-300 * eye[1] + eye[3],
            np.random.default_rng(8).uniform(-1.0, 1.0, (4, n)),
        ])

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("seq", list(SEQS))
    @pytest.mark.parametrize("mu", list(MEASURES))
    def test_rows_are_the_per_row_route_bit_for_bit(self, mu, seq, p):
        exps = self.SEQS[seq]
        log_pow, log_w = node_log_powers(self.MEASURES[mu], np.array(exps.exponents), p)
        coeffs = self.rows(len(exps))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _node_log_norms(log_pow, log_w, coeffs, p)
        want = [per_row_log_norm(log_pow, log_w, a, p) for a in coeffs]
        assert got.tolist() == want
        zero = len(exps) + 4
        assert got[zero] == -math.inf and np.isfinite(np.delete(got, zero)).all()

    def test_monomial_rows_below_the_float_range(self):
        # log ||1e-300 t**1000||_2 on [0, 1/2) = log 1e-300 + log ||t**1000||_2
        seq, mu = ExponentSequence((1.0, 1000.0)), restrict(Lebesgue(), 0.0, 0.5)
        got = log_lp_norms(seq, [[0.0, 1e-300], [0.0, -1.0]], mu, 2.0)
        assert got[0] == pytest.approx(math.log(1e-300) + got[1], rel=1e-14)
        assert got[1] == pytest.approx(0.5 * (2001 * math.log(0.5) - math.log(2001)),
                                       rel=1e-14)

    def test_per_row_kernel_only_for_rows_with_two_nonzero_terms(self, monkeypatch):
        # report-p3's basis sample: 24 canonical rows and 100 random ones
        seen = []
        real = lpnorm._log_pth_power
        monkeypatch.setattr(lpnorm, "_log_pth_power",
                            lambda *a: seen.append(np.count_nonzero(a[2])) or real(*a))
        gm_ratio_sample(generate_geometric(1, 2, 60), 3.0, trials=100, n_count=24)
        assert len(seen) == 100 and min(seen) >= 2
        seen.clear()
        log_pow, log_w = node_log_powers(Lebesgue(), np.array(GEO.exponents), 3.0)
        _node_log_norms(log_pow, log_w, self.rows(len(GEO)), 3.0)
        assert len(seen) == 7 and min(seen) >= 2  # the last 7 of ``rows``


class TestNodeNormsAgainstExactSums:
    """References that fix no summation order: mpmath at 40 digits and exact
    rational sums, so they hold in any layout of the node matrix."""

    SEQ = generate_geometric(1, 2, 6)  # 1, 2, 4, ..., 32
    ATOMS = [(0.9, 0.3), (0.7, 1.0), (0.45, 0.5), (0.3, 2.0), (0.1, 0.25), (1e-3, 1.5),
             (1e-8, 0.75)]
    SIGNED_ROWS = [
        [1.0, -2.0, 0.0, 0.0, 0.0, 0.0],   # t - 2t**2, root at t = 1/2
        [-1.0, 0.0, 3.0, 0.0, 0.0, -1.5],
        [0.3, -1.2, 0.0, 2.0, -0.7, -0.4],
    ]

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_signed_rows_on_atoms_against_mpmath(self, p):
        got = log_lp_norms(self.SEQ, self.SIGNED_ROWS, atoms(self.ATOMS), p)
        t = np.linspace(0.01, 0.99, 99)
        with mpmath.workdps(40):
            for row, log_norm in zip(self.SIGNED_ROWS, got.tolist()):
                values = sum(a * t ** lam for a, lam in zip(row, self.SEQ))
                assert values.min() < 0.0 < values.max()  # a sign change inside (0, 1)
                total = mpmath.fsum(
                    mpmath.mpf(m) * abs(mpmath.fsum(mpmath.mpf(a) * (1 - mpmath.mpf(d)) ** int(lam)
                                                    for a, lam in zip(row, self.SEQ))) ** p
                    for d, m in self.ATOMS)
                assert math.exp(log_norm) == pytest.approx(float(total ** (1 / mpmath.mpf(p))),
                                                           rel=1e-13)

    def test_coefficients_from_1e_minus_300_to_1_at_p4_on_lebesgue(self):
        # ||f||_4**4 on dt is the sum of a_i a_j a_k a_l / (lam_i + ... + lam_l + 1),
        # exact in rationals; the terms of 1e-300 underflow as floats.  Both
        # routes: the node kernel of gm_ratio_sample and the float quadrature
        seq = generate_geometric(1, 2, 8)
        row = [1e-300, 0.0, -1e-200, 0.5, 1e-100, 0.0, -1.0, 0.25]
        coeffs = [(Fraction(a), int(lam)) for a, lam in zip(row, seq) if a != 0.0]
        exact = sum(a * b * c * d / (la + lb + lc + ld + 1)
                    for (a, la), (b, lb), (c, lc), (d, ld) in itertools.product(coeffs, repeat=4))
        on_nodes = _node_log_norms(*node_log_powers(Lebesgue(), np.array(seq.exponents), 4.0),
                                   np.array([row]), 4.0)[0]
        for got in (on_nodes, log_lp_norms(seq, [row], Lebesgue(), 4.0)[0]):
            assert math.isfinite(got)
            assert math.exp(4.0 * got) == pytest.approx(float(exact), rel=1e-13)


class TestMonomialNormsPastTheOldCap:
    """t**lam past lam = 1e12, on the nodes, against closed forms in mpmath."""

    @staticmethod
    def _log_beta(lam, p):
        # log of the p-th power of the norm on (1 - t)**0.5 dt: log B(p lam + 1, 1.5),
        # equal to lgamma(1.5) - 1.5 log(p lam + 1) to float precision at these lam;
        # the digits cover log Gamma(3e300)
        with mpmath.workdps(340):
            e = mpmath.mpf(p) * mpmath.mpf(lam) + 1
            return mpmath.loggamma(e) + mpmath.loggamma(1.5) - mpmath.loggamma(e + 1.5)

    @staticmethod
    def _log_window(lam, p):
        # log of the integral of t**(p lam) over [0.2, 0.7): log((b**e - a**e) / e)
        with mpmath.workdps(30):
            e = mpmath.mpf(p) * mpmath.mpf(lam) + 1
            a, b = mpmath.mpf(0.2), mpmath.mpf(0.7)
            return mpmath.log((b ** e - a ** e) / e)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("lam", [1e14, 1e50, 1e300])
    @pytest.mark.parametrize("mu, closed_form", [
        (DensityMeasure("oneminus_power", alpha=0.5), "_log_beta"),
        (restrict(Lebesgue(), 0.2, 0.7), "_log_window"),
    ], ids=["oneminus_power", "restriction"])
    def test_log_norm_within_two_ulp(self, lam, p, mu, closed_form):
        want = float(getattr(self, closed_form)(lam, p) / p)
        got = log_norm(ExponentSequence((lam,)), (1.0,), mu, p)
        assert abs(got - want) <= 2 * math.ulp(want)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_lebesgue_just_below_the_panel_edge(self, p):
        # the float panels take p * lam up to 2**46, the first depth then 53
        lam = 2.0 ** 46 / p * (1.0 - 1e-12)
        got = lp_norm(ExponentSequence((lam,)), (1.0,), Lebesgue(), p)
        assert got == pytest.approx((p * lam + 1.0) ** (-1.0 / p), rel=1e-14)


def mp_log_norm(exps, coeffs, p, alpha=None):
    """log of (integral_0^1 |f|**p g dt)**(1/p), f = sum_j a_j t**lam_j with
    positive a_j, g = 1 or (1 - t)**alpha: mpmath, 30 digits, tanh-sinh with
    the endpoint t = 0 where t**(p lam_0) is not smooth."""
    with mpmath.workdps(30):
        def g(t):
            f = mpmath.fsum(mpmath.mpf(a) * t ** mpmath.mpf(l) for a, l in zip(coeffs, exps))
            return f ** p * ((1 - t) ** mpmath.mpf(alpha) if alpha is not None else 1)
        return float(mpmath.log(mpmath.quad(g, [0, 0.25, 1])) / p)


class TestNormsNearTZero:
    """|f|**p not smooth at t = 0: graded panels toward t = 0."""

    COEFFS = [[1.0, 0.0, 0.0, 0.0], [1.0, 0.5, 0.25, 0.125]]  # no sign change on [0, 1]
    # p * lam_0 = 0 is an integer, but t**0.5 is not smooth at t = 0: graded by
    # lam_1 - lam_0 = 0.5
    LEADING_ZERO = ExponentSequence((0.0, 0.5, 2.0, 8.0))

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("lam0", [0.01, 0.3, 0.5])
    @pytest.mark.parametrize("mu, alpha", [(Lebesgue(), None),
                                           (DensityMeasure("uniform"), None),
                                           (DensityMeasure("oneminus_power", alpha=0.5), 0.5)],
                             ids=["lebesgue", "uniform-density", "oneminus_power"])
    def test_norms_against_mpmath(self, lam0, p, mu, alpha):
        seq = generate_geometric(lam0, 3, 4)
        got = log_lp_norms(seq, self.COEFFS, mu, p)
        want = [mp_log_norm(seq.exponents, a, p, alpha) for a in self.COEFFS]
        assert got.tolist() == pytest.approx(want, rel=1e-13, abs=1e-14)

    def test_leading_zero_lebesgue_norm(self):
        got = log_lp_norms(self.LEADING_ZERO, [[0.0, 1.0, 0.0, 0.0]], Lebesgue(), 1.0)[0]
        assert got == pytest.approx(math.log(2.0 / 3.0), rel=1e-13, abs=1e-13)

    def test_leading_zero_canonical_ratios(self):
        res = gm_ratio_sample(self.LEADING_ZERO, 1.0)
        assert res.canonical == pytest.approx((1.0, 1.0), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("lam0", [0.01, 0.3, 0.5])
    def test_canonical_ratios_are_one(self, lam0, p):
        res = gm_ratio_sample(generate_geometric(lam0, 2, 16), p, trials=0)
        assert res.canonical == pytest.approx((1.0, 1.0), abs=1e-13)


def mp_split_norm(exps, coeffs, p):
    """(||f||_p on Lebesgue measure, the sign changes of f in (0, 1)) for
    f = sum_j a_j t**lam_j at integer p: mpmath, 30 digits, the closed-form
    antiderivative of f**p (sum over p-tuples of terms) taken between the
    roots of f, each bracketed on a float grid geometric in u = 1 - t."""
    u = np.concatenate([[1.0], 2.0 ** -np.linspace(0.0, 45.0, 45 * 400)[1:]])
    t = 1.0 - u
    grid = (np.array(coeffs) * t[:, None] ** np.array(exps)).sum(axis=1)
    brackets = np.nonzero(np.sign(grid[:-1]) * np.sign(grid[1:]) < 0)[0]
    with mpmath.workdps(30):
        lam, a = [mpmath.mpf(l) for l in exps], [mpmath.mpf(c) for c in coeffs]

        def f(x):
            return mpmath.fsum(c * x ** l for c, l in zip(a, lam))

        edges = [mpmath.mpf(0)] + [
            mpmath.findroot(f, (mpmath.mpf(t[k]), mpmath.mpf(t[k + 1])), solver="anderson")
            for k in brackets] + [mpmath.mpf(1)]
        power = {}
        for idx in itertools.product(range(len(a)), repeat=int(p)):
            m = mpmath.fsum(lam[i] for i in idx) + 1
            power[m] = power.get(m, 0) + mpmath.fprod(a[i] for i in idx)
        antiderivative = [mpmath.fsum(c * x ** m / m for m, c in power.items()) for x in edges]
        total = mpmath.fsum(abs(hi - lo) for lo, hi in zip(antiderivative, antiderivative[1:]))
        return float(total ** (1 / mpmath.mpf(p))), len(brackets)


class TestReportDefaultRows:
    """The Lebesgue rows of the diagonal-domination suite with every CLI
    default: geometric:1,2,16 and the 100 rows of ``_uniform_rows``, at p = 2
    and, against mpmath, at p = 3 too."""

    @pytest.mark.parametrize("seed", [0, 41])
    def test_at_most_42_panels_per_row(self, seed, monkeypatch):
        # passes at depths 24 and 40: 40 panels and 2 closing panels; the totals
        # of the two passes agree, so no third pass re-splits the closing panel
        integrands = []  # one integrand per row; kept, so no id is reused

        def counting(f, lo, hi):
            integrands.append(f)
            return panel(f, lo, hi)

        panel = measures._gl_panel
        monkeypatch.setattr(measures, "_gl_panel", counting)
        log_lp_norms(GEO, lpnorm._uniform_rows(seed, 100, 16), Lebesgue(), 2.0)
        per_row = collections.Counter(map(id, integrands))
        assert len(per_row) == 100 and max(per_row.values()) <= 42

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_five_rows_against_mpmath(self, p):
        rows = lpnorm._uniform_rows(0, 5, 16)
        got = np.exp(log_lp_norms(GEO, rows, Lebesgue(), p))
        for norm, row in zip(got.tolist(), rows.tolist()):
            want, roots = mp_split_norm(GEO.exponents, row, p)
            # |f|**3 has a kink at each sign change of f, inside a panel: an
            # error the quadrature does not see (ROADMAP item 7), 7.1e-9 on row 1
            tol = 1e-12 if p == 2.0 or roots == 0 else 1e-8
            assert norm == pytest.approx(want, rel=tol, abs=0.0)


class TestRatioSample:
    def test_canonical_vectors_ratio_one(self):
        res = gm_ratio_sample(GEO, 2.0, trials=0)
        assert res.min_ratio == pytest.approx(1.0, abs=1e-12)
        assert res.max_ratio == pytest.approx(1.0, abs=1e-12)

    def test_large_ratio_bracket(self):
        seq = generate_geometric(1000, 300, 8)
        res = gm_ratio_sample(seq, 2.0, trials=200, seed=1)
        assert 0.5 <= res.min_ratio <= res.max_ratio <= 1.5

    def test_p1_upper_ratio_at_most_one(self):
        res = gm_ratio_sample(GEO, 1.0, trials=50, seed=2, n_count=6)
        assert res.max_ratio <= 1.0 + 1e-9

    def test_warns_on_non_lacunary(self):
        seq = ExponentSequence((1.0, 1.1, 1.2, 1.3))
        with pytest.warns(UserWarning):
            gm_ratio_sample(seq, 2.0, trials=1, seed=0)

    @pytest.mark.parametrize("exps", [(1.0, 2.0, 3.0), (1.0, 4.0, 9.0, 16.0, 25.0)])
    def test_warns_on_decreasing_ratios(self, exps):
        with pytest.warns(UserWarning, match="non-lacunary"):
            gm_ratio_sample(ExponentSequence(exps), 2.0, trials=1, seed=0)

    @pytest.mark.parametrize("seq", [
        generate_geometric(2.7, 1.5, 3), generate_geometric(2.7, 1.5, 4),
        generate_geometric(0.3, 1.7, 3), GEO, generate_geometric(1, 2, 64),
    ])
    def test_geometric_does_not_warn(self, seq):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            gm_ratio_sample(seq, 2.0, trials=1, seed=0)

    def test_leading_zero_pair(self):
        # (0, 1) has no ratio to classify; sampling still works
        res = gm_ratio_sample(ExponentSequence((0.0, 1.0)), 2.0, trials=3, seed=0)
        assert res.trials == 5

    def test_reproducible(self):
        a = gm_ratio_sample(GEO, 2.0, trials=25, seed=7)
        b = gm_ratio_sample(GEO, 2.0, trials=25, seed=7)
        assert (a.min_ratio, a.max_ratio) == (b.min_ratio, b.max_ratio)


def uniform_draws(seed, rows, n):
    """The coefficient rows of a seeded sample, one value at a time: each is
    the next 64-bit word of ``random.Random(seed)`` (lower 32 bits first),
    its top 53 bits over 2**52, minus 1."""
    rng = random.Random(seed)
    return [np.array([(rng.getrandbits(64) >> 11) / 2.0 ** 52 - 1.0 for _ in range(n)])
            for _ in range(rows)]


def _per_row_ratios(seq, p, mu, trials, seed, n_count):
    """The sample's ratios by one vector at a time: the n canonical vectors,
    then the ``uniform_draws`` rows, each norm computed alone."""
    lam = np.array(seq.exponents[:n_count])
    vectors = [np.eye(n_count)[k] for k in range(n_count)]
    vectors += uniform_draws(seed, trials, n_count)
    if p == 2.0 and isinstance(mu, Lebesgue):
        def norm(a):
            return l2_norm_gram(seq, a)
    else:
        log_pow, log_w = node_log_powers(mu, lam, p)

        def norm(a):
            return math.exp(_log_pth_power(log_pow, log_w, a, p) / p)
    return [norm(a) / float(np.sum(np.abs(a) ** p / (p * lam + 1.0)) ** (1.0 / p))
            for a in vectors]


class TestUniformRows:
    """The seeded coefficient draw of gm_ratio_sample and suite_diagonal."""

    @pytest.mark.parametrize("seed, rows, n", [(0, 100, 8), (7, 3, 24), (2 ** 70, 5, 1)])
    def test_rows_are_the_per_value_draws_bit_for_bit(self, seed, rows, n):
        got = lpnorm._uniform_rows(seed, rows, n)
        assert got.shape == (rows, n) and got.dtype == np.float64
        assert got.tolist() == [b.tolist() for b in uniform_draws(seed, rows, n)]

    def test_deterministic_per_seed(self):
        a = lpnorm._uniform_rows(5, 40, 16)
        assert np.array_equal(a, lpnorm._uniform_rows(5, 40, 16))
        assert not np.array_equal(a, lpnorm._uniform_rows(6, 40, 16))

    @pytest.mark.parametrize("rows", [0, 1, 17, 99])
    def test_prefix_stable(self, rows):
        # the first r rows of a 100-row draw are the r-row draw
        assert np.array_equal(lpnorm._uniform_rows(3, rows, 12),
                              lpnorm._uniform_rows(3, 100, 12)[:rows])

    def test_values_on_the_grid_in_minus_one_to_one(self):
        a = lpnorm._uniform_rows(11, 200, 64)
        assert a.min() >= -1.0 and a.max() < 1.0
        assert np.array_equal((a + 1.0) * 2.0 ** 52, np.floor((a + 1.0) * 2.0 ** 52))
        # 12,800 uniforms: both halves and the extremes of the range are reached
        assert a.min() < -0.999 and a.max() > 0.999 and abs(a.mean()) < 0.02

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            lpnorm._uniform_rows(-1, 1, 1)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            gm_ratio_sample(GEO, 3.0, trials=1, seed=-3)


class TestRatioSampleMatrix:
    """One coefficient matrix per sample: canonical rows, then the random rows."""

    @pytest.mark.parametrize("mu", [Lebesgue()], ids=["lebesgue"])
    @pytest.mark.parametrize("trials, seed", [(0, 0), (1, 4), (100, 0), (37, 11)])
    def test_rows_match_per_row_draws_bit_for_bit(self, mu, trials, seed):
        seq, n_count = generate_geometric(1, 2, 60), 24
        ratios = _per_row_ratios(seq, 3.0, mu, trials, seed, n_count)
        res = gm_ratio_sample(seq, 3.0, trials=trials, seed=seed, n_count=n_count)
        assert (res.min_ratio, res.max_ratio, res.trials) == (min(ratios), max(ratios),
                                                               len(ratios))
        assert res.canonical == (min(ratios[:n_count]), max(ratios[:n_count]))

    @pytest.mark.parametrize("seq", [GEO, generate_geometric(1, 2, 64),
                                     generate_geometric(1000, 300, 8)],
                             ids=["geometric:1,2,16", "geometric:1,2,64", "geometric:1000,300,8"])
    def test_gram_ratios_match_per_row_l2_norm_gram(self, seq):
        # geometric:1,2,64 reaches lam = 9.2e18, past the 1e12 node limit
        ratios = _per_row_ratios(seq, 2.0, Lebesgue(), 100, 3, len(seq))
        res = gm_ratio_sample(seq, 2.0, trials=100, seed=3)
        assert res.trials == len(ratios)
        assert res.min_ratio == pytest.approx(min(ratios), rel=1e-14)
        assert res.max_ratio == pytest.approx(max(ratios), rel=1e-14)
        assert res.canonical == pytest.approx((min(ratios[:len(seq)]), max(ratios[:len(seq)])),
                                              rel=1e-14)

    def test_canonical_bracket_is_the_trials_zero_bracket_at_p3(self):
        seq = generate_geometric(1, 2, 60)
        alone = gm_ratio_sample(seq, 3.0, trials=0, n_count=24)
        res = gm_ratio_sample(seq, 3.0, trials=100, n_count=24)
        assert res.canonical == (alone.min_ratio, alone.max_ratio) == alone.canonical

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_no_trials_is_the_canonical_bracket(self, p):
        res = gm_ratio_sample(GEO, p, trials=0, n_count=6)
        assert res.trials == 6
        assert res.canonical == (res.min_ratio, res.max_ratio)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_leading_zero_pair_canonical_bracket(self, p):
        res = gm_ratio_sample(ExponentSequence((0.0, 1.0)), p, trials=3, seed=0)
        assert res.trials == 5
        assert res.canonical == pytest.approx((1.0, 1.0), abs=1e-14)
        assert res.min_ratio <= min(res.canonical) <= max(res.canonical) <= res.max_ratio

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_one_term(self, p):
        # a one-term polynomial is a monomial: every row has ratio 1
        res = gm_ratio_sample(GEO, p, trials=5, seed=2, n_count=1)
        assert res.trials == 6
        assert (res.min_ratio, res.max_ratio) == pytest.approx((1.0, 1.0), abs=1e-14)
        assert res.canonical == pytest.approx((1.0, 1.0), abs=1e-14)


class TestRatioSampleNodeRoute:
    P3 = generate_geometric(1, 2, 60)  # report-p3's sequence, n_count 24

    def test_node_norm_against_exact_fourth_power(self):
        # ||f||_4**4 on dt is the sum of a_i a_j a_k a_l / (lam_i + ... + lam_l + 1)
        seq = generate_geometric(1, 2, 8)
        lam = np.array(seq.exponents)
        log_pow, log_w = node_log_powers(Lebesgue(), lam, 4.0)
        rng = np.random.default_rng(4)
        for _ in range(5):
            a = rng.uniform(-1.0, 1.0, len(lam))
            exact = math.fsum(
                a[i] * a[j] * a[k] * a[m] / (lam[i] + lam[j] + lam[k] + lam[m] + 1.0)
                for i, j, k, m in itertools.product(range(len(lam)), repeat=4))
            got = math.exp(_log_pth_power(log_pow, log_w, a, 4.0))
            assert got == pytest.approx(exact, rel=1e-13)

    @pytest.mark.parametrize("mu", [Lebesgue()], ids=["lebesgue"])
    def test_bracket_matches_lp_norm(self, mu):
        # the same seeded vectors in the same order, each norm a one-row log_lp_norms
        n_count, trials, seed = 24, 30, 5
        lam = np.array(self.P3.exponents[:n_count])
        vectors = [np.eye(n_count)[k] for k in range(n_count)]
        vectors += uniform_draws(seed, trials, n_count)
        ratios = [lp_norm(self.P3, a, mu, 3.0)
                  / math.fsum(np.abs(a) ** 3 / (3.0 * lam + 1.0)) ** (1 / 3) for a in vectors]
        res = gm_ratio_sample(self.P3, 3.0, trials=trials, seed=seed, n_count=n_count)
        assert res.trials == len(ratios)
        assert res.min_ratio == pytest.approx(min(ratios), rel=1e-12)
        assert res.max_ratio == pytest.approx(max(ratios), rel=1e-12)

    def test_canonical_ratios_at_p3(self):
        res = gm_ratio_sample(self.P3, 3.0, trials=0, n_count=24)
        assert abs(res.min_ratio - 1.0) <= 1e-14
        assert abs(res.max_ratio - 1.0) <= 1e-14

    def test_one_node_set_and_no_panel_quadrature(self, monkeypatch):
        calls = {"node_log_powers": 0, "integrate_to_one": 0}

        def counting(name):
            inner = getattr(lpnorm, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(lpnorm, name, counting(name))
        gm_ratio_sample(self.P3, 3.0, trials=100, n_count=24)
        assert calls == {"node_log_powers": 1, "integrate_to_one": 0}

    def test_working_set_is_one_nodes_by_terms_matrix(self):
        gm_ratio_sample(self.P3, 3.0, trials=1, n_count=24)  # warm caches
        tracemalloc.start()
        try:
            gm_ratio_sample(self.P3, 3.0, trials=100, n_count=24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    @pytest.mark.parametrize("p, ratio", [(3.0, 1.61e7), (1.5, 2e7)])
    def test_threshold_prefix_past_the_old_cap(self, p, ratio, monkeypatch):
        # the ratio is 1.5 r_eps(p, 0.5), so lam_2 passes 1e12 and lam_15 is about
        # 1e108; every norm runs on one node set
        calls = []
        real = lpnorm.node_log_powers
        monkeypatch.setattr(lpnorm, "node_log_powers", lambda *a: calls.append(1) or real(*a))
        res = gm_ratio_sample(generate_geometric(1, ratio, 16), p, trials=200)
        assert len(calls) == 1 and res.trials == 216
        assert 0.5 <= res.min_ratio <= res.max_ratio <= 1.5
        assert max(abs(v - 1.0) for v in res.canonical) <= 1e-13

    def test_refusals_left(self):
        with pytest.raises(ValueError, match="p must be >= 1"):
            gm_ratio_sample(GEO, 0.5, trials=1)
        with pytest.raises(ValueError, match="beyond the float range"):
            gm_ratio_sample(ExponentSequence((1.0, 1e308)), 3.0, trials=1)


class TestAmgmProbe:
    def test_arithmetic_block_values(self):
        seq = ExponentSequence((1.0, 2.0, 3.0, 4.0))
        probe = amgm_probe(seq, 2.0, 0, 4)
        assert probe.norm_lower_bound == pytest.approx(64.0 / 24.0, rel=1e-15)
        assert probe.coeff_norm == pytest.approx(0.8873001675315898, rel=1e-12)

    def test_single_monomial_ratio_one(self):
        probe = amgm_probe(GEO, 2.0, 3, 1)
        # lower bound = 1/q_3 = ||1_A||^p, so the ratio collapses to 1
        q3 = 2.0 * GEO[3] + 1.0
        assert probe.norm_lower_bound == pytest.approx(1.0 / q3, rel=1e-15)
        assert probe.ratio == pytest.approx(1.0, rel=1e-13)

    def test_growth_along_arithmetic(self):
        seq = ExponentSequence(tuple(float(j + 1) for j in range(64)))
        ratios = [amgm_probe(seq, 2.0, 0, n).ratio for n in (4, 8, 16, 32, 64)]
        assert all(b > a for a, b in zip(ratios, ratios[1:]))

    def test_bounded_along_geometric(self):
        ratios = [amgm_probe(GEO, 2.0, 0, n).ratio for n in (2, 4, 8, 16)]
        assert max(ratios) < 2.0

    def test_block_validation(self):
        with pytest.raises(ValueError):
            amgm_probe(GEO, 2.0, 14, 4)


class TestPairing:
    def test_exact_small_case(self):
        value, bound = pairing_integral(ExponentSequence((1.0, 2.0)), 2.0, 0)
        assert value == pytest.approx(math.sqrt(15.0) / 4.0, rel=1e-14)
        assert bound == pytest.approx(0.6)

    def test_value_matches_brute_integral(self):
        # f_{n+1} f_n^{p-1} has an elementary antiderivative; compare p = 3
        seq = ExponentSequence((2.0, 5.0))
        p = 3.0
        value, _ = pairing_integral(seq, p, 0)
        q0, q1 = p * 2.0 + 1.0, p * 5.0 + 1.0
        brute = q1 ** (1 / p) * q0 ** (1 - 1 / p) / ((p - 1) * 2.0 + 5.0 + 1.0)
        assert value == pytest.approx(brute, rel=1e-15)

    def test_super_lacunary_decays(self):
        seq = ExponentSequence(tuple(2.0 ** (n * n) for n in range(8)))
        vals = [pairing_integral(seq, 2.0, n)[0] for n in range(7)]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 0.05

    def test_geometric_stays_above_bound(self):
        for n in range(13):
            value, bound = pairing_integral(generate_geometric(1, 2, 14), 2.0, n)
            assert value >= bound >= 0.45

    @given(st.floats(min_value=1.0, max_value=6.0), st.integers(0, 10))
    @settings(max_examples=40)
    def test_value_at_least_bound(self, p, n):
        seq = generate_geometric(0.5, 1.7, 12)
        value, bound = pairing_integral(seq, p, n)
        assert value >= bound - 1e-12
