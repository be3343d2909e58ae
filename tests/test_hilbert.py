import math

import mpmath
import numpy as np
import pytest

from muntzlab import hilbert
from muntzlab.dnp import WeightScheme, compute_dn, decreasing_rearrangement
from muntzlab.hilbert import (cholesky_lower, embedding_spectrum, essential_norm_estimate,
                              frame_bounds, prop511_value, t_mu_spectrum)
from muntzlab.measures import (DensityMeasure, Lebesgue, atoms, poisson_integral,
                               restrict)
from muntzlab.sequences import ExponentSequence, generate_geometric

GEO = generate_geometric(1, 2, 24)
PAIR_SEQ = ExponentSequence((1.0, 2.0))
GEOM_ATOMS = atoms([(2.0 ** -k, 4.0 ** -k) for k in range(1, 31)])
TWO_ATOMS = atoms([(0.5, 1.0), (0.25, 0.5)])
# x = 1 - 1e-20 rounds to 1.0: restrictions decide membership on delta
NEAR_ONE_ATOMS = atoms([(1e-20, 1.0), (2.0 ** -30, 0.5), (0.25, 1.0), (0.75, 0.25)])
# 200 atoms, delta log-uniform on [1e-12, 1): more nodes than exponents
MANY_ATOMS = atoms(zip(np.exp(np.random.default_rng(0).uniform(math.log(1e-12), 0.0, 200)),
                       np.full(200, 1.0 / 200)))


def build_t_mu_matrix(seq, mu, n):
    """Gram of the synthesis operator with weights 1/lam, A^T A of its factor A,
    and the count of factor entries flushed to 0."""
    a, flushed = hilbert._synthesis_factor(seq, mu, n)
    return a.T @ a, flushed


def point_eval_kernel(seq, n, delta):
    """Truncated reproducing-kernel norm of L2(dt) at x = 1 - delta:
    sqrt(v^T G^-1 v) with v_j = x**lam_j and G the Cauchy Gram of the first
    n exponents, through numpy's Cholesky factor of G."""
    lam = np.array(seq.exponents[:n])
    v = np.exp(lam * math.log1p(-delta))
    y = np.linalg.solve(np.linalg.cholesky(1.0 / (lam[:, None] + lam[None, :] + 1.0)), v)
    return float(np.sqrt(y @ y))


def _spectrum_cases():
    return {
        "embedding-atoms": lambda: embedding_spectrum(GEO, GEOM_ATOMS, 16).singular_values,
        "embedding-lebesgue": lambda: embedding_spectrum(GEO, Lebesgue(), 16).singular_values,
        "embedding-two-atoms": lambda: embedding_spectrum(GEO, TWO_ATOMS, 8).singular_values,
        "synthesis-atoms": lambda: t_mu_spectrum(GEO, GEOM_ATOMS, 12).singular_values,
        "synthesis-density": lambda: t_mu_spectrum(
            GEO, DensityMeasure(alpha=-0.5), 8).singular_values,
        "frame": lambda: frame_bounds(GEO, 16).singular_values,
    }


class TestSpectrumProperties:
    @pytest.mark.parametrize("case", sorted(_spectrum_cases()))
    def test_nonincreasing_nonnegative_reproducible(self, case):
        compute = _spectrum_cases()[case]
        sigma = compute()
        assert all(s >= 0.0 for s in sigma)
        assert all(a >= b for a, b in zip(sigma, sigma[1:]))
        assert compute() == sigma


class TestSchattenNorms:
    def test_bits_of_the_plain_sums_where_nothing_overflows(self):
        s = np.array([3.7, 1.2, 0.5, 1e-3, 0.0])
        assert hilbert._schatten_norms(s) == {
            r: float(np.sum(s ** r) ** (1.0 / r)) for r in hilbert.SCHATTEN_ORDERS}

    def test_no_overflow_near_the_float_range(self):
        got = hilbert._schatten_norms([1e300, 1e300, 0.0])
        assert got == pytest.approx({1.0: 2e300, 2.0: 2 ** 0.5 * 1e300, 4.0: 2 ** 0.25 * 1e300},
                                    rel=1e-15)

    def test_no_underflow_near_the_smallest_float(self):
        got = hilbert._schatten_norms([1e-300, 1e-300])
        assert got[4.0] == pytest.approx(2 ** 0.25 * 1e-300, rel=1e-15)

    def test_zero_values(self):
        assert hilbert._schatten_norms(np.zeros(3)) == dict.fromkeys(hilbert.SCHATTEN_ORDERS, 0.0)


class TestCholesky:
    def test_failure_names_n(self):
        lam = np.array([1.0 + k * 1e-6 for k in range(24)])
        with pytest.raises(ValueError, match="first N = 24 exponents"):
            cholesky_lower(1.0 / (lam[:, None] + lam[None, :] + 1.0))


class TestMatrices:
    def test_t_mu_lebesgue_2x2(self):
        m, flushed = build_t_mu_matrix(PAIR_SEQ, Lebesgue(), 2)
        expect = np.array([[1 / 3, math.sqrt(2) / 4], [math.sqrt(2) / 4, 2 / 5]])
        assert np.allclose(m, expect, atol=1e-15)
        assert flushed == 0

    def test_row_sums_are_squared_profile(self):
        from muntzlab.dnp import WeightScheme, compute_dn
        mu = atoms([(0.5, 1.0), (0.2, 0.5)])
        n = 10
        m, _ = build_t_mu_matrix(GEO, mu, n)
        # profile restricted to the same inner range as the matrix
        prof = compute_dn(ExponentSequence(GEO.exponents[:n]), mu,
                          WeightScheme("inverse_lambda", 2.0))
        for i in range(n):
            assert m[i].sum() == pytest.approx(prof.values[i] ** 2, rel=1e-10)

    def test_single_atom_rank_one(self):
        m, _ = build_t_mu_matrix(GEO, atoms([(0.5, 1.0)]), 6)
        assert np.linalg.matrix_rank(m, tol=1e-12) == 1

    def test_rejects_zero_first_exponent(self):
        seq = ExponentSequence((0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            build_t_mu_matrix(seq, Lebesgue(), 3)

    def test_gram_pair_diagonal(self):
        # the Lebesgue node factor reproduces the Cauchy Gram 1/(lam_i+lam_j+1)
        m, _ = build_t_mu_matrix(GEO, Lebesgue(), 5)
        lam = np.array(GEO.exponents[:5])
        for i in range(5):
            assert m[i, i] == pytest.approx(lam[i] / (2 * lam[i] + 1), rel=1e-14)
        expect = np.sqrt(np.outer(lam, lam)) / (lam[:, None] + lam[None, :] + 1.0)
        assert np.allclose(m, expect, rtol=0.0, atol=1e-15)

    def test_flush_counting(self):
        # 0.5**(2*lam) underflows past the materialization floor for lam ~ 2^12
        seq = generate_geometric(1024, 2, 4)
        m, flushed = build_t_mu_matrix(seq, atoms([(0.5, 1.0)]), 4)
        assert flushed > 0
        assert m[3, 3] == 0.0


class TestEmbeddingSpectrum:
    def test_identity_for_lebesgue(self):
        spec = embedding_spectrum(GEO, Lebesgue(), 16)
        assert max(abs(s - 1.0) for s in spec.singular_values) < 1e-8

    def test_identity_for_lebesgue_past_n_64(self):
        spec = embedding_spectrum(generate_geometric(1, 2, 256), Lebesgue(), 256)
        assert max(abs(s - 1.0) for s in spec.singular_values) < 1e-10

    def test_scaled_lebesgue_scales_sigmas(self):
        from muntzlab.measures import DensityMeasure
        spec = embedding_spectrum(GEO, DensityMeasure(scale=0.5), 8)
        assert max(abs(s - math.sqrt(0.5)) for s in spec.singular_values) < 1e-7

    @pytest.mark.parametrize("spectrum", [embedding_spectrum, t_mu_spectrum])
    def test_two_atoms_have_rank_two(self, spectrum):
        sigma = spectrum(GEO, TWO_ATOMS, 8).singular_values
        assert all(s <= 1e-15 * sigma[0] for s in sigma[2:])

    @pytest.mark.parametrize("alpha", [-0.5, -0.9])
    def test_singular_density_gram(self, alpha):
        # mass piles up at t = 1 like u**alpha; the closing panel must carry it
        mu = DensityMeasure(alpha=alpha)
        m, _ = build_t_mu_matrix(GEO, mu, 8)
        lam = GEO.exponents[:8]
        expect = np.array([[float(mpmath.sqrt(a * b) * mpmath.beta(a + b + 1, alpha + 1))
                            for b in lam] for a in lam])
        assert np.max(np.abs(m / expect - 1.0)) < 1e-12
        assert all(math.isfinite(s) for s in embedding_spectrum(GEO, mu, 8).singular_values)

    def test_scaling_law(self):
        mu1 = atoms([(0.5, 1.0), (0.25, 0.5)])
        mu4 = atoms([(0.5, 4.0), (0.25, 2.0)])
        s1 = embedding_spectrum(GEO, mu1, 8).singular_values
        s4 = embedding_spectrum(GEO, mu4, 8).singular_values
        for a, b in zip(s1, s4):
            assert b == pytest.approx(2.0 * a, rel=1e-9, abs=1e-12)

    def test_single_atom_kernel_identity(self):
        mass = 2.0
        mu = atoms([(0.5, mass)])
        spec = embedding_spectrum(GEO, mu, 16)
        kernel = point_eval_kernel(GEO, 16, delta=0.5)
        assert spec.singular_values[0] ** 2 == pytest.approx(
            mass * kernel ** 2, rel=1e-9)
        assert spec.singular_values[1] <= 1e-6 * spec.singular_values[0]

    def test_empty_restriction_all_zero(self):
        empty = restrict(atoms([(0.5, 1.0)]), 0.6, 1.0)
        spec = embedding_spectrum(GEO, empty, 6)
        assert all(s == 0.0 for s in spec.singular_values)

    def test_drift_reported(self):
        spec = embedding_spectrum(GEO, GEOM_ATOMS, 16)
        assert {"sigma1", "sigma1_half", "hs", "hs_half"} <= set(spec.drift)


class TestTMuSpectrum:
    def test_2x2_closed_form(self):
        spec = t_mu_spectrum(PAIR_SEQ, Lebesgue(), 2)
        tr, det = 11.0 / 15.0, 1.0 / 120.0
        disc = math.sqrt(tr * tr - 4.0 * det)
        expect = [(tr + disc) / 2.0, (tr - disc) / 2.0]
        got = [s * s for s in spec.singular_values]
        assert got == pytest.approx(expect, rel=1e-12)
        assert spec.schatten[2.0] == pytest.approx(math.sqrt(tr), rel=1e-12)

    def test_trace_identity(self):
        spec = t_mu_spectrum(GEO, GEOM_ATOMS, 12)
        hs_sq = sum(s * s for s in spec.singular_values)
        # the difference of the logs is the relative gap
        assert math.log(hs_sq) == pytest.approx(spec.extras["log_trace"], rel=0.0, abs=1e-10)

    def test_chain_on_seeded_measures(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            k = int(rng.integers(1, 9))
            mu = atoms([(d, m) for d, m in zip(
                rng.uniform(0.02, 0.95, k), rng.uniform(0.1, 2.0, k))])
            spec = t_mu_spectrum(GEO, mu, 10)
            dstar = decreasing_rearrangement(
                compute_dn(GEO, mu, WeightScheme("inverse_lambda", 2.0), n_count=10).values)
            assert all(d >= s - 1e-9 for d, s in zip(dstar, spec.singular_values))

    def test_empty_measure_zero(self):
        empty = restrict(atoms([(0.5, 1.0)]), 0.6, 1.0)
        spec = t_mu_spectrum(GEO, empty, 4)
        assert all(s == 0.0 for s in spec.singular_values)


class TestFrameBounds:
    @pytest.mark.parametrize("n", [10, 65])
    def test_matches_eigenvalue_oracle(self, n):
        seq = generate_geometric(1, 2, n)
        lam = [mpmath.mpf(v) for v in seq.exponents]
        with mpmath.workdps(40):
            gram = mpmath.matrix([[mpmath.sqrt((2 * a + 1) * (2 * b + 1)) / (a + b + 1)
                                   for b in lam] for a in lam])
            eig = sorted(mpmath.eigsy(gram, eigvals_only=True), reverse=True)
        got = frame_bounds(seq, n).singular_values
        for s, e in zip(got, eig):
            assert s * s == pytest.approx(float(e), rel=1e-10)

    def test_single_vector(self):
        fb = frame_bounds(GEO, 1)
        assert fb.sigma_min == fb.sigma_max == pytest.approx(1.0)

    @pytest.mark.parametrize("seq", [generate_geometric(1, 2, 16), generate_geometric(1, 1.5, 32),
                                     generate_geometric(1000, 300, 8)])
    def test_hs_norm_is_sqrt_n(self, seq):
        # the normalized Gram has a unit diagonal: its trace, the squared HS norm, is N
        fb = frame_bounds(seq, len(seq))
        assert fb.schatten[2.0] == pytest.approx(math.sqrt(len(seq)), rel=1e-12)
        assert (fb.sigma_min, fb.sigma_max) == (fb.singular_values[-1], fb.singular_values[0])

    def test_large_ratio_near_isometry(self):
        fb = frame_bounds(generate_geometric(1000, 300, 8), 8)
        assert 0.5 <= fb.sigma_min <= fb.sigma_max <= 1.5

    def test_interlacing_widens_with_n(self):
        prev = None
        for n in (2, 4, 8, 16):
            fb = frame_bounds(GEO, n)
            if prev is not None:
                assert fb.sigma_min <= prev.sigma_min + 1e-12
                assert fb.sigma_max >= prev.sigma_max - 1e-12
            prev = fb

    def test_super_lacunary_tails_tighten(self):
        lam = tuple(2.0 ** (n * n) for n in range(10))
        full = ExponentSequence(lam)
        shifted = ExponentSequence(lam[2:])
        dev_full = max(abs(frame_bounds(full, 8).sigma_min - 1.0),
                       abs(frame_bounds(full, 8).sigma_max - 1.0))
        dev_shift = max(abs(frame_bounds(shifted, 8).sigma_min - 1.0),
                        abs(frame_bounds(shifted, 8).sigma_max - 1.0))
        assert dev_shift < dev_full


class TestEssentialNorm:
    def test_finite_support_hits_zero(self):
        mu = atoms([(0.5, 1.0), (0.3, 2.0)])
        sigma1 = essential_norm_estimate(GEO, mu, 8, [0.2, 0.6, 0.9])
        assert len(sigma1) == 3 and sigma1[-1] == 0.0

    def test_requires_increasing_cuts(self):
        with pytest.raises(ValueError):
            essential_norm_estimate(GEO, GEOM_ATOMS, 8, [0.5, 0.5])

    @pytest.mark.parametrize("cuts", [[-0.5, 0.5], [0.5, 1.0]])
    def test_refuses_cuts_outside_0_to_1(self, cuts):
        with pytest.raises(ValueError, match=r"cuts must lie in \[0,1\)"):
            essential_norm_estimate(GEO, GEOM_ATOMS, 8, cuts)

    def test_vanishing_vs_steady(self):
        cuts = [1.0 - 2.0 ** -j for j in range(1, 9)]
        van = essential_norm_estimate(GEO, GEOM_ATOMS, 12, cuts)
        steady = essential_norm_estimate(
            GEO, atoms([(2.0 ** -k, 2.0 ** -k) for k in range(1, 31)]), 12, cuts)
        # first over last cut, cross-multiplied, so a last sigma_1 of 0 needs no division
        assert van[0] * steady[-1] > steady[0] * van[-1]

    @pytest.mark.parametrize("mu", [GEOM_ATOMS, NEAR_ONE_ATOMS, MANY_ATOMS,
                                    DensityMeasure(alpha=0.5), Lebesgue()],
                             ids=["atoms", "atoms-near-one", "atoms-200", "density", "lebesgue"])
    def test_sigma1_is_the_restricted_embedding_norm(self, mu):
        # one Cauchy factor serves every cut, and sigma_1 is bit for bit the
        # leading singular value of the embedding of each restriction
        cuts = [0.0, 0.5, 0.9, 1.0 - 2.0 ** -20]
        assert essential_norm_estimate(GEO, mu, 12, cuts) == tuple(
            embedding_spectrum(GEO, restrict(mu, a, 1.0), 12).sigma_max for a in cuts)

    def test_atoms_take_row_slices_of_one_embedding(self, monkeypatch):
        calls = {"_node_factor": 0, "_embedding": 0, "restrict": 0}
        for name in calls:
            real = getattr(hilbert, name)

            def counting(*args, _real=real, _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(hilbert, name, counting)
        cuts = [1.0 - 2.0 ** -j for j in range(1, 11)]
        sigma1 = essential_norm_estimate(GEO, NEAR_ONE_ATOMS, 12, cuts)
        assert calls == {"_node_factor": 1, "_embedding": 1, "restrict": 0}
        # the atom at delta = 1e-20 lies in every cut
        assert sigma1[-1] > 0.0

    def test_factors_the_cauchy_gram_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(hilbert, "cholesky_lower",
                            lambda a: calls.append(len(a)) or cholesky_lower(a))
        essential_norm_estimate(GEO, GEOM_ATOMS, 12, [0.2, 0.6, 0.9])
        assert calls == [12]


class TestHsCriteria:
    def test_fubini_identity(self):
        got = prop511_value(GEOM_ATOMS, 2.0)
        pois = poisson_integral(GEOM_ATOMS).value.to_float()
        assert got ** 2 == pytest.approx(pois, abs=1e-8)

    @pytest.mark.parametrize("mu,poisson", [
        (GEOM_ATOMS, 1.0 - 2.0 ** -30),                   # sum of m/delta = sum of 2**-k
        (atoms([(1e-12, 1.0), (0.5, 1.0)]), 1e12 + 2.0),
    ], ids=["geometric", "near-one"])
    def test_fubini_identity_to_rounding(self, mu, poisson):
        assert prop511_value(mu, 2.0) ** 2 == pytest.approx(poisson, rel=1e-13)

    @pytest.mark.parametrize("a", [0.0, 0.5, 0.999999, 0.9999999999999991])
    def test_fubini_identity_on_density_tails(self, a):
        # the outer nodes stopped at u_s = 2**-40 whatever the density's distance
        # 1 - a from t = 1: kernel**2 read 1.4e-3 below the Poisson integral at
        # a = 1 - 9e-16, and 1.2e-12 below at a = 0.999999
        mu = restrict(DensityMeasure(alpha=0.5), a, 1.0)
        poisson = poisson_integral(mu).value.to_float()
        assert prop511_value(mu, 2.0) ** 2 == pytest.approx(poisson, rel=1e-14)

    @pytest.mark.parametrize("q", [1.0, 2.0, 4.0])
    def test_infinite_when_poisson_diverges(self, q):
        assert prop511_value(DensityMeasure(), q) == math.inf

    def test_lebesgue_hs_grows_with_truncation(self):
        h1 = embedding_spectrum(GEO, Lebesgue(), 4).schatten[2.0]
        h2 = embedding_spectrum(GEO, Lebesgue(), 8).schatten[2.0]
        h3 = embedding_spectrum(GEO, Lebesgue(), 16).schatten[2.0]
        assert h1 < h2 < h3
