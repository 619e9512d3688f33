import math

import numpy as np
import pytest
from scipy.special import kolmogorov, ndtr

from transjump.errors import NumericError, ParameterError
from transjump.rng import (
    RngStream,
    _ig_draws,
    cholesky_lower,
    precision_noise,
    precision_solve,
    sample_inverse_gamma,
    sample_inverse_gaussian,
    sample_truncated_normal_onesided,
    std_normal_quantile,
)

from _oracles import (
    ig_draws_reference,
    inverse_gamma_density,
    inverse_gaussian_density,
    ks_statistic,
    onesided_truncnorm_density,
    quadrature_cdf,
)

KS_ALPHA = 1e-3
KS_N = 100_000


def ks_pvalue(sample, cdf):
    d = ks_statistic(np.asarray(sample), cdf)
    return kolmogorov(math.sqrt(len(sample)) * d)


class TestRngStream:
    def test_same_key_replays_identically(self):
        a = RngStream(42, 0)
        b = RngStream(42, 0)
        assert np.array_equal(a.gen.random(100), b.gen.random(100))

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0)
        b = RngStream(42, 1)
        assert not np.array_equal(a.gen.random(100), b.gen.random(100))

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            RngStream(-1)


class TestInverseGaussian:
    def test_moments(self):
        draws = sample_inverse_gaussian(np.full(10**6, 2.0), 0.25, RngStream(7))
        # mean mu, variance mu^3/lam = 32
        se_mean = math.sqrt(32.0 / 10**6)
        assert abs(draws.mean() - 2.0) < 3 * se_mean
        # variance of the variance estimate via fourth-moment bound (loose)
        assert abs(draws.var() - 32.0) < 0.15 * 32.0

    def test_degenerate_limit(self):
        draws = sample_inverse_gaussian(np.full(10**5, 1.0), 1e6, RngStream(8))
        assert abs(draws.mean() - 1.0) < 1e-2

    def test_determinism(self):
        a = sample_inverse_gaussian(np.ones(16), 0.5, RngStream(42, 0))
        b = sample_inverse_gaussian(np.ones(16), 0.5, RngStream(42, 0))
        assert np.array_equal(a, b)

    def test_domain(self):
        with pytest.raises(ParameterError):
            sample_inverse_gaussian(-1.0, 1.0, RngStream(1))
        with pytest.raises(ParameterError):
            sample_inverse_gaussian(1.0, 0.0, RngStream(1))

    @pytest.mark.parametrize("n, huge", [(5, False), (100, False), (5, True), (100, True)])
    def test_core_matches_copy_of_original(self, n, huge):
        # bit for bit, and the stream left at the same place
        gen = np.random.default_rng(n + huge)
        fast, slow = RngStream(31, n), RngStream(31, n)
        for _ in range(200):
            mu = np.exp(3.0 * gen.standard_normal(n))
            if huge:
                # sqrt(tau) / (2 |r|) at the 1e-300 residual clamp
                mu[::2] = 0.5e300 * np.exp(gen.standard_normal(mu[::2].shape))
            lam = 0.25 if n == 100 else np.exp(gen.standard_normal(n))
            got = _ig_draws(mu, lam, fast.gen)
            want = ig_draws_reference(mu, lam, slow.gen)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert fast.gen.random() == slow.gen.random()

    @pytest.mark.parametrize("mu,lam", [(1.0, 1.0), (2.0, 0.25), (0.5, 3.0)])
    def test_ks_against_quadrature_cdf(self, mu, lam):
        draws = sample_inverse_gaussian(np.full(KS_N, mu), lam, RngStream(11))
        hi = float(np.quantile(draws, 0.9999)) * 4
        cdf = quadrature_cdf(inverse_gaussian_density(mu, lam), 1e-9, hi)
        assert ks_pvalue(draws, cdf) > KS_ALPHA


class TestTruncatedNormal:
    def test_half_normal_mean(self):
        draws = sample_truncated_normal_onesided(np.zeros(10**6), 1.0, True, RngStream(3))
        half_normal_mean = math.sqrt(2.0 / math.pi)
        sd = math.sqrt(1.0 - half_normal_mean**2)
        assert abs(draws.mean() - half_normal_mean) < 3 * sd / 1000.0

    def test_negligible_truncation_matches_normal(self):
        draws = sample_truncated_normal_onesided(np.full(10**5, 10.0), 1.0, True, RngStream(4))
        assert abs(draws.mean() - 10.0) < 3 * 1.0 / math.sqrt(10**5)
        assert abs(draws.std() - 1.0) < 0.02

    def test_deep_tail_support(self):
        draws = sample_truncated_normal_onesided(np.full(5000, -8.0), 1.0, True, RngStream(5))
        assert np.all(draws > 0)

    def test_negative_side(self):
        draws = sample_truncated_normal_onesided(np.full(5000, 2.0), 1.5, False, RngStream(6))
        assert np.all(draws < 0)

    @pytest.mark.parametrize(
        "mean,sd,positive", [(0.0, 1.0, True), (-1.5, 2.0, True), (-5.0, 1.0, True), (1.0, 1.0, False)]
    )
    def test_ks_against_quadrature_cdf(self, mean, sd, positive):
        draws = sample_truncated_normal_onesided(
            np.full(KS_N, mean), sd, positive, RngStream(12)
        )
        if positive:
            lo, hi = 1e-9, float(np.max(draws)) * 2 + 5
        else:
            lo, hi = float(np.min(draws)) * 2 - 5, -1e-9
        cdf = quadrature_cdf(onesided_truncnorm_density(mean, sd, positive), lo, hi)
        assert ks_pvalue(draws, cdf) > KS_ALPHA


class TestInverseGamma:
    def test_mean(self):
        draws = np.array(
            [sample_inverse_gamma(3.0, 2.0, RngStream(13, i)) for i in range(200_000)]
        )
        # mean scale/(shape-1) = 1, variance 1/(shape-2) = 1
        assert abs(draws.mean() - 1.0) < 3.0 / math.sqrt(200_000)

    def test_heavy_tail_median_from_quadrature(self):
        # mean diverges for shape 1/2; compare the sample median against the
        # analytic median from quadrature of the density (log substitution
        # x = e^t handles the x^{-3/2} tail)
        draws = sample_inverse_gamma(
            np.full(KS_N, 0.5), np.full(KS_N, 1.0), RngStream(14)
        )
        density = inverse_gamma_density(0.5, 1.0)
        ts = np.linspace(math.log(1e-8), math.log(1e12), 2_000_001)
        xs = np.exp(ts)
        ys = density(xs) * xs
        cum = np.concatenate([[0.0], np.cumsum((ys[1:] + ys[:-1]) * 0.5 * np.diff(ts))])
        cum /= cum[-1]
        median = float(np.exp(np.interp(0.5, cum, ts)))
        sample_median = float(np.median(draws))
        assert abs(sample_median - median) / median < 0.05

    def test_determinism(self):
        assert sample_inverse_gamma(3.0, 2.0, RngStream(1)) == sample_inverse_gamma(
            3.0, 2.0, RngStream(1)
        )

    def test_domain(self):
        with pytest.raises(ParameterError):
            sample_inverse_gamma(0.0, 1.0, RngStream(1))

    @pytest.mark.parametrize("shape,scale", [(3.0, 2.0), (2.5, 0.5)])
    def test_ks_against_quadrature_cdf(self, shape, scale):
        draws = sample_inverse_gamma(
            np.full(KS_N, shape), np.full(KS_N, scale), RngStream(15)
        )
        hi = float(np.quantile(draws, 0.9999)) * 5
        cdf = quadrature_cdf(inverse_gamma_density(shape, scale), 1e-9, hi)
        assert ks_pvalue(draws, cdf) > KS_ALPHA


class TestMvn:
    def test_factor_accuracy(self):
        gen = np.random.default_rng(9)
        a = gen.standard_normal((6, 6))
        cov = a @ a.T + np.eye(6)
        L = cholesky_lower(cov)
        assert np.abs(L @ L.T - cov).max() <= 1e-10 * np.abs(cov).max()

    def test_non_pd_reports_minor(self):
        bad = np.array([[1.0, 0.0], [0.0, -1.0]])
        with pytest.raises(NumericError, match="leading minor 2"):
            cholesky_lower(bad)


class TestPrecisionGaussian:
    def _problem(self):
        gen = np.random.default_rng(10)
        a = gen.standard_normal((4, 4))
        return a @ a.T + np.eye(4), gen.standard_normal(4)

    def test_mean_solves_precision_system(self):
        prec, b = self._problem()
        L, mean = precision_solve(prec, b)
        assert np.abs(L @ L.T - prec).max() <= 1e-12 * np.abs(prec).max()
        assert np.allclose(mean, np.linalg.solve(prec, b), rtol=1e-12, atol=0.0)

    def test_draw_moments(self):
        prec, b = self._problem()
        cov = np.linalg.inv(prec)
        n = 40_000
        L, mean = precision_solve(prec, b)
        draws = mean[:, None] + precision_noise(L, RngStream(11).gen.standard_normal((4, n)))
        # five standard errors of the sample mean and of each sample covariance entry
        var = np.diag(cov)
        assert np.all(np.abs(draws.mean(axis=1) - cov @ b) < 5.0 * np.sqrt(var / n))
        se_cov = np.sqrt((cov**2 + np.outer(var, var)) / n)
        assert np.all(np.abs(np.cov(draws) - cov) < 5.0 * se_cov)

    def test_non_pd_reports_minor(self):
        with pytest.raises(NumericError, match="leading minor 3 failed"):
            precision_solve(np.diag([1.0, 2.0, -1.0]), np.ones(3))


class TestNormalCdfQuantile:
    def test_cdf_at_zero(self):
        assert ndtr(0.0) == 0.5

    def test_quantile_97_5(self):
        # bisection on the cdf pins the standard value
        assert abs(std_normal_quantile(0.975) - 1.959963984540054) < 1e-12

    def test_round_trip(self):
        # quantile-of-cdf round trip; beyond ~5.6 the cdf is within one ulp
        # of 1 so the achievable error is representation-limited
        xs = np.linspace(-6.0, 5.5, 231)
        err = np.abs(std_normal_quantile(ndtr(xs)) - xs)
        assert err.max() < 1e-9
        extreme = np.abs(std_normal_quantile(ndtr(6.0)) - 6.0)
        assert extreme < 2e-8

    def test_domain(self):
        with pytest.raises(ParameterError):
            std_normal_quantile(0.0)
        with pytest.raises(ParameterError):
            std_normal_quantile(1.0)
