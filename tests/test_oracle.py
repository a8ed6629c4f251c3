"""Exact and Monte Carlo reference densities, CLT comparison."""

import math

import mpmath
import numpy as np
import pytest

from spahd import (
    DimensionError,
    ExactMeanDensity,
    McOracleConfig,
    MixtureParams,
    StandardizationError,
    clt_ratio,
    exact_mean_density,
    mc_density,
)
from spahd.oracle import _log_binom_weights

# mpmath 40-digit reference: mu = 1, sigma = 1, a = 0, n = 2
EXACT_AT_0_N2 = 0.38587166612902681931


# a non-integer or non-finite n, or a non-finite query point
BAD_N_OR_POINT = [
    (200.5, 0.1), (math.nan, 0.1), (math.inf, 0.1), (200, math.nan), (200, math.inf),
]


def params_1d(mu=1.0, sigma=1.0):
    return MixtureParams(1, np.array([mu]), np.array([[sigma]]))


class TestExactDensity:
    def test_reference_value(self):
        assert exact_mean_density(params_1d(), 2, np.zeros(1)) == pytest.approx(
            EXACT_AT_0_N2, rel=1e-14
        )

    def test_binomial_weights_normalized(self):
        for n in [1, 2, 17, 400]:
            oracle = ExactMeanDensity(params_1d(), n)
            total = mpmath.fsum(mpmath.exp(w) for w in oracle.log_binom_weights)
            assert float(mpmath.log(total)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n, bound", [(31, 1e-13), (256, 1e-13), (257, 1e-12), (400, 1e-12)])
    def test_log_binom_weights_match_mpmath(self, n, bound):
        # exact binomials up to n = 256; beyond, the log k! table switches
        # from math.lgamma to the Stirling series at k = 30
        with mpmath.workdps(40):
            ref = [float(mpmath.log(mpmath.binomial(n, k)) - n * mpmath.log(2))
                   for k in range(n + 1)]
        assert np.max(np.abs(_log_binom_weights(n) - ref)) <= bound

    def test_density_overflow_gives_inf(self):
        # d = 150, n = 1e5, a = 0: the density is about e^725
        d, n = 150, 100000
        oracle = ExactMeanDensity(MixtureParams(d, np.eye(d)[0], np.eye(d)), n)
        log_rho = oracle.log_density(np.zeros(d))
        assert 709 < log_rho < 726
        assert oracle.density(np.zeros(d)) == math.inf

    def test_pure_gaussian_closed_form(self):
        rng = np.random.default_rng(12)
        for d in [1, 3]:
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
            p = MixtureParams(d, np.zeros(d), sigma)
            a = rng.normal(size=d) * 0.4
            n = 25
            quad = a @ np.linalg.solve(sigma, a)
            ref = math.exp(
                -0.5 * n * quad
                + 0.5 * d * math.log(n / (2 * math.pi))
                - 0.5 * np.linalg.slogdet(sigma)[1]
            )
            assert exact_mean_density(p, n, a) == pytest.approx(ref, rel=1e-12)

    def test_symmetric_in_a(self):
        p = MixtureParams(2, np.array([0.8, -0.2]), np.eye(2))
        rng = np.random.default_rng(13)
        for _ in range(10):
            a = rng.normal(size=2)
            plus = exact_mean_density(p, 11, a)
            minus = exact_mean_density(p, 11, -a)
            assert plus == pytest.approx(minus, rel=1e-12)

    def test_integrates_to_one(self):
        # d = 1: trapezoid over a wide grid captures all mass
        p = params_1d()
        n = 6
        grid = np.linspace(-6, 6, 20001)
        vals = [exact_mean_density(p, n, np.array([x])) for x in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-8)

    def test_n2_self_convolution(self):
        # mean of two draws: rho_2(a) = 2 (f * f)(2a) with f the one-draw density
        p = params_1d(mu=0.7, sigma=0.9)

        def f(x):
            s = math.sqrt(0.9)
            g1 = math.exp(-0.5 * ((x - 0.7) / s) ** 2)
            g2 = math.exp(-0.5 * ((x + 0.7) / s) ** 2)
            return (g1 + g2) / (2 * s * math.sqrt(2 * math.pi))

        xs = np.linspace(-12, 12, 40001)
        fx = np.array([f(x) for x in xs])
        for a in [0.0, 0.35, -1.1]:
            shifted = np.array([f(2 * a - x) for x in xs])
            conv = np.trapezoid(fx * shifted, xs)
            assert exact_mean_density(p, 2, np.array([a])) == pytest.approx(
                2 * conv, rel=1e-7
            )

    def test_rejects_bad_n(self):
        with pytest.raises(DimensionError):
            ExactMeanDensity(params_1d(), 0)

    @pytest.mark.parametrize("n, a", BAD_N_OR_POINT)
    def test_exact_mean_density_typed_errors(self, n, a):
        with pytest.raises(DimensionError):
            exact_mean_density(params_1d(), n, np.array([a]))

    def test_whole_float_n_accepted(self):
        a = np.array([0.2])
        assert exact_mean_density(params_1d(), 200.0, a) == exact_mean_density(params_1d(), 200, a)


class TestMcDensity:
    def test_matches_exact_within_band(self):
        # KDE smoothing bias at the peak is ~1-2%, so the band is
        # max(4 stderr, 4% relative); seeds 0-3 all sit inside it
        p = MixtureParams(1, np.zeros(1), np.eye(1))
        target = math.sqrt(10 / (2 * math.pi))  # N(0; 0, 1/10) at 0
        for seed in range(4):
            est, se = mc_density(p, 10, np.zeros(1), McOracleConfig(seed=seed))
            assert abs(est - target) <= max(4 * se, 0.04 * target)

    def test_mixture_case_d2(self):
        p = MixtureParams(2, np.array([0.5, 0.2]), np.eye(2))
        a = np.array([0.3, 0.1])
        est, se = mc_density(p, 20, a, McOracleConfig(samples=40000, seed=1))
        exact = exact_mean_density(p, 20, a)
        assert abs(est - exact) <= max(4 * se, 0.05 * exact)
        assert se > 0

    def test_deterministic_per_seed(self):
        p = params_1d()
        c = McOracleConfig(seed=7)
        assert mc_density(p, 10, np.zeros(1), c) == mc_density(p, 10, np.zeros(1), c)
        other = mc_density(p, 10, np.zeros(1), McOracleConfig(seed=8))
        assert other[0] != mc_density(p, 10, np.zeros(1), c)[0]

    def test_config_validation(self):
        with pytest.raises(DimensionError):
            McOracleConfig(samples=5000)
        with pytest.raises(DimensionError):
            McOracleConfig(bootstrap=0)
        with pytest.raises(DimensionError):
            McOracleConfig(bandwidth=0.0)

    def test_dimension_cap(self):
        p = MixtureParams(5, np.zeros(5), np.eye(5))
        with pytest.raises(DimensionError):
            mc_density(p, 10, np.zeros(5))

    @pytest.mark.parametrize("n, a", BAD_N_OR_POINT)
    def test_typed_errors(self, n, a):
        with pytest.raises(DimensionError):
            mc_density(params_1d(), n, np.array([a]))


class TestCltRatio:
    def test_gaussian_control_is_exactly_one(self):
        # standardized mu = 0 model: the scaled exact density IS the limit
        p = MixtureParams(1, np.zeros(1), np.eye(1))
        for n in [100, 400]:
            for x in [0.0, 0.5, 1.0]:
                r = clt_ratio(p, n, np.array([x]))
                assert r.ratio == pytest.approx(1.0, abs=1e-12)

    def test_requires_unit_second_moment(self):
        with pytest.raises(StandardizationError):
            clt_ratio(params_1d(), 100, np.zeros(1))

    @pytest.mark.parametrize("n, x", BAD_N_OR_POINT)
    def test_typed_errors(self, n, x):
        p = MixtureParams(1, np.array([0.6]), np.array([[0.64]]))
        with pytest.raises(DimensionError):
            clt_ratio(p, n, np.array([x]))

    def test_gap_shrinks_with_n(self):
        p = MixtureParams(1, np.array([0.6]), np.array([[0.64]]))
        x = np.array([0.5])
        gaps = [abs(clt_ratio(p, n, x).ratio - 1) for n in [100, 400, 1600]]
        assert gaps[0] > gaps[1] > gaps[2]
        assert r_bound_positive(clt_ratio(p, 100, x))


def r_bound_positive(comparison):
    return comparison.bound > 0
