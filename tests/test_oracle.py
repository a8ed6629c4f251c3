"""Exact and Monte Carlo reference densities, CLT comparison."""

import functools
import math
import tracemalloc
import warnings

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
import spahd.oracle
from spahd.oracle import _log_binom_weights

# mpmath 40-digit reference: mu = 1, sigma = 1, a = 0, n = 2
EXACT_AT_0_N2 = 0.38587166612902681931


# a non-integer or non-finite n, or a non-finite query point
BAD_N_OR_POINT = [
    (200.5, 0.1), (math.nan, 0.1), (math.inf, 0.1), (200, math.nan), (200, math.inf),
]


def params_1d(mu=1.0, sigma=1.0):
    return MixtureParams(1, np.array([mu]), np.array([[sigma]]))


@functools.lru_cache(maxsize=2)
def mp_log_binom_weights(n):
    """log C(n, k) - n log 2 for every k at 40 digits, as floats: mpmath logs
    of the primes up to n only, log i = log p + log(i / p) for the smallest
    prime p of i, then the running sum of log((n - k) / (k + 1))."""
    with mpmath.workdps(40):
        spf = list(range(n + 1))
        for p in range(2, math.isqrt(n) + 1):
            if spf[p] == p:
                for q in range(p * p, n + 1, p):
                    if spf[q] == q:
                        spf[q] = p
        logs = [mpmath.mpf(0)] * (n + 1)
        for i in range(2, n + 1):
            p = spf[i]
            logs[i] = mpmath.log(i) if p == i else logs[p] + logs[i // p]
        out, acc = [], -n * mpmath.log(2)
        for k in range(n + 1):
            out.append(float(acc))
            if k < n:
                acc += logs[n - k] - logs[k + 1]
    return np.array(out)


def mp_log_density(mu, sigma_diag, n, a):
    """log density of the n-sample mean at a to 40 digits, for a diagonal
    sigma: the mixture summed in mpmath over every k within sqrt(100 n) of
    the largest term (each term left out is below e^-199 of it)."""
    with mpmath.workdps(40):
        mu, s, a = ([mpmath.mpf(float(x)) for x in v] for v in (mu, sigma_diag, a))
        q_a = mpmath.fsum(x * x / v for x, v in zip(a, s))
        c = mpmath.fsum(m * x / v for m, x, v in zip(mu, a, s))
        g = mpmath.fsum(m * m / v for m, v in zip(mu, s))

        def half_quad(k):
            m = mpmath.mpf(2 * k - n) / n
            return n / mpmath.mpf(2) * (q_a - 2 * m * c + m * m * g)

        def log_weight(k):
            return (mpmath.loggamma(n + 1) - mpmath.loggamma(k + 1)
                    - mpmath.loggamma(n - k + 1) - n * mpmath.log(2))

        def log_term(k):
            return log_weight(k) - half_quad(k)

        lo, hi = 0, n  # ternary search on the concave terms
        while hi - lo > 2:
            m1, m2 = lo + (hi - lo) // 3, hi - (hi - lo) // 3
            lo, hi = (m1 + 1, hi) if log_term(m1) < log_term(m2) else (lo, m2 - 1)
        peak = max(range(lo, hi + 1), key=log_term)
        top = log_term(peak)
        reach = math.isqrt(100 * n) + 1
        k_lo, k_hi = max(peak - reach, 0), min(peak + reach, n)
        weight = mpmath.exp(log_weight(k_lo) - top)
        total = mpmath.mpf(0)
        for k in range(k_lo, k_hi + 1):
            total += weight * mpmath.exp(-half_quad(k))
            weight *= mpmath.mpf(n - k) / (k + 1)
        return float(top + mpmath.log(total) + len(a) / mpmath.mpf(2) * mpmath.log(n / (2 * mpmath.pi))
                     - mpmath.fsum(mpmath.log(v) for v in s) / 2)


class TestExactDensity:
    def test_reference_value(self):
        assert exact_mean_density(params_1d(), 2, np.zeros(1)) == pytest.approx(
            EXACT_AT_0_N2, rel=1e-14
        )

    def test_binomial_weights_normalized(self):
        for n in [1, 2, 17, 400]:
            total = mpmath.fsum(mpmath.exp(w) for w in _log_binom_weights(n))
            assert float(mpmath.log(total)) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n, bound", [(31, 1e-13), (256, 1e-13), (257, 1e-12), (400, 1e-12)])
    def test_log_binom_weights_match_mpmath(self, n, bound):
        # exact binomials up to n = 256; beyond, Loader's form, whose
        # Stirling errors switch from a table to the series at k = 16
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

    @pytest.mark.parametrize("d, a", [(1, 1e200), (1, 1e300), (1, 1e308), (1, -1e308),
                                      (2, (0.0, 1e308))])
    def test_log_density_underflow_past_double_range(self, d, a):
        # the cross term <a, mu> or the whitened point overflows; the log
        # density is below the double range, not an OverflowError
        oracle = ExactMeanDensity(MixtureParams(d, np.eye(d)[0], np.eye(d)), 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert oracle.log_density(np.atleast_1d(a)) == -math.inf
            assert oracle.density(np.atleast_1d(a)) == 0.0

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

    def test_n_past_double_range(self):
        with pytest.raises(DimensionError):
            exact_mean_density(params_1d(), 10**400, np.zeros(1))

    @pytest.mark.parametrize("n, a", BAD_N_OR_POINT)
    def test_exact_mean_density_typed_errors(self, n, a):
        with pytest.raises(DimensionError):
            exact_mean_density(params_1d(), n, np.array([a]))

    def test_whole_float_n_accepted(self):
        a = np.array([0.2])
        assert exact_mean_density(params_1d(), 200.0, a) == exact_mean_density(params_1d(), 200, a)


class TestWindowedOracle:
    @pytest.mark.parametrize("n", [6400, 100000])
    def test_loader_weights_match_mpmath(self, n):
        ref = mp_log_binom_weights(n)
        err = np.abs(_log_binom_weights(n) - ref)
        assert np.all(err <= 1e-13 * np.maximum(1.0, np.abs(ref)))
        near_peak = ref >= ref.max() - 40.0
        assert np.max(err[near_peak]) <= 1e-13

    @pytest.mark.parametrize("n", [6400, 100000])
    def test_windows_of_loader_weights_are_slices(self, n):
        full = _log_binom_weights(n)
        for k_lo, k_hi in [(0, 0), (0, 5), (17, 40), (n // 2 - 3, n // 2 + 9), (n - 5, n), (n, n)]:
            assert np.array_equal(_log_binom_weights(n, k_lo, k_hi), full[k_lo:k_hi + 1])

    @pytest.mark.parametrize("d", [1, 64])
    @pytest.mark.parametrize("radius", [0.01, 0.3])
    def test_off_centre_density_matches_mpmath(self, d, radius):
        # n = 1e5, a along mu: the largest term sits about 250 (radius 0.01)
        # or 7000 (radius 0.3) terms above k = n/2
        rng = np.random.default_rng(d)
        mu = rng.normal(size=d)
        mu *= 0.9 / np.linalg.norm(mu)
        sigma_diag = rng.uniform(0.5, 2.0, d) if d > 1 else np.ones(1)
        n = 100000
        oracle = ExactMeanDensity(MixtureParams(d, mu, np.diag(sigma_diag)), n)
        a = radius * mu / np.linalg.norm(mu)
        ref = mp_log_density(mu, sigma_diag, n, a)
        assert abs(oracle.log_density(a) - ref) <= 1e-13 * max(1.0, abs(ref))
        k_lo, k_hi, tail_rel = oracle.last_window
        assert k_lo + k_hi > n and tail_rel <= 1e-16

    @pytest.mark.parametrize("radius", [0.0, 0.1, 0.3])
    def test_window_is_sublinear_with_certified_tail(self, radius):
        d, n = 8, 100000
        rng = np.random.default_rng(8)
        oracle = ExactMeanDensity(MixtureParams(d, np.eye(d)[0], np.eye(d)), n)
        for _ in range(3):
            u = rng.normal(size=d)
            oracle.log_density(radius * u / np.linalg.norm(u))
            k_lo, k_hi, tail_rel = oracle.last_window
            assert 0 < k_lo < k_hi < n
            assert k_hi - k_lo + 1 <= 12 * math.sqrt(n)
            assert 0.0 <= tail_rel <= 1e-16

    @pytest.mark.parametrize("n", [1, 2])
    def test_smallest_n_sum_every_term(self, n):
        mu, sigma, a = 0.7, 0.9, 0.2
        oracle = ExactMeanDensity(params_1d(mu, sigma), n)
        terms = [math.comb(n, k) / 2**n
                 * math.exp(-0.5 * n * (a - (2 * k - n) / n * mu) ** 2 / sigma)
                 for k in range(n + 1)]
        ref = math.log(sum(terms) * math.sqrt(n / (2 * math.pi * sigma)))
        assert oracle.log_density(np.array([a])) == pytest.approx(ref, rel=1e-14, abs=1e-15)
        assert oracle.last_window == (0, n, 0.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_peak_at_either_end(self, sign):
        # n = 500, sigma = 1e-4: at a = +-0.999 mu the largest term is k = n
        # (or k = 0), and the window ends there
        n, mu, sigma = 500, 1.0, 1e-4
        oracle = ExactMeanDensity(params_1d(mu, sigma), n)
        a = np.array([sign * 0.999 * mu])
        ref = mp_log_density([mu], [sigma], n, a)
        assert oracle.log_density(a) == pytest.approx(ref, rel=1e-13)
        k_lo, k_hi, tail_rel = oracle.last_window
        assert (k_hi == n and k_lo > 0) if sign > 0 else (k_lo == 0 and k_hi < n)
        assert tail_rel <= 1e-16

    def test_build_and_query_allocate_no_order_n_arrays(self):
        # one d = 8, n = 1e5 build and query; an (n+1)-long float array alone is 800 KB
        d = 8
        params = MixtureParams(d, np.eye(d)[0], np.eye(d))
        a = np.full(d, 0.05)
        tracemalloc.start()
        try:
            ExactMeanDensity(params, 100000).log_density(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024


class TestOracleBatch:
    """A cell's points are one batch query: shared weights over merged
    windows, and each point's value bit for bit what it gets alone."""

    @staticmethod
    def cell(d, n):
        rng = np.random.default_rng(d)
        mu = rng.normal(size=d)
        mu *= 0.8 / np.linalg.norm(mu)
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
        u = rng.normal(size=(5, d))
        points = 0.1 * u / np.linalg.norm(u, axis=1, keepdims=True)
        far = np.full(d, 1e200)
        points = np.vstack([points, np.zeros(d), points[1], points[2] + 1e-4, far, points[0]])
        return ExactMeanDensity(MixtureParams(d, mu, sigma), n), points

    @pytest.mark.parametrize("d", [1, 8, 64])
    @pytest.mark.parametrize("n", [200, 100000])
    def test_points_alone_equal_their_batch(self, d, n):
        oracle, points = self.cell(d, n)
        batch = oracle._log_density_batch(points)
        batch_window = oracle.last_window
        alone = []
        for a in points:
            alone.append(oracle.log_density(a))
            if np.all(np.isfinite(a)) and a[0] < 1e100:
                window = oracle.last_window
        assert batch == alone
        assert batch[-2] == -math.inf and math.isfinite(batch[-1])
        assert batch_window == window

    @pytest.mark.parametrize("d", [1, 64])
    def test_batch_computes_no_more_weights(self, d, monkeypatch):
        oracle, points = self.cell(d, 100000)
        spans = []

        def counting(n, k_lo=0, k_hi=None):
            spans.append(k_hi - k_lo + 1)
            return _log_binom_weights(n, k_lo, k_hi)

        monkeypatch.setattr(spahd.oracle, "_log_binom_weights", counting)
        oracle._log_density_batch(points)
        batch = list(spans)
        spans.clear()
        for a in points:
            oracle.log_density(a)
        assert sum(batch) <= sum(spans)
        assert max(batch) <= max(spahd.oracle._SPAN_TERMS, max(spans))
        if d == 64:
            # the windows of the d = 64 cell overlap
            assert sum(batch) < sum(spans) / 2

    @pytest.mark.parametrize("n, k_lo, k_hi", [
        (1200, 1, 1199), (300, 0, 300), (100000, 49000, 51000),
    ])
    def test_weights_do_not_depend_on_their_span(self, n, k_lo, k_hi):
        # the spans cross z = 15, 35, 80 or 500, where the Stirling series
        # changes length; each weight takes the terms of its own k and n - k
        # (at n = 1200 a weight taken with the span's terms differs in its
        # last bit at k = 502, 595, 599, 601, 605 and 698)
        span = _log_binom_weights(n, k_lo, k_hi)
        single = [_log_binom_weights(n, k, k)[0] for k in range(k_lo, k_hi + 1)]
        assert np.array_equal(span, single)
        for lo in range(k_lo, k_hi, 97):
            assert np.array_equal(_log_binom_weights(n, lo, k_hi), span[lo - k_lo:])


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

    @pytest.mark.parametrize("kw", [
        {"samples": math.nan}, {"samples": 20000.5}, {"samples": math.inf},
        {"bootstrap": math.nan}, {"bootstrap": 2.5},
        {"bandwidth": math.nan}, {"bandwidth": math.inf},
    ])
    def test_config_rejects_non_finite_and_fractional(self, kw):
        with pytest.raises(DimensionError):
            McOracleConfig(**kw)

    @pytest.mark.parametrize("seed", [math.nan, math.inf, -1, 2.5, "7",
                                      pytest.param(10**400, id="10**400")])
    def test_config_rejects_bad_seed(self, seed):
        with pytest.raises(DimensionError):
            McOracleConfig(seed=seed)

    def test_config_whole_float_seed_is_an_int(self):
        c = McOracleConfig(seed=3.0)
        assert type(c.seed) is int
        p = params_1d()
        assert mc_density(p, 10, np.zeros(1), c) == mc_density(p, 10, np.zeros(1),
                                                               McOracleConfig(seed=3))

    def test_config_whole_float_counts(self):
        c = McOracleConfig(samples=10000.0, bootstrap=20.0)
        assert type(c.samples) is int and type(c.bootstrap) is int
        assert mc_density(params_1d(), 10, np.zeros(1), c)[1] > 0

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
