"""Exact and Monte Carlo reference densities, CLT comparison."""

import collections
import functools
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spahd import (
    DimensionError,
    ExactMeanDensity,
    GaussianMixture,
    McOracleConfig,
    MixtureParams,
    ModelDomainError,
    SpahdError,
    StandardizationError,
    clt_ratio,
    exact_mean_density,
    legendre_gap_report,
    mc_density,
)
import spahd.oracle
from spahd.oracle import MAX_N, _log_binom_weights

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
        # Loader's form at every n, whose Stirling errors switch from a
        # table to the series at k = 16
        with mpmath.workdps(40):
            ref = [float(mpmath.log(mpmath.binomial(n, k)) - n * mpmath.log(2))
                   for k in range(n + 1)]
        assert np.max(np.abs(_log_binom_weights(n) - ref)) <= bound

    @pytest.mark.parametrize("n", [100, 200, 256])
    def test_small_n_weights_are_within_rounding(self, n):
        # log C(n, k) - n log 2 from exact integer binomials cancels near the
        # peak (up to 1.7e-14 off at n = 256); Loader's form does not
        w = _log_binom_weights(n, 0, n)
        with mpmath.workdps(40):
            ref = [mpmath.log(mpmath.binomial(n, k)) - n * mpmath.log(2) for k in range(n + 1)]
            err = [abs(mpmath.mpf(float(x)) - r) for x, r in zip(w, ref)]
            assert all(e <= 2e-15 * abs(r) for e, r in zip(err, ref))
            assert all(err[k] <= 2e-15 for k in range(n + 1) if abs(k - n / 2) <= 5)

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

    @pytest.mark.parametrize("nats", [40.0, 3.0])
    def test_cut_tails_are_bounded_and_summed(self, nats, monkeypatch):
        # n = 400, mu = sigma = 1, every k = 0..n summed in mpmath.  The
        # 40-nat first window cuts tails of 4.9e-20 of its sum, which the
        # geometric bound covers (4.9e-20) and its first term alone does not
        # (3.6e-20); from a 3-nat first window the window widens to 48 nats,
        # past the 24-nat window whose cut tails still hold 7.8e-13
        monkeypatch.setattr(spahd.oracle, "_WINDOW_NATS", nats)
        n, a = 400, 0.05
        oracle = ExactMeanDensity(params_1d(), n)
        got = oracle.log_density(np.array([a]))
        k_lo, k_hi, tail_rel = oracle.last_window
        with mpmath.workdps(40):
            terms = [mpmath.binomial(n, k) / mpmath.mpf(2) ** n
                     * mpmath.exp(-n * (a - mpmath.mpf(2 * k - n) / n) ** 2 / 2)
                     for k in range(n + 1)]
            total = mpmath.fsum(terms)
            inside = mpmath.fsum(terms[k_lo:k_hi + 1])
            ref = mpmath.log(total) + mpmath.log(n / (2 * mpmath.pi)) / 2
            cut = float((total - inside) / inside)
        assert 0 < k_lo and k_hi < n
        assert got == pytest.approx(float(ref), abs=1e-13)
        assert 0.0 < cut <= tail_rel <= 1e-16

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


def count_linalg(monkeypatch):
    """Wrap every np.linalg routine in a counter; returns the counts by name."""
    calls = collections.Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counting(name, fn))
    return calls


class TestOracleDomain:
    def test_another_n_reads_the_parameters_factor(self, monkeypatch):
        # the oracle derives sigma/n's factor from sigma's, which the
        # parameters keep, so building it at a second n needs no linear algebra
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        p = MixtureParams(3, rng.normal(size=3), q @ np.diag([0.5, 1.0, 2.0]) @ q.T)
        ExactMeanDensity(p, 50)
        calls = count_linalg(monkeypatch)
        oracle = ExactMeanDensity(p, 800)
        assert not calls
        # against every term summed with a solve and a determinant of sigma/n
        monkeypatch.undo()
        a = np.array([0.1, -0.2, 0.05])
        r = a - np.outer(np.arange(801) / 400.0 - 1.0, p.mu)
        quad = np.sum(r * np.linalg.solve(p.sigma / 800, r.T).T, axis=1)
        f = _log_binom_weights(800) - 0.5 * quad
        top = f.max()
        log_ref = (top + math.log(np.exp(f - top).sum())
                   - 0.5 * np.linalg.slogdet(2.0 * math.pi * p.sigma / 800)[1])
        assert oracle.log_density(a) == pytest.approx(log_ref, rel=1e-13)

    @pytest.mark.parametrize("sigma, n", [(5e-324, 4), (1e-300, 10**6), (1e-308, 2)])
    def test_mu_past_the_double_range_of_sigma_over_n(self, sigma, n):
        # <mu, (sigma/n)^-1 mu> or the peak search's constants overflow: a
        # typed error when the oracle is built, not a LinAlgError, an
        # OverflowError or a silent -inf with warnings at the query
        p = params_1d(1.0, sigma)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelDomainError):
                ExactMeanDensity(p, n)

    def test_means_many_deviations_apart(self):
        # each step of k moves the mean by about 1e12 standard deviations, so
        # the window's terms are computed to about 1e8 nats, and the peak's
        # neighbour may come out above it: that read +inf before
        mu, sigma, n, a = 1.9063907382112716e91, 2.667803419122743e153, 686393, 0.1442817818122828
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ExactMeanDensity(params_1d(mu, sigma), n).log_density(np.array([a]))
        assert value == pytest.approx(mp_log_density([mu], [sigma], n, [a]), rel=1e-12)

    def test_n_past_the_limit_is_refused_when_built(self):
        # never queried: a window there would hold about 9 sqrt(n) terms
        for n in (MAX_N + 1, 2**53, 10**300):
            with pytest.raises(DimensionError):
                ExactMeanDensity(params_1d(), n)
        with pytest.raises(DimensionError):
            clt_ratio(params_1d(0.6, 0.64), MAX_N + 1, np.zeros(1))

    def test_query_at_the_limit_allocates_a_few_tens_of_mb(self):
        oracle = ExactMeanDensity(params_1d(), MAX_N)
        tracemalloc.start()
        try:
            value = oracle.log_density(np.array([1e-5]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(value) and peak < 40e6

    def test_mc_keeps_a_peak_whose_squares_fit(self):
        # mu = 0, sigma = 1e-300: the density at 0 is (2 pi 1e-306)^(-1/2)
        est, stderr = mc_density(params_1d(0.0, 1e-300), 10**6, np.zeros(1))
        assert est == pytest.approx((2e-306 * math.pi) ** -0.5, rel=0.05)
        assert 0.0 < stderr < math.inf

    def test_mc_n_past_int64_is_refused(self):
        for n in (2**63, 10**300):
            with pytest.raises(DimensionError):
                mc_density(params_1d(), n, np.zeros(1))

    @pytest.mark.parametrize("mu, sigma", [(1e200, 1.0), (0.0, 1e-310)])
    def test_mc_refuses_draws_past_the_double_range(self, mu, sigma):
        # the spread of the draws leaves the double range, or the bootstrap's
        # squares of the kernel's peak density, about 2e158, do
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError):
                mc_density(params_1d(mu, sigma), 10**6, np.zeros(1))


class TestMcDensity:
    def test_matches_exact_within_band(self):
        # KDE smoothing bias at the peak is ~1-2%, so the band is
        # max(4 stderr, 4% relative); seeds 0-3 all sit inside it, and so
        # does a fixed bandwidth of 0.05 (a 1.2% bias)
        p = MixtureParams(1, np.zeros(1), np.eye(1))
        target = math.sqrt(10 / (2 * math.pi))  # N(0; 0, 1/10) at 0
        configs = [McOracleConfig(seed=seed) for seed in range(4)]
        for config in configs + [McOracleConfig(bandwidth=0.05)]:
            est, se = mc_density(p, 10, np.zeros(1), config)
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

    @pytest.mark.parametrize("x", [1e120, 1e200])
    def test_point_whose_cube_overflows(self, x):
        # ||x||^3 leaves the double range: a typed error, not a bare
        # OverflowError or a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError):
                clt_ratio(params_1d(0.6, 0.64), 50, np.array([x]))

    def test_mu_past_the_squared_range_fails_standardization_quietly(self):
        # mu mu' overflows for ||mu|| past about 1.34e154: the check refuses
        # the model without a NumPy overflow warning first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StandardizationError):
                clt_ratio(MixtureParams(1, [1e200], [[1.0]]), 10, [0.0])

    def test_one_standardization_tolerance(self):
        # sigma + mu mu' = hessian(0) is 1e-9 off the identity: the clt ratio
        # and the Legendre gap report both refuse it at the same 1e-10
        p = MixtureParams(1, np.array([0.6]), np.array([[0.64 + 1e-9]]))
        with pytest.raises(StandardizationError):
            clt_ratio(p, 100, np.zeros(1))
        with pytest.raises(StandardizationError):
            legendre_gap_report(GaussianMixture(p), np.array([0.1]))
        ok = MixtureParams(1, np.array([0.6]), np.array([[0.64 + 1e-11]]))
        assert clt_ratio(ok, 100, np.zeros(1)).ratio > 0.0
        assert legendre_gap_report(GaussianMixture(ok), np.array([0.1])).gap >= 0.0

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


def _typed(fn):
    """fn(), or None where it raises a SpahdError."""
    try:
        return fn()
    except SpahdError:
        return None


# point entries: non-finite, huge, subnormal and ordinary
_ENTRY = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1.7e308, -1e308, 1e154,
                                    5e-324, -1e-310, 0.0]),
                   st.floats(-3.0, 3.0))
_MC_CONFIG = McOracleConfig(samples=10000, bootstrap=2)


@settings(max_examples=250, deadline=None)
@given(
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    log_diag=st.lists(st.floats(math.log10(5e-324), 308.0), min_size=3, max_size=3),
    log_kappa=st.floats(0.0, 15.0),
    log_mu=st.one_of(st.none(), st.floats(-300.0, 300.0)),
    rho=st.floats(0.0, 0.95),
    point=st.lists(_ENTRY, min_size=3, max_size=3),
    n=st.one_of(st.integers(1, 10**6), st.integers(10**6, 10**20),
                st.sampled_from([MAX_N, MAX_N + 1, 2**63 - 1, 2**63, 10**300])),
)
def test_oracle_entry_points_return_or_raise_typed(d, seed, log_diag, log_kappa, log_mu, rho,
                                                   point, n):
    # sigma = S C S with diagonal entries S^2 from 5e-324 to 1e308 and a correlation
    # matrix C of eigenvalue ratio up to 1e15; mu is 0 where log_mu is None.  Each
    # call returns a finite value, or -inf for a log density and inf for a density
    # past the double range, or raises a SpahdError, and none warns.  Queries run
    # at n <= 1e6 only; past MAX_N the oracle is only built
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    lam = np.geomspace(1.0, 10.0**-log_kappa, d)
    shape = q @ np.diag(lam) @ q.T
    root = np.sqrt(np.diag(shape))
    scale = 10.0 ** (0.5 * np.array(log_diag[:d]))
    sigma = (shape / root[:, None] / root[None, :]) * scale[:, None] * scale[None, :]
    mu = np.zeros(d) if log_mu is None else rng.normal(size=d)
    if log_mu is not None:
        mu *= 10.0**log_mu / np.linalg.norm(mu)
    a = np.array(point[:d])
    # a standardized model for clt_ratio: sigma = I - mu mu', ||mu|| = rho
    u = rng.normal(size=d)
    mu_std = rho * u / np.linalg.norm(u)
    std = MixtureParams(d, mu_std, np.eye(d) - np.outer(mu_std, mu_std))
    query = n <= 10**6
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = _typed(lambda: MixtureParams(d, mu, sigma))
        if params is not None:
            oracle = _typed(lambda: ExactMeanDensity(params, n))
            assert oracle is None or n <= MAX_N
            if oracle is not None and query:
                log = _typed(lambda: oracle.log_density(a))
                # every finite point gets an answer
                assert (log is None) == (not np.isfinite(a).all())
                assert log is None or log < math.inf
                density = _typed(lambda: exact_mean_density(params, n, a))
                assert density is None or 0.0 <= density <= math.inf
            mc = _typed(lambda: mc_density(params, n, a, _MC_CONFIG))
            assert mc is None or (np.isfinite(mc).all() and min(mc) >= 0.0)
        if query or n > MAX_N:
            clt = _typed(lambda: clt_ratio(std, n, a))
            assert clt is None or (0.0 <= clt.ratio <= math.inf and 0.0 <= clt.bound <= math.inf)
