"""Density assembly and error budget arithmetic."""

import math

import mpmath
import numpy as np
import pytest

from spahd import DimensionError, GaussianMixture, MixtureParams, error_bound, spa_density, solve_saddle
from spahd.spa import (budget_total, budget_totals, check_sample_size, log_gamma_ratio,
                       tail_bound_terms)

# mpmath 40-digit references
SPA_AT_0_N2 = 0.39894228040143267794  # mu = 1, sigma = 1, a = 0, n = 2
TERM_MAIN = 0.020080160213546837447  # d=4, n=1600, c3=c4=kappa=1
TERM_EXP = 0.018315638888734180294
TERM_TAIL = 0.00073890560989306502272


def mixture_1d():
    return GaussianMixture(MixtureParams(1, np.array([1.0]), np.array([[1.0]])))


class TestSpaDensity:
    def test_reference_value(self):
        sp = solve_saddle(mixture_1d(), np.zeros(1))
        est = spa_density(sp, 2)
        assert est.density == pytest.approx(SPA_AT_0_N2, rel=1e-13)
        assert est.log_density == pytest.approx(math.log(SPA_AT_0_N2), abs=1e-13)
        assert not est.underflow

    def test_pure_gaussian_matches_closed_form(self):
        # mu = 0 makes the approximation exact: N(a; 0, sigma/n)
        rng = np.random.default_rng(11)
        for d in [1, 2, 5]:
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
            m = GaussianMixture(MixtureParams(d, np.zeros(d), sigma))
            a = rng.normal(size=d) * 0.5
            n = 37
            est = spa_density(solve_saddle(m, a), n)
            quad = a @ np.linalg.solve(sigma, a)
            ref = math.exp(
                -0.5 * n * quad
                + 0.5 * d * math.log(n / (2 * math.pi))
                - 0.5 * np.linalg.slogdet(sigma)[1]
            )
            assert est.density == pytest.approx(ref, rel=1e-12)

    def test_log_prefactor_and_exponent_split(self):
        sp = solve_saddle(mixture_1d(), np.array([0.3]))
        est = spa_density(sp, 50)
        assert est.log_density == pytest.approx(
            est.log_prefactor + est.exponent, abs=1e-13
        )
        assert est.exponent == pytest.approx(-50 * sp.phi_star, rel=1e-14)
        assert est.n == 50 and est.d == 1

    def test_underflow_flag(self):
        sp = solve_saddle(mixture_1d(), np.array([0.9]))
        est = spa_density(sp, 10**6)
        assert est.underflow
        assert est.density == 0.0
        assert math.isfinite(est.log_density)

    def test_density_overflow_gives_inf(self):
        # d = 150, n = 1e5, a = 0 (eps = 0.225): the density is about e^725
        d, n = 150, 100000
        m = GaussianMixture(MixtureParams(d, np.eye(d)[0], np.eye(d)))
        est = spa_density(solve_saddle(m, np.zeros(d)), n)
        assert est.density == math.inf and not est.underflow
        assert est.log_density == pytest.approx(
            0.5 * d * math.log(n / (2 * math.pi)) - 0.5 * math.log(2.0), rel=1e-14
        )

    def test_log_density_past_double_range_raises(self):
        # sigma = 100, a = 1e155: phi* = 5e307 is finite, n phi* is not
        m = GaussianMixture(MixtureParams(1, np.array([3.0]), np.array([[100.0]])))
        sp = solve_saddle(m, np.array([1e155]))
        assert math.isfinite(sp.phi_star)
        with pytest.raises(DimensionError, match="double range"):
            spa_density(sp, 50)
        assert math.isfinite(spa_density(sp, 1).log_density)

    def test_rejects_bad_n(self):
        sp = solve_saddle(mixture_1d(), np.zeros(1))
        with pytest.raises(DimensionError):
            spa_density(sp, 0)

    def test_rejects_non_integer_n(self):
        sp = solve_saddle(mixture_1d(), np.zeros(1))
        for bad in (200.5, math.nan, math.inf):
            with pytest.raises(DimensionError):
                spa_density(sp, bad)
        est = spa_density(sp, 200.0)
        assert est.n == 200
        assert est == spa_density(sp, 200)

    def test_n_past_double_range(self):
        # float(10**400) overflows; that is a bad size, not an OverflowError
        with pytest.raises(DimensionError):
            check_sample_size(10**400)


class TestErrorBudget:
    def test_reference_terms(self):
        b = error_bound(4, 1600, 1.0, 1.0, kappa=1.0)
        assert b.term_main == pytest.approx(TERM_MAIN, rel=1e-10)
        assert b.term_exp == pytest.approx(TERM_EXP, rel=1e-10)
        assert b.term_tail == pytest.approx(TERM_TAIL, rel=1e-10)
        assert b.total == pytest.approx(TERM_MAIN + TERM_EXP + TERM_TAIL, rel=1e-14)
        assert b.eps == pytest.approx(0.01, rel=1e-15)
        assert not b.eps_warning

    def test_constant_caveat_is_attached(self):
        b = error_bound(2, 100, 0.5, 0.5)
        assert "unknown" in b.constant_note

    def test_eps_warning(self):
        assert error_bound(4, 60, 1.0, 1.0).eps_warning  # eps = 0.266...
        assert not error_bound(4, 64, 1.0, 1.0).eps_warning  # eps = 0.25

    def test_monotone_in_eps(self):
        totals = [error_bound(2, n, 1.0, 1.0).total for n in [100, 200, 400, 800]]
        assert all(x > y for x, y in zip(totals, totals[1:]))

    def test_zero_cumulants_leave_tail_terms(self):
        b = error_bound(3, 500, 0.0, 0.0)
        assert b.term_main == 0.0
        assert b.total == pytest.approx(b.term_exp + b.term_tail, rel=1e-15)

    def test_validation(self):
        with pytest.raises(DimensionError):
            error_bound(0, 100, 1.0, 1.0)
        with pytest.raises(DimensionError):
            error_bound(2, 100, -1.0, 1.0)
        with pytest.raises(DimensionError):
            error_bound(2, 100, 1.0, 1.0, kappa=0.0)

    @pytest.mark.parametrize("d, n", [
        (1, math.inf), (1, math.nan), (math.inf, 100), (2.5, 100),
        pytest.param(1, 10**400, id="1-10**400"),
    ])
    def test_rejects_bad_sizes(self, d, n):
        with pytest.raises(DimensionError):
            error_bound(d, n, 1.0, 1.0)
        with pytest.raises(DimensionError):
            tail_bound_terms(d, n)

    def test_rejects_nan(self):
        for c3, c4, kappa in [(math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)]:
            with pytest.raises(DimensionError):
                error_bound(2, 100, c3, c4, kappa=kappa)


class TestBudgetTotals:
    def test_batch_matches_one_cell_at_a_time(self):
        # each cell's total is budget_total's, inf included: at a zero of
        # cosh (n = 1) and past the alpha range's double range (a_norm = 1e308)
        m = mixture_1d()
        cells = [(50, 0.1), (200, 0.1), (50, 0.1), (1, 0.1), (2, 1e308), (200, 0.0), (10**6, 1.5)]
        for kappa in (1.0, 0.5):
            totals = budget_totals(m, cells, kappa)
            assert totals == [budget_total(m, n, a_norm, kappa) for n, a_norm in cells]
            assert totals[3] == totals[4] == math.inf
            assert all(math.isfinite(t) for t in totals[:3] + totals[5:])
        assert budget_totals(m, []) == []

    @pytest.mark.parametrize("n", [0, -5, 2.5, math.nan, math.inf, 10**400])
    def test_bad_sample_size_is_a_dimension_error(self, n):
        # sqrt(d/n) used to be taken before n was checked: n = 0 raised a bare
        # ZeroDivisionError and n = -5 a bare ValueError (math domain error)
        m = mixture_1d()
        with pytest.raises(DimensionError, match="n must be a positive integer"):
            budget_total(m, n, 0.1)
        ok, bad = budget_totals(m, [(50, 0.1), (n, 0.1)])
        assert ok == budget_total(m, 50, 0.1)
        assert isinstance(bad, DimensionError) and "positive integer" in str(bad)


class TestTailTerms:
    def test_reference_values(self):
        first, _ = tail_bound_terms(1, 100)
        assert first == pytest.approx(0.3678794411714423216, rel=1e-14)
        _, second = tail_bound_terms(4, 1600, 1.0)
        assert second == pytest.approx(7.3890560989306502e-4, rel=1e-12)

    def test_far_term_past_double_range_is_inf(self):
        # d = 300, n = 100: (e d^2 / n)^(d/2) is about e^1170
        first, second = tail_bound_terms(300, 100)
        assert first > 0.0 and second == math.inf
        budget = error_bound(300, 100, 1.0, 1.0)
        assert budget.term_tail == math.inf and budget.total == math.inf

    def test_rejects_nan_kappa(self):
        with pytest.raises(DimensionError):
            tail_bound_terms(2, 100, math.nan)

    def test_far_term_kappa_scaling(self):
        # second term scales as kappa^{-d}
        _, s1 = tail_bound_terms(3, 900, 1.0)
        _, s2 = tail_bound_terms(3, 900, 2.0)
        assert s1 / s2 == pytest.approx(2.0**3, rel=1e-12)


class TestSphereAndGamma:
    def test_gamma_ratio_small_integer(self):
        # Gamma(6)/Gamma(3) = 120/2
        assert log_gamma_ratio(6) == pytest.approx(math.log(60.0), rel=1e-12)

    def test_duplication_identity_high_d(self):
        for d in range(1, 301):
            direct = log_gamma_ratio(d)
            dup = (
                (d - 1.0) * math.log(2.0)
                + float(mpmath.loggamma(0.5 * (d + 1.0)))
                - 0.5 * math.log(math.pi)
            )
            assert direct == pytest.approx(dup, rel=1e-10, abs=1e-10)

    def test_validation(self):
        with pytest.raises(DimensionError):
            log_gamma_ratio(0)
