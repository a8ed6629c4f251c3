"""Saddle equation solver and Legendre transform."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spahd import (
    DimensionError,
    GaussianMixture,
    MixtureParams,
    NonconvergenceError,
    SpahdError,
    StandardizationError,
    legendre_gap_report,
    solve_saddle,
)
from spahd.saddle import _solve_batch, c3_ball, fixed_point_matrix, legendre

# mpmath 40-digit references, mu = 1, sigma = 1, a = 0.5
TAU_HALF = 0.25262004315986258556
LEGENDRE_HALF = 0.062826852348593143293


def mixture(mu, sigma):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    return GaussianMixture(MixtureParams(mu.size, mu, sigma))


def bisect_saddle_1d(model, a, lo=-50.0, hi=50.0, iters=200):
    # independent oracle: the scalar saddle equation is monotone in tau
    f = lambda t: model.grad(np.array([t]))[0] - a
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestSolver:
    def test_reference_value(self):
        m = mixture([1.0], [[1.0]])
        sp = solve_saddle(m, np.array([0.5]))
        assert sp.tau[0] == pytest.approx(TAU_HALF, rel=1e-13)
        assert sp.residual <= 1e-12

    def test_against_bisection(self):
        m = mixture([0.7], [[1.3]])
        for a in [-1.5, -0.2, 0.0, 0.31, 2.4]:
            sp = solve_saddle(m, np.array([a]))
            ref = bisect_saddle_1d(m, a)
            assert sp.tau[0] == pytest.approx(ref, abs=1e-11)

    def test_pure_gaussian_closed_form(self):
        rng = np.random.default_rng(5)
        for d in [1, 3]:
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
            m = mixture(np.zeros(d), sigma)
            a = rng.normal(size=d)
            sp = solve_saddle(m, a)
            assert np.allclose(sp.tau, np.linalg.solve(sigma, a), atol=1e-12)
            assert sp.phi_star == pytest.approx(
                0.5 * a @ np.linalg.solve(sigma, a), rel=1e-12
            )

    def test_methods_agree(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            m = mixture(rng.normal(size=d) * 0.8, np.eye(d))
            a = rng.normal(size=d) * 0.4
            t_newton = solve_saddle(m, a, method="newton").tau
            t_fp = solve_saddle(m, a, method="fixed_point").tau
            assert np.max(np.abs(t_newton - t_fp)) <= 1e-10

    def test_gradient_of_legendre_is_tau(self):
        # d/da phi*(a) = tau(a)
        m = mixture([0.9, -0.3], np.eye(2))
        a = np.array([0.4, 0.15])
        sp = solve_saddle(m, a)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (legendre(m, a + e) - legendre(m, a - e)) / (2 * h)
            assert fd == pytest.approx(sp.tau[i], abs=1e-5)

    def test_legendre_reference_and_positivity(self):
        m = mixture([1.0], [[1.0]])
        assert legendre(m, np.array([0.5])) == pytest.approx(LEGENDRE_HALF, rel=1e-12)
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = rng.normal(size=1) * 1.5
            assert legendre(m, a) >= -1e-15

    def test_nonconvergence_reports_state(self):
        m = mixture([1.0], [[1.0]])
        with pytest.raises(NonconvergenceError) as info:
            solve_saddle(m, np.array([2.0]), method="newton", max_iter=1)
        assert info.value.iterations == 1
        assert info.value.residual > 1e-12

    def test_input_validation(self):
        m = mixture([1.0], [[1.0]])
        with pytest.raises(DimensionError):
            solve_saddle(m, np.array([1.0, 2.0]))
        with pytest.raises(DimensionError):
            solve_saddle(m, np.array([0.5]), tol=0.0)
        with pytest.raises(DimensionError):
            solve_saddle(m, np.array([0.5]), method="secant")
        with pytest.raises(DimensionError):
            solve_saddle(m, np.array([0.5]), method="auto")

    def test_rejects_non_finite_input(self):
        m = mixture([1.0, 0.5], np.eye(2))
        for bad in ([math.nan, 0.0], [math.inf, 0.0], [0.0, -math.inf]):
            with pytest.raises(DimensionError):
                solve_saddle(m, np.array(bad))
        with pytest.raises(DimensionError):
            solve_saddle(m, np.zeros(2), tol=math.nan)

    @pytest.mark.parametrize("method", ["newton", "fixed_point"])
    @pytest.mark.parametrize("max_iter", [math.nan, math.inf, 0, 2.5, -3,
                                          pytest.param(10**400, id="10**400")])
    def test_rejects_bad_iteration_budget(self, method, max_iter):
        # a NaN or infinite budget would let a stalled iteration run forever
        with pytest.raises(DimensionError):
            solve_saddle(mixture([1.0], [[1.0]]), np.array([0.5]), method=method,
                         max_iter=max_iter)

    def test_rejects_infinite_tol(self):
        # tol = inf would accept the seed tau = a as solved
        with pytest.raises(DimensionError):
            solve_saddle(mixture([1.0], [[1.0]]), np.array([0.5]), tol=math.inf)

    @pytest.mark.parametrize("a", [1.4e154, 1e160, 1e308, -1e308])
    def test_phi_star_past_double_range_raises(self, a):
        # <tau, a> and cgf(tau) both overflow, so phi* would be inf - inf = nan
        # at a residual of 0; no overflow warning may escape either
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="double range"):
                solve_saddle(mixture([1.0], [[1.0]]), np.array([a]))

    def test_overflowing_inner_product_raises_without_warning(self):
        # d = 8: <sigma^-1 mu, a> and grad overflow in a matmul; only the
        # typed error may come out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="double range"):
                solve_saddle(mixture(np.ones(8), np.eye(8)), 1e308 * np.ones(8))

    def test_fixed_point_overflow_raises_without_warning(self):
        # the fixed-point route's first gradient, at tau = a, overflows in a
        # matmul; only the typed error may come out
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="double range"):
                solve_saddle(mixture(np.ones(8), np.eye(8)), 1e308 * np.ones(8),
                             method="fixed_point")

    def test_whole_float_budget(self):
        m = mixture([1.0], [[1.0]])
        assert solve_saddle(m, np.array([0.5]), max_iter=100.0) == solve_saddle(m, np.array([0.5]))

    @pytest.mark.parametrize("method", ["newton", "fixed_point"])
    def test_nan_residual_is_not_converged(self, method):
        class NanGradient(GaussianMixture):
            def grad(self, tau):
                return np.full(self.dim, math.nan)

        m = NanGradient(MixtureParams(1, np.array([1.0]), np.eye(1)))
        with pytest.raises(NonconvergenceError):
            solve_saddle(m, np.array([0.5]), method=method, max_iter=5)

    def test_solution_fields(self):
        m = mixture([1.0], [[1.0]])
        sp = solve_saddle(m, np.array([0.5]))
        assert sp.method in {"newton", "fixed_point"}
        assert sp.iterations >= 1
        assert sp.log_det_h == pytest.approx(
            math.log(m.hessian(sp.tau)[0, 0]), rel=1e-12
        )


class TestSolveBatch:
    """The sweep solves a d's points as one batch; each row is the saddle
    its point gets alone, bit for bit, or the error it raises alone."""

    @pytest.mark.parametrize("d", [1, 3, 8, 64])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_rows_equal_one_point_solves(self, d, diagonal):
        rng = np.random.default_rng(d)
        if diagonal:
            sigma = np.diag(rng.uniform(0.5, 2.0, d))
        else:
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
        m = mixture(rng.normal(size=d), 0.5 * (sigma + sigma.T))
        points = rng.normal(size=(6, d)) * [[0.0], [0.1], [0.5], [2.0], [0.1], [1e160]]
        points[4] = points[1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = _solve_batch(m, points, 1e-12)
        # phi* leaves the double range at the 1e160-scaled point, whatever sigma
        assert isinstance(batch[5], DimensionError)
        for a, row in zip(points, batch):
            try:
                alone = solve_saddle(m, a)
            except SpahdError as exc:
                assert type(row) is type(exc)
                continue
            assert row.phi_star == alone.phi_star and row.log_det_h == alone.log_det_h
            assert np.array_equal(row.tau, alone.tau)
            assert (row.residual, row.iterations, row.method) == (
                alone.residual, alone.iterations, alone.method)

    def test_diagonal_sigma_is_solved_by_division(self):
        # the quotients a_i / sigma_ii are LAPACK's solve of the diagonal
        # system to within an ulp, and the saddles are those the general
        # solve gives, to a few ulps
        rng = np.random.default_rng(5)
        m = mixture(rng.normal(size=8), np.diag(rng.uniform(0.5, 2.0, 8)))
        points = 0.3 * rng.normal(size=(4, 8))
        for a in points:
            np.testing.assert_array_max_ulp(a / m._sigma_diag, np.linalg.solve(m.params.sigma, a),
                                            maxulp=1)
        general = mixture(m.params.mu, m.params.sigma)
        general._sigma_diag = None
        for x, y in zip(_solve_batch(m, points, 1e-12), _solve_batch(general, points, 1e-12)):
            assert x.phi_star == pytest.approx(y.phi_star, rel=1e-15, abs=0.0)
            assert np.allclose(x.tau, y.tau, rtol=1e-15, atol=0.0)

    def test_non_finite_rows_and_invalid_budgets_fail_in_the_batch(self):
        m = mixture([1.0, 0.5], np.eye(2))
        points = np.array([[0.1, 0.2], [math.nan, 0.0], [0.3, -math.inf]])
        rows = _solve_batch(m, points, 1e-12)
        assert rows[0].phi_star == solve_saddle(m, points[0]).phi_star
        assert [type(r) for r in rows[1:]] == [DimensionError] * 2
        for tol, max_iter in ((0.0, 100), (math.inf, 100), (1e-12, 0)):
            assert [type(r) for r in _solve_batch(m, points, tol, max_iter)] == [DimensionError] * 3


class TestFixedPointMatrix:
    def test_gradient_identity(self):
        # grad phi(tau) = (H0 + B(tau)) tau exactly defines B
        rng = np.random.default_rng(8)
        for _ in range(20):
            d = int(rng.integers(1, 4))
            m = mixture(rng.normal(size=d), np.eye(d) * rng.uniform(0.5, 2.0))
            tau = rng.normal(size=d)
            h0 = m.hessian(np.zeros(d))
            b = fixed_point_matrix(m, tau)
            lhs = m.grad(tau)
            rhs = (h0 + b) @ tau
            assert np.allclose(lhs, rhs, atol=1e-12)

    def test_small_alpha_continuity(self):
        # tanh(alpha)/alpha - 1 must be evaluated by series near zero
        m = mixture([1.0, 0.0], np.eye(2))
        tiny = fixed_point_matrix(m, np.array([1e-5, 0.0]))
        zero = fixed_point_matrix(m, np.zeros(2))
        assert np.allclose(zero, 0.0, atol=1e-15)
        assert np.max(np.abs(tiny)) < 1e-9


class TestGapReport:
    def test_admissible_bound_holds(self):
        p = MixtureParams(1, np.array([0.6]), np.array([[0.64]]))
        m = GaussianMixture(p)
        assert np.allclose(p.second_moment(), np.eye(1), atol=1e-12)
        rng = np.random.default_rng(9)
        for _ in range(25):
            a = rng.normal(size=1) * 0.3
            rep = legendre_gap_report(m, a)
            if rep.admissible:
                assert rep.gap <= rep.bound + 1e-14

    def test_requires_standardized_model(self):
        m = mixture([1.0], [[1.0]])  # second moment is 2, not 1
        with pytest.raises(StandardizationError):
            legendre_gap_report(m, np.array([0.1]))

    def test_c3_ball_uses_doubled_radius(self):
        m = mixture([1.0], [[1.0]])
        a = np.array([0.05])
        assert c3_ball(m, a) == m.c3_op_norm_ball(0.1)


class TestScalarRoute:
    def test_runs_no_factorization(self, monkeypatch):
        # a mixture solve needs one solve with sigma and no Cholesky or eigh
        def refuse(*args, **kwargs):
            raise AssertionError("called")

        rng = np.random.default_rng(11)
        d = 64
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        m = mixture(rng.normal(size=d) / 4.0, q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T)
        monkeypatch.setattr(np.linalg, "cholesky", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        sp = solve_saddle(m, rng.normal(size=d) * 0.1)
        assert sp.residual <= 1e-12 and sp.method == "newton"

    def test_solves_what_the_damped_newton_solved(self):
        # 100 draws per condition number kappa, eigenvalues geomspace(1, 1/kappa);
        # the indices a d-dimensional damped Newton seeded at tau = a brings
        # to tol = 1e-12 must stay solved
        solved_before = {
            1e2: range(100),
            1e6: [2, 7, 8, 9, 10, 12, 21, 24, 32, 33, 36, 37, 40, 43, 46, 48, 52, 53,
                  54, 55, 56, 57, 58, 63, 64, 67, 69, 71, 79, 82, 83, 84, 89, 90, 93],
            1e10: [40, 79, 90],
        }
        for kappa, indices in solved_before.items():
            rng = np.random.default_rng(2024)
            solved = set()
            for i in range(100):
                d = int(rng.integers(2, 20))
                q = np.linalg.qr(rng.normal(size=(d, d)))[0]
                sigma = q @ np.diag(np.geomspace(1, 1 / kappa, d)) @ q.T
                mu = rng.normal(size=d) * rng.uniform(0.3, 1.5)
                a = rng.normal(size=d) * 0.5
                try:
                    solve_saddle(mixture(mu, sigma), a, tol=1e-12)
                    solved.add(i)
                except SpahdError:
                    pass
            assert set(indices) <= solved, kappa


@settings(max_examples=25, deadline=None)
@given(
    d=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    log_kappa=st.floats(0.0, 3.0),
    mu_norm=st.floats(0.0, 2.0),
    a_scale=st.floats(0.0, 1.0),
)
def test_scalar_route_matches_fixed_point(d, seed, log_kappa, mu_norm, a_scale):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    sigma = q @ np.diag(np.geomspace(1.0, 10.0**-log_kappa, d)) @ q.T
    mu = rng.normal(size=d)
    m = mixture(mu * (mu_norm / np.linalg.norm(mu)), sigma)
    a = rng.normal(size=d) * a_scale
    sp = solve_saddle(m, a)
    fixed = solve_saddle(m, a, method="fixed_point", max_iter=1000)
    assert np.max(np.abs(sp.tau - fixed.tau)) <= 1e-10 * max(1.0, float(np.linalg.norm(sp.tau)))
    h = m.hessian(sp.tau)
    assert sp.log_det_h == pytest.approx(np.linalg.slogdet(h)[1], rel=1e-12, abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
    log_kappa=st.floats(0.0, 6.0),
    log_sigma=st.floats(-2.0, 2.0),
    mu_norm=st.floats(0.0, 3.0),
    a_scale=st.one_of(st.sampled_from([0.0, 5e-324, 2.5e-310, 1e-300]),
                      st.floats(-300.0, 300.0).map(lambda e: 10.0**e)),
    zeros=st.integers(0, 8),
)
def test_solve_saddle_returns_finite_or_raises_typed(d, seed, log_kappa, log_sigma, mu_norm,
                                                     a_scale, zeros):
    # sigma eigenvalue ratios up to 1e6, points from zero and subnormal up to
    # 1e300 with some entries zero: a finite tau and phi*, or a SpahdError;
    # past the double range of phi*, a DimensionError
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    sigma = q @ np.diag(10.0**log_sigma * np.geomspace(1.0, 10.0**-log_kappa, d)) @ q.T
    mu = rng.normal(size=d)
    m = mixture(mu * (mu_norm / np.linalg.norm(mu)), 0.5 * (sigma + sigma.T))
    direction = rng.normal(size=d)
    direction[:min(zeros, d - 1)] = 0.0
    a = a_scale * direction
    # phi* lies in [p/2 - sqrt(p g), p/2] with p = a' sigma^-1 a, since logcosh
    # is between 0 and |<mu, tau>|; p is taken from a / max |a_i| in logs
    top = float(np.max(np.abs(a)))
    past_range = False
    if top > 1e150:
        unit = a / top
        log_half_p = math.log(0.5 * float(unit @ np.linalg.solve(m.params.sigma, unit)))
        log_half_p += 2.0 * math.log(top)
        slack = math.sqrt(2.0 * m._g) * math.exp(-0.5 * log_half_p)
        past_range = slack < 1.0 and log_half_p + math.log1p(-slack) > math.log(sys.float_info.max)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            sp = solve_saddle(m, a)
        except SpahdError as exc:
            if past_range:
                assert isinstance(exc, DimensionError)
            return
    assert not past_range
    assert np.all(np.isfinite(sp.tau)) and math.isfinite(sp.phi_star)
