"""Contour quadrature for the multiplicative correction, assumption audit.

The strongest check here is cross-validation: the quadrature value of I
must match exact_density / spa_density computed by entirely different code
paths (binomial mixture summation vs. saddle + determinant).
"""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spahd.model
from spahd import (
    AssumptionViolationError,
    ConfigError,
    DimensionError,
    GaussianMixture,
    MixtureParams,
    PhaseBranchError,
    QuadratureError,
    QuadSpec,
    check_assumptions,
    correction_integral,
    exact_mean_density,
    g_function,
    legendre_gap_report,
    solve_saddle,
    spa_density,
)
from spahd.correction import _shell_radii
from spahd.model import cosh_factor
from spahd.oracle import ExactMeanDensity
from spahd.saddle import c3_ball, fixed_point_matrix, legendre

# mpmath 40-digit references, mu = 1, sigma = 1, a = 0
I_AT_0_N2 = 0.96723682869799197258
I_GAP_N2 = 0.03276317130200802742


def mixture(mu, sigma):
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    return GaussianMixture(MixtureParams(mu.size, mu, sigma))


def quad_i(model, a, n, **kw):
    sp = solve_saddle(model, np.asarray(a, dtype=float))
    return correction_integral(model, sp, n, **kw)


class TestCorrectionIntegral:
    def test_reference_value(self):
        res = quad_i(mixture([1.0], [[1.0]]), [0.0], 2)
        assert res.i_value.real == pytest.approx(I_AT_0_N2, rel=1e-12)
        assert res.abs_err_from_one == pytest.approx(I_GAP_N2, rel=1e-10)

    def test_gaussian_correction_is_one(self):
        for d in [1, 2]:
            m = mixture(np.zeros(d), np.eye(d))
            res = quad_i(m, np.full(d, 0.2), 30)
            assert res.i_value.real == pytest.approx(1.0, abs=1e-10)
            assert abs(res.i_value.imag) <= 1e-12

    def test_matches_exact_to_spa_ratio(self):
        # independent oracle: I = exact / spa by construction
        m = mixture([1.0], [[1.0]])
        a = np.array([0.3])
        for n in [2, 10, 100]:
            sp = solve_saddle(m, a)
            i_quad = correction_integral(m, sp, n).i_value.real
            i_true = exact_mean_density(m.params, n, a) / spa_density(sp, n).density
            assert i_quad == pytest.approx(i_true, rel=1e-10)

    def test_matches_ratio_d2_general_sigma(self):
        sigma = np.array([[1.1, 0.25], [0.25, 0.8]])
        m = mixture([0.6, -0.3], sigma)
        a = np.array([0.15, 0.05])
        n = 40
        sp = solve_saddle(m, a)
        i_quad = correction_integral(m, sp, n).i_value.real
        i_true = exact_mean_density(m.params, n, a) / spa_density(sp, n).density
        assert i_quad == pytest.approx(i_true, rel=1e-10)

    def test_gap_decays_like_one_over_n(self):
        m = mixture([1.0], [[1.0]])
        g100 = quad_i(m, [0.3], 100).abs_err_from_one
        g400 = quad_i(m, [0.3], 400).abs_err_from_one
        assert 3.4 <= g100 / g400 <= 4.6

    def test_imaginary_part_vanishes(self):
        # the integrand comes in conjugate pairs, so Im I is pure noise
        res = quad_i(mixture([0.8, 0.1], np.eye(2)), [0.1, -0.2], 25)
        assert abs(res.i_value.imag) <= 1e-10

    def test_result_bookkeeping(self):
        res = quad_i(mixture([1.0], [[1.0]]), [0.0], 50)
        assert res.nodes_used > 0
        assert res.panels_per_axis >= 1
        assert res.tail_estimate > 0

    @pytest.mark.parametrize("d", [3, 8, 64])
    def test_matches_ratio_high_d(self, d):
        # the mixture integral runs along v2 alone, so d has no cap
        rng = np.random.default_rng(d)
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        sigma = q @ np.diag(rng.uniform(0.6, 1.4, d)) @ q.T
        mu = rng.normal(size=d)
        a = rng.normal(size=d)
        m = mixture(0.9 * mu / np.linalg.norm(mu), sigma)
        a *= 0.25 / np.linalg.norm(a)
        sp = solve_saddle(m, a)
        for n in [50, 200, 3200]:
            i_quad = correction_integral(m, sp, n).i_value.real
            i_true = exact_mean_density(m.params, n, a) / spa_density(sp, n).density
            assert i_quad == pytest.approx(i_true, rel=1e-10)

    def test_matches_mpmath_where_the_tails_reach_far(self):
        # n = 400 at sech^2(alpha) = 1/n and lam = 0.02 (the part of the
        # decay along v2 outside the cosh factor): the cosh factor returns to
        # 1 every period of beta, so the integrand decays only like
        # exp(-n lam x^2 / 2) and the panels must reach about 8.6 / sqrt(lam)
        # widths out.  The reference integrates the same 1-d integrand in
        # mpmath, on x >= 0 since it is conjugate-symmetric
        n, lam = 400, 0.02
        alpha = math.acosh(math.sqrt(n))
        mu = math.sqrt((1.0 / lam - 1.0) * n)
        m = mixture([mu], [[1.0]])
        sp = solve_saddle(m, [alpha / mu + math.tanh(alpha) * mu])
        got = correction_integral(m, sp, n).i_value
        alpha = float(m.params.mu @ sp.tau)
        v2 = float(m.whitened_mu_norm(alpha))
        with mpmath.workdps(20):
            a, c = mpmath.mpf(alpha), mpmath.cosh(alpha)
            s, th = 1 / c**2, mpmath.tanh(a)

            def integrand(x):
                b = v2 * x
                return ((mpmath.cosh(mpmath.mpc(a, b)) / c) ** n
                        * mpmath.exp(n * (-x * x / 2 + s * b * b / 2 - 1j * th * b)))

            reach = 10.0 / math.sqrt(n * lam)
            half = mpmath.quad(integrand, np.linspace(0.0, reach, 21).tolist())
            ref = complex(2 * mpmath.sqrt(n / (2 * mpmath.pi)) * half.real)
        assert abs(got - ref) <= 1e-12

    def test_rejects_generic_model(self):
        # every function that takes a model uses the mixture's structure, and
        # anything else, such as the parameters the oracles take, gets a
        # typed error instead of an AttributeError
        assert spahd.CgfModel is GaussianMixture
        m = mixture([1.0], [[1.0]])
        sp = solve_saddle(m, np.zeros(1))
        a = np.zeros(1)
        calls = [
            lambda x: solve_saddle(x, a),
            lambda x: solve_saddle(x, a, method="fixed_point"),
            lambda x: legendre(x, a),
            lambda x: legendre_gap_report(x, a),
            lambda x: c3_ball(x, a),
            lambda x: fixed_point_matrix(x, a),
            lambda x: correction_integral(x, sp, 10),
            lambda x: check_assumptions(x, [a], 10),
            lambda x: g_function(x, sp, a),
        ]
        for other in (m.params, object()):
            for call in calls:
                with pytest.raises(ConfigError):
                    call(other)

    def test_rejects_non_integer_n(self):
        m = mixture([1.0], [[1.0]])
        with pytest.raises(DimensionError):
            quad_i(m, [0.0], 2.5)
        with pytest.raises(DimensionError):
            quad_i(m, [0.0], 0)
        with pytest.raises(DimensionError):
            quad_i(m, [0.0], math.nan)
        assert quad_i(m, [0.0], 200.0) == quad_i(m, [0.0], 200)

    def test_spec_floors(self):
        with pytest.raises(ConfigError):
            QuadSpec(nodes_per_axis=8)

    @pytest.mark.parametrize("kw", [
        {"nodes_per_axis": math.nan}, {"nodes_per_axis": 20.5}, {"nodes_per_axis": math.inf},
    ])
    def test_spec_rejects_non_finite_and_fractional(self, kw):
        with pytest.raises(ConfigError):
            QuadSpec(**kw)

    def test_spec_whole_float_count_is_an_int(self):
        spec = QuadSpec(nodes_per_axis=20.0)
        assert type(spec.nodes_per_axis) is int
        assert quad_i(mixture([1.0], [[1.0]]), [0.0], 2, spec=spec).i_value.real == pytest.approx(
            I_AT_0_N2, rel=1e-12)

    def test_sample_size_past_double_range(self):
        m = mixture([1.0], [[1.0]])
        with pytest.raises(DimensionError):
            quad_i(m, [0.0], 10**400)
        with pytest.raises(DimensionError):
            check_assumptions(m, [np.zeros(1)], 10**400)

    def test_uses_alpha_and_whitened_norm_only(self, monkeypatch):
        # the quadrature and both audits need no whitening matrix, no
        # eigendecomposition and no random directions at any d
        def refuse(*args, **kwargs):
            raise AssertionError("called")

        d = 64
        mu = np.zeros(d)
        mu[0] = 0.9
        m = mixture(mu, np.eye(d))
        sp = solve_saddle(m, np.full(d, 0.01))
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(np.random, "default_rng", refuse)
        assert correction_integral(m, sp, 400).i_value.real > 0
        assert check_assumptions(m, [sp.tau], 400).samples == 2000

    def test_passes_that_disagree_beyond_1e_6_raise(self, monkeypatch):
        # a ripple of 40 periods per panel in the phase, 0.2 rad after the
        # factor n, which the 24- and 32-node passes integrate about 2e-5
        # apart: well past the 1e-6 agreement tolerance, well inside 1e-2
        import spahd.correction

        exponent = spahd.correction._exponent
        n = 200

        def rippled(alpha, r, beta):
            log_mag, phase, x2 = exponent(alpha, r, beta)
            return log_mag, phase + 1e-3 * np.sin(40.0 * math.sqrt(n) * np.asarray(r)), x2

        monkeypatch.setattr(spahd.correction, "_exponent", rippled)
        with pytest.raises(QuadratureError, match="relative gap") as caught:
            quad_i(mixture([1.0], [[1.0]]), [0.1], n)
        gap = float(str(caught.value).split("relative gap ")[1].split()[0])
        assert 1e-5 < gap < 1e-4


def unit(d, axis, scale):
    v = np.zeros(d)
    v[axis] = scale
    return v


def oracle_gap(m, a, n):
    sp = solve_saddle(m, a)
    i_quad = correction_integral(m, sp, n).i_value
    i_true = math.exp(ExactMeanDensity(m.params, n).log_density(a) - spa_density(sp, n).log_density)
    return abs(i_quad - i_true)


class TestTrustBallBranch:
    """The ball check reads the phase of e^{-g} itself, at any d."""

    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_zero_of_cosh_inside_ball(self, d):
        # a = 0 puts alpha = 0, and ||v2|| r0 = 1.92 reaches beta = pi/2
        m = mixture(unit(d, 0, 1.2), np.eye(d))
        with pytest.raises(AssumptionViolationError):
            quad_i(m, np.zeros(d), d)

    @pytest.mark.parametrize("d", [2, 8, 64])
    @pytest.mark.parametrize("factor", [1, 4])
    def test_linear_phase_term_is_not_a_branch(self, d, factor):
        # <s, sigma tau> reaches 7.5 here, but it cancels against <s, a>
        # in g; the integral across it still matches the exact oracle
        m = mixture(unit(d, 0, 0.5), np.eye(d))
        assert oracle_gap(m, unit(d, 1, 3.0), factor * d) <= 1e-10

    def test_linear_phase_term_is_not_a_branch_d1(self):
        assert oracle_gap(mixture([1.0], [[1.0]]), np.array([2.0]), 1) <= 1e-10


class TestGFunction:
    def test_zero_at_origin(self):
        m = mixture([1.0], [[1.0]])
        sp = solve_saddle(m, np.array([0.4]))
        assert g_function(m, sp, np.zeros(1)) == 0.0

    def test_conjugate_parity(self):
        m = mixture([0.7, -0.2], np.eye(2))
        sp = solve_saddle(m, np.array([0.3, 0.1]))
        rng = np.random.default_rng(14)
        for _ in range(10):
            t = rng.normal(size=2) * 0.3
            plus = g_function(m, sp, t)
            minus = g_function(m, sp, -t)
            assert plus.real == pytest.approx(minus.real, abs=1e-13)
            assert plus.imag == pytest.approx(-minus.imag, abs=1e-13)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_t(self, t):
        m = mixture([1.0], [[1.0]])
        sp = solve_saddle(m, np.array([0.4]))
        with pytest.raises(DimensionError):
            g_function(m, sp, np.array([t]))

    def test_quadratic_coefficient_is_half(self):
        # whitening forces g(t) = ||t||^2/2 + O(t^3)
        m = mixture([0.9], [[1.2]])
        sp = solve_saddle(m, np.array([0.25]))
        h = 1e-4
        val = g_function(m, sp, np.array([h]))
        assert val.real / h**2 == pytest.approx(0.5, abs=1e-4)


    def test_reduced_exponent_matches_whitened_form(self):
        # g(t) from alpha, ||t|| and beta = <v2, t> alone equals the
        # d-dimensional form: s = H^{-1/2} t and the full complex cgf,
        # -g(t) = cgf(tau + i s) - cgf(tau) - i <s, a>, wherever cgf_complex
        # stays on its principal branch
        sigma = np.array([[1.1, 0.25, 0.0], [0.25, 0.8, -0.1], [0.0, -0.1, 0.9]])
        m = mixture([0.7, -0.2, 0.4], sigma)
        sp = solve_saddle(m, np.array([0.3, 0.1, -0.2]))
        vals, vecs = np.linalg.eigh(m.hessian(sp.tau))
        s_mat = (vecs / np.sqrt(vals)) @ vecs.T
        alpha = float(m.params.mu @ sp.tau)
        v2 = s_mat @ m.params.mu
        assert float(m.whitened_mu_norm(alpha)) == pytest.approx(np.linalg.norm(v2), rel=1e-14)
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(20):
            t = rng.normal(size=3) * rng.uniform(0.1, 3.0)
            s = s_mat @ t
            try:
                full = m.cgf_complex(sp.tau, s)
            except PhaseBranchError:
                continue
            checked += 1
            g = g_function(m, sp, t)
            assert -g.real == pytest.approx(full.re - m.cgf_real(sp.tau), rel=1e-12, abs=1e-13)
            assert -g.imag == pytest.approx(full.im - float(s @ sp.a), rel=1e-12, abs=1e-13)
        assert checked >= 15


class TestFailureModes:
    def test_phase_leaves_branch_inside_ball(self):
        # n = 1 makes the trust ball huge; mu = 3 pushes the phase past pi
        m = mixture([3.0], [[1.0]])
        with pytest.raises(AssumptionViolationError, match="pi|zero"):
            quad_i(m, [0.0], 1)

    @pytest.mark.parametrize("a, accepted", [(0.0, False), (1e-17, False), (1e-12, True)])
    def test_trust_ball_verdict_from_exact_extremes(self, a, accepted):
        # n = d = 8, mu = 1.2 e1: the ball reaches beta = 1.92 > pi/2, so at
        # alpha = 0 it holds a zero of cosh, and near it the phase at the ball's
        # edge sits a margin of order alpha below pi; at a = 1e-17 e1 that
        # margin rounds away, at a = 1e-12 e1 it is 2.3e-12
        m = GaussianMixture(MixtureParams(8, 1.2 * np.eye(8)[0], np.eye(8)))
        if not accepted:
            with pytest.raises(AssumptionViolationError, match="zero" if a == 0.0 else "pi"):
                quad_i(m, a * np.eye(8)[0], 8)
            return
        near = quad_i(m, a * np.eye(8)[0], 8).i_value
        assert near == pytest.approx(quad_i(m, 1e-6 * np.eye(8)[0], 8).i_value, rel=1e-13)

    def test_pass_disagreement_raises(self, monkeypatch):
        # a high-frequency phase ripple aliases differently on the two
        # quadrature passes, which is the disagreement the check must catch
        def rippled(alpha, beta):
            x2, arg = cosh_factor(alpha, beta)
            return x2, arg + 0.05 * np.sin(2000.0 * beta)

        monkeypatch.setattr(spahd.model, "cosh_factor", rippled)
        with pytest.raises(QuadratureError):
            quad_i(mixture([1.0], [[1.0]]), [0.0], 100)


class TestCheckAssumptions:
    def test_standardized_mixture_clean(self):
        p = MixtureParams(2, np.array([0.6, 0.0]), np.diag([0.64, 1.0]))
        m = GaussianMixture(p)
        taus = [np.zeros(2), np.array([0.2, 0.1])]
        rep = check_assumptions(m, taus, 200, sample_count=2000, seed=0)
        assert rep.magnitude_violations == 0
        assert rep.exp_branch_violations == 0
        assert rep.delta_arg > 0
        assert rep.delta_mod > 0
        assert 0.97 <= rep.kappa_est <= 1.01
        assert rep.samples == 2000

    def test_pure_gaussian_clean(self):
        m = mixture(np.zeros(1), np.eye(1))
        rep = check_assumptions(m, [np.zeros(1)], 100, sample_count=500)
        assert rep.magnitude_violations == 0
        assert rep.exp_branch_violations == 0

    def test_empty_tau_samples(self):
        m = mixture([1.0], [[1.0]])
        with pytest.raises(DimensionError):
            check_assumptions(m, [], 100)

    def test_shape_mismatch(self):
        m = mixture([1.0], [[1.0]])
        with pytest.raises(DimensionError):
            check_assumptions(m, [np.zeros(2)], 100)

    @pytest.mark.parametrize("n, tau", [
        (math.nan, 0.0), (2.5, 0.0), (math.inf, 0.0), (0, 0.0), (200, math.nan), (200, math.inf),
    ])
    def test_typed_errors(self, n, tau):
        m = mixture([0.6], [[0.64]])
        with pytest.raises(DimensionError):
            check_assumptions(m, [np.array([tau])], n, sample_count=100)

    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_same_rate_at_every_d(self, d):
        # the rate sqrt(1 - sech^2(alpha) ||v2||^2) = 0.6402 does not
        # depend on d, only the shells do; random directions in R^d stop
        # seeing it as d grows
        m = mixture(unit(d, 0, 1.2), np.eye(d))
        rep = check_assumptions(m, [np.zeros(d)], 50)
        assert 0.6403 <= round(rep.kappa_est, 4) <= 0.6405
        assert rep.exp_branch_violations > 0
        assert rep.samples == 2000
        if d == 64:
            # ||v2|| r0 = 2.17 reaches the zero of cosh at beta = pi/2
            assert rep.delta_arg <= 1e-12

    @pytest.mark.parametrize("count", [math.nan, math.inf, -5, 0, 2.5,
                                       pytest.param(10**400, id="10**400")])
    def test_rejects_bad_sample_count(self, count):
        m = mixture([0.6], [[0.64]])
        with pytest.raises(DimensionError):
            check_assumptions(m, [np.zeros(1)], 200, sample_count=count)

    def test_report_holds_python_floats(self):
        m = mixture([0.6], [[0.64]])
        rep = check_assumptions(m, [np.zeros(1), np.array([0.2])], 200, sample_count=500)
        for value in (rep.kappa_est, rep.delta_arg, rep.delta_mod):
            assert type(value) is float


def brute_kappa(model, taus, n, points=200_000):
    """Envelope rate from a dense beta scan on the audit's outer shells, with
    ||v2|| from a linear solve on the Hessian."""
    mu = model.params.mu
    u = np.linspace(0.0, 1.0, points)
    best = math.inf
    for tau in taus:
        alpha = float(mu @ tau)
        v2_norm = math.sqrt(float(mu @ np.linalg.solve(model.hessian(tau), mu)))
        c = 1.0 / math.cosh(alpha) ** 2
        for r in _shell_radii(model.dim, n)[2]:
            beta = v2_norm * r * u
            with np.errstate(divide="ignore"):
                log_m = 0.5 * (c * beta * beta - r * r
                               + np.log1p(-np.minimum(c * np.sin(beta) ** 2, 1.0)))
            keep = (log_m < 0.0) & (n * log_m > -745.0)
            if keep.any():
                best = min(best, float(np.min(np.sqrt(-2.0 * log_m[keep]) / r)))
    return best


@settings(max_examples=20, deadline=None)
@given(
    d=st.integers(1, 64),
    seed=st.integers(0, 2**32 - 1),
    mu_norm=st.floats(0.0, 2.0),
    tau_scale=st.floats(0.0, 0.5),
    n=st.integers(1, 5000),
    n_tau=st.integers(1, 2),
    bad=st.sampled_from([math.nan, math.inf, -math.inf]),
)
def test_audit_is_rotation_invariant_and_exact_in_beta(d, seed, mu_norm, tau_scale, n, n_tau, bad):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    sigma = q @ np.diag(rng.uniform(0.3, 2.0, d)) @ q.T
    mu = rng.normal(size=d)
    mu *= mu_norm / np.linalg.norm(mu)
    taus = [tau_scale * rng.normal(size=d) / math.sqrt(d) for _ in range(n_tau)]
    m = mixture(mu, sigma)
    rep = check_assumptions(m, taus, n)

    rot = np.linalg.qr(rng.normal(size=(d, d)))[0]
    turned = check_assumptions(
        mixture(rot @ mu, rot @ sigma @ rot.T), [rot @ t for t in taus], n)
    for field in ("kappa_est", "delta_arg", "delta_mod"):
        assert getattr(turned, field) == pytest.approx(getattr(rep, field), rel=1e-12, abs=1e-12)
    for field in ("magnitude_violations", "exp_branch_violations", "samples", "note"):
        assert getattr(turned, field) == getattr(rep, field)

    assert rep.kappa_est == pytest.approx(brute_kappa(m, taus, n), rel=1e-9)

    with pytest.raises(DimensionError):
        check_assumptions(m, [np.full(d, bad)], n)
    with pytest.raises(DimensionError):
        check_assumptions(m, taus, bad)
    with pytest.raises(DimensionError):
        check_assumptions(m, taus, n, sample_count=bad)
