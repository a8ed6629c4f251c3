"""Model primitives: cgf values, derivatives, kernels, parameter parsing.

Reference values were produced with mpmath at 40 digits and are inlined as
literals; the kernel and certified-supremum checks run mpmath themselves.
"""

import cmath
import math
import pickle
import time
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spahd import (
    ConfigError,
    DimensionError,
    GaussianMixture,
    MixtureParams,
    ModelDomainError,
    PhaseBranchError,
    SpahdError,
    error_bound,
    load_model_file,
)
from spahd import model as model_module
from spahd import suprema
from spahd.spa import budget_total, budget_totals
from spahd.suprema import _c34_kernels
from spahd.model import (
    _exponent,
    cosh_factor,
    logcosh,
    params_from_mapping,
    parse_kv_lines,
    sech,
)

# mpmath 40-digit references
LOGCOSH_1 = 0.43378083048302718703
CGF_RE_1 = 0.93378083048302718703  # 0.5 + logcosh(1)
CGF_C_RE = 0.87009742849609278075  # Re cgf(1 + 0.3i), mu = 1, sigma = 1
CGF_C_IM = 0.53136975869328287348
HESS_1 = 1.4199743416140260694  # 1 + sech(1)^2
GRAD_1 = 1.76159415595576488812  # 1 + tanh(1)
K3_ARGMAX = 0.65847894846240835431
K3_MAX = 0.76980035891950101935  # 4 / (3 sqrt 3)

# (lo3, hi3, lo4, hi4) as float.hex, one row per region of
# TestCertifiedSuprema.test_brackets_are_pinned_bit_for_bit
PINNED_BRACKETS = [
    ('0x1.6c22b292bbd05p-2', '0x1.6c22b292bbd34p-2', '0x1.105c0fd0505aep-1', '0x1.105c0fd0505d6p-1'),
    ('0x1.5df8f447d64d6p-2', '0x1.5df8f447d64f5p-2', '0x1.008016ad6c5cfp-1', '0x1.008016ad6c5e2p-1'),
    ('0x1.5d8c79845e30ap-2', '0x1.5d8c79845e329p-2', '0x1.0008313eae31bp-1', '0x1.0008313eae32fp-1'),
    ('0x1.d99cc66641f61p-2', '0x1.d99cc66641fd7p-2', '0x1.99b8fcb54fdd7p-1', '0x1.99b8fcb54fe55p-1'),
    ('0x1.612615ef35683p-2', '0x1.612615ef356a6p-2', '0x1.0405b031e9153p-1', '0x1.0405b031e916fp-1'),
    ('0x1.5dc063a36eca2p-2', '0x1.5dc063a36ecc0p-2', '0x1.00418f28ccd86p-1', '0x1.00418f28ccd9bp-1'),
    ('0x1.933b264314628p+1', '0x1.933b2643147a8p+1', '0x1.c59fbe64f8678p+3', '0x1.c59fbe64f8874p+3'),
    ('0x1.7b03fc880e55fp-2', '0x1.7b03fc880e59ap-2', '0x1.2175f8200372ap-1', '0x1.2175f8200375fp-1'),
    ('0x1.5f60300bf8f01p-2', '0x1.5f60300bf8f22p-2', '0x1.020dc6c09f4edp-1', '0x1.020dc6c09f506p-1'),
    ('0x1.92b47a5b3ba06p-2', '0x1.92b47a5b3ba4fp-2', '0x1.105c0fd0505aep-1', '0x1.105c0fd0505d6p-1'),
    ('0x1.8c367db25e511p-2', '0x1.8c367db25e557p-2', '0x1.0405b031e9153p-1', '0x1.0405b031e916fp-1'),
    ('0x1.8aa7021ed58fbp-2', '0x1.8aa7021ed593ep-2', '0x1.01005ac0ba6f1p-1', '0x1.01005ac0ba708p-1'),
    ('0x1.9bfb313cdbb0ep-2', '0x1.9bfb313cdbb61p-2', '0x1.2175f8200372ap-1', '0x1.2175f8200375fp-1'),
    ('0x1.8e551b4aa1afdp-2', '0x1.8e551b4aa1b45p-2', '0x1.0816d708019a0p-1', '0x1.0816d708019bep-1'),
    ('0x1.8b2b74e53f98fp-2', '0x1.8b2b74e53f9d3p-2', '0x1.02016b5b4bfb9p-1', '0x1.02016b5b4bfd3p-1'),
    ('0x1.43f936807571dp-12', '0x1.43f9368080fe8p-12', '0x1.3c6166a650ad6p-2', '0x1.3c6166b831104p-2'),
    ('0x1.c258c60c1ba97p+76', '0x1.c2590aaa813f5p+76', '0x1.36fad3db85a4ep+104', '0x1.36fb1697581dbp+104'),
    ('0x1.33fd1346f99b9p+6', '0x1.7e93f04e727d6p+6', '0x1.3889112d6da9ep+13', '0x1.8df0694b76558p+13'),
    ('0x1.193360f74752ep+140', 'inf', '0x1.5b90b38c0747ap+205', 'inf'),
]


def mixture_1d(mu=1.0, sigma=1.0):
    return GaussianMixture(MixtureParams(1, np.array([mu]), np.array([[sigma]])))


def off_axis_mixture(d, seed=8):
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
    return GaussianMixture(MixtureParams(d, rng.normal(size=d), 0.5 * (sigma + sigma.T)))


class TestScalarKernels:
    def test_logcosh_reference(self):
        assert logcosh(1.0) == pytest.approx(LOGCOSH_1, rel=1e-15)

    def test_logcosh_large_argument(self):
        # cosh(x) ~ e^x / 2 for large x; naive evaluation overflows
        assert logcosh(700.0) == pytest.approx(700.0 - math.log(2.0), rel=1e-15)
        assert logcosh(-700.0) == pytest.approx(700.0 - math.log(2.0), rel=1e-15)

    @given(st.floats(-30, 30))
    def test_logcosh_even(self, x):
        assert logcosh(x) == logcosh(-x)

    def test_top_of_the_double_range_is_quiet(self):
        # 2|alpha| passes the double range; the values are those of the limit
        assert logcosh(1e308) == 1e308
        assert logcosh(-1.7e308) == 1.7e308
        assert _c34_kernels(1e308, 0.1) == (0.0, 0.0)

    def test_sech(self):
        assert sech(0.0) == 1.0
        assert sech(5.0) == pytest.approx(1.0 / math.cosh(5.0), rel=1e-15)

    def test_c3_kernel_max(self):
        assert _c34_kernels(K3_ARGMAX, 0.0)[0] == pytest.approx(K3_MAX, rel=1e-12)
        # interior maximum: nearby values are smaller
        assert _c34_kernels(K3_ARGMAX + 1e-3, 0.0)[0] < K3_MAX
        assert _c34_kernels(K3_ARGMAX - 1e-3, 0.0)[0] < K3_MAX

    def test_c4_kernel_origin(self):
        # the fourth derivative of log cosh at 0: 4 sech^2 - 6 sech^4 = -2
        assert _c34_kernels(0.0, 0.0)[1] == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("alpha, beta", [
        (0.0, 0.3), (0.2, 0.9), (-0.7, 0.4), (0.658, 0.0), (1.5, -1.1), (3.0, 1.3), (0.05, 1.45),
    ])
    def test_kernels_are_log_cosh_derivatives(self, alpha, beta):
        # |Re| of the 3rd and 4th derivatives of log cosh at w = alpha + i beta,
        # numerically differentiated by mpmath at 40 digits
        with mpmath.workdps(40):
            w = mpmath.mpc(alpha, beta)
            d3 = mpmath.diff(lambda z: mpmath.log(mpmath.cosh(z)), w, 3)
            d4 = mpmath.diff(lambda z: mpmath.log(mpmath.cosh(z)), w, 4)
            ref3, ref4 = float(abs(d3.real)), float(abs(d4.real))
        k3, k4 = _c34_kernels(alpha, beta)
        assert k3 == pytest.approx(ref3, rel=1e-12, abs=1e-14)
        assert k4 == pytest.approx(ref4, rel=1e-12, abs=1e-14)

    @given(st.floats(-3, 3), st.floats(-1.4, 1.4))
    def test_c3_c4_even(self, a, b):
        (k3, k4), (m3, m4) = _c34_kernels(a, b), _c34_kernels(-a, -b)
        assert k3 == pytest.approx(m3, rel=1e-9, abs=1e-12)
        assert k4 == pytest.approx(m4, rel=1e-9, abs=1e-12)


class TestMixtureParams:
    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            MixtureParams(2, np.array([1.0]), np.eye(2))
        with pytest.raises(DimensionError):
            MixtureParams(1, np.array([1.0]), np.eye(2))

    def test_rejects_non_finite(self):
        with pytest.raises(ModelDomainError):
            MixtureParams(1, np.array([np.nan]), np.eye(1))

    def test_rejects_asymmetric(self):
        s = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ModelDomainError):
            MixtureParams(2, np.zeros(2), s)

    def test_rejects_indefinite(self):
        with pytest.raises(ModelDomainError):
            MixtureParams(1, np.zeros(1), np.array([[-1.0]]))

    def test_entry_past_half_the_double_range_stays_finite(self):
        # sigma + sigma' overflows there; the symmetrized sigma must not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert MixtureParams(1, [1.0], [[1e308]]).sigma[0, 0] == 1e308
            s = np.array([[1.5e308, 1e307], [1e307 * (1.0 + 2e-16), 1.6e308]])
            out = MixtureParams(2, np.ones(2), s).sigma
        assert np.isfinite(out).all() and out[1, 0] == out[0, 1] == 0.5 * (s[0, 1] + s[1, 0])
        assert (out[0, 0], out[1, 1]) == (1.5e308, 1.6e308)
        # elsewhere 0.5 (sigma + sigma') as before, bit for bit, subnormals included
        s = np.array([[2.0, 0.3 + 1e-12], [0.3, 1.0]])
        assert np.array_equal(MixtureParams(2, np.ones(2), s).sigma, 0.5 * (s + s.T))
        assert MixtureParams(1, [1.0], [[5e-324]]).sigma[0, 0] == 5e-324

    def test_asymmetry_past_the_double_range_is_rejected_quietly(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelDomainError, match="symmetric"):
                MixtureParams(2, np.ones(2), [[1.0, 1.7e308], [-1.7e308, 1.0]])

    def test_g_past_the_double_range_is_rejected(self):
        # sigma = 5e-324 gives <mu, sigma^-1 mu> = inf, and a NaN whitened norm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ModelDomainError, match="double range"):
                GaussianMixture(MixtureParams(1, [1.0], [[5e-324]]))

    def test_pure_gaussian_flag(self):
        assert MixtureParams(1, np.zeros(1), np.eye(1)).is_pure_gaussian
        assert not MixtureParams(1, np.ones(1), np.eye(1)).is_pure_gaussian

    def test_second_moment(self):
        p = MixtureParams(2, np.array([0.6, 0.0]), np.diag([0.64, 1.0]))
        m = p.second_moment()
        assert np.allclose(m, np.diag([1.0, 1.0]), atol=1e-14)

    def test_standardized_has_identity_second_moment(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = int(rng.integers(1, 5))
            mu = rng.normal(size=d)
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
            p = MixtureParams(d, mu, sigma).standardized()
            assert np.allclose(p.second_moment(), np.eye(d), atol=1e-12)


class TestCgfValues:
    def test_real_reference(self):
        m = mixture_1d()
        assert m.cgf_real(np.array([1.0])) == pytest.approx(CGF_RE_1, rel=1e-14)

    def test_complex_reference(self):
        m = mixture_1d()
        v = m.cgf_complex(np.array([1.0]), np.array([0.3]))
        assert v.re == pytest.approx(CGF_C_RE, rel=1e-14)
        assert v.im == pytest.approx(CGF_C_IM, rel=1e-14)

    def test_complex_at_zero_is_real(self):
        m = mixture_1d()
        v = m.cgf_complex(np.array([1.0]), np.array([0.0]))
        assert v.im == 0.0
        assert v.re == pytest.approx(m.cgf_real(np.array([1.0])), rel=1e-15)

    def test_grad_reference(self):
        m = mixture_1d()
        assert m.grad(np.array([1.0]))[0] == pytest.approx(GRAD_1, rel=1e-14)

    def test_hessian_reference(self):
        m = mixture_1d()
        assert m.hessian(np.array([1.0]))[0, 0] == pytest.approx(HESS_1, rel=1e-14)

    def test_past_the_double_range_is_quiet(self):
        # tau' sigma tau and sigma tau overflow in their matmuls
        m = mixture_1d(sigma=1e308)
        assert m.cgf_real([1e10]) == math.inf
        assert m.grad([1e10])[0] == math.inf
        assert m.hessian([1e10])[0, 0] == 1e308
        # and <mu, tau> in theirs, at d > 1
        m = GaussianMixture(MixtureParams(2, np.array([10.0, 10.0]), np.eye(2)))
        assert m.cgf_real([1e308, 1e308]) == math.inf
        assert np.all(m.grad([1e308, 1e308]) == 1e308 + 10.0)
        assert np.array_equal(m.hessian([1e308, 1e308]), np.eye(2))

    def test_products_of_both_signs_past_the_double_range(self):
        # the matmuls meet +inf and -inf in sigma tau and tau' sigma tau;
        # cgf and gradient still read inf of the right sign
        sigma = 1e308 * np.array([[1.0, -0.5], [-0.5, 1.0]])
        m = GaussianMixture(MixtureParams(2, np.array([0.5, 0.0]), sigma))
        tau = 1e300 * np.ones(2)
        assert m.cgf_real(tau) == math.inf
        assert np.array_equal(m.grad(tau), [math.inf, math.inf])
        assert m.cgf_real(tau * [1.0, -1.0]) == math.inf
        assert np.array_equal(m.grad(tau * [1.0, -1.0]), [math.inf, -math.inf])

    def test_overflowing_products_of_a_finite_value(self):
        # 1.5e308 * 1.2 overflows in sigma tau, though sigma tau = 1.8e307 (1, 1)
        # and tau' sigma tau = 4.32e307 stay in range
        sigma = 1.5e308 * np.array([[1.0, -0.9], [-0.9, 1.0]])
        m = GaussianMixture(MixtureParams(2, np.array([0.5, 0.0]), sigma))
        tau = np.array([1.2, 1.2])
        assert m.grad(tau) == pytest.approx([1.8e307, 1.8e307], rel=1e-12)
        assert m.cgf_real(tau) == pytest.approx(2.16e307, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            d = int(rng.integers(1, 4))
            mu = rng.normal(size=d)
            sigma = np.eye(d) * rng.uniform(0.5, 2.0)
            m = GaussianMixture(MixtureParams(d, mu, sigma))
            tau = rng.normal(size=d) * 0.8
            g = m.grad(tau)
            h = 1e-6
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd = (m.cgf_real(tau + e) - m.cgf_real(tau - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=2e-5, abs=2e-8)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(15):
            d = int(rng.integers(1, 4))
            mu = rng.normal(size=d)
            m = GaussianMixture(MixtureParams(d, mu, np.eye(d)))
            tau = rng.normal(size=d) * 0.5
            hess = m.hessian(tau)
            h = 1e-5
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd = (m.grad(tau + e) - m.grad(tau - e)) / (2 * h)
                assert np.allclose(hess[:, i], fd, rtol=5e-5, atol=5e-7)

    def test_hessian_dominates_sigma(self):
        # H(tau) = sigma + sech^2 * mu mu^T, so eigenvalues never drop below sigma's
        rng = np.random.default_rng(2)
        for _ in range(10):
            d = 3
            mu = rng.normal(size=d)
            q = np.linalg.qr(rng.normal(size=(d, d)))[0]
            sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
            m = GaussianMixture(MixtureParams(d, mu, sigma))
            tau = rng.normal(size=d)
            h_eigs = np.linalg.eigvalsh(m.hessian(tau))
            s_eigs = np.linalg.eigvalsh(sigma)
            assert h_eigs[0] >= s_eigs[0] - 1e-12

    @settings(max_examples=60)
    @given(st.floats(-1, 1), st.floats(-1, 1))
    def test_complex_parity(self, tau, t):
        # conjugating t conjugates the cgf: Re even, Im odd in t
        # (the box keeps |Im| = |tau t + Arg cosh| < pi, clear of the branch wall)
        m = mixture_1d()
        plus = m.cgf_complex(np.array([tau]), np.array([t]))
        minus = m.cgf_complex(np.array([tau]), np.array([-t]))
        assert plus.re == pytest.approx(minus.re, abs=1e-13)
        assert plus.im == pytest.approx(-minus.im, abs=1e-13)

    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_log_ratio_rows_match_one_row_methods(self, d):
        # log(mgf(tau + i s) / mgf(tau)) for many rows at once, from one
        # cosh_factor call on the array of beta = <mu, s>, equals cgf_complex
        # one row at a time
        rng = np.random.default_rng(40 + d)
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        sigma = q @ np.diag(rng.uniform(0.6, 1.4, d)) @ q.T
        mu = rng.normal(size=d)
        m = GaussianMixture(MixtureParams(d, 0.9 * mu / np.linalg.norm(mu), sigma))
        sigma, mu = m.params.sigma, m.params.mu
        tau = 0.3 * rng.normal(size=d) / math.sqrt(d)
        s = 0.4 * rng.normal(size=(25, d)) / math.sqrt(d)
        x2, arg = cosh_factor(float(mu @ tau), s @ mu)
        assert x2.shape == arg.shape == (25,)
        log_mag = -0.5 * np.einsum("ij,jk,ik->i", s, sigma, s) + 0.5 * np.log1p(-x2)
        phase = s @ sigma @ tau + arg
        for row, lm, ph in zip(s, log_mag, phase):
            v = m.cgf_complex(tau, row)
            assert v.re - m.cgf_real(tau) == pytest.approx(lm, rel=1e-13, abs=1e-13)
            assert v.im == pytest.approx(ph, rel=1e-13, abs=1e-13)

    def test_cgf_complex_rejects_bad_shape(self):
        m = mixture_1d()
        with pytest.raises(DimensionError):
            m.cgf_complex(np.zeros(1), np.zeros(2))
        with pytest.raises(DimensionError):
            m.cgf_complex(np.zeros(1), np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            m.cgf_complex(np.zeros(2), np.zeros(1))

    def test_ratio_magnitude_consistency(self):
        # log |mgf(tau + i t) / mgf(tau)| = -t^2 / 2 + log |cosh(tau + i t) / cosh(tau)|
        # at mu = 1, sigma = 1, in complex arithmetic
        m = mixture_1d()
        tau, t = 0.7, 0.4
        direct = -0.5 * t * t + math.log(abs(cmath.cosh(complex(tau, t)) / math.cosh(tau)))
        via_cgf = m.cgf_complex(np.array([tau]), np.array([t])).re - m.cgf_real(np.array([tau]))
        assert direct == pytest.approx(via_cgf, abs=1e-14)


class TestBranchHandling:
    def test_zero_of_cosh_raises(self):
        # tau = 0, sigma = 1: cosh(i * t) = cos(t) vanishes at t = pi/2
        m = mixture_1d()
        with pytest.raises(PhaseBranchError):
            m.cgf_complex(np.zeros(1), np.array([math.pi / 2]))

    def test_outside_principal_branch_raises(self):
        # beta = 2 with alpha = 0 gives |Im| = pi after the branch fold
        m = mixture_1d()
        with pytest.raises(PhaseBranchError):
            m.cgf_complex(np.zeros(1), np.array([2.0]))

    def test_log_magnitude_survives_zero(self):
        # the whitened exponent's magnitude at a zero of cosh (alpha = 0,
        # beta = pi/2) is -inf, not an error, and its neighbours are finite
        log_mag, phase, x2 = _exponent(0.0, 0.5, np.array([math.pi / 2, 0.1]))
        assert log_mag[0] == -math.inf and math.isfinite(log_mag[1])
        assert x2[0] >= 1.0 > x2[1]
        assert np.all(np.isfinite(phase))

    def test_phase_arg_near_zero_of_cosh(self):
        # next to the zero, down to one ulp below pi/2, the phase is finite
        beta = np.array([math.pi / 2 * (1 - 1e-9), math.nextafter(math.pi / 2, 0.0)])
        for alpha in (0.0, 1e-12, 0.3):
            assert np.all(np.isfinite(_exponent(alpha, 0.0, beta)[1]))
            assert np.all(np.isfinite(cosh_factor(alpha, beta)[1]))


class TestDerivedQuantities:
    def test_whitened_mu_norm(self):
        m = mixture_1d(mu=0.8, sigma=1.3)
        alpha = 0.25
        # direct: || H^{-1/2} mu || with H = sigma + sech^2(alpha) mu mu^T
        h = 1.3 + sech(alpha) ** 2 * 0.64
        assert m.whitened_mu_norm(alpha) == pytest.approx(
            math.sqrt(0.64 / h), rel=1e-13
        )

    @pytest.mark.parametrize("model, tau_r, t_r", [
        (mixture_1d(), 0.5, 0.5),
        # d = 8, off-axis mu, non-identity sigma
        (off_axis_mixture(8), 0.4, 0.6),
        # the sweep region of mu = unit, sigma = identity at d = 64, n = 200,
        # ||a|| <= 0.3: tau_radius = 2 * 0.3, t_radius = 2.5 sqrt(d / n)
        (GaussianMixture(MixtureParams(64, np.eye(64)[0], np.eye(64))),
         0.6, 2.5 * math.sqrt(64 / 200)),
        # c3 peaks on the beta = 0 edge, c4 on the alpha = 0 edge
        (mixture_1d(mu=2.0), 1.0, 0.3),
    ], ids=["d1", "d8_off_axis", "d64_sweep", "edge_maxima"])
    def test_c34_sup_match_brute_scan(self, model, tau_r, t_r):
        # oracle: dense scan over the whole symmetric (alpha, beta) region
        a_max = float(np.linalg.norm(model.params.mu)) * tau_r
        alpha = np.linspace(-a_max, a_max, 1601)[:, None]
        rw = model.whitened_mu_norm(alpha)
        beta = np.linspace(-1.0, 1.0, 81)[None, :] * t_r * rw
        alpha, beta = np.broadcast_arrays(alpha, beta)
        k3, k4 = _c34_kernels(alpha, beta)
        best3 = float(np.max(k3 * rw**3))
        best4 = float(np.max(k4 * rw**4))
        assert model.c3_sup(tau_r, t_r) == pytest.approx(best3, rel=2e-4)
        assert model.c4_sup(tau_r, t_r) == pytest.approx(best4, rel=2e-4)
        assert model.c3_sup(tau_r, t_r) >= best3 - 1e-10
        assert model.c4_sup(tau_r, t_r) >= best4 - 1e-10

    def test_sup_inf_when_region_holds_a_zero_of_cosh(self):
        # mu = sigma = 1: beta reaches the zero of cosh at (0, pi/2) once
        # t_radius * ||H(0)^{-1/2} mu|| = t_radius / sqrt(2) >= pi/2
        m = mixture_1d()
        edge = 0.5 * math.pi / m.whitened_mu_norm(0.0)
        for t_r in (edge * (1 + 1e-9), 3.33, 6.66):
            assert m.c3_sup(0.5, t_r) == math.inf
            assert m.c4_sup(0.5, t_r) == math.inf
        below = [m.c3_sup(0.5, f * edge) for f in (0.9, 0.99, 0.999)]
        assert all(math.isfinite(v) for v in below)
        assert below[0] < below[1] < below[2]
        budget = error_bound(1, 2, m.c3_sup(0.5, 3.33), m.c4_sup(0.5, 3.33))
        assert budget.total == math.inf

    def test_c3_sup_rejects_bad_radius(self):
        with pytest.raises(DimensionError):
            mixture_1d().c3_sup(0.0, 1.0)

    @pytest.mark.parametrize("method", ["c3_sup", "c4_sup"])
    @pytest.mark.parametrize("radii", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf), (-1.0, 1.0),
    ])
    def test_sup_rejects_non_finite_radius(self, method, radii):
        with pytest.raises(DimensionError):
            getattr(mixture_1d(), method)(*radii)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -1.0])
    def test_c3_op_norm_ball_rejects_bad_radius(self, radius):
        with pytest.raises(DimensionError):
            mixture_1d().c3_op_norm_ball(radius)

    def test_sup_zero_for_pure_gaussian(self):
        m = GaussianMixture(MixtureParams(2, np.zeros(2), np.eye(2)))
        assert m.c3_sup(1.0, 1.0) == 0.0
        assert m.c4_sup(1.0, 1.0) == 0.0
        assert m.c3_op_norm_ball(3.0) == 0.0

    def test_c3_op_norm_ball_saturates(self):
        # beyond the kernel argmax the ball sup stops growing
        m = mixture_1d()
        small = m.c3_op_norm_ball(0.05)
        big = m.c3_op_norm_ball(10.0)
        assert small < big
        assert big == pytest.approx(m.c3_op_norm_ball(2.0), rel=1e-12)

    def test_c3_op_norm_ball_reference(self):
        m = mixture_1d()
        assert m.c3_op_norm_ball(0.1) == pytest.approx(
            0.19735584350906514108, rel=1e-12
        )


def _weighted_kernels_mp(g, alpha, u, t_radius, signed=False):
    """(c3, c4) weighted kernels at alpha and beta = r(alpha) t_radius u in
    mpmath at the working precision (at least 40 digits), with r and beta
    exact rather than rounded; |Re K| r^k, or Re K r^k when signed."""
    with mpmath.workdps(max(40, mpmath.mp.dps)):
        a = mpmath.mpf(alpha)
        r = mpmath.sqrt(mpmath.mpf(g) / (1 + mpmath.mpf(g) * mpmath.sech(a) ** 2))
        w = mpmath.mpc(a, r * mpmath.mpf(t_radius) * u)
        s = mpmath.sech(w) ** 2
        t = mpmath.tanh(w)
        k3, k4 = (2 * s * t).real * r**3, (4 * s - 6 * s * s).real * r**4
        return (k3, k4) if signed else (abs(k3), abs(k4))


def _scan_reference(model, tau_r, t_r, n_alpha=241, n_u=121):
    """Per kernel, the mpmath value at the argmax of a dense float scan of
    the (alpha, u) quarter, evaluated at the exact beta of that (alpha, u)."""
    a_max = float(np.linalg.norm(model.params.mu)) * tau_r
    alpha = np.linspace(0.0, a_max, n_alpha)[:, None]
    u = np.linspace(0.0, 1.0, n_u)[None, :]
    rw = model.whitened_mu_norm(alpha)
    a_grid, b_grid = np.broadcast_arrays(alpha, rw * t_r * u)
    out = []
    for k, kernel in zip((3, 4), _c34_kernels(a_grid, b_grid)):
        values = kernel * rw**k
        i, j = np.unravel_index(np.argmax(values), values.shape)
        out.append(_weighted_kernels_mp(model._g, alpha[i, 0], mpmath.mpf(u[0, j]), t_r)[k - 3])
    return out


def _certification_regions(count=240, seed=20):
    """Seeded pole-free regions: d in [1, 64], sigma eigenvalues in [0.5, 2],
    ||mu|| in [0.2, 3], tau_radius <= 2; a quarter within 1e-3 of the pole
    condition ||H(0)^{-1/2} mu|| t_radius = pi/2."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        d = int(rng.integers(1, 65))
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        sigma = q @ np.diag(rng.uniform(0.5, 2.0, d)) @ q.T
        mu = rng.normal(size=d)
        mu *= rng.uniform(0.2, 3.0) / np.linalg.norm(mu)
        model = GaussianMixture(MixtureParams(d, mu, 0.5 * (sigma + sigma.T)))
        edge = 0.5 * math.pi / float(model.whitened_mu_norm(0.0))
        near = i % 4 == 0
        t_r = edge * (1.0 - rng.uniform(1e-6, 1e-3) if near else rng.uniform(0.01, 0.999))
        yield model, float(rng.uniform(1e-3, 2.0)), t_r


class TestCertifiedSuprema:
    def test_brackets_hold_the_supremum(self):
        # hi is at least a 40-digit value at the argmax of a dense scan, and
        # within 1e-6 of lo, on every region
        for model, tau_r, t_r in _certification_regions():
            brackets = model.c34_bracket(tau_r, t_r)
            for (lo, hi), ref in zip(brackets, _scan_reference(model, tau_r, t_r)):
                assert mpmath.mpf(hi) >= ref
                assert 0.0 < lo <= hi <= lo * (1.0 + 1e-6)

    def test_pinned_near_pole_region(self):
        # 1e-7 from the pole condition, where the kernels change like
        # 1 / cos^4 beta and a few ulps of beta move them by about 1e-9
        model = off_axis_mixture(3)
        t_r = 0.5 * math.pi / float(model.whitened_mu_norm(0.0)) * (1.0 - 1e-7)
        brackets = model.c34_bracket(0.4, t_r)
        for (lo, hi), ref in zip(brackets, _scan_reference(model, 0.4, t_r, 81, 401)):
            assert mpmath.mpf(hi) >= ref
            assert 0.0 < lo <= hi <= lo * (1.0 + 1e-6)

    @pytest.mark.parametrize("gap", [1e-8, 1e-10])
    def test_near_pole_search_stays_short(self, gap, monkeypatch):
        # 1e-8 and 1e-10 from the pole condition, elements next to the corner
        # alpha = 0, u = 1 need about 30 halvings before their bounds close,
        # and elements within tolerance but for their rounding allowance are
        # not cut at all (their bound stays in hi, with a gap that this close
        # to the pole may pass 1e-6).  The search takes 30 and 35 rounds
        # there, and still closes before its round limit
        calls = []
        element_bounds = suprema._element_bounds

        def counting(*args):
            calls.append(args[2].size)
            return element_bounds(*args)

        monkeypatch.setattr(suprema, "_element_bounds", counting)
        model = GaussianMixture(MixtureParams(1, np.array([1.0]), np.eye(1)))
        t_r = 0.5 * math.pi / float(model.whitened_mu_norm(0.0)) * (1.0 - gap)
        brackets = model.c34_bracket(0.6, t_r)
        assert len(calls) < suprema._SUP_ROUNDS
        for (lo, hi), ref in zip(brackets, _scan_reference(model, 0.6, t_r, 81, 401)):
            assert mpmath.mpf(hi) >= ref
            assert 0.0 < lo <= hi <= lo * (1.0 + 1e-3)

    @pytest.mark.parametrize("g, frac, a0, a1, u0", [
        (1.0, 1.0 - 1e-7, 2e-7, 2.2e-7, 1.0 - 2e-9),
        (4.0, 1.0 - 1e-8, 3e-8, 3.3e-8, 1.0 - 2e-10),
        (1.0, 1.0 - 1e-4, 1e-6, 2e-6, 1.0 - 2e-6),
        (2.848, 1.0 - 1.9e-6, 0.04087, 0.04267, 0.99979),
    ])
    def test_element_bounds_near_the_pole(self, g, frac, a0, a1, u0):
        # boxes next to a zero of cosh that do not start at alpha = 0: the
        # value bound covers the kernel, and the curvature term along u covers
        # a 60-digit second difference, at every point of a 5 x 5 scan
        t_r = 0.5 * math.pi / math.sqrt(g / (1.0 + g)) * frac
        out = suprema._element_bounds(*(np.array([x]) for x in (g, t_r, a0, a1, u0, 1.0)))
        ub, e_u = out[1][:, 0], out[-1][:, 0]
        hu = 0.5 * (1.0 - u0)
        with mpmath.workdps(60):
            h = mpmath.mpf(hu) / 1000
            for alpha in np.linspace(a0, a1, 5):
                for u in np.linspace(u0, 1.0, 5):
                    x = mpmath.mpf(u)
                    mid, up, down = (_weighted_kernels_mp(g, alpha, y, t_r, signed=True)
                                     for y in (x, x + h, x - h))
                    for k in range(2):
                        assert mpmath.mpf(ub[k]) >= abs(mid[k])
                        assert mpmath.mpf(e_u[k]) >= abs(up[k] - 2 * mid[k] + down[k]) / h**2 * hu**2

    def test_convex_drop_needs_a_kept_sign(self):
        # a box of a random region where c4's G = Re K4 r^4 changes sign
        # (40-digit corner values of both signs) and sign G(c) G is convex
        # along a side: |G| may then peak off the edges, on the side where G
        # has the other sign, so the box must stay open for c4
        g, t_r, a0, a1, u0, u1 = 12.945484129597267, 0.4707331600330676, 0.625, 0.75, 0.0, 0.125
        drop = suprema._element_bounds(*(np.array([x]) for x in (g, t_r, a0, a1, u0, u1)))[3]
        corners = [_weighted_kernels_mp(g, a, u, t_r, signed=True)[1]
                   for a in (a0, a1) for u in (u0, u1)]
        assert min(corners) < 0.0 < max(corners)
        assert not drop[1, 0]

    @pytest.mark.parametrize("mu, scale", [((30.0, 10.0), 1.0), ((100.0, 0.0), 1.0), ((40.0, 0.0), 0.16)])
    def test_large_g_stays_an_upper_bound_within_the_work_limit(self, mu, scale, monkeypatch):
        # g = <mu, sigma^-1 mu> in [1e3, 1e4]: beta spans many periods of the
        # kernels and the search may stop at its work limit with a gap wider
        # than 1e-6, but hi stays an upper bound and the work stays capped
        model = GaussianMixture(MixtureParams(2, np.array(mu), scale * np.eye(2)))
        assert 1e3 <= model._g <= 1e4
        evaluated = []
        bounds = suprema._element_bounds

        def counting(g, t_radius, a0, a1, u0, u1):
            evaluated.append(a0.size)
            return bounds(g, t_radius, a0, a1, u0, u1)

        monkeypatch.setattr(suprema, "_element_bounds", counting)
        t_r = 0.3 * 0.5 * math.pi / float(model.whitened_mu_norm(0.0))
        start = time.perf_counter()
        brackets = model.c34_bracket(0.6, t_r)
        assert time.perf_counter() - start < 2.0
        assert sum(evaluated) <= suprema._SUP_WORK
        for (lo, hi), ref in zip(brackets, _scan_reference(model, 0.6, t_r, 241, 1201)):
            assert mpmath.mpf(hi) >= ref
            assert 0.0 < lo <= hi

    def test_batched_search_matches_one_search_per_region(self):
        # one search over many regions gives each, bit for bit, the bracket of
        # a search over it alone, in either order: the 1e-3 floor ball of the
        # standardized mu = 0.6 model, a region 1e-8 from the pole condition,
        # g = 1e4 where the bracket stays wider than 1e-6, a region past the
        # pole, and budget regions over several d and n
        edge = 0.5 * math.pi / math.sqrt(0.5)  # g = 1, ||H(0)^{-1/2} mu|| = sqrt(1/2)
        wide = GaussianMixture(MixtureParams(2, np.array([100.0, 0.0]), np.eye(2)))
        regions = [(0.5625, 0.6e-3, 2.5 * math.sqrt(1 / 50)),
                   (1.0, 0.6, edge * (1.0 - 1e-8)),
                   (wide._g, 60.0, 0.3 * 0.5 * math.pi / float(wide.whitened_mu_norm(0.0))),
                   (1.0, 0.6, 1.05 * edge)]
        regions += [(g, a_max, 2.5 * math.sqrt(d / n)) for g, a_max in ((1.0, 0.2), (0.5625, 0.27))
                    for d in (1, 8, 64) for n in (200, 6400, 100000)]
        alone = [suprema._certified_sup([region])[0] for region in regions]
        assert suprema._certified_sup(regions) == alone
        assert suprema._certified_sup(regions[::-1]) == alone[::-1]
        floor, near, gap, pole = alone[:4]
        assert all(hi <= lo * (1.0 + 1e-6) for lo, hi in floor)
        assert all(0.0 < lo <= hi < math.inf for lo, hi in near)
        assert all(hi > lo * (1.0 + 1e-6) for lo, hi in gap)
        assert all(hi == math.inf for _, hi in pole)

    def test_brackets_are_pinned_bit_for_bit(self):
        # float.hex of (lo3, hi3, lo4, hi4), so that a change to the search
        # that moves any bracket by one ulp shows: g = 1 over the budget
        # regions of the scaling sweep's (d, n) grid at a_max 0.6 and of the
        # correction sweep's at 1.2, then the 1e-3 floor ball of the
        # standardized mu = 0.6 model, a region 1e-8 from the pole
        # condition, g = 1e4 at its work limit, and a region past the pole
        edge = 0.5 * math.pi / math.sqrt(0.5)  # g = 1, ||H(0)^{-1/2} mu|| = sqrt(1/2)
        wide = 1e4
        regions = [(1.0, a_max, 2.5 * math.sqrt(d / n))
                   for a_max, d_grid, n_grid in ((0.6, (1, 8, 64), (200, 6400, 100000)),
                                                 (1.2, (1, 2), (200, 800, 3200)))
                   for d in d_grid for n in n_grid]
        regions += [(0.5625, 0.6e-3, 2.5 * math.sqrt(1 / 50)),
                    (1.0, 0.6, edge * (1.0 - 1e-8)),
                    (wide, 60.0, 0.3 * 0.5 * math.pi / math.sqrt(wide / (1.0 + wide))),
                    (1.0, 0.6, 1.05 * edge)]
        got = [tuple(x.hex() for bracket in brackets for x in bracket)
               for brackets in suprema._certified_sup(regions)]
        assert got == PINNED_BRACKETS

    def test_bracket_accessor(self):
        m = mixture_1d()
        (lo3, hi3), (lo4, hi4) = m.c34_bracket(0.5, 0.5)
        assert (m.c3_sup(0.5, 0.5), m.c4_sup(0.5, 0.5)) == (hi3, hi4)
        assert lo3 <= hi3 <= lo3 * (1.0 + 1e-6) and lo4 <= hi4 <= lo4 * (1.0 + 1e-6)
        gauss = GaussianMixture(MixtureParams(2, np.zeros(2), np.eye(2)))
        assert gauss.c34_bracket(1.0, 1.0) == ((0.0, 0.0), (0.0, 0.0))
        assert m.c34_bracket(0.5, 3.33) == ((math.inf, math.inf), (math.inf, math.inf))

    def test_batch_matches_one_region_at_a_time(self, monkeypatch):
        # each region's entry is its c34_bracket, or an error of the class that
        # raises, from one search over the distinct regions that need one: an
        # ok region given twice, a NaN radius, an alpha range past the double
        # range, a region past the pole and a second ok region
        calls = []
        certified_sup = model_module._certified_sup

        def counting(regions):
            calls.append(regions)
            return certified_sup(regions)

        m = mixture_1d(mu=10.0)
        regions = [(0.5, 0.01), (math.nan, 0.1), (1e308, 0.1), (0.5, 0.01), (0.5, 3.0),
                   (0.2, 0.02)]
        alone = []
        for region in regions:
            try:
                alone.append(m.c34_bracket(*region))
            except DimensionError as exc:
                alone.append(exc)
        monkeypatch.setattr(model_module, "_certified_sup", counting)
        batch = m.c34_brackets(regions)
        assert calls == [[(m._g, 5.0, 0.01), (m._g, 2.0, 0.02)]]
        assert [isinstance(x, DimensionError) for x in batch] == [False, True, True] + [False] * 3
        for got, want in zip(batch, alone):
            if isinstance(want, DimensionError):
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                assert got == want
        assert batch[4] == ((math.inf, math.inf), (math.inf, math.inf))
        calls.clear()
        assert m.c34_brackets([(math.nan, 0.1), (0.5, 3.0)])[1] == batch[4]
        assert m.c34_brackets([]) == [] and calls == []

    def test_brackets_leave_the_model_as_it_was(self):
        # the model keeps nothing of a search: its attributes pickle to the
        # same bytes after c34_bracket and c34_brackets calls
        m = mixture_1d()
        before = pickle.dumps(vars(m))
        m.c34_bracket(0.5, 0.5)
        m.c34_brackets([(0.5, 0.5), (0.2, 0.1), (math.nan, 1.0)])
        assert pickle.dumps(vars(m)) == before

    def test_c4_where_the_old_kernel_fell_short(self):
        # mu = 3 e1, sigma = 1, tau_radius 1, t_radius 0.1: the true kernel
        # reaches 7.714 (54/7 on the beta = 0 edge); 4 sech^2 - 6 sech^4 at 0 is -2
        m = mixture_1d(mu=3.0)
        lo, hi = m.c34_bracket(1.0, 0.1)[1]
        assert hi >= 54.0 / 7.0 >= lo * (1.0 - 1e-12)

    def test_alpha_range_near_the_top_of_the_double_range(self):
        # -2 alpha overflows past 8.99e307; the kernels have long decayed there,
        # so the bracket is the one at tau_radius 1e3
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            brackets = mixture_1d().c34_bracket(1e308, 0.1)
        assert brackets == ((0.38750181177904175, 0.38750181177904575),
                            (0.5100711791536409, 0.5100711791536445))
        assert brackets == mixture_1d().c34_bracket(1e3, 0.1)

    def test_overflowing_weight_keeps_an_upper_bound(self):
        # g = 1e216: far out in alpha the weight r^k and its rounding
        # allowance overflow, and the bound inf - inf must stay open quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            brackets = mixture_1d(sigma=1e-216).c34_bracket(2e220, 4e-156)
        assert brackets == ((0.0, math.inf), (2.0, math.inf))

    def test_flat_edge_run_ends_its_newton_search(self):
        # g = 1e100, an alpha range of 1e-15 and the budget's t_radius at
        # d = 2, n = 80: c3 vanishes on the edge alpha = 0, and a run there
        # that tested concave left Newton a zero curvature to divide by
        model = mixture_1d(sigma=1e-100)
        t_r = 2.5 * math.sqrt(2 / 80)
        brackets = model.c34_bracket(1e-15, t_r)
        for (lo, hi), ref in zip(brackets, _scan_reference(model, 1e-15, t_r)):
            assert mpmath.mpf(hi) >= ref
            assert 0.0 < lo <= hi

    def test_alpha_range_past_the_double_range_raises(self):
        # ||mu|| tau_radius = 1e309 is not a range any bound can be taken over
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DimensionError, match="alpha range"):
                mixture_1d(mu=10.0).c34_bracket(1e308, 0.1)

    def test_halving_at_the_top_of_the_double_range_is_quiet(self):
        # a box reaching alpha = 1.7e308 is halved without summing its ends;
        # at g = 1e300 its weight overflows, so hi stays inf
        m = mixture_1d(mu=1.0, sigma=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (lo3, hi3), (lo4, hi4) = m.c34_bracket(1.7e308, 1e-300)
        assert 0.0 <= lo3 <= hi3 and 0.0 <= lo4 <= hi4

    def test_no_large_arguments_warn(self):
        # the far boxes past alpha = 4 and a tau_radius of 2e160 stay quiet
        m = mixture_1d()
        (lo3, hi3), (lo4, hi4) = m.c34_bracket(2e160, 0.1)
        assert hi3 <= lo3 * (1.0 + 1e-6) and hi4 <= lo4 * (1.0 + 1e-6)
        assert hi3 == pytest.approx(m.c34_bracket(20.0, 0.1)[0][1], rel=1e-6)


class TestModelFiles:
    def test_parse_kv_lines(self):
        kv = parse_kv_lines("# comment\nd = 2\nmu = ones\nd = 3\n")
        assert kv["d"] == "3"  # later lines override
        assert "mu" in kv

    def test_parse_rejects_bare_line(self):
        with pytest.raises(ConfigError):
            parse_kv_lines("mu 1.0\n")

    def test_mu_forms(self):
        p = params_from_mapping({"d": "3", "mu": "ones * 0.5", "sigma": "identity"})
        assert np.allclose(p.mu, 0.5)
        p = params_from_mapping({"d": "3", "mu": "unit", "sigma": "identity"})
        assert np.allclose(p.mu, [1.0, 0.0, 0.0])
        p = params_from_mapping({"d": "2", "mu": "0.3, -0.1", "sigma": "identity"})
        assert np.allclose(p.mu, [0.3, -0.1])

    def test_sigma_forms(self):
        p = params_from_mapping({"d": "2", "mu": "ones", "sigma": "diag 2.0, 0.5"})
        assert np.allclose(p.sigma, np.diag([2.0, 0.5]))
        p = params_from_mapping({"d": "2", "mu": "ones", "sigma": "1.0, 0.2; 0.2, 1.0"})
        assert p.sigma[0, 1] == 0.2

    def test_mu_length_mismatch(self):
        with pytest.raises(ConfigError, match="mu has"):
            params_from_mapping({"d": "2", "mu": "1.0", "sigma": "identity"})

    def test_dimension_override(self):
        p = params_from_mapping({"d": "1", "mu": "ones", "sigma": "identity"}, 4)
        assert p.d == 4

    def test_load_model_file(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("# test model\nd = 2\nmu = ones * 0.3\nsigma = identity\n")
        p = load_model_file(str(path))
        assert p.d == 2
        assert np.allclose(p.mu, 0.3)

    def test_unknown_key_is_refused(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("d = 1\nmu = 1.0\nsigmaa = 1\n")
        with pytest.raises(ConfigError, match="'sigmaa'"):
            load_model_file(path)
        with pytest.raises(ConfigError, match="'kappa'"):
            params_from_mapping({"d": "1", "kappa": "2"})

    def test_defaults_and_missing_d(self):
        # mu defaults to zero and sigma to identity, but d is mandatory
        p = params_from_mapping({"d": "3"})
        assert p.is_pure_gaussian
        with pytest.raises(ConfigError):
            params_from_mapping({"mu": "ones"})
        with pytest.raises(ConfigError):
            params_from_mapping({"d": "two"})


_LOG_TOP = math.log10(1.7e308)


def _log_uniform(lo, hi):
    """10^x for x uniform in [lo, hi], with both ends drawn on their own too."""
    return st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi)).map(lambda e: 10.0**e)


def _typed(fn):
    """fn(), or None where it raises a SpahdError."""
    try:
        return fn()
    except SpahdError:
        return None


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    log_kappa=st.floats(0.0, 6.0),
    scale=_log_uniform(-300.0, _LOG_TOP),
    mu_norm=_log_uniform(-300.0, 1.0),
    tau_radius=_log_uniform(-300.0, _LOG_TOP),
    t_radius=_log_uniform(-300.0, 1.0),
    n=st.integers(-2, 10**6),
)
def test_model_and_suprema_return_or_raise_typed(d, seed, log_kappa, scale, mu_norm,
                                                 tau_radius, t_radius, n):
    # sigma = Q diag(lambda) Q' with eigenvalue ratios up to 1e6 and max |sigma_ij|
    # from 1e-300 to 1.7e308: each call returns, with finite values (a bracket
    # may have hi = inf, and is inf throughout only at a zero of cosh), or
    # raises a SpahdError, and none warns
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.normal(size=(d, d)))[0]
    lam = 10.0 ** -rng.uniform(0.0, log_kappa, d)
    lam[0] = 1.0
    shape = q @ np.diag(lam) @ q.T
    shape = 0.5 * (shape + shape.T)
    sigma = shape / np.max(np.abs(shape)) * scale
    mu = rng.normal(size=d)
    mu *= mu_norm / np.linalg.norm(mu)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        params = _typed(lambda: MixtureParams(d, mu, sigma))
        if params is None:
            return
        assert np.isfinite(params.sigma).all()
        model = _typed(lambda: GaussianMixture(params))
        if model is None:
            return
        assert math.isfinite(float(model.whitened_mu_norm(0.0)))
        brackets = _typed(lambda: model.c34_bracket(tau_radius, t_radius))
        total = _typed(lambda: budget_total(model, n, 0.5 * tau_radius))
        totals = budget_totals(model, [(n, 0.5 * tau_radius), (n, 0.25 * tau_radius)])
        tau = tau_radius * q[:, 0]
        cgf, grad, hess = model.cgf_real(tau), model.grad(tau), model.hessian(tau)
    # past the double range a value reads inf, or nan where infs of both signs meet
    assert not cgf < 0.0 and grad.shape == (d,)
    assert np.array_equal(hess, hess.T) and np.isfinite(hess).all()
    pole = float(model.whitened_mu_norm(0.0)) * t_radius >= 0.5 * math.pi
    for lo, hi in brackets or ():
        assert 0.0 <= lo <= hi
        assert math.isfinite(lo) or (pole and lo == hi == math.inf)
    assert total is None or total >= 0.0
    # the batch gives each cell's total, or an error where budget_total raises
    assert (None if isinstance(totals[0], SpahdError) else totals[0]) == total
    assert all(isinstance(x, SpahdError) or x >= 0.0 for x in totals)
