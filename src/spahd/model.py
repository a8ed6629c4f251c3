"""Cumulant generating function models.

The central object is the symmetric two-component Gaussian mixture
(1/2) N(mu, sigma) + (1/2) N(-mu, sigma), whose moment generating function

    mgf(z) = exp(z' sigma z / 2) * cosh(<mu, z>)

stays positive on the real axis and extends to complex arguments
z = tau + i t.  GaussianMixture is the one model type: it gives real and
complex cgf evaluation, gradient, Hessian, and certified suprema of the
third/fourth derivative kernels over a (tau, t) region, all in closed form
(CgfModel is kept as another name for it).  The only transcendental
ingredient is log cosh, evaluated through shifted forms that stay finite for
arguments far beyond the overflow point of cosh itself.

Past sigma, the mixture sees a complex point only through alpha = <mu, tau>
and beta = <mu, t>, and the functions of those two scalars live here, once:
cosh_factor gives the magnitude and phase of cosh(alpha + i beta) / cosh(alpha),
_exponent the whitened exponent built on it, which the contour quadrature,
g_function and the assumption audits evaluate, and the derivative kernels
are real parts of polynomials in sech^2 and tanh of alpha + i beta
(_sech2_tanh).  cgf_complex adds the quadratic and linear terms in sigma to
the cosh factor; it rejects (PhaseBranchError) a total argument outside
(-pi, pi) or a zero of cosh, where the complex log stops being
single-valued.
"""

from __future__ import annotations

import cmath
import math
import re as _re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, ModelDomainError, PhaseBranchError

_LOG2 = math.log(2.0)
_EPS = 2.0**-52

# argmax of 2 sech^2(x) tanh(x) on [0, inf); the kernel rises to 4/(3 sqrt 3)
# there and decays afterwards
_K3_ARGMAX = math.atanh(1.0 / math.sqrt(3.0))


def logcosh(x):
    """log cosh(x), overflow-free: |x| + log1p(exp(-2|x|)) - log 2."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LOG2


def sech(x):
    """1/cosh(x) without overflow: 2 exp(-|x|) / (1 + exp(-2|x|))."""
    ax = np.abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def _sech_float(x: float) -> float:
    """sech on one float, in the operations of sech."""
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


def _sech2_tanh(alpha, beta):
    """(sech^2 w, tanh w) at w = |alpha| + i beta, complex and finite at any alpha.

    With z = exp(-2w), |z| <= 1: sech^2 w = 4z / (1 + z)^2 and
    tanh w = (1 - z) / (1 + z), which lose no digits where sech^2 is tiny and
    blow up only at the zeros of cosh (z = -1).
    """
    z = np.exp(-2.0 * (np.abs(alpha) + 1j * np.asarray(beta)))
    zp = 1.0 + z
    return 4.0 * z / (zp * zp), (1.0 - z) / zp


def _c34_kernels(alpha, beta):
    """(k3, k4) = |Re[2 sech^2(w) tanh(w)]|, |Re[4 sech^2(w) - 6 sech^4(w)]| at
    w = alpha + i beta, the moduli of the real parts of the third and fourth
    derivatives of log cosh.  Both are even in alpha and in beta."""
    s, t = _sech2_tanh(alpha, beta)
    return np.abs((2.0 * s * t).real), np.abs((s * (4.0 - 6.0 * s)).real)


def _kernel(alpha, beta, which):
    a = np.atleast_1d(np.asarray(alpha, dtype=float)).ravel()
    b = np.atleast_1d(np.asarray(beta, dtype=float)).ravel()
    k = _c34_kernels(*np.broadcast_arrays(a, b))[which]
    return k if k.size > 1 else float(k[0])


def c3_kernel(alpha, beta):
    """|Re[2 sech^2(w) tanh(w)]| at w = alpha + i beta (third-derivative kernel)."""
    return _kernel(alpha, beta, 0)


def c4_kernel(alpha, beta):
    """|Re[4 sech^2(w) - 6 sech^4(w)]| at w = alpha + i beta (fourth-derivative
    kernel; the fourth derivative of log cosh is 4 sech^2 - 6 sech^4)."""
    return _kernel(alpha, beta, 1)


def cosh_factor(alpha: float, beta):
    """(x2, arg) of cosh(alpha + i beta) / cosh(alpha) at each beta.

    x2 = (sin(beta) sech(alpha))^2, so the ratio has modulus sqrt(1 - x2) and
    x2 >= 1 marks a zero of cosh; callers pick their own threshold for it.
    arg = atan2(tanh(alpha) sin(beta), cos(beta)) is its principal argument.
    """
    sb = np.sin(beta)
    return np.square(sb * sech(alpha)), np.arctan2(math.tanh(alpha) * sb, np.cos(beta))


def _exponent(alpha, r, beta):
    """(log |e^{-g}|, arg e^{-g}, x2) at whitened ||t|| = r and <v2, t> = beta,
    for the exponent g of the correction integral (see correction.py).

    log |e^{-g}| = -r^2/2 + sech^2(alpha) beta^2/2 + log1p(-x2)/2, even in
    beta and -inf at a zero of cosh (x2 = 1); the phase Arg cosh(alpha + i beta)
    - tanh(alpha) beta is odd in beta.  r and beta broadcast.
    """
    x2, arg = cosh_factor(alpha, beta)
    with np.errstate(divide="ignore"):
        log_mag = 0.5 * (float(sech(alpha)) ** 2 * beta * beta - r * r
                         + np.log1p(-np.minimum(x2, 1.0)))
    return log_mag, arg - math.tanh(alpha) * beta, x2


class ComplexCgfValue(NamedTuple):
    """cgf at tau + i t, split as log-magnitude (re) and argument (im)."""

    re: float
    im: float


@dataclass(frozen=True)
class MixtureParams:
    """Parameters of the symmetric Gaussian mixture in dimension d.

    sigma must be symmetric positive definite; mu = 0 degenerates to the pure
    Gaussian, which every routine accepts (is_pure_gaussian flags it).
    """

    d: int
    mu: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        if int(self.d) < 1:
            raise DimensionError(f"d must be >= 1, got {self.d}")
        mu = np.asarray(self.mu, dtype=float).reshape(-1)
        sigma = np.asarray(self.sigma, dtype=float)
        if mu.shape != (self.d,):
            raise DimensionError(f"mu has shape {mu.shape}, expected ({self.d},)")
        if sigma.shape != (self.d, self.d):
            raise DimensionError(f"sigma has shape {sigma.shape}, expected ({self.d}, {self.d})")
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise ModelDomainError("mu and sigma must be finite")
        scale = max(1.0, float(np.max(np.abs(sigma))))
        # a difference or sum past the double range reads inf, without a warning
        with np.errstate(over="ignore"):
            if np.max(np.abs(sigma - sigma.T)) > 1e-10 * scale:
                raise ModelDomainError("sigma is not symmetric")
            twice = sigma + sigma.T
        # halved first where the sum overflows: entries past half the double range
        sigma = np.where(np.isfinite(twice), 0.5 * twice, 0.5 * sigma + 0.5 * sigma.T)
        try:
            np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError as exc:
            raise ModelDomainError("sigma is not positive definite") from exc
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma", sigma)

    @property
    def is_pure_gaussian(self) -> bool:
        return float(np.linalg.norm(self.mu)) == 0.0

    def second_moment(self) -> np.ndarray:
        """Covariance of a single draw: sigma + mu mu'."""
        return self.sigma + np.outer(self.mu, self.mu)

    def standardized(self) -> "MixtureParams":
        """Whitened copy: W mu, W sigma W with W = (sigma + mu mu')^(-1/2)."""
        w = _inv_sqrt_psd(self.second_moment())
        return MixtureParams(self.d, w @ self.mu, w @ self.sigma @ w)


def _inv_sqrt_psd(m):
    vals, vecs = np.linalg.eigh(m)
    if np.min(vals) <= 0:
        raise ModelDomainError("matrix is not positive definite")
    return (vecs / np.sqrt(vals)) @ vecs.T


class GaussianMixture:
    """Closed-form cgf model for the symmetric Gaussian mixture.

    cgf(tau) = tau' sigma tau / 2 + log cosh(<mu, tau>), so every derivative
    is sigma plus a scalar kernel of alpha = <mu, tau> times a tensor power
    of mu.  The complex extension needs alpha, beta = <mu, t> and two
    quadratic forms in sigma.
    """

    def __init__(self, params: MixtureParams):
        self.params = params
        self._mu = params.mu
        self._sigma = params.sigma
        self._mu_norm = float(np.linalg.norm(self._mu))
        # w = sigma^{-1} mu and g = <mu, w>, the fixed ingredients of the scalar
        # saddle equation and of ||H^{-1/2} mu||; log det sigma for log det H
        with np.errstate(over="ignore", invalid="ignore"):
            self._w = np.linalg.solve(self._sigma, self._mu)
            self._g = float(self._mu @ self._w)
        if not math.isfinite(self._g):
            raise ModelDomainError("<mu, sigma^-1 mu> leaves the double range")
        self._log_det_sigma = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(self._sigma)))))
        # the diagonal of a diagonal sigma, which the saddle solves by division
        diag = np.diag(self._sigma)
        self._sigma_diag = diag if np.array_equal(self._sigma, np.diag(diag)) else None
        self._c34_cache: dict[tuple[float, float], tuple[tuple[float, float], ...]] = {}

    @property
    def dim(self) -> int:
        return self.params.d

    @property
    def is_pure_gaussian(self) -> bool:
        return self.params.is_pure_gaussian

    def _check_vec(self, v, name):
        v = np.asarray(v, dtype=float).reshape(-1)
        if v.shape != (self.params.d,):
            raise DimensionError(f"{name} has shape {v.shape}, expected ({self.params.d},)")
        return v

    def cgf_real(self, tau):
        tau = self._check_vec(tau, "tau")
        return 0.5 * float(tau @ (self._sigma @ tau)) + float(logcosh(self._mu @ tau))

    def cgf_complex(self, tau, t):
        """cgf at tau + i t as (log-magnitude, argument).

        cgf(tau) plus the log of cosh_factor's ratio, -t' sigma t / 2 and
        i <tau, sigma t>; evaluation is rejected when the argument leaves
        (-pi, pi) or the point is a zero of cosh.
        """
        tau = self._check_vec(tau, "tau")
        t = self._check_vec(t, "t")
        alpha, beta = float(self._mu @ tau), float(self._mu @ t)
        x2, arg = cosh_factor(alpha, beta)
        if x2 >= 1.0:
            raise PhaseBranchError(
                f"zero of cosh at alpha={alpha:.6g}, beta={beta:.6g}; log branch undefined")
        t_sigma = self._sigma @ t
        im = float(tau @ t_sigma) + float(arg)
        if abs(im) >= math.pi:
            raise PhaseBranchError(
                f"argument {im:.6g} outside the principal branch at beta={beta:.6g}")
        return ComplexCgfValue(self.cgf_real(tau) - 0.5 * float(t @ t_sigma)
                               + 0.5 * math.log1p(-x2), im)

    def grad(self, tau):
        tau = self._check_vec(tau, "tau")
        return self._sigma @ tau + math.tanh(float(self._mu @ tau)) * self._mu

    def hessian(self, tau):
        tau = self._check_vec(tau, "tau")
        s = float(sech(self._mu @ tau))
        return self._sigma + (s * s) * np.outer(self._mu, self._mu)

    def whitened_mu_norm(self, alpha):
        """||H(alpha)^{-1/2} mu|| = sqrt(g / (1 + sech^2(alpha) g)) by rank-one
        inversion, elementwise over an array of alpha."""
        return np.sqrt(self._g / (1.0 + np.square(sech(alpha)) * self._g))

    def c34_bracket(self, tau_radius, t_radius):
        """((lo3, hi3), (lo4, hi4)): certified brackets of the c3 and c4 suprema.

        alpha ranges over |alpha| <= ||mu|| * tau_radius; for each alpha,
        beta ranges over |beta| <= ||H(alpha)^{-1/2} mu|| * t_radius, and each
        kernel is weighted by that whitened norm to the 3rd/4th power.  hi is
        an upper bound of the supremum, lo a value the kernel attains, and
        hi <= lo (1 + 1e-6) wherever the branch and bound described above
        _certified_sup closes within its work limit.  It may not where the
        kernels oscillate over many periods of beta (g = <mu, sigma^{-1} mu>
        of 1e3 and more), or within about 1e-8 (relative) of the pole
        condition below, where the allowance for rounding alone passes
        1e-6: hi is then still an upper bound, with a wider gap.  hi is inf,
        and so still an upper bound, where the weight overflows, which takes g
        past about 1e154 and alpha past about log(g) / 2.  The region
        contains a zero of cosh, where both kernels are unbounded, exactly when
        ||H(0)^{-1/2} mu|| * t_radius >= pi/2; every bound is then inf.  A pure
        Gaussian gives zeros.  Raises DimensionError unless both radii are
        finite and > 0 and ||mu|| * tau_radius is finite.  Brackets are cached
        per radii on the instance.
        """
        if not (0 < tau_radius < math.inf and 0 < t_radius < math.inf):
            raise DimensionError(f"radii must be finite and > 0, got {tau_radius}, {t_radius}")
        a_max = self._mu_norm * tau_radius
        if a_max == math.inf:
            raise DimensionError(f"the alpha range ||mu|| tau_radius leaves the double range "
                                 f"at tau_radius = {tau_radius}")
        key = (float(tau_radius), float(t_radius))
        hit = self._c34_cache.get(key)
        if hit is not None:
            return hit
        if self.is_pure_gaussian:
            out = ((0.0, 0.0), (0.0, 0.0))
        elif self.whitened_mu_norm(0.0) * t_radius >= 0.5 * math.pi:
            out = ((math.inf, math.inf), (math.inf, math.inf))
        else:
            out = _certified_sup(self._g, a_max, t_radius)
        self._c34_cache[key] = out
        return out

    def c3_sup(self, tau_radius, t_radius):
        """Certified upper bound of the whitened third-derivative kernel's
        supremum over the (tau, t) region (see c34_bracket)."""
        return self.c34_bracket(tau_radius, t_radius)[0][1]

    def c4_sup(self, tau_radius, t_radius):
        """Certified upper bound of the whitened fourth-derivative kernel's
        supremum over the (tau, t) region (see c34_bracket)."""
        return self.c34_bracket(tau_radius, t_radius)[1][1]

    def c3_op_norm_ball(self, radius):
        """Exact sup of ||grad^3 cgf|| over ||tau|| <= radius.

        The third derivative is -2 sech^2(alpha) tanh(alpha) mu^(x3) with
        |alpha| <= radius ||mu||; the scalar factor is unimodal in |alpha|,
        so the sup sits at min(radius ||mu||, argmax).
        """
        if not (0 <= radius < math.inf):
            raise DimensionError(f"radius must be finite and >= 0, got {radius}")
        if self.is_pure_gaussian:
            return 0.0
        a = min(radius * self._mu_norm, _K3_ARGMAX)
        return float(c3_kernel(a, 0.0)) * self._mu_norm**3


# every layer uses the mixture's structure, so the mixture is the model type;
# CgfModel names it too, so code written against that name keeps working
CgfModel = GaussianMixture


def check_point(x, d, name):
    """x as a float vector of shape (d,); DimensionError unless it is finite."""
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.shape != (d,):
        raise DimensionError(f"{name} has shape {x.shape}, expected ({d},)")
    if not np.isfinite(x).all():
        raise DimensionError(f"{name} must be finite, got {x}")
    return x


def is_count(x, minimum=1) -> bool:
    """True when x is a whole number >= minimum; NaN, inf, numbers past the
    double range and non-numbers are not."""
    try:
        return bool(x >= minimum) and float(x).is_integer()
    except (TypeError, ValueError, OverflowError):
        return False


def require_mixture(model, what):
    """ConfigError unless model is a GaussianMixture, whose structure `what` uses."""
    if not isinstance(model, GaussianMixture):
        raise ConfigError(f"{what} needs a GaussianMixture, got {type(model).__name__}")


# --- certified c3/c4 suprema ----------------------------------------------
#
# Write r = ||H(alpha)^{-1/2} mu||, T = t_radius and beta = r(alpha) T u with
# u in [0, 1].  Over the quarter 0 <= alpha <= a_max, 0 <= u <= 1 each weighted
# kernel is |G| with G = U(alpha, beta) W(alpha), U = Re K for K3 = 2 s t or
# K4 = 4 s - 6 s^2 (s = sech^2 w, t = tanh w) and W = r^3 or r^4.  U is
# harmonic, so each of its partial derivatives of order j is at most |K^(j)|,
# and K^(j) is t or 1 times a polynomial in s.  Over a rectangle of w reaching
# rho from its centre c, |s - s(c)| <= 2 sup|s| sup|t| rho and
# |t| <= |t(c)| + sup|s| rho, with sup|s| = 1 / (sinh^2 a0 + min cos^2 beta),
# so the Taylor coefficients of that polynomial at s(c) bound |K^(j)|.  With
# sup bounds of r', r'', r''' this bounds the derivatives of G up to order
# three over any box [a0, a1] x [u0, u1].
#
# The quarter is covered by boxes, by segments of its four edges and by its
# corners.  An element is settled when
#   - its second-order bound G(c) + |grad G(c)| h + h' H h / 2 is at most
#     (1 + _SUP_RTOL) times the best value found (lo), or
#   - |G| is strictly monotone or strictly convex along a side it extends in,
#     or concave in u on a box that starts at the symmetry line u = 0: no
#     point off the edges is then a local maximum, and the edges are elements
#     of their own, or
#   - it lies in a run of adjacent edge segments on which |G| is concave: a
#     Newton search finds the run's maximum, and concavity bounds the run by
#     the tangent there.
# An element whose bound is within that tolerance but for its rounding
# allowance is settled too: halving would not shrink the allowance.
# Everything else is halved along the sides whose second-order term is still
# large and not below _SUP_ASPECT times the other side's (along both, when
# only its first-order terms keep it open), and evaluated again; an element
# whose bound is still _SUP_FAR times lo or more, next to a zero of cosh, is
# cut along those sides at _SUP_GRADED instead, into pieces that shrink
# towards its ends by 2^-_SUP_FAR_CUTS, as long as the work limit has room
# for the pieces (halving alone takes about 30 rounds there).  The search stops when every element
# is settled or dropped, or before it would pass _SUP_WORK element
# evaluations (about 0.1 s).  hi, the largest bound of an element not
# dropped, is an upper bound of the supremum, and when the search closes
# hi <= lo (1 + _SUP_RTOL) up to the allowances.

_SUP_RTOL = 1e-6
# a computed kernel value is off by a few ulps of |K| plus the change of K
# under a move of the point by a few ulps of 1 + |alpha| + |beta|: the
# rounding of alpha and beta = r T u, and the cancellation in 1 + exp(-2w),
# which grows like |tan beta| towards a zero of cosh.  Every element bound
# adds _SUP_ULPS ulps of sup|K| + sup|K'| (1 + alpha + beta) over the element
# (times the weight), and the sups of the higher derivatives carry a
# relative slack
_SUP_ULPS = 16.0
_SUP_SLACK = 1e-9
# first cover: _SUP_GRID rows of boxes in u, and over alpha <= _SUP_NEAR
# columns of width about _SUP_WIDTH (_SUP_GRID to 4 _SUP_GRID of them); boxes
# between powers of 4 beyond it, where the kernels decay like exp(-2 alpha).
# Edge segments are _SUP_SEGMENTS times finer, as their tests run along one side
_SUP_GRID = 8
_SUP_WIDTH = 0.075
_SUP_SEGMENTS = 2
_SUP_NEAR = 4.0
_SUP_ROUNDS = 60
_SUP_ASPECT = 0.25
_SUP_FAR = 10.0
_SUP_FAR_CUTS = 8
# 2^-8, ..., 1/4, 1/2, 3/4, ..., 1 - 2^-8: the inner breaks of a graded cut
_SUP_GRADED = np.concatenate((0.5 ** np.arange(_SUP_FAR_CUTS, 1, -1), [0.5],
                              1.0 - 0.5 ** np.arange(2, _SUP_FAR_CUTS + 1)))
# elements per evaluation, and a limit on the elements evaluated in all
_SUP_CHUNK = 512
_SUP_WORK = 1 << 15
_SUP_NEWTON = 40
# K3 = t B0(s), K4 = A1(s), K4' = t B2(s), K4'' = A3(s), K4''' = t B4(s);
# _SUP_TAYLOR[l][j] holds the l-th Taylor coefficient of the j-th of these
# polynomials in the powers 1, s, s^2, s^3 (K3^(j) = -K4^(j-1)); the third
# coefficients are constants, |_SUP_TAYLOR3|
_SUP_TAYLOR = np.array([
    [[0, 2, 0, 0], [0, 4, -6, 0], [0, -8, 24, 0], [0, 16, -120, 120], [0, -32, 480, -720]],
    [[2, 0, 0, 0], [4, -12, 0, 0], [-8, 48, 0, 0], [16, -240, 360, 0], [-32, 960, -2160, 0]],
    [[0, 0, 0, 0], [-6, 0, 0, 0], [24, 0, 0, 0], [-120, 360, 0, 0], [480, -2160, 0, 0]],
], dtype=float)
_SUP_TAYLOR3 = np.array([[0.0], [0.0], [0.0], [120.0], [720.0]])
# rows of K^(j) and sup |K^(j)|, j = 0..3, for c3; c4 reads the next row
_SUP_ROWS3 = np.arange(3)[:, None]
_SUP_ROWS4 = np.arange(4)[:, None]


def _jet(t_radius, u, q, th, r, k, k0, k1, k2):
    """Exact (G, G_a, G_u, G_aa, G_uu) at points with sech^2 alpha = q,
    tanh alpha = th and r = r(alpha), for the weight exponent k and
    K, K', K'' = k0, k1, k2 there; plain arithmetic, so on floats and complex
    numbers, or elementwise on arrays."""
    p = q * th
    r3 = r * r * r
    # r' = r^3 p and r'' = r^3 (3 r^2 p^2 + p') with p = sech^2 tanh, p' = q (3q - 2)
    rp = r3 * p
    rpp = r3 * (3.0 * r * r * p * p + q * (3.0 * q - 2.0))
    x = rp / r
    w = r ** k
    w1 = k * x * w
    w2 = (k * (k - 1.0) * x * x + k * rpp / r) * w
    b_u = r * t_radius
    b_a = rp * t_radius * u
    b_aa = rpp * t_radius * u
    uv, ua, ub, uaa, uab = k0.real, k1.real, -k1.imag, k2.real, -k2.imag
    d1 = ua + ub * b_a
    d2 = uaa * (1.0 - b_a * b_a) + 2.0 * uab * b_a + ub * b_aa
    return (uv * w, d1 * w + uv * w1, ub * b_u * w,
            d2 * w + 2.0 * d1 * w1 + uv * w2, -uaa * b_u * b_u * w)


def _cover(a_boxes, a_segments):
    """(a0, a1, u0, u1) of the first cover: boxes over the alpha breaks
    a_boxes, segments of u = 0 and u = 1 over a_segments, segments of the
    lines alpha = 0 and alpha = a_segments[-1], and the four corners."""
    eu = np.arange(_SUP_GRID + 1) / _SUP_GRID
    su = np.arange(_SUP_GRID * _SUP_SEGMENTS + 1) / (_SUP_GRID * _SUP_SEGMENTS)
    na, ma, mu = a_boxes.size - 1, a_segments.size - 1, su.size - 1
    end = a_segments[-1]
    a0 = np.concatenate([np.repeat(a_boxes[:-1], _SUP_GRID), a_segments[:-1], a_segments[:-1],
                         np.zeros(mu), np.full(mu, end), [0.0, end, 0.0, end]])
    a1 = np.concatenate([np.repeat(a_boxes[1:], _SUP_GRID), a_segments[1:], a_segments[1:],
                         np.zeros(mu), np.full(mu, end), [0.0, end, 0.0, end]])
    u0 = np.concatenate([np.resize(eu[:-1], na * _SUP_GRID), np.zeros(ma), np.ones(ma),
                         su[:-1], su[:-1], [0.0, 0.0, 1.0, 1.0]])
    u1 = np.concatenate([np.resize(eu[1:], na * _SUP_GRID), np.zeros(ma), np.ones(ma),
                         su[1:], su[1:], [0.0, 0.0, 1.0, 1.0]])
    return a0, a1, u0, u1


def _certified_sup(g, a_max, t_radius):
    """((lo3, hi3), (lo4, hi4)) over alpha <= a_max, u <= 1 for the mixture
    with g = <mu, sigma^{-1} mu>."""
    near = min(a_max, _SUP_NEAR)
    cells = min(max(_SUP_GRID, math.ceil(near / _SUP_WIDTH)), 4 * _SUP_GRID)
    # boxes between powers of 4 past _SUP_NEAR
    far = [near]
    while far[-1] < a_max:
        far.append(min(4.0 * far[-1], a_max))
    a0, a1, u0, u1 = _cover(*(np.concatenate((np.linspace(0.0, near, count + 1), far[1:]))
                              for count in (cells, cells * _SUP_SEGMENTS)))
    lo = np.zeros(2)
    hi = np.zeros(2)
    work = 0
    for _ in range(_SUP_ROUNDS):
        work += a0.size
        # in chunks, so that no temporary grows large
        parts = [_element_bounds(g, t_radius, *(x[i:i + _SUP_CHUNK] for x in (a0, a1, u0, u1)))
                 for i in range(0, a0.size, _SUP_CHUNK)]
        value, ub, allow, drop, concave, e_a, e_u = (
            parts[0] if len(parts) == 1 else (np.concatenate(x, axis=1) for x in zip(*parts)))
        lo = np.fmax(lo, np.max(value, axis=1))
        for which in (0, 1):
            _settle_concave(g, t_radius, which, a0, a1, u0, u1, ub[which], allow[which], lo,
                            concave[which] & (ub[which] > lo[which] * (1.0 + _SUP_RTOL)))
        # a corner cannot be halved, so its bound is final, and neither is an
        # element within tolerance but for its rounding allowance (near the
        # pole condition the allowance alone can pass it); both count
        # towards hi; a bound whose weight r^k overflowed is inf - inf here,
        # and stays open
        with np.errstate(invalid="ignore"):
            over = (~drop & ~(ub - allow <= lo[:, None] * (1.0 + _SUP_RTOL))
                    & ((a1 > a0) | (u1 > u0)))
        live = over[0] | over[1]
        if not live.any() or work + 4 * live.sum() > _SUP_WORK:
            break
        # an element at the corner alpha = 0, u = 1, the point nearest a zero
        # of cosh, whose bound is _SUP_FAR times lo or more has many halvings
        # ahead
        far = (np.any(over & ~(ub < _SUP_FAR * lo[:, None]), axis=0)
               & (a0 == 0.0) & (u1 == 1.0))
        hi = np.maximum(hi, np.max(np.where(over | drop, 0.0, ub), axis=1))
        # halve each open element along the sides whose second-order term,
        # for a kernel it is open for, exceeds a quarter of that kernel's
        # tolerance and is not below _SUP_ASPECT times the other side's (an
        # undefined term, 0 * inf where a bound overflowed, counts as over)
        tol = 0.25 * _SUP_RTOL * lo[:, None]
        over = over[:, live]
        a0, a1, u0, u1, far = a0[live], a1[live], u0[live], u1[live], far[live]
        e_a, e_u = (np.where(over, e[:, live], 0.0) for e in (e_a, e_u))
        cut_a, cut_u = ((h > 0.0) & np.any(~(e <= tol) & ~(e < _SUP_ASPECT * f), axis=0)
                        for h, e, f in ((a1 - a0, e_a, e_u), (u1 - u0, e_u, e_a)))
        # an element open on its first-order terms alone is halved both ways
        both = ~(cut_a | cut_u)
        cut_a |= both & (a1 > a0)
        cut_u |= both & (u1 > u0)
        # graded cuts, in order, while the pieces they add beyond the 4 the
        # work check counted for each element keep within _SUP_WORK
        pieces = (np.where(cut_a, _SUP_GRADED.size + 1, 1)
                  * np.where(cut_u, _SUP_GRADED.size + 1, 1) - 4)
        far &= np.cumsum(np.where(far, pieces, 0)) <= _SUP_WORK - work - 4 * over.shape[1]
        if far.any():
            a0, a1, u0, u1 = (np.concatenate(x) for x in zip(
                _halve(*(x[~far] for x in (a0, a1, u0, u1, cut_a, cut_u))),
                _graded(*(x[far] for x in (a0, a1, u0, u1, cut_a, cut_u)))))
        else:
            a0, a1, u0, u1 = _halve(a0, a1, u0, u1, cut_a, cut_u)
    # every element not dropped is bounded by ub; the open ones only when the
    # work or round limit stopped the search, and then hi > lo (1 + _SUP_RTOL)
    hi = np.maximum(hi, np.max(np.where(drop, 0.0, ub), axis=1))
    hi = np.maximum(hi, lo)
    return (float(lo[0]), float(hi[0])), (float(lo[1]), float(hi[1]))


def _halve(a0, a1, u0, u1, cut_a, cut_u):
    """The elements, halved along alpha where cut_a and along u where cut_u."""
    am = np.where(cut_a, 0.5 * (a0 + a1), a1)
    um = np.where(cut_u, 0.5 * (u0 + u1), u1)
    both = cut_a & cut_u
    halves = ((a0, am, u0, um),
              (am[cut_a], a1[cut_a], u0[cut_a], um[cut_a]),
              (a0[cut_u], am[cut_u], um[cut_u], u1[cut_u]),
              (am[both], a1[both], um[both], u1[both]))
    return tuple(np.concatenate(x) for x in zip(*halves))


def _graded(a0, a1, u0, u1, cut_a, cut_u):
    """The elements, cut along alpha where cut_a and along u where cut_u at
    the fractions _SUP_GRADED, which halve the pieces at either end
    _SUP_FAR_CUTS times."""
    parts = []
    for along_a, along_u in ((True, True), (True, False), (False, True)):
        pick = (cut_a == along_a) & (cut_u == along_u)
        if not pick.any():
            continue
        breaks = []
        for lo, hi, along in ((a0[pick], a1[pick], along_a), (u0[pick], u1[pick], along_u)):
            lo, hi = lo[:, None], hi[:, None]
            inner = lo + (hi - lo) * _SUP_GRADED if along else lo[:, :0]
            breaks.append(np.concatenate((lo, inner, hi), axis=1))
        (ba, bu), m = breaks, pick.sum()
        shape = (m, ba.shape[1] - 1, bu.shape[1] - 1)
        parts.append([np.broadcast_to(x, shape).ravel() for x in (
            ba[:, :-1, None], ba[:, 1:, None], bu[:, None, :-1], bu[:, None, 1:])])
    return tuple(np.concatenate(x) for x in zip(*parts))


def _settle_concave(g, t_radius, which, a0, a1, u0, u1, ub, allow, lo, open_):
    """Newton on each run of contiguous open edge segments where kernel
    `which` is concave, best first: the run's value raises lo[which], and its
    tangent bound, plus the largest rounding allowance of the run, replaces
    the bound of each of its segments."""
    runs = []
    idx = np.nonzero(open_)[0]
    # segments along alpha on u = 0, 1, then along u on alpha = 0, a_max
    along_a = a1[idx] > a0[idx]
    line = np.where(along_a, u0[idx], 2.0 + a0[idx])
    start = np.where(along_a, a0[idx], u0[idx])
    end = np.where(along_a, a1[idx], u1[idx])
    for j in np.lexsort((start, line)):
        if runs and line[j] == runs[-1][0] and start[j] == runs[-1][2]:
            runs[-1][2] = end[j]
            runs[-1][3].append(idx[j])
        else:
            runs.append([line[j], start[j], end[j], [idx[j]]])
    for _, x0, x1, members in sorted(runs, key=lambda run: -ub[run[3]].max()):
        if ub[members].max() > lo[which] * (1.0 + _SUP_RTOL):
            i = members[0]
            if a1[i] > a0[i]:
                found, bound = _segment_newton(g, t_radius, which, x0, x1, u0[i], u0[i])
            else:
                found, bound = _segment_newton(g, t_radius, which, a0[i], a0[i], x0, x1)
            lo[which] = max(lo[which], found)
            ub[members] = bound + allow[members].max()


def _segment_newton(g, t_radius, which, a0, a1, u0, u1):
    """(value, bound) on an edge segment where |G| is concave: Newton for the
    maximum, then |G| <= |G(x)| + |G|'(x) (y - x) over the segment."""
    along_a = a1 > a0
    lo, hi = (a0, a1) if along_a else (u0, u1)
    k = 3.0 + which

    def jet(x):
        alpha, u = (x, u0) if along_a else (a0, x)
        e = math.exp(-alpha)
        sa = 2.0 * e / (1.0 + e * e)
        q = sa * sa
        r = math.sqrt(g / (1.0 + g * q))
        z = cmath.exp(complex(-2.0 * alpha, -2.0 * r * t_radius * u))
        zp = 1.0 + z
        s = 4.0 * z / (zp * zp)
        t = (1.0 - z) / zp
        k4 = s * (4.0 - 6.0 * s)
        d4 = 8.0 * s * t * (3.0 * s - 1.0)
        ks = (2.0 * s * t, -k4, -d4) if which == 0 else (
            k4, d4, 8.0 * s * (15.0 * s * s - 15.0 * s + 2.0))
        v, d_a, d_u, d_aa, d_uu = _jet(t_radius, u, q, math.tanh(alpha), r, k, *ks)
        return (v, d_a, d_aa) if along_a else (v, d_u, d_uu)

    x = 0.5 * (lo + hi)
    for _ in range(_SUP_NEWTON):
        _, d1, d2 = jet(x)
        if not abs(d2) > 0.0:
            # flat in rounding (c3 vanishes on alpha = 0); the tangent bound
            # holds at any x of a concave run
            break
        step = min(max(x - d1 / d2, lo), hi)
        done = abs(step - x) <= 4.0 * _EPS * max(1.0, abs(x))
        x = step
        if done:
            break
    value, d1, _ = jet(x)
    slope = d1 if value >= 0.0 else -d1
    return abs(value), abs(value) + max(slope * (lo - x), slope * (hi - x))


def _element_bounds(g, t_radius, a0, a1, u0, u1):
    """(value, ub, allow, drop, concave, e_a, e_u) for elements
    [a0, a1] x [u0, u1]: boxes, edge segments (one side of zero length) and
    points.  Each is (2, m), one row per kernel: |G| at the centre, the
    second-order upper bound, its rounding allowance (included in the
    bound), whether the element holds no local maximum off the edges,
    whether it is a segment with |G| concave along it, and the second-order
    terms along alpha and u."""
    # one entry per element and kernel: the c3 half, then the c4 half
    m = a0.size
    a0, a1, u0, u1 = (np.concatenate((x, x)) for x in (a0, a1, u0, u1))
    n = 2 * m
    c4 = np.repeat([0, 1], m)
    k = 3.0 + c4
    ha = 0.5 * (a1 - a0)
    hu = 0.5 * (u1 - u0)
    ac = a0 + ha
    uc = u0 + hu
    # -2 alpha overflows past half the double range, where exp(-2 alpha) is 0
    # all the same
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e2 = np.exp(-2.0 * np.concatenate((a0, a1, ac)))
        den = 1.0 + e2
        q = 4.0 * e2 / (den * den)
        th = (1.0 - e2) / den
        r = np.sqrt(g / (1.0 + g * q))
        q0, qc = q[:n], q[2 * n:]
        r0, r1, rc = r[:n], r[n:2 * n], r[2 * n:]
        tr = t_radius
        b0, b1, bc = r0 * tr * u0, r1 * tr * u1, rc * tr * uc
        # min cos^2 beta over [b0, b1]: 0 where some pi/2 + k pi lies in it, that
        # is where cos changes sign or the interval spans pi
        cos = np.cos(np.concatenate((b0, b1)))
        pole = (cos[:n] * cos[n:] <= 0.0) | (b1 - b0 >= math.pi)
        cos *= cos
        cos2 = np.where(pole, 0.0, np.minimum(cos[:n], cos[n:]))
        s, t = _sech2_tanh(ac, bc)
        sup_s = q0 / (1.0 - q0 + q0 * cos2)
        rho = np.hypot(ha, np.maximum(bc - b0, b1 - bc))
        tb = np.abs(t) + sup_s * rho
        dl = 2.0 * sup_s * tb * rho
        powers = np.empty((4, n), dtype=complex)
        powers[0] = 1.0
        powers[1] = s
        powers[2] = s * s
        powers[3] = powers[2] * s
        # sup |K4^(j-1)| over the element, j = 0..4, with K4^(-1) = -K3, one
        # Taylor order at a time, which keeps each temporary small
        kc = _SUP_TAYLOR[0] @ powers
        sup_k = np.abs(_SUP_TAYLOR[2] @ powers) + dl * _SUP_TAYLOR3
        sup_k = np.abs(_SUP_TAYLOR[1] @ powers) + dl * sup_k
        sup_k = np.abs(kc) + dl * sup_k
        sup_k[0::2] *= tb
        kc[0::2] *= t
        # per kernel, K^(j) and sup |K^(j)|: K3^(j) = -K4^(j-1)
        cols = np.arange(n)
        m0, m1, m2, m3 = sup_k[_SUP_ROWS4 + c4, cols]
        k0, k1, k2 = kc[_SUP_ROWS3 + c4, cols]
        sign_c3 = 2.0 * c4 - 1.0
        k1 *= sign_c3
        k2 *= sign_c3
        val, g_a, g_u, g_aa, g_uu = _jet(tr, uc, qc, th[2 * n:], rc, k, k0, k1, k2)
        # over the element, with p = sech^2 tanh <= q0 tanh(a1),
        # |p'| = q |3q - 2| and |p''| = 4 q tanh |3q - 1|: xs, ys and zs bound
        # r' / r, r'' / r and r''' / r, since r' = r^3 p
        p = q0 * th[n:2 * n]
        d3q = 3.0 * q[:2 * n]
        dp = q0 * np.maximum(np.abs(d3q[:n] - 2.0), np.abs(d3q[n:] - 2.0))
        ddp = 4.0 * p * np.maximum(np.abs(d3q[:n] - 1.0), np.abs(d3q[n:] - 1.0))
        r12 = r1 * r1
        xs = r12 * p
        ys = r12 * (3.0 * r12 * p * p + dp)
        zs = r12 * (r12 * (15.0 * r12 * p * p * p + 9.0 * p * dp) + ddp)
        # sups of W^(j) / W over the element, and of the derivatives of beta;
        # w carries the relative slack that keeps every bound above its
        # rounding, and so every test strict
        w = r1 ** k * (1.0 + _SUP_SLACK)
        w1 = k * xs
        w2 = (k - 1.0) * w1 * xs + k * ys
        w3 = (k - 2.0) * (k - 1.0) * w1 * xs * xs + 3.0 * (k - 1.0) * w1 * ys + k * zs
        bu = r1 * tr
        bau = xs * bu
        ba = 1.0 + bau * u1
        baa = ys * bu * u1
        bb = ba * bu
        # sups of |d^j/dalpha^j U(alpha, beta(alpha, u))| at fixed u, j = 1, 2
        da1 = m1 * ba
        da2 = m2 * ba * ba + m1 * baa
        # U3 is odd in alpha, and so is each of its beta derivatives: its
        # j-th beta derivative is at most alpha times the sup of |K3^(j+1)|
        # over [0, alpha] at the same beta, which keeps the bounds along u in
        # scale with c3 near alpha = 0.  The element's sups cover that segment
        # only where it starts at alpha = 0
        odd = np.where((c4 == 0) & (a0 == 0.0), a1, np.inf)
        m2u = np.fmin(m2, odd * m3)
        m3u = np.fmin(m3, odd * sup_k[4])
        # sups of |G_uu|, |G_au|, |G_aa| and of the third derivatives, over W
        h_uu = m2u * bu * bu
        h_au = m2 * bb + m1 * (bau + bu * w1)
        h_aa = da2 + 2.0 * da1 * w1 + m0 * w2
        g_aaa = (m3 * ba * ba * ba + 3.0 * m2 * ba * baa + m1 * zs * bu * u1
                 + 3.0 * (da2 * w1 + da1 * w2) + m0 * w3)
        g_aau = (m3 * ba * bb + m2 * (baa * bu + 2.0 * ba * bau) + m1 * ys * bu
                 + 2.0 * (m2 * bb + m1 * bau) * w1 + m1 * bu * w2)
        g_uua = (m3 * bb + m2 * (2.0 * bau + bu * w1)) * bu
        # G_aa and G_uu stay within var_aa and var_uu of their centre values,
        # G_a and G_u within grad_a and grad_u
        var_aa = (g_aaa * ha + g_aau * hu) * w
        var_uu = (m3u * bu * bu * bu * hu + g_uua * ha) * w
        h_uu *= w
        h_au *= w
        h_aa *= w
        grad_a = h_aa * ha + h_au * hu
        grad_u = h_au * ha + h_uu * hu
        e_a = h_aa * ha * ha
        e_u = h_uu * hu * hu
        spread = np.abs(g_a) * ha + np.abs(g_u) * hu + 0.5 * (e_a + e_u) + h_au * ha * hu
        value = np.abs(val)
        allow = _SUP_ULPS * _EPS * (m0 + m1 * (1.0 + a1 + b1)) * w
        ub = np.fmin(m0 * w, value + spread) + allow
        # no point off an edge is a local maximum of |G| where G is strictly
        # monotone along a side the element extends in, or where |G| = sign G
        # (G keeps its sign) is strictly convex along one
        sign = np.sign(val)
        kept = value > spread
        curv_a = sign * g_aa
        curv_u = sign * g_uu
        along_a = ha > 0.0
        along_u = hu > 0.0
        mono = (along_a & (np.abs(g_a) > grad_a)) | (along_u & (np.abs(g_u) > grad_u))
        convex = (along_a & (curv_a > var_aa)) | (along_u & (curv_u > var_uu))
        # G_uu = U_bb beta_u^2 W with U_bb = -Re K'': concave in u from u = 0,
        # where G_u = 0, puts the maximum on the edge u = 0
        flat_u = along_u & (u0 == 0.0) & (sign * k2.real >= m3 * rho)
        drop = mono | (kept & (convex | flat_u))
        concave = kept & np.where(along_u, ~along_a & (curv_u + var_uu < 0.0),
                                  along_a & (curv_a + var_aa < 0.0))
    # a bound that overflowed or is undefined keeps its element open
    ub[~(ub >= 0.0)] = np.inf
    return tuple(x.reshape(2, m) for x in (value, ub, allow, drop, concave, e_a, e_u))


# --- model file parsing ---------------------------------------------------
#
# Plain key = value lines, '#' comments.  Keys: d, mu, sigma.
#   mu:    "ones*0.5" | "ones" | "unit*0.7" | "unit" | "1.0, 0.0"
#   sigma: "identity" | "diag 2.0, 1.0" | "1.0 0.0; 0.0 2.0"
# Exact grammar in README.md.


def _parse_floats(text):
    parts = [p for p in _re.split(r"[,\s]+", text.strip()) if p]
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"cannot parse numbers from {text!r}") from exc


def parse_kv_lines(text):
    """key = value pairs from config text; later keys override earlier ones."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip().lower()] = value.strip()
    return out


def _build_mu(spec_text, d):
    text = spec_text.strip().lower()
    m = _re.fullmatch(r"(ones|unit)(?:\s*\*\s*([-+0-9.eE]+))?", text)
    if m:
        scale = float(m.group(2)) if m.group(2) is not None else 1.0
        if m.group(1) == "ones":
            return scale * np.ones(d)
        mu = np.zeros(d)
        mu[0] = scale
        return mu
    vals = _parse_floats(spec_text)
    if len(vals) != d:
        raise ConfigError(f"mu has {len(vals)} entries, model has d = {d}")
    return np.array(vals)


def _build_sigma(spec_text, d):
    text = spec_text.strip().lower()
    if text == "identity":
        return np.eye(d)
    if text.startswith("diag"):
        vals = _parse_floats(spec_text.strip()[4:].lstrip(" :"))
        if len(vals) != d:
            raise ConfigError(f"diag sigma has {len(vals)} entries, model has d = {d}")
        return np.diag(vals)
    rows = [r for r in spec_text.split(";") if r.strip()]
    if len(rows) != d:
        raise ConfigError(f"sigma has {len(rows)} rows, model has d = {d}")
    mat = np.array([_parse_floats(r) for r in rows])
    if mat.shape != (d, d):
        raise ConfigError(f"sigma parsed to shape {mat.shape}, expected ({d}, {d})")
    return mat


def params_from_mapping(kv, d_override=None):
    """MixtureParams from parsed key/value strings, optionally re-instantiated at another d."""
    if "d" not in kv:
        raise ConfigError("model file must set d")
    try:
        d = int(kv["d"])
    except ValueError as exc:
        raise ConfigError(f"d must be an integer, got {kv['d']!r}") from exc
    if d_override is not None:
        d = int(d_override)
    mu = _build_mu(kv.get("mu", "0" if d == 1 else ", ".join(["0"] * d)), d)
    sigma = _build_sigma(kv.get("sigma", "identity"), d)
    return MixtureParams(d, mu, sigma)


def load_model_file(path, d_override=None):
    """Read a model specification file into MixtureParams."""
    text = Path(path).read_text()
    return params_from_mapping(parse_kv_lines(text), d_override=d_override)
