"""Cumulant generating function models.

The central object is the symmetric two-component Gaussian mixture
(1/2) N(mu, sigma) + (1/2) N(-mu, sigma), whose moment generating function

    mgf(z) = exp(z' sigma z / 2) * cosh(<mu, z>)

stays positive on the real axis and extends to complex arguments
z = tau + i t.  GaussianMixture is the one model type: it gives real and
complex cgf evaluation, gradient and Hessian in closed form, and certified
brackets of the suprema of the third/fourth derivative kernels over a
(tau, t) region (CgfModel is kept as another name for it).  The only
transcendental ingredient is log cosh, evaluated through shifted forms that
stay finite for arguments far beyond the overflow point of cosh itself.

Past sigma, the mixture sees a complex point only through alpha = <mu, tau>
and beta = <mu, t>.  cosh_factor gives the magnitude and phase of
cosh(alpha + i beta) / cosh(alpha), and _exponent the whitened exponent
built on it, which the contour quadrature, g_function and the assumption
audits evaluate.  The derivative kernels and the branch and bound that
brackets their suprema live in suprema.py; c34_brackets is its one entry.
cgf_complex adds the quadratic and linear terms in sigma to the cosh factor;
it rejects (PhaseBranchError) a total argument outside (-pi, pi) or a zero
of cosh, where the complex log stops being single-valued.  The model file
reader, parse_kv_lines to load_model_file, closes the module.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, DimensionError, ModelDomainError, PhaseBranchError,
                     StandardizationError)
from .suprema import _EXP_CLAMP, _c34_kernels, _certified_sup

_LOG2 = math.log(2.0)

# argmax of 2 sech^2(x) tanh(x) on [0, inf); the kernel rises to 4/(3 sqrt 3)
# there and decays afterwards
_K3_ARGMAX = math.atanh(1.0 / math.sqrt(3.0))


def logcosh(x):
    """log cosh(x), overflow-free: |x| + log1p(exp(-2|x|)) - log 2."""
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * np.minimum(ax, _EXP_CLAMP))) - _LOG2


def sech(x):
    """1/cosh(x) without overflow: 2 exp(-|x|) / (1 + exp(-2|x|))."""
    ax = np.abs(x)
    e = np.exp(-ax)
    return 2.0 * e / (1.0 + e * e)


def _sech_float(x: float) -> float:
    """sech on one float, in the operations of sech."""
    e = math.exp(-abs(x))
    return 2.0 * e / (1.0 + e * e)


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
    Gaussian, which every routine accepts (is_pure_gaussian flags it).  The
    Cholesky factor that checks sigma is kept, sigma = chol chol', with its
    inverse chol_inv; log det sigma, w = sigma^-1 mu, the oracle's whitening
    at every n and the Monte Carlo draws read them, so no other code factors
    sigma.
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
            # sigma = L L'; L and L^-1, set once here, serve every user of a factor
            chol = np.linalg.cholesky(sigma)
            chol_inv = np.linalg.solve(chol, np.eye(self.d))
        except np.linalg.LinAlgError as exc:
            raise ModelDomainError("sigma is not positive definite") from exc
        for name, value in (("mu", mu), ("sigma", sigma), ("chol", chol), ("chol_inv", chol_inv)):
            object.__setattr__(self, name, value)

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
        # w = sigma^{-1} mu = L^-T L^-1 mu from the kept factor, and g = <mu, w>,
        # the fixed ingredients of the scalar saddle equation and of
        # ||H^{-1/2} mu||; log det sigma for log det H
        with np.errstate(over="ignore", invalid="ignore"):
            self._w = params.chol_inv.T @ (params.chol_inv @ self._mu)
            self._g = float(self._mu @ self._w)
        if not math.isfinite(self._g):
            raise ModelDomainError("<mu, sigma^-1 mu> leaves the double range")
        self._log_det_sigma = 2.0 * float(np.sum(np.log(np.diag(params.chol))))
        # the diagonal of a diagonal sigma, which the saddle solves by division
        diag = np.diag(self._sigma)
        self._sigma_diag = diag if np.array_equal(self._sigma, np.diag(diag)) else None

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

    # past the double range cgf_real, grad and hessian read inf, quietly; where
    # products of both signs overflow in a matmul and meet as inf - inf, cgf_real
    # and grad take them again from tau and sigma scaled to max |entry| 1 (only
    # then, so the fast forms cost nothing more).  The saddle batch, already
    # under one np.errstate, calls _cgf_real and _grad so that its rows pay for
    # no errstate entry of their own
    def cgf_real(self, tau):
        tau = self._check_vec(tau, "tau")
        with np.errstate(over="ignore", invalid="ignore"):
            value = self._cgf_real(tau)
            if math.isfinite(value):
                return value
            alpha, _, quad = self._scaled(tau)
            return 0.5 * quad + float(logcosh(alpha))

    def _cgf_real(self, tau):
        return 0.5 * float(tau @ (self._sigma @ tau)) + float(logcosh(self._mu @ tau))

    def _scaled(self, tau):
        """(<mu, tau>, sigma tau, tau' sigma tau), each product taken with tau
        and sigma scaled to max |entry| 1 and scaled back at the end, so that
        an overflow reads inf of the right sign; called under np.errstate."""
        t_max = float(np.max(np.abs(tau)))
        s_max = float(np.max(np.abs(self._sigma)))
        unit_tau = tau / t_max
        sigma_tau = (self._sigma / s_max) @ unit_tau
        return (float(self._mu @ unit_tau) * t_max, sigma_tau * s_max * t_max,
                float(unit_tau @ sigma_tau) * s_max * t_max * t_max)

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
        with np.errstate(over="ignore", invalid="ignore"):
            value = self._grad(tau)
            if np.all(np.isfinite(value)):
                return value
            alpha, sigma_tau, _ = self._scaled(tau)
            return sigma_tau + math.tanh(alpha) * self._mu

    def _grad(self, tau):
        return self._sigma @ tau + math.tanh(float(self._mu @ tau)) * self._mu

    def hessian(self, tau):
        tau = self._check_vec(tau, "tau")
        with np.errstate(over="ignore", invalid="ignore"):
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
        hi <= lo (1 + 1e-6) wherever the branch and bound of suprema.py
        closes within its work limit.  It may not where the kernels
        oscillate over many periods of beta (g = <mu, sigma^{-1} mu> of 1e3
        and more), or within about 1e-8 (relative) of the pole condition
        below, where the allowance for rounding alone passes 1e-6: hi is
        then still an upper bound, with a wider gap (at least a 50-digit scan
        of the kernel in 43 seeded regions within 1e-9 to 1e-5 of the
        condition).  Near it the search halves its elements for many rounds
        (30 at 1e-8 and 35 at 1e-10 of it for g = 1).  hi is inf, and so
        still an upper bound, where the weight overflows, which takes g past
        about 1e154 and alpha past about log(g) / 2.  The region contains a
        zero of cosh, where both kernels are unbounded, exactly when
        ||H(0)^{-1/2} mu|| * t_radius >= pi/2; every bound is then inf.  A
        pure Gaussian gives zeros.  Raises DimensionError unless both radii
        are finite and > 0 and ||mu|| * tau_radius is finite.  A batch of
        one c34_brackets, so the instance keeps nothing of the search.
        """
        bracket, = self.c34_brackets([(tau_radius, t_radius)])
        if isinstance(bracket, DimensionError):
            raise bracket
        return bracket

    def c34_brackets(self, regions):
        """c34_bracket of each (tau_radius, t_radius) region, or the
        DimensionError it raises, in place.  The distinct regions that need
        a search share one _certified_sup call; nothing is kept."""
        out, todo = [], {}
        for tau_radius, t_radius in regions:
            if not (0 < tau_radius < math.inf and 0 < t_radius < math.inf):
                out.append(DimensionError(f"radii must be finite and > 0, "
                                          f"got {tau_radius}, {t_radius}"))
            elif self._mu_norm * tau_radius == math.inf:
                out.append(DimensionError(f"the alpha range ||mu|| tau_radius leaves the "
                                          f"double range at tau_radius = {tau_radius}"))
            elif self.is_pure_gaussian:
                out.append(((0.0, 0.0), (0.0, 0.0)))
            elif self.whitened_mu_norm(0.0) * t_radius >= 0.5 * math.pi:
                out.append(((math.inf, math.inf), (math.inf, math.inf)))
            else:
                # the search's index, for the bracket it finds
                out.append(todo.setdefault((float(tau_radius), float(t_radius)), len(todo)))
        found = _certified_sup([(self._g, self._mu_norm * tau_radius, t_radius)
                                for tau_radius, t_radius in todo]) if todo else ()
        return [found[x] if isinstance(x, int) else x for x in out]

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
        a = min(radius * self._mu_norm, _K3_ARGMAX)
        return float(_c34_kernels(a, 0.0)[0]) * self._mu_norm**3


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


def require_standardized(params, what):
    """StandardizationError unless the second moment sigma + mu mu', which is
    also hessian(0), is the identity to within 1e-10 in every entry.  mu mu'
    overflows quietly to inf, which fails the check."""
    with np.errstate(over="ignore"):
        second = params.second_moment()
    if np.max(np.abs(second - np.eye(params.d))) > 1e-10:
        raise StandardizationError(f"{what} needs sigma + mu mu' = identity; "
                                   "use MixtureParams.standardized()")


# --- model file parsing ---------------------------------------------------
#
# Plain key = value lines, '#' comments.  Keys: d, mu, sigma.
#   mu:    "ones*0.5" | "ones" | "unit*0.7" | "unit" | "1.0, 0.0"
#   sigma: "identity" | "diag 2.0, 1.0" | "1.0 0.0; 0.0 2.0"
# Exact grammar in README.md.

# Largest d a model file, its --dim override or a spec's d_grid may ask for:
# building a model peaks at about 48 bytes per d^2 (about 200 MB at 2048), so a
# larger d is refused before anything d-sized is built.  MixtureParams built
# in code is not limited.
MAX_D = 2048


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


def to_numbers(key, tokens, kind=float):
    """The tokens of key's value as numbers of kind (int or float);
    ConfigError naming key and the first token that is not one."""
    out = []
    for tok in tokens:
        try:
            out.append(kind(tok))
        except ValueError:
            raise ConfigError(f"{key}: cannot read {tok!r} as {kind.__name__}") from None
    return out


def check_keys(kv, known, what):
    """ConfigError naming every key of kv that a `what` file does not know."""
    unknown = sorted(set(kv) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} key(s) {unknown}; known: {', '.join(known)}")


def _build_mu(spec_text, d):
    text = spec_text.strip().lower()
    m = _re.fullmatch(r"(ones|unit)(?:\s*\*\s*([-+0-9.eE]+))?", text)
    if m:
        scale = to_numbers("mu", [m.group(2)])[0] if m.group(2) else 1.0
        if m.group(1) == "ones":
            return scale * np.ones(d)
        mu = np.zeros(d)
        mu[0] = scale
        return mu
    vals = to_numbers("mu", spec_text.replace(",", " ").split())
    if len(vals) != d:
        raise ConfigError(f"mu has {len(vals)} entries, model has d = {d}")
    return np.array(vals)


def _build_sigma(spec_text, d):
    text = spec_text.strip().lower()
    if text == "identity":
        return np.eye(d)
    if text.startswith("diag"):
        vals = to_numbers("sigma", spec_text.strip()[4:].lstrip(" :").replace(",", " ").split())
        if len(vals) != d:
            raise ConfigError(f"diag sigma has {len(vals)} entries, model has d = {d}")
        return np.diag(vals)
    rows = [to_numbers("sigma", r.replace(",", " ").split()) for r in spec_text.split(";")
            if r.strip()]
    if len(rows) != d or any(len(row) != d for row in rows):
        raise ConfigError(f"sigma rows have {[len(row) for row in rows]} entries, model has d = {d}")
    return np.array(rows)


def params_from_mapping(kv, d_override=None):
    """MixtureParams from parsed key/value strings, optionally re-instantiated at another d."""
    check_keys(kv, ("d", "mu", "sigma"), "model")
    if "d" not in kv:
        raise ConfigError("model file must set d")
    d = to_numbers("d", [kv["d"]], int)[0]
    if d_override is not None:
        d = int(d_override)
    if d < 1:
        raise ConfigError(f"d must be >= 1, got {d}")
    if d > MAX_D:
        raise DimensionError(f"d = {d} is past MAX_D = {MAX_D}")
    mu = _build_mu(kv["mu"], d) if "mu" in kv else np.zeros(d)
    sigma = _build_sigma(kv.get("sigma", "identity"), d)
    return MixtureParams(d, mu, sigma)


def load_model_file(path, d_override=None):
    """Read a model specification file into MixtureParams."""
    text = Path(path).read_text()
    return params_from_mapping(parse_kv_lines(text), d_override=d_override)
