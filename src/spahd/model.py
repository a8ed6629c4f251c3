"""Cumulant generating function models.

The central object is the symmetric two-component Gaussian mixture
(1/2) N(mu, sigma) + (1/2) N(-mu, sigma), whose moment generating function

    mgf(z) = exp(z' sigma z / 2) * cosh(<mu, z>)

stays positive on the real axis and extends to complex arguments
z = tau + i t.  GaussianMixture is the one model type: it gives real and
complex cgf evaluation, gradient, Hessian, and suprema of the third/fourth
derivative kernels over a (tau, t) region, all in closed form, and every
solver, quadrature and audit uses its (alpha, beta) structure directly
(CgfModel is kept as another name for it).  The only transcendental
ingredient is log cosh, evaluated through shifted forms that stay finite for
arguments far beyond the overflow point of cosh itself.

The complex extension enters the saddlepoint machinery only through the
ratio mgf(tau + i s) / mgf(tau), which for the mixture depends on s through
s' sigma s, <s, sigma tau> and beta = <mu, s> alone.  GaussianMixture.log_ratio
evaluates it for a whole batch of s, split into magnitude and phase; every
complex evaluation goes through it.  The magnitude part is branch-free.  The
phase uses the principal argument of the cosh factor; cgf_complex rejects
(PhaseBranchError) a total argument outside (-pi, pi) or a zero of cosh,
which is where the complex log stops being single-valued.
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


def _tanh_parts(alpha, beta):
    """(Re, Im) of tanh(alpha + i beta) in real arithmetic, finite at any alpha.

    tanh(a + i b) = (sinh 2a + i sin 2b) / (cosh 2a + cos 2b); scaled by
    2 exp(-2|a|) = 2e it is (sign(a)(1 - e)(1 + e) + 4i e sin b cos b) over
    (1 - e)^2 + 4e cos^2 b, which vanishes only at the zeros of cosh.
    """
    ax = np.abs(alpha)
    e = np.exp(-2.0 * ax)
    one_minus_e = -np.expm1(-2.0 * ax)
    c = np.cos(beta)
    den = one_minus_e * one_minus_e + 4.0 * e * c * c
    return np.sign(alpha) * one_minus_e * (1.0 + e) / den, 4.0 * e * np.sin(beta) * c / den


def _c34_from_tanh(x, y):
    """(k3, k4) = |2 Re[sech^2(w) tanh(w)]|, |2 Re[sech^2(w)(1 - 3 sech^2(w))]|
    from tanh(w) = x + i y, through sech^2 = 1 - tanh^2 = p + i q; x and y
    may be floats or arrays."""
    p = 1.0 - x * x + y * y
    q = -2.0 * x * y
    return abs(2.0 * (p * x - q * y)), abs(2.0 * (p - 3.0 * (p * p - q * q)))


def _c34_kernel_grids(alpha, beta):
    """(k3, k4) at w = alpha + i beta over broadcast arrays."""
    return _c34_from_tanh(*_tanh_parts(alpha, beta))


def _c34_kernel_at(alpha, beta):
    """(k3, k4) at one point w = alpha + i beta, on cmath.tanh."""
    t = cmath.tanh(complex(alpha, beta))
    return _c34_from_tanh(t.real, t.imag)


def _kernel(alpha, beta, which):
    a = np.atleast_1d(np.asarray(alpha, dtype=float)).ravel()
    b = np.atleast_1d(np.asarray(beta, dtype=float)).ravel()
    k = _c34_kernel_grids(*np.broadcast_arrays(a, b))[which]
    return k if k.size > 1 else float(k[0])


def c3_kernel(alpha, beta):
    """|2 Re[sech^2(w) tanh(w)]| at w = alpha + i beta (third-derivative kernel)."""
    return _kernel(alpha, beta, 0)


def c4_kernel(alpha, beta):
    """|2 Re[sech^2(w)(1 - 3 sech^2(w))]| at w = alpha + i beta (fourth-derivative kernel)."""
    return _kernel(alpha, beta, 1)


def cosh_factor(alpha: float, beta):
    """(x2, arg) of cosh(alpha + i beta) / cosh(alpha) at each beta.

    x2 = (sin(beta) sech(alpha))^2, so the ratio has modulus sqrt(1 - x2) and
    x2 >= 1 marks a zero of cosh; callers pick their own threshold for it.
    arg = atan2(tanh(alpha) sin(beta), cos(beta)) is its principal argument.
    """
    sb = np.sin(beta)
    return np.square(sb * sech(alpha)), np.arctan2(math.tanh(alpha) * sb, np.cos(beta))


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
        if np.max(np.abs(sigma - sigma.T)) > 1e-10 * scale:
            raise ModelDomainError("sigma is not symmetric")
        sigma = 0.5 * (sigma + sigma.T)
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
    quadratic forms in sigma, all evaluated in one place: log_ratio.
    """

    def __init__(self, params: MixtureParams):
        self.params = params
        self._mu = params.mu
        self._sigma = params.sigma
        self._mu_norm = float(np.linalg.norm(self._mu))
        # w = sigma^{-1} mu and g = <mu, w>, the fixed ingredients of the scalar
        # saddle equation and of ||H^{-1/2} mu||; log det sigma for log det H
        self._w = np.linalg.solve(self._sigma, self._mu)
        self._g = float(self._mu @ self._w)
        self._log_det_sigma = 2.0 * float(np.sum(np.log(np.diag(np.linalg.cholesky(self._sigma)))))
        self._c34_cache: dict[tuple[float, float], tuple[float, float]] = {}

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

    def log_ratio(self, tau, s):
        """(log |r|, arg r) of r = mgf(tau + i s) / mgf(tau) for each row of s.

        r = exp(-s' sigma s / 2 + i <s, sigma tau>) cosh(alpha + i beta) / cosh(alpha)
        with alpha = <mu, tau> and beta = <mu, s>.  The log-magnitude is -inf
        at a zero of cosh; the phase is <s, sigma tau> plus the principal
        argument of the cosh factor, with no branch check.
        """
        tau = self._check_vec(tau, "tau")
        s = np.asarray(s, dtype=float)
        if s.ndim != 2 or s.shape[1] != self.params.d:
            raise DimensionError(f"s has shape {s.shape}, expected (k, {self.params.d})")
        x2, arg = cosh_factor(float(self._mu @ tau), s @ self._mu)
        s_sigma = s @ self._sigma
        with np.errstate(divide="ignore"):
            log_mag = (-0.5 * np.einsum("ij,ij->i", s_sigma, s)
                       + 0.5 * np.log1p(-np.minimum(x2, 1.0)))
        return log_mag, s_sigma @ tau + arg

    def _ratio_row(self, tau, t):
        log_mag, phase = self.log_ratio(tau, self._check_vec(t, "t")[None, :])
        return float(log_mag[0]), float(phase[0])

    def cgf_complex(self, tau, t):
        """cgf at tau + i t as (log-magnitude, argument).

        The argument is <tau, sigma t> plus the principal argument of
        cosh(alpha + i beta); evaluation is rejected when that total leaves
        (-pi, pi) or the point is a zero of cosh.
        """
        log_mag, im = self._ratio_row(tau, t)
        if log_mag == -math.inf:
            raise PhaseBranchError(
                f"zero of cosh at alpha={float(self._mu @ tau):.6g}, "
                f"beta={float(self._mu @ t):.6g}; log branch undefined"
            )
        if abs(im) >= math.pi:
            raise PhaseBranchError(
                f"argument {im:.6g} outside the principal branch at "
                f"beta={float(self._mu @ t):.6g}"
            )
        return ComplexCgfValue(self.cgf_real(tau) + log_mag, im)

    def grad(self, tau):
        tau = self._check_vec(tau, "tau")
        return self._sigma @ tau + math.tanh(float(self._mu @ tau)) * self._mu

    def hessian(self, tau):
        tau = self._check_vec(tau, "tau")
        s = float(sech(self._mu @ tau))
        return self._sigma + (s * s) * np.outer(self._mu, self._mu)

    def log_ratio_magnitude(self, tau, t):
        """log |mgf(tau + i t) / mgf(tau)|; -inf at a zero of cosh."""
        return self._ratio_row(tau, t)[0]

    def phase_arg(self, tau, t):
        """Smooth phase of mgf(tau + i t): <tau, sigma t> + Arg cosh(alpha + i beta)."""
        return self._ratio_row(tau, t)[1]

    def whitened_mu_norm(self, alpha):
        """||H(alpha)^{-1/2} mu|| = sqrt(g / (1 + sech^2(alpha) g)) by rank-one
        inversion, elementwise over an array of alpha."""
        return np.sqrt(self._g / (1.0 + np.square(sech(alpha)) * self._g))

    def _c34_sup(self, tau_radius, t_radius, n_grid=201):
        """Grid + golden-section suprema of both derivative kernels.

        alpha ranges over |alpha| <= ||mu|| * tau_radius; for each alpha,
        beta ranges over |beta| <= ||H(alpha)^{-1/2} mu|| * t_radius, and the
        kernel is weighted by that whitened norm to the 3rd/4th power.  Both
        kernels and the norm are even in alpha and in beta, so the grid covers
        the quarter alpha >= 0, beta >= 0 only; each grid maximum is refined
        by golden-section searches on scalar evaluations.

        The region contains a zero of cosh, where both kernels are unbounded,
        exactly when ||H(0)^{-1/2} mu|| * t_radius >= pi/2; both suprema are
        then inf.  A pure Gaussian gives (0, 0).
        """
        if not (0 < tau_radius < math.inf and 0 < t_radius < math.inf):
            raise DimensionError(f"radii must be finite and > 0, got {tau_radius}, {t_radius}")
        key = (float(tau_radius), float(t_radius))
        hit = self._c34_cache.get(key)
        if hit is not None:
            return hit
        if self.is_pure_gaussian:
            out = (0.0, 0.0)
        elif self.whitened_mu_norm(0.0) * t_radius >= 0.5 * math.pi:
            out = (math.inf, math.inf)
        else:
            out = self._c34_quarter_sup(tau_radius, t_radius, n_grid)
        self._c34_cache[key] = out
        return out

    def _c34_quarter_sup(self, tau_radius, t_radius, n_grid):
        alphas = np.linspace(0.0, self._mu_norm * tau_radius, n_grid)
        rw = self.whitened_mu_norm(alphas)
        u = np.linspace(0.0, 1.0, n_grid)
        # 64 KiB row blocks stay under glibc's 128 KiB mmap threshold, so their
        # temporaries reuse heap memory; per-row first maxima keep the argmax order
        row_max, row_arg = np.empty((2, n_grid)), np.empty((2, n_grid), dtype=np.intp)
        step = max(1, 65536 // (8 * n_grid))
        for lo in range(0, n_grid, step):
            rows = slice(lo, lo + step)
            ks = _c34_kernel_grids(alphas[rows, None], rw[rows, None] * (t_radius * u))
            for which, k in enumerate(ks):
                f = k * (rw[rows] ** (3 + which))[:, None]
                row_arg[which, rows], row_max[which, rows] = np.argmax(f, 1), np.max(f, 1)

        g = self._g

        def norm_at(alpha):
            # whitened_mu_norm on one float, in the same operations
            s = _sech_float(alpha)
            return math.sqrt(g / (1.0 + s * s * g))

        def refine(which):
            power = 3 + which
            i = int(np.argmax(row_max[which]))
            j = int(row_arg[which, i])

            def eval_at(alpha, bfrac, r):
                return _c34_kernel_at(alpha, bfrac * t_radius * r)[which] * r**power

            best = float(row_max[which, i])
            a_lo = float(alphas[max(i - 1, 0)])
            a_hi = float(alphas[min(i + 1, n_grid - 1)])
            b_lo = float(u[max(j - 1, 0)])
            b_hi = float(u[min(j + 1, n_grid - 1)])
            a_star = float(alphas[i])
            b_star = float(u[j])
            for _ in range(2):
                r_star = norm_at(a_star)
                b_star, v = _golden_max(lambda b: eval_at(a_star, b, r_star), b_lo, b_hi)
                best = max(best, v)
                a_star, v = _golden_max(lambda a: eval_at(a, b_star, norm_at(a)), a_lo, a_hi)
                best = max(best, v)
            return best

        return refine(0), refine(1)

    def c3_sup(self, tau_radius, t_radius):
        """sup of the whitened third-derivative kernel over the (tau, t) region."""
        return self._c34_sup(tau_radius, t_radius)[0]

    def c4_sup(self, tau_radius, t_radius):
        """sup of the whitened fourth-derivative kernel over the (tau, t) region."""
        return self._c34_sup(tau_radius, t_radius)[1]

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
    if not np.all(np.isfinite(x)):
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


def _golden_max(f, lo, hi, tol=1e-10, max_iter=200):
    """Golden-section maximum of a unimodal-ish f on [lo, hi]."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while abs(b - a) > tol and it < max_iter:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        it += 1
    x = c if fc > fd else d
    return x, max(fc, fd)


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
