"""Correction factor I(a) by contour quadrature, and assumption audits.

After whitening with S = H^{-1/2} the correction factor is

    I(a) = (n / 2 pi)^{d/2} * integral over R^d of exp(-n g(t)) dt,
    g(t) = -phi(tau + i S t) + phi(tau) + i <S t, a>,

with g(t) ~ ||t||^2 / 2 near the origin, so the integrand is a perturbed
standard Gaussian at scale 1/sqrt(n).  For the mixture, M1 = S sigma S
equals I - sech^2(alpha) v2 v2' with v2 = S mu, and the integrand sees t only
through t' M1 t and beta = <v2, t>; the directions orthogonal to v2 are an
exact standard Gaussian and integrate to one, which leaves a 1-d integral
along v2 at any d, on panels of width 1/sqrt(n).  The panels reach until the
Gaussian envelope at the ends is below 1e-16, and every result is validated
by a second pass at a finer rule.  The quadrature, g_function and the
assumption audit accept a GaussianMixture only (ConfigError otherwise): they
read its ratio mgf(tau + i s) / mgf(tau) through GaussianMixture.log_ratio
and cosh_factor.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolationError,
    ConfigError,
    DimensionError,
    QuadratureError,
)
from .model import CgfModel, check_point, cosh_factor, require_mixture, sech
from .saddle import SaddlePoint, whitened_hessian_factors
from .spa import check_sample_size, tail_bound_terms

_SURFACE_FLOOR = 1e-16
_PANEL_CAP = 200
_AGREEMENT_RTOL = 1e-6
_ENV_SLACK = 1e-3


@dataclass(frozen=True)
class QuadSpec:
    """Quadrature controls.  Coarser settings than the floors are refused."""

    nodes_per_axis: int = 24
    trunc_radius: float = 2.5
    rule: str = "gauss_legendre"

    def __post_init__(self):
        if self.nodes_per_axis < 16:
            raise ConfigError(f"nodes_per_axis must be >= 16, got {self.nodes_per_axis}")
        if self.trunc_radius < 2.5:
            raise ConfigError(f"trunc_radius must be >= 2.5, got {self.trunc_radius}")
        if self.rule not in ("gauss_legendre", "trapezoid"):
            raise ConfigError(f"unknown rule {self.rule!r}")


@dataclass(frozen=True)
class CorrectionResult:
    """Quadrature value of I(a) with the evidence behind it.

    nodes_used counts integrand evaluations over both passes, 1-d nodes along
    v2; panels_per_axis counts the panels along v2.
    """

    i_value: complex
    abs_err_from_one: float
    tail_estimate: float
    nodes_used: int
    panels_per_axis: int


@dataclass(frozen=True)
class AssumptionReport:
    """Sampled evidence for the contour-tail and branch assumptions."""

    kappa_est: float
    delta_arg: float
    delta_mod: float
    magnitude_violations: int
    exp_branch_violations: int
    samples: int
    note: str


def g_function(model: CgfModel, saddle: SaddlePoint, t) -> complex:
    """Whitened exponent g(t); g(0) = 0 and g(t) ~ ||t||^2 / 2 near zero."""
    require_mixture(model, "g_function")
    t = check_point(t, model.dim, "t")
    s_mat, _ = whitened_hessian_factors(saddle)
    s = s_mat @ t
    log_mag, phase = model.log_ratio(saddle.tau, s[None, :])
    return complex(-float(log_mag[0]), float(s @ saddle.a) - float(phase[0]))


@functools.lru_cache(maxsize=8)
def _leggauss(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, once per count."""
    xi, wi = np.polynomial.legendre.leggauss(nodes)
    xi.flags.writeable = wi.flags.writeable = False
    return xi, wi


def _axis_rule(m: int, h: float, nodes_per_axis: int, rule: str):
    """1-d nodes and weights over [-m h, m h]."""
    if rule == "gauss_legendre":
        xi, wi = _leggauss(nodes_per_axis)
        centers = (np.arange(-m, m) + 0.5) * h
        x = (centers[:, None] + 0.5 * h * xi[None, :]).ravel()
        w = np.tile(0.5 * h * wi, 2 * m)
        return x, w
    n_int = 2 * m * nodes_per_axis
    x = np.linspace(-m * h, m * h, n_int + 1)
    w = np.full(n_int + 1, 2.0 * m * h / n_int)
    w[0] *= 0.5
    w[-1] *= 0.5
    return x, w


def _ball_phase_check(model, saddle, s_mat, r0, n_dirs=192, n_radii=8, seed=0):
    """Reject if the complex exponent leaves the principal branch inside the
    trust ball ||t|| <= r0, where the quadrature treats the phase as smooth."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBA11]))
    u = rng.standard_normal((n_dirs, model.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    radii = r0 * (np.arange(1, n_radii + 1) / n_radii)
    t = (radii[:, None, None] * u[None, :, :]).reshape(-1, model.dim)
    alpha = float(model.params.mu @ saddle.tau)
    beta = t @ (s_mat @ model.params.mu)
    x2, arg = cosh_factor(alpha, beta)
    if np.any(x2 >= 1.0 - 1e-15):
        raise AssumptionViolationError("zero of the complex exponent inside the trust ball")
    phase = t @ (s_mat @ saddle.a) - math.tanh(alpha) * beta + arg
    worst = float(np.max(np.abs(phase)))
    if worst >= math.pi:
        raise AssumptionViolationError(
            f"phase reaches {worst:.6f} >= pi inside the trust ball "
            f"(r0 = {r0:.6g}); the branch assumption fails at this point"
        )


def _panel_count_mixture(lam, trunc_radius):
    """Half-panel count along v2 at panel width 1/sqrt(n): enough that
    exp(-n (m h)^2 lam / 2) is below the surface floor at both ends."""
    reach = math.sqrt(-2.0 * math.log(_SURFACE_FLOOR) / lam) if lam > 0.0 else math.inf
    if max(trunc_radius, reach) + 1 > _PANEL_CAP:
        raise QuadratureError(
            f"integrand magnitude does not decay within {_PANEL_CAP} panels"
        )
    return max(math.ceil(trunc_radius), math.ceil(reach)) + 1


def correction_integral(
    model: CgfModel,
    saddle: SaddlePoint,
    n: int,
    spec: QuadSpec | None = None,
    kappa: float = 1.0,
) -> CorrectionResult:
    """Correction factor at a saddle, with a two-resolution agreement check.

    Integrates along v2 alone, at any d.  Raises ConfigError for a model
    that is not a GaussianMixture, QuadratureError when the coarse and fine
    passes disagree beyond 1e-6 relative, and AssumptionViolationError when
    the phase-branch check fails inside the trust ball.  The returned value
    is from the finer pass.
    """
    require_mixture(model, "correction_integral")
    d = model.dim
    n = check_sample_size(n)
    spec = spec or QuadSpec()
    s_mat, _ = whitened_hessian_factors(saddle)
    _ball_phase_check(model, saddle, s_mat, spec.trunc_radius * math.sqrt(d / n))

    # M1 = S sigma S = I - sech^2(alpha) v2 v2' with v2 = S mu, and the
    # integrand sees t only through t' M1 t and beta = <v2, t>.  Orthogonal
    # to v2 it is the standard Gaussian at scale 1/sqrt(n) and integrates
    # to one, so I(a) is exactly the 1-d integral along v2, where M1 has
    # the eigenvalue lam.
    alpha = float(model.params.mu @ saddle.tau)
    v2_norm = float(np.linalg.norm(s_mat @ model.params.mu))
    lam = 1.0 - float(sech(alpha)) ** 2 * v2_norm**2
    ta = math.tanh(alpha)
    h = 1.0 / math.sqrt(n)
    m = _panel_count_mixture(lam, spec.trunc_radius)

    def integral(nodes_per_axis):
        x, w = _axis_rule(m, h, nodes_per_axis, spec.rule)
        beta = v2_norm * x
        x2, arg = cosh_factor(alpha, beta)
        with np.errstate(divide="ignore"):
            re = -0.5 * lam * x * x + 0.5 * np.log1p(-np.minimum(x2, 1.0))
        mag = np.exp(n * re)
        phase = n * (arg - ta * beta)
        total = complex(np.sum(w * (mag * np.cos(phase) + 1j * (mag * np.sin(phase)))))
        return (n / (2.0 * math.pi)) ** 0.5 * total, len(x)

    if spec.rule == "gauss_legendre":
        fine_nodes = spec.nodes_per_axis + 8
    else:
        fine_nodes = 2 * spec.nodes_per_axis
    coarse, coarse_count = integral(spec.nodes_per_axis)
    fine, fine_count = integral(fine_nodes)
    gap = abs(coarse - fine) / max(1.0, abs(fine))
    if gap > _AGREEMENT_RTOL:
        raise QuadratureError(
            f"quadrature passes disagree: |{coarse:.9g} - {fine:.9g}| "
            f"relative gap {gap:.3g} exceeds {_AGREEMENT_RTOL:g}"
        )
    tails = tail_bound_terms(d, n, kappa)
    return CorrectionResult(
        i_value=complex(fine),
        abs_err_from_one=abs(fine - 1.0),
        tail_estimate=float(sum(tails)),
        nodes_used=coarse_count + fine_count,
        panels_per_axis=2 * m,
    )


def _shell_radii(d, n, trunc_radius=2.5):
    """Inside, shell, and far-field radii in the whitened coordinate."""
    r0 = trunc_radius * math.sqrt(d / n)
    inside = r0 * (np.arange(1, 9) / 8.0)
    shell = np.geomspace(r0, 20.0 * r0, 24)
    far = np.geomspace(20.0 * r0, 1e3, 9)[1:]
    return r0, inside, np.concatenate([shell, far])


def check_assumptions(
    model: CgfModel,
    tau_samples,
    n: int,
    sample_count: int = 2000,
    seed: int = 0,
) -> AssumptionReport:
    """Sample the contour assumptions around the given expansion points.

    For each tau the exponent ratio m(s) = |e^{phi(tau+is) - phi(tau)}| is
    probed on whitened shells.  Outside the trust ball a point is covered by
    the Gaussian envelope m(s) <= exp(-kappa^2 ||s||^2 / 2) at the nominal
    kappa = 1 (with a 0.1% slack, since at the ball boundary the envelope
    holds with near-equality and exact-threshold failures mean nothing), or
    by n-th power underflow (n log m below the double floor); points covered
    by neither count as exp_branch_violations.  kappa_est is the largest
    envelope rate valid at every sampled point, delta_mod the smallest
    magnitude gap outside the ball, delta_arg the phase margin to the branch
    edge inside it.
    """
    require_mixture(model, "check_assumptions")
    n = check_sample_size(n)
    d = model.dim
    tau_list = [check_point(t, d, "tau sample") for t in tau_samples]
    if not tau_list:
        raise DimensionError("tau_samples must contain at least one point")
    r0, inside_r, outside_r = _shell_radii(d, n)
    n_radii = len(inside_r) + len(outside_r)
    n_dirs = max(4, sample_count // (n_radii * len(tau_list)))
    kappa_min = math.inf
    delta_arg = math.pi
    delta_mod = math.inf
    mag_viol = 0
    exp_viol = 0
    samples = 0
    underflow_only = True
    for idx, tau in enumerate(tau_list):
        hess = model.hessian(tau)
        evals, evecs = np.linalg.eigh(hess)
        s_mat = (evecs / np.sqrt(evals)) @ evecs.T
        rng = np.random.default_rng(np.random.SeedSequence([seed, idx]))
        u = rng.standard_normal((n_dirs, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)

        def shell_points(radii):
            return (radii[:, None, None] * u[None, :, :]).reshape(-1, d) @ s_mat.T

        _, phase = model.log_ratio(tau, shell_points(inside_r))
        delta_arg = min(delta_arg, float(np.min(math.pi - np.abs(phase))))
        log_m, _ = model.log_ratio(tau, shell_points(outside_r))
        samples += len(phase) + len(log_m)
        flat = log_m >= 0.0
        mag_viol += int(np.count_nonzero(flat))
        log_m = log_m[~flat]
        if not log_m.size:
            continue
        r = np.repeat(outside_r, n_dirs)[~flat]
        delta_mod = min(delta_mod, float(np.min(-log_m)))
        # the envelope rate lives in the whitened variable the correction
        # integral runs over, so the radius is r, not ||s||
        point_kappa = np.sqrt(-2.0 * log_m) / r
        covered_env = log_m <= -0.5 * r * r * (1.0 - _ENV_SLACK)
        covered_pow = n * log_m <= -745.0
        exp_viol += int(np.count_nonzero(~(covered_env | covered_pow)))
        if not np.all(covered_pow):
            underflow_only = False
            kappa_min = min(kappa_min, float(np.min(point_kappa[~covered_pow])))
    if underflow_only:
        note = "n-th power underflows at every sampled point beyond the trust ball"
        kappa_est = math.inf
    else:
        note = ""
        kappa_est = kappa_min
    if mag_viol:
        note = (note + "; " if note else "") + (
            f"{mag_viol} sampled points show no magnitude decay"
        )
    return AssumptionReport(
        kappa_est=kappa_est,
        delta_arg=delta_arg,
        delta_mod=delta_mod,
        magnitude_violations=mag_viol,
        exp_branch_violations=exp_viol,
        samples=samples,
        note=note,
    )
