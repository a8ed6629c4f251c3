"""Correction factor I(a) by contour quadrature, and assumption audits.

After whitening with S = H^{-1/2} the correction factor is

    I(a) = (n / 2 pi)^{d/2} * integral over R^d of exp(-n g(t)) dt,
    g(t) = -phi(tau + i S t) + phi(tau) + i <S t, a>,

with g(t) ~ ||t||^2 / 2 near the origin.  For the mixture, with alpha =
<mu, tau> and v2 = S mu, the term <S t, sigma tau> of the mgf ratio's phase
cancels against <S t, a>, and

    -g(t) = -||t||^2/2 + sech^2(alpha) beta^2/2 + log(cosh(alpha + i beta)/cosh(alpha))
            - i tanh(alpha) beta,    beta = <v2, t>,

so g sees the model only through alpha and ||v2|| (whitened_mu_norm);
g_function, the quadrature and the audits all evaluate it by model._exponent.
Orthogonal to v2 the integrand is an exact standard Gaussian at scale
1/sqrt(n) and integrates to one, which leaves a 1-d integral along v2 at
any d, by Gauss-Legendre on panels of width 1/sqrt(n).  The panels reach
until the Gaussian envelope at the ends is below 1e-16, and every result is
validated by a second pass with 8 more nodes per panel.  The assumption
audits scan the same (||t||, beta) plane in beta, so they miss no direction
and cost the same at every d.  The quadrature, g_function and the audits
accept a GaussianMixture only (ConfigError otherwise).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolationError, ConfigError, DimensionError, QuadratureError
from .model import GaussianMixture, _exponent, check_point, is_count, require_mixture, sech
from .saddle import SaddlePoint
from .spa import TRUNC_RADIUS, check_sample_size, tail_bound_terms

_SURFACE_FLOOR = 1e-16
_PANEL_CAP = 200
_AGREEMENT_RTOL = 1e-6
_ENV_SLACK = 1e-3
# x2 at or above this marks a zero of cosh, where -g has no log branch
_ZERO_X2 = 1.0 - 1e-15


@dataclass(frozen=True)
class QuadSpec:
    """Gauss-Legendre nodes per panel of the coarse pass (the fine pass adds 8); >= 16."""

    nodes_per_axis: int = 24

    def __post_init__(self):
        if not is_count(self.nodes_per_axis, 16):
            raise ConfigError(f"nodes_per_axis must be a whole number >= 16, got {self.nodes_per_axis}")
        object.__setattr__(self, "nodes_per_axis", int(self.nodes_per_axis))


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
    """Evidence for the contour-tail and branch assumptions, from scans over
    beta on whitened shells; samples counts the (||t||, beta) points."""

    kappa_est: float
    delta_arg: float
    delta_mod: float
    magnitude_violations: int
    exp_branch_violations: int
    samples: int
    note: str


def g_function(model: GaussianMixture, saddle: SaddlePoint, t) -> complex:
    """Whitened exponent g(t); g(0) = 0 and g(t) ~ ||t||^2 / 2 near zero.

    The reduced form of the module docstring at beta = <v2, t>, with
    v2 = H^{-1/2} mu for the symmetric root of H(tau).
    """
    require_mixture(model, "g_function")
    t = check_point(t, model.dim, "t")
    mu = model.params.mu
    vals, vecs = np.linalg.eigh(model.hessian(saddle.tau))
    v2 = vecs @ ((vecs.T @ mu) / np.sqrt(vals))
    log_mag, phase, _ = _exponent(float(mu @ saddle.tau), float(np.linalg.norm(t)), float(v2 @ t))
    return complex(-float(log_mag), -float(phase))


@functools.lru_cache(maxsize=8)
def _leggauss(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], read-only, once per count."""
    xi, wi = np.polynomial.legendre.leggauss(nodes)
    xi.flags.writeable = wi.flags.writeable = False
    return xi, wi


def _axis_rule(m: int, h: float, nodes_per_axis: int):
    """Gauss-Legendre nodes and weights over [-m h, m h], on 2m panels of width h."""
    xi, wi = _leggauss(nodes_per_axis)
    centers = (np.arange(-m, m) + 0.5) * h
    x = (centers[:, None] + 0.5 * h * xi[None, :]).ravel()
    w = np.tile(0.5 * h * wi, 2 * m)
    return x, w


def _ball_phase_check(alpha, v2_norm, r0):
    """Reject if e^{-g} reaches a zero of cosh or its phase reaches pi inside
    the trust ball ||t|| <= r0, that is over |beta| <= b = ||v2|| r0, where the
    quadrature treats the phase as smooth.

    The verdict reads the exact extremes over |beta| <= b, both even in beta:
      - |cosh(alpha + i beta) / cosh(alpha)|^2 = 1 - x2 is smallest at
        beta = min(b, pi/2), where x2 = sech^2(alpha) sin^2(beta) peaks.  It is 0,
        a zero of cosh, exactly when alpha = 0 and b >= pi/2.
      - The phase Arg cosh(alpha + i beta) - tanh(alpha) beta has derivative
        Re tanh(alpha + i beta) - tanh(alpha) = sinh(2 alpha) / (cosh(2 alpha)
        + cos(2 beta)) - tanh(alpha), of the sign of alpha, so |phase| is
        largest at beta = b as long as b < pi; at beta = pi the principal
        argument wraps.  The check rejects b >= pi, and a phase at beta = b
        that reaches pi in doubles: its margin to pi, of order |alpha|, is then
        below the resolution of pi (at n = d = 8, mu = 1.2 e1 and sigma = I,
        a = 1e-17 e1 is rejected and a = 1e-12 e1, with margin 2.3e-12, is not).
    """
    b = v2_norm * r0
    if alpha == 0.0 and b >= 0.5 * math.pi:
        raise AssumptionViolationError("zero of the complex exponent inside the trust ball")
    worst = math.pi if b >= math.pi else abs(float(_exponent(alpha, 0.0, b)[1]))
    if worst >= math.pi:
        raise AssumptionViolationError(
            f"phase reaches {worst:.6f} >= pi inside the trust ball "
            f"(r0 = {r0:.6g}); the branch assumption fails at this point"
        )


def _panel_count_mixture(lam):
    """Half-panel count along v2 at panel width 1/sqrt(n), at least TRUNC_RADIUS:
    enough that exp(-n (m h)^2 lam / 2) is below the surface floor at both ends."""
    reach = math.sqrt(-2.0 * math.log(_SURFACE_FLOOR) / lam) if lam > 0.0 else math.inf
    if reach + 1 > _PANEL_CAP:
        raise QuadratureError(f"integrand magnitude does not decay within {_PANEL_CAP} panels")
    return math.ceil(max(TRUNC_RADIUS, reach)) + 1


def correction_integral(
    model: GaussianMixture,
    saddle: SaddlePoint,
    n: int,
    spec: QuadSpec | None = None,
    kappa: float = 1.0,
) -> CorrectionResult:
    """Correction factor at a saddle, with a two-resolution agreement check.

    Integrates along v2 alone, at any d.  Raises ConfigError for a model
    that is not a GaussianMixture, QuadratureError when the coarse and fine
    passes disagree beyond 1e-6 relative, and AssumptionViolationError when
    the trust ball reaches a zero of cosh or a phase |Im g| >= pi.  The
    returned value is from the finer pass.
    """
    require_mixture(model, "correction_integral")
    d = model.dim
    n = check_sample_size(n)
    spec = spec or QuadSpec()
    alpha = float(model.params.mu @ saddle.tau)
    v2_norm = float(model.whitened_mu_norm(alpha))
    _ball_phase_check(alpha, v2_norm, TRUNC_RADIUS * math.sqrt(d / n))

    # along v2, ||t|| = |x| and beta = ||v2|| x, so log |e^{-g}| is
    # -lam x^2 / 2 + log1p(-x2) / 2 with lam the eigenvalue of S sigma S on v2
    lam = 1.0 - float(sech(alpha)) ** 2 * v2_norm**2
    h = 1.0 / math.sqrt(n)
    m = _panel_count_mixture(lam)

    def integral(nodes_per_axis):
        x, w = _axis_rule(m, h, nodes_per_axis)
        log_mag, phase, _ = _exponent(alpha, x, v2_norm * x)
        mag = np.exp(n * log_mag)
        phase = n * phase
        total = complex(np.sum(w * (mag * np.cos(phase) + 1j * (mag * np.sin(phase)))))
        return (n / (2.0 * math.pi)) ** 0.5 * total, len(x)

    coarse, coarse_count = integral(spec.nodes_per_axis)
    fine, fine_count = integral(spec.nodes_per_axis + 8)
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


def _shell_radii(d, n):
    """Inside, shell, and far-field radii in the whitened coordinate."""
    r0 = TRUNC_RADIUS * math.sqrt(d / n)
    inside = r0 * (np.arange(1, 9) / 8.0)
    shell = np.geomspace(r0, 20.0 * r0, 24)
    far = np.geomspace(20.0 * r0, 1e3, 9)[1:]
    return r0, inside, np.concatenate([shell, far])


def check_assumptions(
    model: GaussianMixture,
    tau_samples,
    n: int,
    sample_count: int = 2000,
    seed: int = 0,
) -> AssumptionReport:
    """Audit the contour assumptions around the given expansion points.

    For each tau, m = |e^{-g}| = |mgf(tau + i s) / mgf(tau)| is scanned on
    whitened shells ||t|| = r over evenly spaced beta = <v2, t> in
    [0, ||v2|| r], which covers every direction since m is even in beta.
    Outside the trust ball a point is covered by the Gaussian envelope
    m <= exp(-kappa^2 r^2 / 2) at the nominal kappa = 1 (with a 0.1% slack,
    since at the ball boundary the envelope holds with near-equality), or by
    n-th power underflow (n log m below the double floor); points covered by
    neither count as exp_branch_violations.  kappa_est is the largest
    envelope rate valid at every scanned point, delta_mod the smallest
    magnitude gap outside the ball, delta_arg the margin of |Im g| to pi
    inside it (at most 0 at a zero of cosh).  sample_count sets the beta
    points per shell (at least 4); seed has no effect, nothing is random.
    """
    require_mixture(model, "check_assumptions")
    n = check_sample_size(n)
    sample_count = check_sample_size(sample_count, "sample_count")
    d = model.dim
    tau_list = [check_point(t, d, "tau sample") for t in tau_samples]
    if not tau_list:
        raise DimensionError("tau_samples must contain at least one point")
    _, inside_r, outside_r = _shell_radii(d, n)
    radii = np.concatenate([inside_r, outside_r])[:, None]
    n_in = len(inside_r)
    u = np.linspace(0.0, 1.0, max(4, sample_count // (len(radii) * len(tau_list))))
    r = np.repeat(outside_r, len(u))
    kappa_est = delta_mod = math.inf
    delta_arg = math.pi
    mag_viol = exp_viol = samples = 0
    for tau in tau_list:
        alpha = float(model.params.mu @ tau)
        beta = float(model.whitened_mu_norm(alpha)) * radii * u
        log_mag, phase, x2 = _exponent(alpha, radii, beta)
        samples += log_mag.size
        delta_arg = min(delta_arg, math.pi - float(np.max(np.abs(phase[:n_in]))))
        if np.any(x2[:n_in] >= _ZERO_X2):
            delta_arg = min(delta_arg, 0.0)
        log_m = log_mag[n_in:].ravel()
        flat = log_m >= 0.0
        mag_viol += int(np.count_nonzero(flat))
        log_m, r_out = log_m[~flat], r[~flat]
        covered_env = log_m <= -0.5 * r_out * r_out * (1.0 - _ENV_SLACK)
        covered_pow = n * log_m <= -745.0
        exp_viol += int(np.count_nonzero(~(covered_env | covered_pow)))
        delta_mod = min(delta_mod, float(np.min(-log_m, initial=math.inf)))
        point_kappa = np.sqrt(-2.0 * log_m[~covered_pow]) / r_out[~covered_pow]
        kappa_est = min(kappa_est, float(np.min(point_kappa, initial=math.inf)))
    notes = []
    if kappa_est == math.inf:
        notes.append("n-th power underflows at every scanned point beyond the trust ball")
    if mag_viol:
        notes.append(f"{mag_viol} scanned points show no magnitude decay")
    return AssumptionReport(
        kappa_est=kappa_est,
        delta_arg=delta_arg,
        delta_mod=delta_mod,
        magnitude_violations=mag_viol,
        exp_branch_violations=exp_viol,
        samples=samples,
        note="; ".join(notes),
    )
