"""Saddle equation solver and Legendre transform.

Solves grad cgf(tau) = a.  For the mixture the equation sigma tau +
tanh(alpha) mu = a, alpha = <mu, tau>, reduces to one scalar equation

    alpha + g tanh(alpha) = <w, a>,   w = sigma^{-1} mu,  g = <mu, w>,

whose left side is strictly increasing with slope >= 1, so its root is
unique and lies within g of <w, a>.  Newton from <w, a> / (1 + g) moves
monotonically towards it and finds it, tau = sigma^{-1} a - tanh(alpha) w
follows from one solve, and log det H from the matrix determinant lemma.  The gradient residual certifies the
result; where rounding keeps it above tol (sigma far from well conditioned),
a damped Newton seeded at tau = a takes over.  A sweep solves the points of
a d as one batch, with one stacked solve; solve_saddle is a batch of one.  Every routine here takes a
GaussianMixture and raises ConfigError for anything else.

method="fixed_point" is a separate d-dimensional iteration,

    tau <- (H0 + B(tau))^{-1} a,   B(tau) = int_0^1 (1-l) grad^3 cgf(l tau)[tau] dl,

with H0 the Hessian at 0, so for standardized models this is the classical
contraction with ||B|| <= 1/2 on the admissible ball ||a|| small enough
that 2 ||a|| C3(a) <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NonconvergenceError, SpahdError
from .model import (GaussianMixture, _sech_float, check_point, is_count, require_mixture,
                    require_standardized)

_EPS = 2.0**-52


@dataclass(frozen=True)
class SaddlePoint:
    """Solved saddle at query point a: tau, phi*(a) and log det H(tau), with
    the solver's residual, iteration count and route: method is 'newton'
    (the scalar route), 'damped_newton' (its fallback, where the scalar
    route's residual stayed above tol) or 'fixed_point'."""

    a: np.ndarray
    tau: np.ndarray
    phi_star: float
    log_det_h: float
    residual: float
    iterations: int
    method: str


def solve_saddle(model: GaussianMixture, a, tol: float = 1e-12, max_iter: int = 100,
                 method: str = "newton") -> SaddlePoint:
    """Solve grad cgf(tau) = a to gradient residual <= tol.

    method: 'newton' (the scalar route of the module docstring, with its
    damped Newton fallback) or 'fixed_point'.  iterations counts scalar and
    d-dimensional steps alike, and they share max_iter.  Raises ConfigError
    unless model is a GaussianMixture, NonconvergenceError with the last
    residual when the budget runs out, and DimensionError for any other
    method, unless tol is finite and > 0 and max_iter is a positive whole
    number, or when phi*(a) leaves the double range (||a|| past about 1e154
    for a unit sigma).
    """
    require_mixture(model, "solve_saddle")
    a = check_point(a, model.dim, "a")
    if method == "newton":
        out = _solve_batch(model, a[None, :], tol, max_iter)[0]
        if isinstance(out, SpahdError):
            raise out
        return out
    if method != "fixed_point":
        raise DimensionError(f"unknown method {method!r}")
    _check_budget(tol, max_iter)
    tau, res, it = _fixed_point(model, a, tol, max_iter)
    with np.errstate(over="ignore", invalid="ignore"):
        return _saddle_point(model, a, tau, res, it, method)


def _check_budget(tol, max_iter):
    """DimensionError unless tol is finite and > 0 and max_iter is a
    positive whole number."""
    if not (0 < tol < math.inf):
        raise DimensionError(f"tol must be finite and > 0, got {tol!r}")
    if not is_count(max_iter):
        raise DimensionError(f"max_iter must be a positive integer, got {max_iter!r}")


def _solve_batch(model, points, tol, max_iter=100):
    """The 'newton' route at every row of points (k, d): each row's
    SaddlePoint, or the SpahdError it raises (DimensionError for a row that
    is not finite or where phi* leaves the double range, and for every row
    when tol or max_iter is not valid; NonconvergenceError).  One stacked
    solve gives sigma^-1 a for every row, each as its own
    single-right-hand-side system, so that a row's bits do not depend on the
    other rows; the scalar Newton, the residual and phi* then run per row in
    math floats and one-row products, and a row that misses tol goes to the
    damped Newton alone.  A diagonal sigma is solved by the division
    a_i / sigma_ii, which equals that solve to within an ulp."""
    try:
        _check_budget(tol, max_iter)
    except DimensionError as exc:
        return [exc] * len(points)
    mu = model.params.mu
    # overflow is told by the values it leaves, without a NumPy warning
    with np.errstate(over="ignore", invalid="ignore"):
        if model._sigma_diag is not None:
            solved = points / model._sigma_diag
        else:
            solved = np.linalg.solve(model.params.sigma, points[:, :, None])[:, :, 0]
        finite = np.isfinite(points).all(axis=1)
        inside = np.isfinite(solved).all(axis=1)
        out = []
        for a, b, real, ok in zip(points, solved, finite, inside):
            try:
                if not real:
                    check_point(a, model.dim, "a")
                # <mu, b> = <w, a>, formed from b so that alpha = <mu, tau> at
                # tau = b - tanh(alpha) w, whatever the rounding of b and w
                c = float(mu @ b)
                if not (ok and math.isfinite(c)):
                    raise DimensionError(_past_range(a))
                out.append(_saddle_point(model, a, *_scalar_newton(model, a, b, c, tol,
                                                                   max_iter)))
            except SpahdError as exc:
                out.append(exc)
    return out


def _past_range(a):
    """The message of a DimensionError for a point past the double range."""
    return f"phi*(a) leaves the double range at max |a_i| = {float(np.max(np.abs(a))):.3g}"


def _saddle_point(model, a, tau, res, it, method):
    """The SaddlePoint at a solved tau; DimensionError when phi*(a) leaves
    the double range.  Callers quiet NumPy's overflow warnings: <tau, a>
    and cgf(tau) overflow to inf - inf past the double range."""
    phi_star = float(tau @ a) - model._cgf_real(tau)
    if not math.isfinite(phi_star):
        raise DimensionError(_past_range(a))
    # det(sigma + sech^2(alpha) mu mu') = det(sigma) (1 + sech^2(alpha) g)
    s = _sech_float(float(model.params.mu @ tau))
    log_det_h = model._log_det_sigma + math.log1p(s * s * model._g)
    return SaddlePoint(a=a, tau=tau, phi_star=phi_star, log_det_h=log_det_h,
                       residual=res, iterations=it, method=method)


def _scalar_newton(model, a, b, c, tol, max_iter):
    """The 'newton' route at a, given b = sigma^-1 a and c = <mu, b>, both
    finite: (tau, residual, iterations, 'newton' or 'damped_newton')."""
    w, g = model._w, model._g
    # f(alpha) = alpha + g tanh(alpha) - c is increasing, and concave
    # between 0 and the root when c > 0 (convex when c < 0); the start
    # c / (1 + g) lies there, since |tanh x| <= |x|, so Newton from it moves
    # monotonically towards the root and needs no bracket
    alpha = c / (1.0 + g)
    it = 0
    while True:
        t = math.tanh(alpha)
        f = alpha + g * t - c
        # f is known to a few roundings of its terms, and to a few ulps of 0
        # where they are subnormal; past that, stop
        if abs(f) <= 4.0 * (_EPS * (abs(alpha) + g * abs(t) + abs(c)) + 2.0**-1074):
            break
        if it >= max_iter:
            res = float(np.linalg.norm(model._grad(b - t * w) - a))
            raise NonconvergenceError(
                f"scalar Newton did not reach its root in {max_iter} iterations "
                f"(residual {res:.3e})", residual=res, iterations=it)
        s = _sech_float(alpha)
        step = alpha - f / (1.0 + g * s * s)
        if step == alpha:
            break
        alpha = step
        it += 1
    tau = b - math.tanh(alpha) * w
    r = model._grad(tau) - a
    res = math.sqrt(float(r @ r))
    if res <= tol:
        return tau, res, it, "newton"
    # past the double range of phi* the residual cannot meet tol either
    if not math.isfinite(float(tau @ a) - model._cgf_real(tau)):
        raise DimensionError(_past_range(a))
    # Rounding in b, w and the residual itself can leave an ill-conditioned
    # sigma above tol; Newton steps from this tau then wander at that floor,
    # so the d-dimensional search restarts from tau = a instead.
    return (*_damped_newton(model, a, tol, max_iter, it), "damped_newton")


def _damped_newton(model, a, tol, max_iter, it):
    """Newton with Armijo backtracking on ||grad - a||^2 / 2, seeded at
    tau = a, continuing an iteration count of it."""
    tau = a.copy()
    r = model._grad(tau) - a
    res = float(np.linalg.norm(r))
    while not (res <= tol):
        if it >= max_iter:
            raise NonconvergenceError(
                f"Newton did not reach tol={tol:g} in {max_iter} iterations "
                f"(residual {res:.3e})", residual=res, iterations=it)
        try:
            delta = -np.linalg.solve(model.hessian(tau), r)
        except np.linalg.LinAlgError:
            # sigma + sech^2(alpha) mu mu' is singular in doubles
            raise NonconvergenceError(f"Newton met a singular Hessian at residual {res:.3e}",
                                      residual=res, iterations=it) from None
        # the Newton direction gives directional derivative -||r||^2 exactly
        f0 = 0.5 * res * res
        step = 1.0
        accepted = False
        for _ in range(30):
            cand = tau + step * delta
            rc = model._grad(cand) - a
            fc = 0.5 * float(rc @ rc)
            if fc <= f0 - 1e-4 * step * (2.0 * f0):
                accepted = True
                break
            step *= 0.5
        if not accepted:
            raise NonconvergenceError(
                f"Newton line search stalled at residual {res:.3e}",
                residual=res, iterations=it)
        tau, r, res = cand, rc, math.sqrt(2.0 * fc)
        it += 1
    return tau, res, it


def fixed_point_matrix(model: GaussianMixture, tau) -> np.ndarray:
    """B(tau) = int_0^1 (1-l) grad^3 cgf(l tau)[tau] dl.

    Closed form for the mixture, (tanh(alpha)/alpha - 1) mu mu', the only
    model it accepts (ConfigError otherwise).
    """
    require_mixture(model, "fixed_point_matrix")
    tau = np.asarray(tau, dtype=float).reshape(-1)
    mu = model.params.mu
    alpha = float(mu @ tau)
    if abs(alpha) < 1e-4:
        coef = -alpha * alpha / 3.0 + 2.0 * alpha**4 / 15.0
    else:
        coef = math.tanh(alpha) / alpha - 1.0
    return coef * np.outer(mu, mu)


def _fixed_point(model, a, tol, max_iter):
    """The 'fixed_point' route: (tau, residual, iterations).  A finite a
    whose gradient at tau = a leaves the double range raises DimensionError,
    without a NumPy warning."""
    h0 = model.hessian(np.zeros_like(a))
    tau = a.copy()
    r = model.grad(tau) - a
    if np.any(np.isinf(r)):
        raise DimensionError(_past_range(a))
    res = float(np.linalg.norm(r))
    omega = 1.0
    it = 0
    while not (res <= tol):
        if it >= max_iter:
            raise NonconvergenceError(
                f"fixed-point iteration did not reach tol={tol:g} in {max_iter} "
                f"iterations (residual {res:.3e})", residual=res, iterations=it)
        target = np.linalg.solve(h0 + fixed_point_matrix(model, tau), a)
        cand = (1.0 - omega) * tau + omega * target
        rc = model.grad(cand) - a
        resc = float(np.linalg.norm(rc))
        if resc < res or omega <= 1.0 / 1024.0:
            tau, res = cand, resc
            omega = min(1.0, 2.0 * omega)
        else:
            omega *= 0.5
        it += 1
    return tau, res, it


def legendre(model: GaussianMixture, a, tol: float = 1e-12) -> float:
    """Legendre transform phi*(a) = <tau, a> - cgf(tau) at the solved saddle."""
    return solve_saddle(model, a, tol=tol).phi_star


def c3_ball(model: GaussianMixture, a) -> float:
    """C3(a): sup of the third-derivative operator norm over ||tau|| <= 2||a||."""
    require_mixture(model, "c3_ball")
    a = np.asarray(a, dtype=float).reshape(-1)
    return model.c3_op_norm_ball(2.0 * float(np.linalg.norm(a)))


@dataclass(frozen=True)
class LegendreGapReport:
    """Distance of phi* from its quadratic reference on the admissible ball."""

    gap: float
    c3_ball: float
    bound: float
    admissible: bool


def legendre_gap_report(model: GaussianMixture, a, tol: float = 1e-12) -> LegendreGapReport:
    """Compare phi*(a) with ||a||^2/2 for a standardized model.

    Requires a standardized model (StandardizationError otherwise); the gap
    obeys gap <= C3(a) ||a||^3 whenever 2 ||a|| C3(a) <= 1, which the
    admissible flag records.
    """
    require_mixture(model, "legendre_gap_report")
    require_standardized(model.params, "legendre_gap_report")
    return _gap_report(model, solve_saddle(model, a, tol=tol))


def _gap_report(model, saddle):
    """legendre_gap_report at a saddle already solved, of a standardized model."""
    a = saddle.a
    gap = abs(saddle.phi_star - 0.5 * float(a @ a))
    c3b = c3_ball(model, a)
    norm_a = float(np.linalg.norm(a))
    return LegendreGapReport(
        gap=gap,
        c3_ball=c3b,
        bound=c3b * norm_a**3,
        admissible=2.0 * norm_a * c3b <= 1.0,
    )
