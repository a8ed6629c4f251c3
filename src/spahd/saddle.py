"""Saddle equation solver and Legendre transform.

Solves grad cgf(tau) = a by damped Newton, seeded at tau = a (exact for a
standardized Gaussian, a valid seed in general because the cgf is strictly
convex).  When Newton stalls, a damped fixed-point iteration on

    tau <- (H0 + B(tau))^{-1} a,   B(tau) = int_0^1 (1-l) grad^3 cgf(l tau)[tau] dl

takes over; H0 is the Hessian at 0, so for standardized models this is the
classical contraction with ||B|| <= 1/2 on the admissible ball ||a|| small
enough that 2 ||a|| C3(a) <= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ModelDomainError, NonconvergenceError, StandardizationError
from .model import CgfModel, check_point, is_count, require_mixture


@dataclass(frozen=True)
class SaddlePoint:
    """Solved saddle at query point a, with the factors reused downstream."""

    a: np.ndarray
    tau: np.ndarray
    phi_star: float
    hessian_chol: np.ndarray
    log_det_h: float
    residual: float
    iterations: int
    method: str


def solve_saddle(model: CgfModel, a, tol: float = 1e-12, max_iter: int = 100,
                 method: str = "auto") -> SaddlePoint:
    """Solve grad cgf(tau) = a to gradient residual <= tol.

    method: 'newton', 'fixed_point', or 'auto' (Newton with fixed-point
    fallback on stagnation).  Raises NonconvergenceError with the last
    residual when the iteration budget runs out, and DimensionError unless
    tol is finite and > 0 and max_iter is a positive whole number.
    """
    a = check_point(a, model.dim, "a")
    if not (0 < tol < math.inf):
        raise DimensionError(f"tol must be finite and > 0, got {tol!r}")
    if not is_count(max_iter):
        raise DimensionError(f"max_iter must be a positive integer, got {max_iter!r}")
    if method == "newton":
        tau, res, it = _newton(model, a, tol, max_iter)
    elif method == "fixed_point":
        tau, res, it = _fixed_point(model, a, tol, max_iter)
    elif method == "auto":
        method = "newton"
        try:
            tau, res, it = _newton(model, a, tol, max_iter)
        except NonconvergenceError:
            method = "fixed_point"
            tau, res, it = _fixed_point(model, a, tol, max_iter)
    else:
        raise DimensionError(f"unknown method {method!r}")
    _, chol = _hessian_chol(model, tau)
    log_det = 2.0 * float(np.sum(np.log(np.diag(chol))))
    phi_star = float(tau @ a) - model.cgf_real(tau)
    return SaddlePoint(a=a, tau=tau, phi_star=phi_star, hessian_chol=chol,
                       log_det_h=log_det, residual=res, iterations=it, method=method)


def _hessian_chol(model, tau):
    """The cgf Hessian and its lower Cholesky factor; rejects a non-SPD Hessian."""
    h = model.hessian(tau)
    try:
        return h, np.linalg.cholesky(h)
    except np.linalg.LinAlgError as exc:
        raise ModelDomainError("cgf Hessian is not positive definite") from exc


def _newton(model, a, tol, max_iter):
    tau = a.copy()
    r = model.grad(tau) - a
    res = float(np.linalg.norm(r))
    it = 0
    while not (res <= tol):
        if it >= max_iter:
            raise NonconvergenceError(
                f"Newton did not reach tol={tol:g} in {max_iter} iterations "
                f"(residual {res:.3e})", residual=res, iterations=it)
        # the factor certifies SPD; one solve on H is cheaper than two on it
        h, _ = _hessian_chol(model, tau)
        delta = -np.linalg.solve(h, r)
        # Armijo backtracking on f = ||r||^2/2; Newton direction gives
        # directional derivative -||r||^2 exactly
        f0 = 0.5 * res * res
        step = 1.0
        accepted = False
        for _ in range(30):
            cand = tau + step * delta
            rc = model.grad(cand) - a
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


def fixed_point_matrix(model: CgfModel, tau) -> np.ndarray:
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
    h0 = model.hessian(np.zeros_like(a))
    tau = a.copy()
    r = model.grad(tau) - a
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


def legendre(model: CgfModel, a, tol: float = 1e-12) -> float:
    """Legendre transform phi*(a) = <tau, a> - cgf(tau) at the solved saddle."""
    return solve_saddle(model, a, tol=tol).phi_star


def c3_ball(model: CgfModel, a) -> float:
    """C3(a): sup of the third-derivative operator norm over ||tau|| <= 2||a||."""
    a = np.asarray(a, dtype=float).reshape(-1)
    return model.c3_op_norm_ball(2.0 * float(np.linalg.norm(a)))


@dataclass(frozen=True)
class LegendreGapReport:
    """Distance of phi* from its quadratic reference on the admissible ball."""

    gap: float
    c3_ball: float
    bound: float
    admissible: bool


def legendre_gap_report(model: CgfModel, a, tol: float = 1e-12) -> LegendreGapReport:
    """Compare phi*(a) with ||a||^2/2 for a standardized model.

    Requires hessian(0) = identity (StandardizationError otherwise); the gap
    obeys gap <= C3(a) ||a||^3 whenever 2 ||a|| C3(a) <= 1, which the
    admissible flag records.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    h0 = model.hessian(np.zeros_like(a))
    if np.max(np.abs(h0 - np.eye(a.shape[0]))) > 1e-8:
        raise StandardizationError("legendre gap report needs hessian(0) = identity")
    phi_star = solve_saddle(model, a, tol=tol).phi_star
    gap = abs(phi_star - 0.5 * float(a @ a))
    c3b = c3_ball(model, a)
    norm_a = float(np.linalg.norm(a))
    return LegendreGapReport(
        gap=gap,
        c3_ball=c3b,
        bound=c3b * norm_a**3,
        admissible=2.0 * norm_a * c3b <= 1.0,
    )


def whitened_hessian_factors(saddle: SaddlePoint):
    """(H^{-1/2}, log det H) from a solved saddle; fresh eigh of L L'."""
    h = saddle.hessian_chol @ saddle.hessian_chol.T
    vals, vecs = np.linalg.eigh(h)
    inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
    return inv_sqrt, saddle.log_det_h
