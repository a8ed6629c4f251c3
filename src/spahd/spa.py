"""Saddlepoint density estimate and its multiplicative error budget.

The density of the mean of n i.i.d. draws at a point a is approximated by

    (n / 2 pi)^(d/2) det(H)^(-1/2) exp(-n phi*(a))

with H the cgf Hessian at the saddle.  Everything is assembled in the log
domain; exp only happens at the very end so deep tails stay representable.
The budget for the multiplicative error |I(a) - 1| keeps its three terms
separate (main, exp(-d), truncation tail) and carries the unknown absolute
constant as metadata instead of folding it into the numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DimensionError, SpahdError
from .model import is_count
from .saddle import SaddlePoint

_LOG_2PI = math.log(2.0 * math.pi)

# exp underflows to subnormal/zero below roughly -745.13
_UNDERFLOW_LOG = -745.0

# the one truncation radius: the budget's c3/c4 region and tail terms, the correction's
# trust ball and the audit shells all describe the ball ||t|| <= TRUNC_RADIUS sqrt(d/n)
TRUNC_RADIUS = 2.5


@dataclass(frozen=True)
class SpaEstimate:
    """Log-domain saddlepoint density value at one query point; density is 0.0
    below the double range (underflow set) and inf above it (small sigma/n at
    high d), while log_density stays exact and finite."""

    log_density: float
    density: float
    log_prefactor: float
    exponent: float
    n: int
    d: int
    underflow: bool


def exp_or_inf(x: float) -> float:
    """exp(x), or inf where it exceeds the double range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def expm1_or_inf(x: float) -> float:
    """expm1(x), or inf where it exceeds the double range."""
    try:
        return math.expm1(x)
    except OverflowError:
        return math.inf


def check_sample_size(n, name="n") -> int:
    """n as an int; DimensionError unless it is a positive whole number."""
    if not is_count(n):
        raise DimensionError(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def spa_density(saddle: SaddlePoint, n: int) -> SpaEstimate:
    """Saddlepoint density of the n-sample mean at the solved query point.

    DimensionError when its log density leaves the double range, where
    n phi*(a) does though phi*(a) does not.
    """
    n = check_sample_size(n)
    d = saddle.a.shape[0]
    log_prefactor = 0.5 * d * (math.log(n) - _LOG_2PI) - 0.5 * saddle.log_det_h
    exponent = -n * saddle.phi_star
    log_density = log_prefactor + exponent
    if not math.isfinite(log_density):
        raise DimensionError(f"log density leaves the double range at n = {n}, "
                             f"phi* = {saddle.phi_star:.3g}")
    underflow = log_density < _UNDERFLOW_LOG
    density = 0.0 if underflow else exp_or_inf(log_density)
    return SpaEstimate(log_density=log_density, density=density,
                       log_prefactor=log_prefactor, exponent=exponent,
                       n=n, d=d, underflow=underflow)


@dataclass(frozen=True)
class ErrorBudget:
    """Three-term bound on |I(a) - 1|, up to one unknown absolute constant.

    total = exp(40 c4 eps^2) (c3^2 + c4) eps + exp(-d) + (e eps / kappa^2)^(d/2)
    with eps = d^2/n.  eps_warning flags eps > 0.25, where the bound is
    vacuous but still reported.
    """

    eps: float
    c3: float
    c4: float
    kappa: float
    r_const: float
    term_main: float
    term_exp: float
    term_tail: float
    total: float
    eps_warning: bool
    constant_note: str = "x C, C unknown"


def error_bound(d: int, n: int, c3: float, c4: float, kappa: float = 1.0) -> ErrorBudget:
    """Assemble the error budget for given derivative suprema and kappa."""
    d, n = check_sample_size(d, "d"), check_sample_size(n)
    if not (c3 >= 0 and c4 >= 0 and kappa > 0):
        raise DimensionError("c3, c4 must be >= 0 and kappa > 0")
    eps = d * d / n
    # inf far outside the bound's regime, where eps_warning fires
    term_main = exp_or_inf(40.0 * c4 * eps * eps) * (c3 * c3 + c4) * eps
    term_exp = math.exp(-float(d))
    term_tail = _tail_power(eps, d, kappa)
    return ErrorBudget(eps=eps, c3=c3, c4=c4, kappa=kappa, r_const=TRUNC_RADIUS,
                       term_main=term_main, term_exp=term_exp,
                       term_tail=term_tail,
                       total=term_main + term_exp + term_tail,
                       eps_warning=eps > 0.25)


def budget_total(model, n: int, a_norm: float, kappa: float = 1.0) -> float:
    """Budget total for queries with ||a|| <= a_norm: a batch of one budget_totals."""
    total, = budget_totals(model, [(n, a_norm)], kappa)
    if isinstance(total, SpahdError):
        raise total
    return total


def budget_totals(model, cells, kappa: float = 1.0) -> list:
    """Budget total of each (n, a_norm) cell, for queries with ||a|| <= a_norm,
    or the SpahdError it raises, in place: error_bound over the c3/c4 suprema
    on tau_radius = max(2 a_norm, 1e-3) and t_radius = TRUNC_RADIUS sqrt(d/n),
    from one c34_brackets call.  inf where ||mu|| tau_radius passes the double
    range: the bound is vacuous there, as where one of its terms passes it."""
    # a bad n gets a NaN t_radius, which c34_brackets refuses without a search
    regions = [(max(2.0 * a_norm, 1e-3),
                TRUNC_RADIUS * math.sqrt(model.dim / n) if is_count(n) else math.nan)
               for n, a_norm in cells]
    totals = []
    for (n, _), (tau_radius, _), bracket in zip(cells, regions, model.c34_brackets(regions)):
        try:
            n = check_sample_size(n)
            if model._mu_norm * tau_radius == math.inf:
                totals.append(math.inf)
            elif isinstance(bracket, SpahdError):
                raise bracket
            else:
                totals.append(error_bound(model.dim, n, bracket[0][1], bracket[1][1], kappa).total)
        except SpahdError as exc:
            totals.append(exc)
    return totals


def tail_bound_terms(d: int, n: int, kappa: float = 1.0) -> tuple[float, float]:
    """Endpoint bounds for the truncated contour mass.

    Returns (exp(-d)/sqrt(d), (e d^2 / (n kappa^2))^(d/2)): the near-shell
    and far-field contributions outside the TRUNC_RADIUS sqrt(d/n) ball.
    """
    d, n = check_sample_size(d, "d"), check_sample_size(n)
    if not (kappa > 0):
        raise DimensionError("kappa must be > 0")
    first = math.exp(-float(d)) / math.sqrt(d)
    return first, _tail_power(d * d / n, d, kappa)


def _tail_power(eps, d, kappa):
    """(e eps / kappa^2)^(d/2), taken in the log domain: inf above the double range."""
    return exp_or_inf(0.5 * d * (1.0 + math.log(eps) - 2.0 * math.log(kappa)))


def log_gamma_ratio(d: int) -> float:
    """log(Gamma(d) / Gamma(d/2)), validated against the duplication identity.

    Gamma(d)/Gamma(d/2) = 2^(d-1) Gamma((d+1)/2) / sqrt(pi); both sides are
    compared in the log domain to relative 1e-10 and a failure raises, since
    it would mean the special-function evaluation itself is off.
    """
    if d < 1:
        raise DimensionError(f"d must be >= 1, got {d}")
    direct = math.lgamma(d) - math.lgamma(0.5 * d)
    dup = (d - 1.0) * math.log(2.0) + math.lgamma(0.5 * (d + 1.0)) - 0.5 * math.log(math.pi)
    if abs(direct - dup) > 1e-10 * max(1.0, abs(direct)):
        raise SpahdError(f"gamma duplication identity violated at d={d}: "
                         f"{direct!r} vs {dup!r}")
    return float(direct)
