"""Reference densities: exact binomial-mixture oracle and Monte Carlo check.

The mean of n draws from the symmetric mixture is itself a (n+1)-component
Gaussian mixture: conditioning on how many draws took the +mu branch gives
mean (2k - n)/n * mu and covariance sigma/n with Binomial(n, 1/2) weights.
That finite sum is evaluated in the log domain and serves as the exact
oracle.  The Monte Carlo oracle is an independent cross-check on the formula
itself: sample means drawn directly, product-kernel density estimate at the
query point, bootstrap standard error attached.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, StandardizationError
from .model import GaussianMixture, MixtureParams, check_point
from .saddle import c3_ball
from .spa import budget_total, check_sample_size, exp_or_inf

_LOG_2PI = math.log(2.0 * math.pi)
_MC_CHUNK = 1 << 16


def _log_binom_weights(n):
    """log C(n, k) - n log 2 for k = 0..n.  Up to n = 256 from exact integer
    binomials, free of cancellation.  Beyond, from one table lf of log k!:
    math.lgamma below k = 30, then the Stirling series of log Gamma(z),
    z = k + 1, through 1/(1680 z^7), which truncates it by under 4e-17."""
    if n <= 256:
        logs, c = [], 1
        for k in range(n + 1):
            logs.append(math.log(c))
            c = c * (n - k) // (k + 1)
        return np.array(logs) - n * math.log(2.0)
    lf = np.empty(n + 1)
    lf[:30] = [math.lgamma(k + 1.0) for k in range(30)]
    z = np.arange(31.0, n + 2.0)
    zi2 = 1.0 / (z * z)
    series = (1.0 / 12.0 - zi2 * (1.0 / 360.0 - zi2 * (1.0 / 1260.0 - zi2 / 1680.0))) / z
    lf[30:] = (z - 0.5) * np.log(z) - z + 0.5 * _LOG_2PI + series
    return lf[n] - lf - lf[::-1] - n * math.log(2.0)


def _logsumexp(w):
    """log sum exp(w) for finite w: the largest terms leave the sum and enter
    through log1p, which keeps full precision when they dominate."""
    top = w.max()
    hits = w == top
    terms = np.exp(w - top)
    terms[hits] = 0.0
    count = np.count_nonzero(hits)
    return float(np.log1p(np.sum(terms) / count) + np.log(count) + top)


class ExactMeanDensity:
    """Exact density of the n-sample mean, reusable across query points.

    Precomputes the log binomial weights log C(n,k) - n log 2 (exact
    binomials, or a table of log k!) and the Cholesky factor of sigma/n.
    density() is inf above the double range; log_density() stays exact.
    """

    def __init__(self, params: MixtureParams, n: int):
        n = check_sample_size(n)
        self.params = params
        self.n = n
        self.log_binom_weights = _log_binom_weights(n)
        self._means = (2.0 * np.arange(n + 1.0) - n) / n
        self._chol = np.linalg.cholesky(params.sigma / n)
        self._log_norm = (
            -0.5 * params.d * _LOG_2PI - float(np.sum(np.log(np.diag(self._chol))))
        )
        # whitened query pieces: |x - m mu|^2 expands in three scalars
        self._mu_w = np.linalg.solve(self._chol, params.mu)
        self._q_mu = float(self._mu_w @ self._mu_w)

    def log_density(self, a) -> float:
        a = check_point(a, self.params.d, "a")
        a_w = np.linalg.solve(self._chol, a)
        q_a = float(a_w @ a_w)
        q_cross = float(a_w @ self._mu_w)
        m = self._means
        quad = q_a - 2.0 * m * q_cross + (m * m) * self._q_mu
        return _logsumexp(self.log_binom_weights - 0.5 * quad) + self._log_norm

    def density(self, a) -> float:
        return exp_or_inf(self.log_density(a))


def exact_mean_density(params: MixtureParams, n: int, a) -> float:
    """Density of the n-sample mean at a (one-shot convenience wrapper)."""
    return ExactMeanDensity(params, n).density(a)


@dataclass(frozen=True)
class McOracleConfig:
    """Monte Carlo oracle settings; samples below 1e4 are refused."""

    samples: int = 20000
    seed: int = 0
    bandwidth: float | None = None  # None: Scott's rule per axis
    bootstrap: int = 200

    def __post_init__(self):
        if self.samples < 10000:
            raise DimensionError(f"samples must be >= 1e4, got {self.samples}")
        if self.bootstrap < 1:
            raise DimensionError("bootstrap count must be >= 1")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise DimensionError("bandwidth must be > 0")


def _sample_means(params, n, count, seed):
    """count independent n-sample means, chunked with per-chunk seed streams.

    The sign-sum over n draws collapses to a Binomial, so each mean costs one
    binomial and one Gaussian draw regardless of n.
    """
    d = params.d
    chol = np.linalg.cholesky(params.sigma)
    out = np.empty((count, d))
    pos = 0
    chunk_idx = 0
    while pos < count:
        take = min(_MC_CHUNK, count - pos)
        rng = np.random.default_rng(np.random.SeedSequence([int(seed), chunk_idx]))
        k = rng.binomial(n, 0.5, size=take)
        z = rng.standard_normal((take, d))
        out[pos:pos + take] = (
            ((2.0 * k - n) / n)[:, None] * params.mu + (z @ chol.T) / math.sqrt(n)
        )
        pos += take
        chunk_idx += 1
    return out


def mc_density(params: MixtureParams, n: int, a, config: McOracleConfig | None = None):
    """Kernel density estimate of the mean density at a, with bootstrap stderr.

    Returns (estimate, stderr).  Only supported for d <= 4, where product-
    kernel estimates at a point are still reasonable at 1e4+ samples.
    """
    if params.d > 4:
        raise DimensionError(f"mc oracle supports d <= 4, got d={params.d}")
    n = check_sample_size(n)
    cfg = config or McOracleConfig()
    a = check_point(a, params.d, "a")
    x = _sample_means(params, n, cfg.samples, cfg.seed)
    if cfg.bandwidth is not None:
        h = np.full(params.d, cfg.bandwidth)
    else:
        sd = np.std(x, axis=0, ddof=1)
        sd = np.where(sd > 0, sd, 1.0 / math.sqrt(n))
        h = sd * cfg.samples ** (-1.0 / (params.d + 4))
    u = (x - a) / h
    log_k = -0.5 * np.sum(u * u, axis=1) - np.sum(np.log(h)) - 0.5 * params.d * _LOG_2PI
    v = np.exp(log_k)
    est = float(np.mean(v))
    boot_rng = np.random.default_rng(np.random.SeedSequence([int(cfg.seed), 0xB007]))
    boot = np.empty(cfg.bootstrap)
    for b in range(cfg.bootstrap):
        idx = boot_rng.integers(0, cfg.samples, cfg.samples)
        boot[b] = np.mean(v[idx])
    return est, float(np.std(boot, ddof=1))


class CltComparison(NamedTuple):
    ratio: float
    bound: float


def clt_ratio(params: MixtureParams, n: int, x, kappa: float = 1.0) -> CltComparison:
    """Density ratio of sqrt(n) * mean at x against the standard Gaussian.

    Requires a standardized model (sigma + mu mu' = identity).  The bound is
    the cubic local term C3(a) ||x||^3 / sqrt(n) at a = x / sqrt(n) plus the
    multiplicative budget total, both up to absolute constants.
    """
    x = check_point(x, params.d, "x")
    n = check_sample_size(n)
    return _clt_compare(GaussianMixture(params), ExactMeanDensity(params, n), x, kappa)[0]


def _clt_compare(model, oracle, x, kappa):
    """(CltComparison, log exact density, log Gaussian limit) at x, for the
    model of the oracle and its n; shared by clt_ratio and the clt_study rows."""
    params = oracle.params
    second = params.sigma + np.outer(params.mu, params.mu)
    if np.max(np.abs(second - np.eye(params.d))) > 1e-10:
        raise StandardizationError("clt_ratio needs sigma + mu mu' = identity; "
                                   "use MixtureParams.standardized()")
    n = oracle.n
    a = x / math.sqrt(n)
    log_exact = oracle.log_density(a)
    log_gauss = -0.5 * params.d * _LOG_2PI - 0.5 * float(x @ x)
    ratio = math.exp(log_exact - 0.5 * params.d * math.log(n) - log_gauss)
    local = c3_ball(model, a) * float(np.linalg.norm(x))**3 / math.sqrt(n)
    bound = local + budget_total(model, n, float(np.linalg.norm(a)), kappa)
    return CltComparison(ratio=ratio, bound=bound), log_exact, log_gauss
