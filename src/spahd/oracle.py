"""Reference densities: exact binomial-mixture oracle and Monte Carlo check.

The mean of n draws from the symmetric mixture is itself a (n+1)-component
Gaussian mixture: conditioning on how many draws took the +mu branch gives
mean (2k - n)/n * mu and covariance sigma/n with Binomial(n, 1/2) weights.
That finite sum is evaluated in the log domain and serves as the exact
oracle.  Its log terms are concave in k, so a query sums only the window of
terms near the largest one and bounds the rest by a geometric series, which
costs O(sqrt n) instead of O(n).  The Monte Carlo oracle is an independent
cross-check on the formula itself: sample means drawn directly, product-
kernel density estimate at the query point, bootstrap standard error
attached.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, StandardizationError
from .model import GaussianMixture, MixtureParams, check_point, is_count
from .saddle import c3_ball
from .spa import budget_total, check_sample_size, exp_or_inf

_LOG_2PI = math.log(2.0 * math.pi)
_MC_CHUNK = 1 << 16

# weights come from exact integer binomials up to this n, from Loader's form above
_EXACT_MAX_N = 256
# a query sums every term less than this many nats below the largest ...
_WINDOW_NATS = 40.0
# ... and widens its window until the cut tails are below this share of the sum
_TAIL_REL = 1e-16
# a batch of queries computes its weights over spans of at most this many
# terms, so that no temporary passes glibc's 128 KiB mmap threshold
_SPAN_TERMS = 4096

# Stirling error log k! - log(sqrt(2 pi k) (k/e)^k) for k = 0..15 (k = 0 unused)
_STIRLERR_SMALL = np.array([
    0.0, 0.08106146679532726, 0.0413406959554093, 0.02767792568499834,
    0.020790672103765093, 0.016644691189821193, 0.013876128823070748,
    0.01189670994589177, 0.010411265261972096, 0.009255462182712733,
    0.00833056343336287, 0.007573675487951841, 0.00694284010720953,
    0.006408994188004207, 0.0059513701127588475, 0.005554733551962801,
])


# the Stirling series 1/12z - 1/360z^3 + 1/1260z^5 - 1/1680z^7 + 1/1188z^9 of
# the Stirling error; its first 2, 3 or 4 terms are enough above z = 500, 80
# or 35, where each cut, like the fifth term's from z = 16, is below 1.1e-16
_STIRLING_COEFS = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188)
_STIRLING_CUTS = ((3, 500), (4, 80), (5, 35))


def _stirling_series(zi, zi2, terms):
    """The first `terms` terms of the Stirling series at 1/z = zi, zi2 = zi^2."""
    acc = _STIRLING_COEFS[terms - 1] * zi2
    for coef in _STIRLING_COEFS[terms - 2:0:-1]:
        acc = (coef + acc) * zi2
    return (_STIRLING_COEFS[0] + acc) * zi


def _stirlerr(z, z_min):
    """Stirling error log z! - log(sqrt(2 pi z) (z/e)^z) for an array of
    whole z >= 1 whose smallest entry is z_min: the table up to 15, the
    series beyond, each entry with the terms its own z needs, so that its
    value does not depend on the other entries."""
    zi = 1.0 / z
    zi2 = zi * zi
    out = _stirling_series(zi, zi2, 2)
    for terms, above in _STIRLING_CUTS:
        if z_min > above:
            return out
        near = z <= above
        out[near] = _stirling_series(zi[near], zi2[near], terms)
    small = z <= 15
    out[small] = _STIRLERR_SMALL[z[small].astype(int)]
    return out


@functools.lru_cache(maxsize=32)
def _exact_log_binom(n):
    """log C(n, k) - n log 2 for every k, from exact integer binomials
    (a running c = c (n - k) // (k + 1)), free of cancellation; read-only."""
    logs, c = [], 1
    for k in range(n + 1):
        logs.append(math.log(c))
        c = c * (n - k) // (k + 1)
    out = np.array(logs) - n * math.log(2.0)
    out.setflags(write=False)
    return out


def _log_binom_weights(n, k_lo=0, k_hi=None):
    """log C(n, k) - n log 2 for k = k_lo..k_hi (default: every k).

    Up to n = 256 from exact integer binomials.  Beyond, from Loader's
    deviance-plus-Stirling-error form (C. Loader, "Fast and Accurate
    Computation of Binomial Probabilities", 2000), with p = 1/2 and u = (2k - n)/n:

        stirlerr(n) - stirlerr(k) - stirlerr(n - k) - n D(u) - log(2 pi k (n - k) / n) / 2

    where n D(u) = bd0(k, n/2) + bd0(n - k, n/2) = n [u atanh u + log(1 - u^2)/2]
    is taken from two log1p of nonnegative exact ratios, so every term keeps
    its relative precision at any k; no term is a difference of log k! values.
    """
    k_hi = n if k_hi is None else k_hi
    if n <= _EXACT_MAX_N:
        return _exact_log_binom(n)[k_lo:k_hi + 1]
    lo, hi = max(k_lo, 1), min(k_hi, n - 1)
    k = np.arange(lo, hi + 1.0)
    rest = n - k
    prod = k * rest
    nu = np.abs(k - rest)
    # atanh|u| = log1p(nu / min(k, n - k)) / 2 and -log(1 - u^2) = log1p(nu^2 / (4 k (n - k)))
    two_dev = nu * np.log1p(nu / np.minimum(k, rest)) - n * np.log1p(0.25 * nu * nu / prod)
    # stirlerr of k, of n - k and of n
    errs = _stirlerr(np.concatenate((k, rest, [n])), min(lo, n - hi))
    head = errs[-1] - 0.5 * (_LOG_2PI - math.log(n))
    w = head - errs[:len(k)] - errs[len(k):-1] - 0.5 * (two_dev + np.log(prod))
    if k_lo > 0 and k_hi < n:
        return w
    # C(n, 0) = C(n, n) = 1
    edge = [-n * math.log(2.0)]
    return np.concatenate((edge if k_lo == 0 else [], w, edge if k_hi == n else []))


def _geometric_tail(log_edge, ratio):
    """sum_{i >= 1} exp(log_edge + i ratio), which bounds the terms past a
    window edge of log value log_edge when no step beyond it exceeds ratio;
    inf unless ratio < 0."""
    if not ratio < 0.0:
        return math.inf
    return math.exp(log_edge + ratio - math.log(-math.expm1(ratio)))


class ExactMeanDensity:
    """Exact density of the n-sample mean, reusable across query points.

    Precomputes the inverse Cholesky factor of sigma/n and the whitened mu;
    no work is O(n).  A query finds the largest log term f(k) = log C(n,k) - n log 2
    - |a - m_k mu|^2_(sigma/n) / 2 from its exact forward difference, sums
    the O(sqrt n) terms within 40 nats of it (the window grows if it must)
    and bounds the two cut tails by geometric series; last_window holds
    (k_lo, k_hi, tail_rel) of the last query (of a batch query's last
    point), tail_rel <= 1e-16 being that bound relative to the sum.  A
    sweep queries all points of a cell as one batch, which shares the
    weights of overlapping windows; log_density is a batch of one.
    density() is inf above the double range; log_density() stays exact,
    and is -inf below it.
    """

    def __init__(self, params: MixtureParams, n: int):
        n = check_sample_size(n)
        self.params = params
        self.n = n
        chol = np.linalg.cholesky(params.sigma / n)
        self._log_norm = -0.5 * params.d * _LOG_2PI - float(np.sum(np.log(np.diag(chol))))
        # the whitening x -> L^-1 x, with sigma/n = L L'; a query applies it
        # once, as a product, which is as precise as a triangular solve here
        self._whiten = np.linalg.solve(chol, np.eye(params.d))
        self._mu_w = self._whiten @ params.mu
        # (sigma/n)^-1 mu, whose product with a is <a_w, mu_w>
        self._mu_dual = self._whiten.T @ self._mu_w
        self._q_mu = float(self._mu_w @ self._mu_w)
        self.last_window = None

    def log_density(self, a) -> float:
        return self._log_density_batch(check_point(a, self.params.d, "a")[None, :])[0]

    def _log_density_batch(self, points):
        """log_density at each row of points (k, d), all finite, as a list.

        Each point finds its own peak and 40-nat window; the windows are
        merged into contiguous spans of at most _SPAN_TERMS terms (or one
        window), whose weights are computed once and sliced.  A weight's
        value does not depend on its span, so each point's sum, tail bound
        and result are those it gets alone; a point whose tail bound fails
        widens its own window.  last_window is the last point's.
        """
        n, q_mu, mu = self.n, self._q_mu, self.params.mu
        # f(k+1) - f(k) = log((n - k)/(k + 1)) + lead - slope k, exactly; it
        # falls by at least curv per step, so f is concave with one peak
        slope = 4.0 * q_mu / (n * n)
        curv = 4.0 / (n + 2.0) + slope
        drift = q_mu * (n - 1.0) / n
        # half the squared distance |a - m_k mu|^2 in the sigma/n metric,
        # expanded about the peak's mean m_p, whose residual is whitened as
        # is, so no large terms cancel: q_p / 2 + j (quad_j j - lin_j), j = k - peak
        quad_j = 2.0 * q_mu / (n * n)

        def step(k, lead):
            return math.log((n - k) / (k + 1.0)) + lead - slope * k

        def reach(nats):
            # j steps from the peak, f is at least curv j (j - 1) / 2 below it
            return math.ceil(0.5 + math.sqrt(0.25 + 2.0 * nats / curv))

        queries = []
        with np.errstate(over="ignore"):
            for row, a in enumerate(points):
                q_cross = float(a @ self._mu_dual)
                if not math.isfinite(q_cross):
                    continue  # far: see below
                lead = 2.0 * (q_cross + drift) / n
                # the peak is the first k with step(k) <= 0 (step(n) = -inf);
                # since the steps fall by curv or more, it lies within
                # step(mid) / curv of mid
                mid = n // 2
                span = step(mid, lead) / curv
                peak = max(mid - math.floor(-span) - 1, 0) if span <= 0 else mid + 1
                hi = mid if span <= 0 else min(mid + math.ceil(span) + 1, n)
                while peak < hi:  # bisection
                    mid = (peak + hi) // 2
                    if step(mid, lead) <= 0.0:
                        hi = mid
                    else:
                        peak = mid + 1
                r_w = self._whiten @ (a - (2.0 * peak - n) / n * mu)
                if not np.isfinite(r_w).all():
                    # a leaves the double range in the sigma/n metric, and so
                    # does its distance to every mean m_k mu, |m_k| <= 1
                    continue
                queries.append((peak, row, lead, 2.0 * float(r_w @ self._mu_w) / n,
                                0.5 * float(r_w @ r_w)))

        first = reach(_WINDOW_NATS)
        # j and quad_j j over a first window that no end of 0..n cuts
        j_first = np.arange(-first, first + 1.0)
        quad_first = quad_j * j_first

        def window_sum(weights, k_lo, k_hi, peak, lead, lin_j):
            """(log of the window's sum of terms f(k) + q_p / 2, the cut tails'
            bound relative to it)"""
            if k_lo == peak - first and k_hi == peak + first:
                j, quad = j_first, quad_first
            else:
                j = np.arange(k_lo - peak, k_hi - peak + 1.0)
                quad = quad_j * j
            f = weights - j * (quad - lin_j)
            top = f[peak - k_lo]
            log_sum = top + math.log(np.exp(f - top).sum())
            # past each edge the steps are no larger than the edge's own
            tail = ((_geometric_tail(f[-1] - log_sum, step(k_hi, lead)) if k_hi < n else 0.0)
                    + (_geometric_tail(f[0] - log_sum, -step(k_lo - 1, lead))
                       if k_lo > 0 else 0.0))
            return log_sum, tail

        out = [-math.inf] * len(points)
        windows = {}
        queries.sort()
        start = 0
        while start < len(queries):
            # the next span: windows that overlap or touch, up to _SPAN_TERMS terms
            lo = max(queries[start][0] - first, 0)
            stop, hi = start, min(queries[start][0] + first, n)
            while stop + 1 < len(queries):
                nxt = queries[stop + 1][0]
                if nxt - first > hi + 1 or min(nxt + first, n) - lo >= _SPAN_TERMS:
                    break
                stop, hi = stop + 1, min(nxt + first, n)
            weights = _log_binom_weights(n, lo, hi)
            for peak, row, lead, lin_j, half_q in queries[start:stop + 1]:
                k_lo, k_hi = max(peak - first, 0), min(peak + first, n)
                log_sum, tail = window_sum(weights[k_lo - lo:k_hi - lo + 1],
                                           k_lo, k_hi, peak, lead, lin_j)
                nats = _WINDOW_NATS
                while not tail <= _TAIL_REL:
                    nats *= 2.0
                    k_lo, k_hi = max(peak - reach(nats), 0), min(peak + reach(nats), n)
                    log_sum, tail = window_sum(_log_binom_weights(n, k_lo, k_hi),
                                               k_lo, k_hi, peak, lead, lin_j)
                windows[row] = (k_lo, k_hi, tail)
                # -inf past the double range
                out[row] = log_sum - half_q + self._log_norm
            start = stop + 1
        if windows:
            self.last_window = windows[max(windows)]
        return out

    def density(self, a) -> float:
        return exp_or_inf(self.log_density(a))


def exact_mean_density(params: MixtureParams, n: int, a) -> float:
    """Density of the n-sample mean at a (one-shot convenience wrapper)."""
    return ExactMeanDensity(params, n).density(a)


@dataclass(frozen=True)
class McOracleConfig:
    """Monte Carlo oracle settings; samples below 1e4 are refused, and so
    are counts and seeds that are not whole numbers, a negative seed and a
    non-finite bandwidth."""

    samples: int = 20000
    seed: int = 0
    bandwidth: float | None = None  # None: Scott's rule per axis
    bootstrap: int = 200

    def __post_init__(self):
        if not is_count(self.samples, 10000):
            raise DimensionError(f"samples must be a whole number >= 1e4, got {self.samples}")
        if not is_count(self.bootstrap):
            raise DimensionError(f"bootstrap count must be a whole number >= 1, got {self.bootstrap}")
        if not is_count(self.seed, 0):
            raise DimensionError(f"seed must be a whole number >= 0, got {self.seed}")
        if self.bandwidth is not None and not (0 < self.bandwidth < math.inf):
            raise DimensionError(f"bandwidth must be finite and > 0, got {self.bandwidth}")
        for name in ("samples", "seed", "bootstrap"):
            object.__setattr__(self, name, int(getattr(self, name)))


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
        rng = np.random.default_rng(np.random.SeedSequence([seed, chunk_idx]))
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
    boot_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xB007]))
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
    _check_standardized(params)
    a = x / math.sqrt(n)
    log_exact = ExactMeanDensity(params, n).log_density(a)
    return _clt_compare(GaussianMixture(params), n, x, a, log_exact, kappa)[0]


def _check_standardized(params):
    """StandardizationError unless sigma + mu mu' = identity."""
    second = params.sigma + np.outer(params.mu, params.mu)
    if np.max(np.abs(second - np.eye(params.d))) > 1e-10:
        raise StandardizationError("clt_ratio needs sigma + mu mu' = identity; "
                                   "use MixtureParams.standardized()")


def _clt_compare(model, n, x, a, log_exact, kappa):
    """(CltComparison, log Gaussian limit) at x, a = x / sqrt(n), given the
    log exact density at a, for a standardized model; shared by clt_ratio
    and the clt_study rows."""
    d = model.dim
    log_gauss = -0.5 * d * _LOG_2PI - 0.5 * float(x @ x)
    ratio = exp_or_inf(log_exact - 0.5 * d * math.log(n) - log_gauss)
    local = c3_ball(model, a) * float(np.linalg.norm(x))**3 / math.sqrt(n)
    bound = local + budget_total(model, n, float(np.linalg.norm(a)), kappa)
    return CltComparison(ratio=ratio, bound=bound), log_gauss
