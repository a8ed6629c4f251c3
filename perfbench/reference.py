"""Independent 50-digit references for the benchmark's output check.

Nothing here imports spahd.  The references are derived from the model
itself, for the symmetric mixture 1/2 N(mu, S) + 1/2 N(-mu, S) with a
diagonal S (every model the benchmark generates is diagonal):

  exact   the density of the n-sample mean is the (n+1)-component mixture
          sum_k C(n,k) 2^-n N(a; m_k mu, S/n), m_k = (2k - n)/n, summed in
          mpmath over every term within e^-200 of the largest (the terms
          are log-concave in k, so the rest is below 1e-80 relative);
  spa     the saddlepoint formula at an mpmath-solved saddle.  The saddle
          equation S tau + tanh(<mu, tau>) mu = a reduces to the scalar
          equation alpha + g tanh(alpha) = c, with g = mu'S^-1 mu and
          c = mu'S^-1 a, which is solved to 50 digits.

Values are cached as strings in a JSON file keyed by a hash of the inputs,
so repeated runs on one seed pay for them once.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path

import mpmath
from mpmath import mp

DPS = 50
# window of log terms kept in the exact sum, relative to the largest
_LOG_WINDOW = 200.0
# smallest normal double: a reference below it may legitimately read as 0.0
_TINY = mpmath.mpf(2.2250738585072014e-308)


def _scalars(model, a):
    """(q_a, c, g, log det S) as mpf for a diagonal model."""
    mu = [mp.mpf(x) for x in model["mu"]]
    sig = [mp.mpf(x) for x in model["sigma_diag"]]
    a = [mp.mpf(x) for x in a]
    if not (len(mu) == len(sig) == len(a)):
        raise ValueError("model and point dimensions differ")
    qa = mp.fsum(x * x / s for x, s in zip(a, sig))
    c = mp.fsum(m * x / s for m, x, s in zip(mu, a, sig))
    g = mp.fsum(m * m / s for m, s in zip(mu, sig))
    logdet = mp.fsum(mp.log(s) for s in sig)
    return qa, c, g, logdet


def log_exact_density(model, n, a):
    """log density of the n-sample mean at a, to DPS digits."""
    d = len(a)
    with mp.workdps(DPS + 10):
        qa, c, g, logdet = _scalars(model, a)
        qa_f, c_f, g_f = float(qa), float(c), float(g)
        log2 = math.log(2.0)

        def approx(k):
            m = (2.0 * k - n) / n
            return (math.lgamma(n + 1.0) - math.lgamma(k + 1.0)
                    - math.lgamma(n - k + 1.0) - n * log2
                    - 0.5 * n * (qa_f - 2.0 * m * c_f + m * m * g_f))

        lo, hi = 0, n  # integer ternary search for the peak of a concave sequence
        while hi - lo > 2:
            m1 = lo + (hi - lo) // 3
            m2 = hi - (hi - lo) // 3
            if approx(m1) < approx(m2):
                lo = m1 + 1
            else:
                hi = m2 - 1
        peak = max(range(lo, hi + 1), key=approx)
        floor = approx(peak) - _LOG_WINDOW
        k_lo = peak
        while k_lo > 0 and approx(k_lo - 1) >= floor:
            k_lo -= 1
        k_hi = peak
        while k_hi < n and approx(k_hi + 1) >= floor:
            k_hi += 1

        nn = mp.mpf(n)
        w = mp.exp(mp.loggamma(nn + 1) - mp.loggamma(k_lo + 1)
                   - mp.loggamma(nn - k_lo + 1) - nn * mp.log(2))
        total = mp.mpf(0)
        for k in range(k_lo, k_hi + 1):
            m = (2 * k - nn) / nn
            total += w * mp.exp(-nn / 2 * (qa - 2 * m * c + m * m * g))
            w = w * (nn - k) / (k + 1)
        return (-d / mp.mpf(2) * mp.log(2 * mp.pi) + d / mp.mpf(2) * mp.log(nn)
                - logdet / 2 + mp.log(total))


def saddle_terms(model, a):
    """(phi*(a), log det H) at the mpmath-solved saddle."""
    with mp.workdps(DPS + 10):
        qa, c, g, logdet = _scalars(model, a)
        if c == 0 or g == 0:
            alpha = c
        else:
            ends = sorted([c / (1 + g), c])
            alpha = mp.findroot(lambda x: x + g * mp.tanh(x) - c, tuple(ends),
                                solver="anderson")
            if abs(alpha + g * mp.tanh(alpha) - c) > mp.mpf(10) ** (-DPS):
                raise ArithmeticError("reference saddle did not converge")
        t = mp.tanh(alpha)
        phi = qa / 2 - t * t * g / 2 - mp.log(mp.cosh(alpha))
        log_det_h = logdet + mp.log(1 + (1 - t * t) * g)
        return phi, log_det_h


def log_spa_density(model, n, a):
    """log of the saddlepoint density approximation at a, to DPS digits."""
    d = len(a)
    with mp.workdps(DPS + 10):
        phi, log_det_h = saddle_terms(model, a)
        nn = mp.mpf(n)
        return d / mp.mpf(2) * (mp.log(nn) - mp.log(2 * mp.pi)) - log_det_h / 2 - nn * phi


def log_gauss_limit(n, x):
    """log of n^(d/2) times the standard normal density at x."""
    d = len(x)
    with mp.workdps(DPS + 10):
        xx = mp.fsum(mp.mpf(v) ** 2 for v in x)
        return d / mp.mpf(2) * (mp.log(mp.mpf(n)) - mp.log(2 * mp.pi)) - xx / 2


_KINDS = {
    "exact": lambda model, n, a: log_exact_density(model, n, a),
    "spa": lambda model, n, a: log_spa_density(model, n, a),
    "phi": lambda model, n, a: saddle_terms(model, a)[0],
    "gauss": lambda model, n, a: log_gauss_limit(n, a),
}


class References:
    """Cached reference values; call save() to persist new ones."""

    def __init__(self, path: Path):
        self.path = path
        try:
            self._cache = json.loads(path.read_text())
        except (OSError, ValueError):
            self._cache = {}
        self._dirty = False

    def get(self, kind, model, n, a):
        """The reference of one kind ('exact', 'spa', 'phi', 'gauss') as mpf."""
        key = hashlib.sha256(json.dumps(
            [kind, model, n, [repr(float(x)) for x in a]], sort_keys=True
        ).encode()).hexdigest()
        text = self._cache.get(key)
        if text is None:
            with mp.workdps(DPS + 10):
                text = mpmath.nstr(_KINDS[kind](model, n, a), DPS + 5)
            self._cache[key] = text
            self._dirty = True
        return mpmath.mpf(text)

    def save(self):
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self._cache, sort_keys=True))
        os.replace(tmp, self.path)
        self._dirty = False


def density_error(out, log_ref):
    """Relative error of a density against exp(log_ref).

    The denominator is floored at the smallest normal double, so a value
    that underflows to 0.0 only counts as wrong when the reference is
    representable.
    """
    with mp.workdps(DPS):
        if not math.isfinite(out):
            return math.inf
        ref = mp.exp(log_ref)
        return float(abs(mp.mpf(out) - ref) / max(ref, _TINY))


def relative_error(out, ref):
    """Relative error of a value against a nonzero reference."""
    with mp.workdps(DPS):
        if not math.isfinite(out):
            return math.inf
        return float(abs(mp.mpf(out) - ref) / abs(ref))
