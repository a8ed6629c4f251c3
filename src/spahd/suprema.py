"""Certified brackets of c3 and c4, the suprema of the whitened kernels
|Re K3| r^3 and |Re K4| r^4 over a (tau, t) region: K3 and K4 are the third
and fourth derivatives of log cosh at alpha + i beta, r = ||H(alpha)^{-1/2} mu||.
The mixture enters only through g = <mu, sigma^{-1} mu>, so nothing here needs
the model; GaussianMixture.c34_brackets is the one caller of _certified_sup.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

_EPS = 2.0**-52
# exp(-2 x) is 0 in doubles from x = 373 on, so |x| is clamped here (and in
# model.logcosh) before it is doubled: the values are the same, and 2|x|
# cannot overflow
_EXP_CLAMP = 400.0


def _sech2_tanh(alpha, beta):
    """(sech^2 w, tanh w) at w = |alpha| + i beta, complex and finite at any alpha.

    With z = exp(-2w), |z| <= 1: sech^2 w = 4z / (1 + z)^2 and
    tanh w = (1 - z) / (1 + z), which lose no digits where sech^2 is tiny and
    blow up only at the zeros of cosh (z = -1).
    """
    z = np.exp(-2.0 * (np.minimum(np.abs(alpha), _EXP_CLAMP) + 1j * np.asarray(beta)))
    zp = 1.0 + z
    return 4.0 * z / (zp * zp), (1.0 - z) / zp


def _c34_kernels(alpha, beta):
    """(k3, k4) = |Re[2 sech^2(w) tanh(w)]|, |Re[4 sech^2(w) - 6 sech^4(w)]| at
    w = alpha + i beta, the moduli of the real parts of the third and fourth
    derivatives of log cosh.  Both are even in alpha and in beta."""
    s, t = _sech2_tanh(alpha, beta)
    return np.abs((2.0 * s * t).real), np.abs((s * (4.0 - 6.0 * s)).real)


# --- certified c3/c4 suprema ----------------------------------------------
#
# Write r = ||H(alpha)^{-1/2} mu||, T = t_radius and beta = r(alpha) T u with
# u in [0, 1].  Over the quarter 0 <= alpha <= a_max, 0 <= u <= 1 each weighted
# kernel is |G| with G = U(alpha, beta) W(alpha), U = Re K for K3 = 2 s t or
# K4 = 4 s - 6 s^2 (s = sech^2 w, t = tanh w) and W = r^3 or r^4.  U is
# harmonic, so each of its partial derivatives of order j is at most |K^(j)|,
# and K^(j) is t or 1 times a polynomial in s.  Over a rectangle of w reaching
# rho from its centre c, |s - s(c)| <= 2 sup|s| sup|t| rho and
# |t| <= |t(c)| + sup|s| rho, with sup|s| = 1 / (sinh^2 a0 + min cos^2 beta),
# so the Taylor coefficients of that polynomial at s(c) bound |K^(j)|.  With
# sup bounds of r', r'', r''' this bounds the derivatives of G up to order
# three over any box [a0, a1] x [u0, u1].
#
# The quarter is covered by boxes, by segments of its four edges and by its
# corners.  An element is settled when
#   - its second-order bound G(c) + |grad G(c)| h + h' H h / 2 is at most
#     (1 + _SUP_RTOL) times the best value found (lo), or
#   - |G| is strictly monotone along a side it extends in, or G keeps its
#     sign and |G| is strictly convex along one: no point off the edges is
#     then a local maximum, and the edges are elements of their own, or
#   - it lies in a run of adjacent edge segments on which |G| is concave: a
#     Newton search finds the run's maximum, and concavity bounds the run by
#     the tangent there.
# An element whose bound is within that tolerance but for its rounding
# allowance is settled too: halving would not shrink the allowance.
# Everything else is halved along the sides whose second-order term is still
# large and not below _SUP_ASPECT times the other side's (along both, when
# only its first-order terms keep it open), and evaluated again.  Halving is
# the one cut.  Next to a zero of cosh it needs many rounds (about 30 at 1e-8
# of the pole condition r(0) T = pi/2), but a budget region comes within 10 %
# of that condition only at eps = d^2 / n past 0.3, where the budget is
# vacuous.  The search stops when every element is settled or dropped, or
# before it would pass _SUP_WORK element evaluations (about 0.1 s).  hi, the
# largest bound of an element not dropped, is an upper bound of the
# supremum, and when the search closes hi <= lo (1 + _SUP_RTOL) up to the
# allowances; it is not floored at lo, so bounds that fell below a value
# the kernel attains can show as lo > hi.  Several regions can be searched at
# once: they share each round's element evaluations, and each keeps its own
# lo, hi, work limit and cuts.
#
# A round is one _element_bounds call over the open elements of all regions,
# then one _sup_round per region.  The sups of K^(j) are taken once per
# element and sliced per kernel, both sides of an element are tested at once,
# and every concave edge run is settled by scalar Newton on Python floats, in
# the order the runs are built: no run's result depends on another's.  A
# search of one region mostly closes in its first round, so a round's fixed
# cost, not its element count, sets its time.

_SUP_RTOL = 1e-6
# a computed kernel value is off by a few ulps of |K| plus the change of K
# under a move of the point by a few ulps of 1 + |alpha| + |beta|: the
# rounding of alpha and beta = r T u, and the cancellation in 1 + exp(-2w),
# which grows like |tan beta| towards a zero of cosh.  Every element bound
# adds _SUP_ULPS ulps of sup|K| + sup|K'| (1 + alpha + beta) over the element
# (times the weight), and the sups of the higher derivatives carry a
# relative slack
_SUP_ULPS = 16.0
_SUP_SLACK = 1e-9
# first cover: _SUP_GRID rows of boxes in u, and over alpha <= _SUP_NEAR
# columns of width about _SUP_WIDTH (_SUP_GRID to 4 _SUP_GRID of them); boxes
# between powers of 4 beyond it, where the kernels decay like exp(-2 alpha).
# Edge segments are _SUP_SEGMENTS times finer, as their tests run along one side
_SUP_GRID = 8
_SUP_WIDTH = 0.075
_SUP_SEGMENTS = 2
# the u ends of the rows of boxes and of the segments along u: lower ends in
# the first row, upper ends in the second
_SUP_EU, _SUP_SU = (np.array((np.arange(cuts), np.arange(1, cuts + 1))) / cuts
                    for cuts in (_SUP_GRID, _SUP_GRID * _SUP_SEGMENTS))
_SUP_NEAR = 4.0
_SUP_ROUNDS = 60
_SUP_ASPECT = 0.25
# elements per evaluation, and a limit on the elements evaluated in all
_SUP_CHUNK = 512
_SUP_WORK = 1 << 15
_SUP_NEWTON = 40
# K3 = t B0(s), K4 = A1(s), K4' = t B2(s), K4'' = A3(s), K4''' = t B4(s);
# _SUP_TAYLOR[5 l + j] holds the l-th Taylor coefficient of the j-th of these
# polynomials in the powers 1, s, s^2, s^3 (K3^(j) = -K4^(j-1)); the third
# coefficients are constants, |_SUP_TAYLOR3|
_SUP_TAYLOR = np.array([
    [0, 2, 0, 0], [0, 4, -6, 0], [0, -8, 24, 0], [0, 16, -120, 120], [0, -32, 480, -720],
    [2, 0, 0, 0], [4, -12, 0, 0], [-8, 48, 0, 0], [16, -240, 360, 0], [-32, 960, -2160, 0],
    [0, 0, 0, 0], [-6, 0, 0, 0], [24, 0, 0, 0], [-120, 360, 0, 0], [480, -2160, 0, 0],
], dtype=float)
_SUP_TAYLOR3 = np.array([[0.0], [0.0], [0.0], [120.0], [720.0]])
# the weight exponents of c3 and c4
_SUP_K = np.array([3.0, 4.0])


def _jet(t_radius, u, q, th, r, k, k0, k1, k2):
    """Exact (G, G_a, G_u, G_aa, G_uu) at points with sech^2 alpha = q,
    tanh alpha = th and r = r(alpha), for the weight exponent k and
    K, K', K'' = k0, k1, k2 there; plain arithmetic, so on floats and complex
    numbers, or elementwise on arrays."""
    p = q * th
    r3 = r * r * r
    # r' = r^3 p and r'' = r^3 (3 r^2 p^2 + p') with p = sech^2 tanh, p' = q (3q - 2)
    rp = r3 * p
    rpp = r3 * (3.0 * r * r * p * p + q * (3.0 * q - 2.0))
    x = rp / r
    w = r ** k
    w1 = k * x * w
    w2 = (k * (k - 1.0) * x * x + k * rpp / r) * w
    b_u = r * t_radius
    b_a = rp * t_radius * u
    b_aa = rpp * t_radius * u
    # U_a, U_b = Re K', -Im K' and U_aa, U_ab = Re K'', -Im K''
    uv, ua, ub, uaa = k0.real, k1.real, -k1.imag, k2.real
    d1 = ua + ub * b_a
    d2 = uaa * (1.0 - b_a * b_a) - 2.0 * k2.imag * b_a + ub * b_aa
    return (uv * w, d1 * w + uv * w1, ub * b_u * w,
            d2 * w + 2.0 * d1 * w1 + uv * w2, -uaa * b_u * b_u * w)


def _first_cover(a_max):
    """The rows a0, a1, u0, u1 of the first cover of alpha <= a_max, u <= 1:
    boxes over the alpha breaks a_boxes, segments of u = 0 and u = 1 over
    a_segments, segments of the lines alpha = 0 and alpha = a_max, and the
    four corners."""
    near = min(a_max, _SUP_NEAR)
    cells = min(max(_SUP_GRID, math.ceil(near / _SUP_WIDTH)), 4 * _SUP_GRID)
    # boxes between powers of 4 past _SUP_NEAR
    far = [near]
    while far[-1] < a_max:
        far.append(min(4.0 * far[-1], a_max))
    # every _SUP_SEGMENTS-th alpha break of the segments is a box's
    a_segments = np.linspace(0.0, near, cells * _SUP_SEGMENTS + 1)
    a_boxes = a_segments[::_SUP_SEGMENTS]
    if len(far) > 1:
        a_boxes, a_segments = (np.concatenate((x, far[1:])) for x in (a_boxes, a_segments))
    boxes = (a_boxes.size - 1) * _SUP_GRID
    ma, mu = a_segments.size - 1, _SUP_SU.shape[1]
    cover = np.zeros((4, boxes + 2 * ma + 2 * mu + 4))
    # each pair of rows, (a0, a1) or (u0, u1), is filled at once
    ends = a_boxes.repeat(_SUP_GRID)
    cover[0, :boxes] = ends[:-_SUP_GRID]
    cover[1, :boxes] = ends[_SUP_GRID:]
    cover[2:, :boxes].reshape(2, -1, _SUP_GRID)[:] = _SUP_EU[:, None]
    # the segments on u = 0, then on u = 1
    cover[:2, boxes:boxes + 2 * ma].reshape(2, 2, ma)[:] = np.array(
        (a_segments[:-1], a_segments[1:]))[:, None]
    cover[2:, boxes + ma:boxes + 2 * ma] = 1.0
    # on alpha = 0, then on alpha = a_max; then the corners (0, 0), (a_max, 0),
    # (0, 1), (a_max, 1)
    cover[2:, boxes + 2 * ma:-4].reshape(2, 2, mu)[:] = _SUP_SU[:, None]
    cover[:2, boxes + 2 * ma + mu:-4] = cover[:2, -3::2] = a_segments[-1]
    cover[2:, -2:] = 1.0
    return cover


def _certified_sup(regions):
    """[((lo3, hi3), (lo4, hi4)), ...]: one bracket per region
    (g, a_max, t_radius), over alpha <= a_max, u <= 1 for a mixture with
    g = <mu, sigma^{-1} mu>.

    The regions share each round's _element_bounds calls: every element
    carries its region, and a region's elements stay together, in the order
    a search of that region alone holds them.  Each region keeps its own
    lo, hi, work count, stop test, Newton runs and cuts (_sup_round), so
    its bracket is, bit for bit, the one that search gives."""
    out = [None] * len(regions)
    covers = [_first_cover(a_max) for _, a_max, _ in regions]
    a0, a1, u0, u1 = covers[0] if len(covers) == 1 else np.concatenate(covers, axis=1)
    # the regions still searched, and their element counts
    open_, counts = list(range(len(regions))), [c.shape[1] for c in covers]
    per_region = np.array(regions, dtype=float)
    lo = np.zeros((len(regions), 2))
    hi = np.zeros((len(regions), 2))
    work = [0] * len(regions)
    for rounds_left in range(_SUP_ROUNDS - 1, -1, -1):
        g, _, t_radius = per_region[open_].repeat(counts, axis=0).T
        # in chunks, so that no temporary grows large
        parts = [_element_bounds(*(x[i:i + _SUP_CHUNK] for x in (g, t_radius, a0, a1, u0, u1)))
                 for i in range(0, a0.size, _SUP_CHUNK)]
        bounds = (parts[0] if len(parts) == 1
                  else [np.concatenate(x, axis=1) for x in zip(*parts)])
        kept, still = [], []
        end = 0
        for k, count in zip(open_, counts):
            run = slice(end, end + count)
            end += count
            work[k] += count
            more = _sup_round(regions[k], lo[k], hi[k], work[k], rounds_left == 0,
                              [x[run] for x in (a0, a1, u0, u1)],
                              [x[:, run] for x in bounds])
            if more is None:
                out[k] = tuple(zip(lo[k].tolist(), hi[k].tolist()))
            else:
                kept.append(more)
                still.append(k)
        if not kept:
            break
        a0, a1, u0, u1 = kept[0] if len(kept) == 1 else (np.concatenate(x) for x in zip(*kept))
        open_, counts = still, [x[0].size for x in kept]
    return out


def _sup_round(region, lo, hi, work, last, elements, bounds):
    """One round of the search of region (g, a_max, t_radius), given its
    elements (a0, a1, u0, u1) and their _element_bounds: raises lo and hi in
    place, and returns None when the search is done (at the latest in the
    last round), or else its open elements halved (_halve), the elements of
    its next round.  work counts the elements the search has evaluated."""
    g, _, t_radius = region
    a0, a1, u0, u1 = elements
    value, ub, allow, drop, concave, e_a, e_u = bounds
    lo[:] = np.fmax(lo, value.max(axis=1))
    # each kernel's Newton runs leave the other kernel's lo and ub as they were
    open_ = concave & (ub > lo[:, None] * (1.0 + _SUP_RTOL))
    for which in (0, 1):
        _settle_concave(g, t_radius, which, a0, a1, u0, u1, ub[which], allow[which], lo,
                        open_[which])
    # a corner cannot be halved, so its bound is final, and neither is an
    # element within tolerance but for its rounding allowance (near the
    # pole condition the allowance alone can pass it); both count
    # towards hi; a bound whose weight r^k overflowed is inf - inf here,
    # and stays open
    with np.errstate(invalid="ignore"):
        over = (~(drop | (ub - allow <= lo[:, None] * (1.0 + _SUP_RTOL)))
                & ((a1 > a0) | (u1 > u0)))
    live = over[0] | over[1]
    if last or not live.any() or work + 4 * live.sum() > _SUP_WORK:
        # every element not dropped is bounded by ub; the open ones only
        # when the work or round limit stopped the search, and then
        # hi > lo (1 + _SUP_RTOL)
        hi[:] = np.maximum(hi, np.where(drop, 0.0, ub).max(axis=1))
        return None
    hi[:] = np.maximum(hi, np.max(np.where(over | drop, 0.0, ub), axis=1))
    # halve each open element along the sides whose second-order term,
    # for a kernel it is open for, exceeds a quarter of that kernel's
    # tolerance and is not below _SUP_ASPECT times the other side's (an
    # undefined term, 0 * inf where a bound overflowed, counts as over)
    tol = 0.25 * _SUP_RTOL * lo[:, None]
    over = over[:, live]
    a0, a1, u0, u1 = a0[live], a1[live], u0[live], u1[live]
    e_a, e_u = (np.where(over, e[:, live], 0.0) for e in (e_a, e_u))
    cut_a, cut_u = ((h > 0.0) & np.any(~(e <= tol) & ~(e < _SUP_ASPECT * f), axis=0)
                    for h, e, f in ((a1 - a0, e_a, e_u), (u1 - u0, e_u, e_a)))
    # an element open on its first-order terms alone is halved both ways
    both = ~(cut_a | cut_u)
    cut_a |= both & (a1 > a0)
    cut_u |= both & (u1 > u0)
    return _halve(a0, a1, u0, u1, cut_a, cut_u)


def _halve(a0, a1, u0, u1, cut_a, cut_u):
    """The elements, halved along alpha where cut_a and along u where cut_u."""
    # halved before the sum, which passes the double range for a1 near its top
    am = np.where(cut_a, 0.5 * a0 + 0.5 * a1, a1)
    um = np.where(cut_u, 0.5 * (u0 + u1), u1)
    both = cut_a & cut_u
    halves = ((a0, am, u0, um),
              (am[cut_a], a1[cut_a], u0[cut_a], um[cut_a]),
              (a0[cut_u], am[cut_u], um[cut_u], u1[cut_u]),
              (am[both], a1[both], um[both], u1[both]))
    return tuple(np.concatenate(x) for x in zip(*halves))


def _settle_concave(g, t_radius, which, a0, a1, u0, u1, ub, allow, lo, open_):
    """Newton on each run of contiguous open edge segments where kernel
    `which` is concave: the run's value raises lo[which], and its tangent
    bound, plus the largest rounding allowance of the run, replaces the bound
    of each of its segments."""
    # (line, start, end, index) of each open segment, in Python floats for the
    # scalar Newton: along alpha on u = 0, 1, then along u on alpha = 0, a_max
    segments = []
    for i in open_.nonzero()[0].tolist():
        e0, e1, v0, v1 = float(a0[i]), float(a1[i]), float(u0[i]), float(u1[i])
        segments.append((v0, e0, e1, i) if e1 > e0 else (2.0 + e0, v0, v1, i))
    runs = []
    for line, start, end, i in sorted(segments, key=lambda x: x[:2]):
        if runs and line == runs[-1][0] and start == runs[-1][2]:
            runs[-1][2] = end
            runs[-1][3].append(i)
        else:
            runs.append([line, start, end, [i]])
    for _, x0, x1, members in runs:
        i = members[0]
        e0, v0 = float(a0[i]), float(u0[i])
        if a1[i] > a0[i]:
            found, bound = _segment_newton(g, t_radius, which, x0, x1, v0, v0)
        else:
            found, bound = _segment_newton(g, t_radius, which, e0, e0, x0, x1)
        lo[which] = max(lo[which], found)
        ub[members] = bound + allow[members].max()


def _segment_newton(g, t_radius, which, a0, a1, u0, u1):
    """(value, bound) on an edge segment where |G| is concave: Newton for the
    maximum, then |G| <= |G(x)| + |G|'(x) (y - x) over the segment."""
    along_a = a1 > a0
    lo, hi = (a0, a1) if along_a else (u0, u1)
    k = 3.0 + which

    def jet(x):
        alpha, u = (x, u0) if along_a else (a0, x)
        e = math.exp(-alpha)
        sa = 2.0 * e / (1.0 + e * e)
        q = sa * sa
        r = math.sqrt(g / (1.0 + g * q))
        z = cmath.exp(complex(-2.0 * alpha, -2.0 * r * t_radius * u))
        zp = 1.0 + z
        s = 4.0 * z / (zp * zp)
        t = (1.0 - z) / zp
        k4 = s * (4.0 - 6.0 * s)
        d4 = 8.0 * s * t * (3.0 * s - 1.0)
        ks = (2.0 * s * t, -k4, -d4) if which == 0 else (
            k4, d4, 8.0 * s * (15.0 * s * s - 15.0 * s + 2.0))
        v, d_a, d_u, d_aa, d_uu = _jet(t_radius, u, q, math.tanh(alpha), r, k, *ks)
        return (v, d_a, d_aa) if along_a else (v, d_u, d_uu)

    x = 0.5 * (lo + hi)
    value, d1, d2 = jet(x)
    for _ in range(_SUP_NEWTON):
        if not abs(d2) > 0.0:
            # flat in rounding (c3 vanishes on alpha = 0); the tangent bound
            # holds at any x of a concave run
            break
        step = min(max(x - d1 / d2, lo), hi)
        done = abs(step - x) <= 4.0 * _EPS * max(1.0, abs(x))
        # a step that leaves x as it was, to the sign of a zero, leaves the jet
        if step != x or math.copysign(1.0, step) != math.copysign(1.0, x):
            x = step
            value, d1, d2 = jet(x)
        if done:
            break
    slope = d1 if value >= 0.0 else -d1
    return abs(value), abs(value) + max(slope * (lo - x), slope * (hi - x))


def _element_bounds(g, t_radius, a0, a1, u0, u1):
    """(value, ub, allow, drop, concave, e_a, e_u) for elements
    [a0, a1] x [u0, u1]: boxes, edge segments (one side of zero length) and
    points, each in the region of its own g and t_radius (arrays like a0).
    Each is (2, m), one row per kernel: |G| at the centre, the
    second-order upper bound, its rounding allowance (included in the
    bound), whether the element holds no local maximum off the edges,
    whether it is a segment with |G| concave along it, and the second-order
    terms along alpha and u."""
    # one entry per element and kernel: the c3 half, then the c4 half; the
    # rows u0, a0 and u1, a1 hold each side's lower and upper end
    m = a0.size
    n = 2 * m
    ends = np.concatenate((u0, u0, a0, a0, u1, u1, a1, a1, g, g, g, g, g, g,
                           t_radius, t_radius)).reshape(8, n)
    u0, a0, u1, a1, g, _, _, tr = ends
    k = _SUP_K.repeat(m)
    hu, ha = h = 0.5 * (ends[2:4] - ends[:2])
    uc, ac = ends[:2] + h
    # -2 alpha overflows past half the double range, where exp(-2 alpha) is 0
    # all the same
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        e2 = np.exp(-2.0 * np.concatenate((a0, a1, ac)))
        den = 1.0 + e2
        q = 4.0 * e2 / (den * den)
        th = (1.0 - e2) / den
        g3 = ends[4:7].reshape(-1)
        r = np.sqrt(g3 / (1.0 + g3 * q))
        q0, qc = q[:n], q[2 * n:]
        r0, r1, rc = r[:n], r[n:2 * n], r[2 * n:]
        bu = r1 * tr
        b0, b1, bc = r0 * tr * u0, bu * u1, rc * tr * uc
        rho = np.hypot(ha, np.maximum(bc - b0, b1 - bc))
        # the sups of K^(j) depend on the element alone, so they are taken
        # over the c3 half.  min cos^2 beta over [b0, b1]: 0 where some
        # pi/2 + k pi lies in it, that is where cos changes sign or the
        # interval spans pi
        qh, rh = q0[:m], rho[:m]
        cos = np.cos(np.concatenate((b0[:m], b1[:m])))
        pole = (cos[:m] * cos[m:] <= 0.0) | (b1[:m] - b0[:m] >= math.pi)
        cos *= cos
        cos2 = np.where(pole, 0.0, np.minimum(cos[:m], cos[m:]))
        s, t = _sech2_tanh(ac[:m], bc[:m])
        # 4 e2 / (1 + e2)^2 rounds sech^2 alpha to 1 + 2^-52 below about 1e-8
        qh = np.minimum(qh, 1.0)
        sup_s = qh / (1.0 - qh + qh * cos2)
        tb = np.abs(t) + sup_s * rh
        dl = 2.0 * sup_s * tb * rh
        # two columns at least: a product with one column would take the
        # matrix-vector route, which rounds differently
        powers = np.empty((4, max(m, 2)), dtype=complex)
        powers[0] = 1.0
        powers[1] = s
        np.multiply(s, s, out=powers[2])
        np.multiply(powers[2], s, out=powers[3])
        # sup |K4^(j-1)| over the element, j = 0..4, with K4^(-1) = -K3, one
        # Taylor order at a time
        taylor = (_SUP_TAYLOR @ powers)[:, :m]
        mod = np.abs(taylor)
        sup_k = mod[10:] + dl * _SUP_TAYLOR3
        sup_k = mod[5:10] + dl * sup_k
        sup_k = mod[:5] + dl * sup_k
        sup_k[0::2] *= tb
        kc = taylor[:5]
        kc[0::2] *= t
        # per kernel, K^(j) and sup |K^(j)|: c4 reads the row after c3's,
        # and K3^(j) = -K4^(j-1)
        m0, m1, m2, m3 = np.concatenate((sup_k[:4], sup_k[1:]), axis=1)
        k0, k1, k2 = kk = np.concatenate((kc[:3], kc[1:4]), axis=1)
        kk[1:, :m] *= -1.0
        val, g_a, g_u, g_aa, g_uu = _jet(tr, uc, qc, th[2 * n:], rc, k, k0, k1, k2)
        # over the element, with p = sech^2 tanh <= q0 tanh(a1),
        # |p'| = q |3q - 2| and |p''| = 4 q tanh |3q - 1|: xs, ys and zs bound
        # r' / r, r'' / r and r''' / r, since r' = r^3 p
        p = q0 * th[n:2 * n]
        d3q = 3.0 * q[:2 * n]
        dev = np.abs(d3q - 2.0)
        dp = q0 * np.maximum(dev[:n], dev[n:])
        dev = np.abs(d3q - 1.0)
        ddp = 4.0 * p * np.maximum(dev[:n], dev[n:])
        r12 = r1 * r1
        xs = r12 * p
        ys = r12 * (3.0 * r12 * p * p + dp)
        zs = r12 * (r12 * (15.0 * r12 * p * p * p + 9.0 * p * dp) + ddp)
        # sups of W^(j) / W over the element, and of the derivatives of beta;
        # w carries the relative slack that keeps every bound above its
        # rounding, and so every test strict
        w = r1 ** k * (1.0 + _SUP_SLACK)
        w1 = k * xs
        km1 = k - 1.0
        w2 = km1 * w1 * xs + k * ys
        w3 = (k - 2.0) * km1 * w1 * xs * xs + 3.0 * km1 * w1 * ys + k * zs
        bau = xs * bu
        ba = 1.0 + bau * u1
        baa = ys * bu * u1
        bb = ba * bu
        bw = bu * w1
        m2b = m2 * bb
        # sups of |d^j/dalpha^j U(alpha, beta(alpha, u))| at fixed u, j = 1, 2
        da1 = m1 * ba
        da2 = m2 * ba * ba + m1 * baa
        # sups of |G_uu| and |G_aa| (one row per side, u then alpha, as in
        # h), of |G_au| and of the third derivatives, over W
        hh = np.empty((2, n))
        np.multiply(m2 * bu, bu, out=hh[0])
        np.add(da2 + 2.0 * da1 * w1, m0 * w2, out=hh[1])
        h_au = m2b + m1 * (bau + bw)
        g_aaa = (m3 * ba * ba * ba + 3.0 * m2 * ba * baa + m1 * zs * bu * u1
                 + 3.0 * (da2 * w1 + da1 * w2) + m0 * w3)
        g_aau = (m3 * ba * bb + m2 * (baa * bu + 2.0 * ba * bau) + m1 * ys * bu
                 + 2.0 * (m2b + m1 * bau) * w1 + m1 * bu * w2)
        g_uua = (m3 * bb + m2 * (2.0 * bau + bw)) * bu
        # G_uu and G_aa stay within var of their centre values, G_u and G_a
        # within grad
        var = np.empty((2, n))
        np.add(m3 * bu * bu * bu * hu, g_uua * ha, out=var[0])
        np.add(g_aaa * ha, g_aau * hu, out=var[1])
        var *= w
        hh *= w
        h_au *= w
        grad = hh * h + h_au * h[::-1]
        e = hh * h * h
        slope = np.abs(np.concatenate((g_u, g_a))).reshape(2, n)
        value = np.abs(val)
        spread = slope[1] * ha + slope[0] * hu + 0.5 * (e[1] + e[0]) + h_au * ha * hu
        allow = _SUP_ULPS * _EPS * (m0 + m1 * (1.0 + a1 + b1)) * w
        ub = np.fmin(m0 * w, value + spread) + allow
        # no point off an edge is a local maximum of |G| where G is strictly
        # monotone along a side the element extends in, or where |G| = sign G
        # (G keeps its sign) is strictly convex along one
        sign = np.sign(val)
        kept = value > spread
        curv = sign * np.concatenate((g_uu, g_aa)).reshape(2, n)
        along = h > 0.0
        mono = along & (slope > grad)
        convex = along & (curv > var)
        drop = mono[0] | mono[1] | (kept & (convex[0] | convex[1]))
        bend = curv + var < 0.0
        concave = kept & np.where(along[0], ~along[1] & bend[0], along[1] & bend[1])
    # a bound that overflowed or is undefined keeps its element open
    ub[~(ub >= 0.0)] = np.inf
    return tuple(x.reshape(2, m) for x in (value, ub, allow, drop, concave, e[1], e[0]))
