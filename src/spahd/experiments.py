"""Sweep drivers producing the CSV study files, and the slope-fit reader.

Every mode emits the same schema, one row per (d, n, query point):

    d,n,a_norm,rho_spa,rho_exact,rel_err,i_minus_one,eps,bound_total,wall_ms,status

with rel_err = |rho_spa / rho_exact - 1| and eps = d^2 / n; both density
ratios are taken from the difference of the log densities, so a row whose
densities underflow still reports finite errors.  Floats are
written with repr, so values round-trip exactly and a rerun with the same
spec and timing disabled is byte-identical.  wall_ms stays empty unless
timing is requested, because timing and reproducible bytes cannot coexist;
a row's wall_ms is then an even share of its cell's wall time.

A (d, n) cell is evaluated as one batch: the saddles of a d's query points
are solved once (saddle._solve_batch) and serve every n, and the exact
oracle answers all points of a cell in one batch query, whose merged
windows share their Loader weights.  Each row keeps its own status, and
its values are those of the one-point calls at its point, bit for bit.

Modes differ in how i_minus_one is obtained:

  error_scaling    |rho_exact / rho_spa - 1|, the measured correction gap;
  correction_study |I - 1| from the contour quadrature (any d for the
                   mixture), with the density ratio as a cross-check
                   (status "inconsistent" when they disagree);
  clt_study        reuses the columns: a_norm is ||x||, rho_spa the scaled
                   Gaussian limit n^{d/2} gamma_d(x), rho_exact the exact
                   scaled-mean density, rel_err = i_minus_one = |ratio - 1|,
                   bound_total the cubic-plus-budget bound.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .correction import QuadSpec, correction_integral
from .errors import ConfigError, FitError, SpahdError
from .model import GaussianMixture, check_point, load_model_file, parse_kv_lines
from .oracle import ExactMeanDensity, _check_standardized, _clt_compare
from .saddle import _solve_batch
from .spa import budget_total, exp_or_inf, expm1_or_inf, spa_density

CSV_HEADER = "d,n,a_norm,rho_spa,rho_exact,rel_err,i_minus_one,eps,bound_total,wall_ms,status"

# every package error raised inside a row becomes that row's status
_ROW_ERRORS = (SpahdError,)


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str
    model_path: str
    n_grid: tuple[int, ...]
    d_grid: tuple[int, ...] | None = None
    a_shells: tuple[tuple[float, int], ...] = ()
    a_points: tuple[tuple[float, ...], ...] = ()
    seed: int = 0
    out: str | None = None
    tol: float = 1e-12
    quad_nodes: int = 24
    trunc_radius: float = 2.5
    kappa: float = 1.0
    timing: bool = False

    def __post_init__(self):
        if self.mode not in _RUNNERS:
            raise ConfigError(f"mode must be one of {tuple(_RUNNERS)}, got {self.mode!r}")
        if not self.n_grid:
            raise ConfigError("n_grid must not be empty")
        if any(n < 1 for n in self.n_grid):
            raise ConfigError("n_grid entries must be >= 1")
        if not self.a_shells and not self.a_points:
            raise ConfigError("need at least one of a_shells, a_points")
        for name in ("kappa", "tol"):
            if not (0 < getattr(self, name) < math.inf):
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class ResultRecord:
    """One CSV row.  A ratio taken from the gap between the two log
    densities is inf once it passes the double range (a gap above about
    709 nats), and bound_total is inf once a budget term does; neither
    fails the row, but a correction_study row with an inf exact ratio is
    "inconsistent"."""

    d: int
    n: int
    a_norm: float
    rho_spa: float
    rho_exact: float
    rel_err: float
    i_minus_one: float
    eps: float
    bound_total: float
    wall_ms: float | None
    status: str


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float
    points: int


def _parse_bool(text):
    low = text.strip().lower()
    if low in ("on", "true", "yes", "1"):
        return True
    if low in ("off", "false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean flag, got {text!r}")


def load_experiment_spec(path) -> ExperimentSpec:
    """Parse a key = value spec file; the model path resolves relative to it."""
    path = Path(path)
    kv = parse_kv_lines(path.read_text())
    for key in ("mode", "model", "n_grid"):
        if key not in kv:
            raise ConfigError(f"spec is missing required key {key!r}")
    model_path = str((path.parent / kv["model"]).resolve())
    n_grid = tuple(int(tok) for tok in kv["n_grid"].split())
    d_grid = None
    if "d_grid" in kv:
        d_grid = tuple(int(tok) for tok in kv["d_grid"].split())
        if any(d < 1 for d in d_grid):
            raise ConfigError("d_grid entries must be >= 1")
    shells = []
    for tok in kv.get("a_shells", "").split():
        try:
            radius_s, count_s = tok.split(":")
            shells.append((float(radius_s), int(count_s)))
        except ValueError as exc:
            raise ConfigError(f"bad a_shells entry {tok!r}, expected radius:count") from exc
        if shells[-1][0] < 0 or shells[-1][1] < 1:
            raise ConfigError(f"bad a_shells entry {tok!r}")
    points = []
    if "a_points" in kv:
        for group in kv["a_points"].split(";"):
            group = group.strip()
            if group:
                points.append(tuple(float(tok) for tok in group.split()))
    return ExperimentSpec(
        mode=kv["mode"],
        model_path=model_path,
        n_grid=n_grid,
        d_grid=d_grid,
        a_shells=tuple(shells),
        a_points=tuple(points),
        seed=int(kv.get("seed", "0")),
        out=kv.get("out"),
        tol=float(kv.get("tol", "1e-12")),
        quad_nodes=int(kv.get("quad_nodes", "24")),
        trunc_radius=float(kv.get("trunc_radius", "2.5")),
        kappa=float(kv.get("kappa", "1.0")),
        timing=_parse_bool(kv.get("timing", "off")),
    )


def _query_points(spec, d):
    """Evaluation points for dimension d: explicit points, then shell draws.

    Shell directions come from a (seed, d) stream, so the same spec always
    visits the same points.  A zero-radius shell contributes the origin once.
    """
    pts = []
    for vec in spec.a_points:
        if len(vec) != d:
            raise ConfigError(
                f"a_points entry has {len(vec)} components but d={d}"
            )
        pts.append(np.asarray(vec, dtype=float))
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, d]))
    origin_done = False
    for radius, count in spec.a_shells:
        if radius == 0.0:
            if not origin_done:
                pts.append(np.zeros(d))
                origin_done = True
            continue
        u = rng.standard_normal((count, d))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        pts.extend(radius * row for row in u)
    return pts


def _sweep(spec, finish, clt=False):
    """Common d/n loop; the query points of each (d, n) cell are one batch.

    The saddles of a d's points are solved once, as one batch, and serve
    every n; clt rows need none.  In each cell every row first takes its own
    step: its spa estimate, or for a clt row the standardization check.  The
    oracle then evaluates the points of the rows that passed as one batch,
    and finish(model, d, n, a, saddle, est, log_exact, a_norm, eps, bound)
    builds each row; a clt row gets its point x as a and None for saddle
    and est, and queries the oracle at x / sqrt(n).  A package error raised
    at any step of a row becomes that row's status.

    bound, passed to finish and reported by failed rows, gives the budget
    total over the cell's ball: max ||a||, or max ||x|| / sqrt(n) for clt
    rows, over the rows that pass their first step.  It is computed once per
    (d, n), and only when a row asks for it; a failed row reports NaN where
    it raises.
    With timing on, a row's wall_ms is its cell's wall time, including the
    cell's share of its d's set-up and saddle batch, divided evenly among
    the cell's rows.
    """
    d_values = spec.d_grid
    records = []
    for d in d_values or (None,):
        t_d = time.perf_counter()
        params = load_model_file(spec.model_path, d_override=d)
        model = GaussianMixture(params)
        pts = _query_points(spec, params.d)
        # np.linalg.norm squares first, so it reads inf past about 1.34e154;
        # a finite point's norm is then taken from it rescaled by max |a_i|
        with np.errstate(over="ignore"):
            norms = [float(np.linalg.norm(p)) for p in pts]
        norms = [_rescaled_norm(p) if r == math.inf and np.all(np.isfinite(p)) else r
                 for p, r in zip(pts, norms)]
        points = np.array(pts).reshape(len(pts), params.d)
        saddles = [None] * len(pts) if clt else _solve_batch(model, points, spec.tol)
        share = (time.perf_counter() - t_d) * 1e3 / len(spec.n_grid)
        for n in spec.n_grid:
            t_cell = time.perf_counter()
            eps = params.d**2 / n
            oracle = ExactMeanDensity(params, n)
            queries = points / math.sqrt(n) if clt else points
            starts = [_error_of(_begin, params, n, q, s, clt)
                      for q, s in zip(queries, saddles)]
            alive = [i for i, st in enumerate(starts) if not isinstance(st, SpahdError)]
            radius = max((norms[i] for i in alive), default=0.0) / (math.sqrt(n) if clt else 1.0)
            bound = functools.cache(functools.partial(budget_total, model, n, radius, spec.kappa))
            logs = dict(zip(alive, oracle._log_density_batch(queries[alive]) if alive else ()))
            cell = []
            for i, (a, a_norm, st) in enumerate(zip(points, norms, starts)):
                if i in logs:
                    st = _error_of(finish, model, params.d, n, a, *st, logs[i], a_norm, eps,
                                   bound)
                if isinstance(st, SpahdError):
                    nan = math.nan
                    total = _error_of(bound)
                    st = ResultRecord(params.d, n, a_norm, nan, nan, nan, nan, eps,
                                      nan if isinstance(total, SpahdError) else total,
                                      None, type(st).__name__)
                cell.append(st)
            if spec.timing:
                wall = (share + (time.perf_counter() - t_cell) * 1e3) / len(cell)
                cell = [replace(rec, wall_ms=wall) for rec in cell]
            records += cell
    return records


def _error_of(fn, *args):
    """fn(*args), or the package error it raises."""
    try:
        return fn(*args)
    except _ROW_ERRORS as exc:
        return exc


def _begin(params, n, a, saddle, clt):
    """A row's first step, before its oracle query: (saddle, spa estimate)
    or the saddle's error, or (None, None) for a clt row once its model and
    point pass the checks."""
    if clt:
        _check_standardized(params)
        check_point(a, params.d, "a")
        return None, None
    if isinstance(saddle, SpahdError):
        return saddle
    return saddle, spa_density(saddle, n)


def _rescaled_norm(p):
    """||p|| for a finite p whose squared norm overflows: max |p_i| times the
    norm of p / max |p_i|."""
    scale = float(np.max(np.abs(p)))
    return scale * float(np.linalg.norm(p / scale))


def run_error_scaling(spec: ExperimentSpec):
    def finish(model, d, n, a, saddle, est, log_exact, a_norm, eps, bound):
        # both ratios from the log difference, so an underflowed density
        # still gives finite errors, and inf only past the double range
        gap = est.log_density - log_exact
        return ResultRecord(
            d, n, a_norm, est.density, exp_or_inf(log_exact),
            abs(expm1_or_inf(gap)), abs(expm1_or_inf(-gap)),
            eps, bound(), None, "ok",
        )

    return _sweep(spec, finish)


def run_correction_study(spec: ExperimentSpec):
    quad = QuadSpec(nodes_per_axis=spec.quad_nodes, trunc_radius=spec.trunc_radius)

    def finish(model, d, n, a, saddle, est, log_exact, a_norm, eps, bound):
        corr = correction_integral(model, saddle, n, quad, kappa=spec.kappa)
        gap = est.log_density - log_exact
        # I - 1 against the exact ratio rho_exact / rho_spa - 1
        i_true_m1 = expm1_or_inf(-gap)
        consistent = (math.isfinite(i_true_m1)
                      and abs((corr.i_value - 1.0) - i_true_m1)
                      <= max(1e-9, 5e-6 * abs(1.0 + i_true_m1)))
        return ResultRecord(
            d, n, a_norm, est.density, exp_or_inf(log_exact),
            abs(expm1_or_inf(gap)), corr.abs_err_from_one,
            eps, bound(), None, "ok" if consistent else "inconsistent",
        )

    return _sweep(spec, finish)


def run_clt_study(spec: ExperimentSpec):
    def finish(model, d, n, x, saddle, est, log_exact, x_norm, eps, bound):
        comparison, log_gauss = _clt_compare(model, n, x, x / math.sqrt(n), log_exact,
                                             spec.kappa)
        rho_limit = exp_or_inf(0.5 * d * math.log(n) + log_gauss)
        gap = abs(comparison.ratio - 1.0)
        return ResultRecord(
            d, n, x_norm, rho_limit, exp_or_inf(log_exact), gap, gap,
            eps, comparison.bound, None, "ok",
        )

    return _sweep(spec, finish, clt=True)


_RUNNERS = {
    "error_scaling": run_error_scaling,
    "correction_study": run_correction_study,
    "clt_study": run_clt_study,
}


def format_csv(records) -> str:
    lines = [CSV_HEADER]
    for r in records:
        wall = "" if r.wall_ms is None else repr(float(r.wall_ms))
        lines.append(",".join([
            str(r.d), str(r.n), repr(float(r.a_norm)),
            repr(float(r.rho_spa)), repr(float(r.rho_exact)),
            repr(float(r.rel_err)), repr(float(r.i_minus_one)),
            repr(float(r.eps)), repr(float(r.bound_total)),
            wall, r.status,
        ]))
    return "\n".join(lines) + "\n"


def read_records(path):
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path}: not a study file (bad header)")
    records = []
    for ln in lines[1:]:
        f = ln.split(",")
        if len(f) != 11:
            raise ConfigError(f"{path}: bad row {ln!r}")
        records.append(ResultRecord(
            d=int(f[0]), n=int(f[1]), a_norm=float(f[2]),
            rho_spa=float(f[3]), rho_exact=float(f[4]), rel_err=float(f[5]),
            i_minus_one=float(f[6]), eps=float(f[7]), bound_total=float(f[8]),
            wall_ms=None if f[9] == "" else float(f[9]), status=f[10],
        ))
    return records


def run_experiment(spec: ExperimentSpec, out=None):
    """Run a sweep; write the CSV and a sha256 manifest when an output is set.

    Returns (records, csv_path or None).
    """
    records = _RUNNERS[spec.mode](spec)
    target = out or spec.out
    if target is None:
        return records, None
    csv_path = Path(target)
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    payload = format_csv(records)
    csv_path.write_text(payload)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    manifest = {
        "mode": spec.mode,
        "model": spec.model_path,
        "rows": len(records),
        "csv_sha256": digest,
        "seed": spec.seed,
        "total_wall_ms": (
            sum(r.wall_ms for r in records if r.wall_ms is not None)
            if spec.timing else None
        ),
    }
    manifest_path = csv_path.with_name(csv_path.name + ".manifest.json")
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return records, csv_path


def emit_plot_data(records, path):
    """Write the (eps, i_minus_one) pairs of the ok rows, grouped by d, as
    JSON for external plotting; the document also names x, y and group."""
    series = {}
    for r in records:
        if r.status == "ok":
            series.setdefault(str(r.d), []).append([r.eps, r.i_minus_one])
    doc = {"x": "eps", "y": "i_minus_one", "group": "d", "series": series}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def fit_slope(xs, ys) -> SlopeFit:
    """Least-squares slope of log y against log x.

    Refuses fits that cannot mean anything: fewer than 4 points, any
    non-positive or non-finite value, or an x spread under half a decade.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise FitError("x and y must be 1-d arrays of equal length")
    if len(xs) < 4:
        raise FitError(f"need at least 4 points for a slope, got {len(xs)}")
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
        raise FitError("log fit needs finite values")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise FitError("log fit needs strictly positive values")
    lx, ly = np.log10(xs), np.log10(ys)
    if lx.max() - lx.min() < 0.5:
        raise FitError(
            f"x spans {lx.max() - lx.min():.3f} decades; refusing a slope "
            "from less than half a decade"
        )
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0
    return SlopeFit(
        slope=float(slope), intercept=float(intercept),
        r_squared=r2, points=len(xs),
    )
