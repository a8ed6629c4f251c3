"""Sweep runners, CSV/manifest determinism, slope fitting."""

import hashlib
import json
import math
import warnings

import numpy as np
import pytest

import spahd.experiments
import spahd.model as model_module
import spahd.oracle
from spahd import (
    ConfigError,
    DimensionError,
    FitError,
    GaussianMixture,
    clt_ratio,
    exact_mean_density,
    fit_slope,
    load_model_file,
    run_experiment,
)
from spahd.correction import QuadSpec, correction_integral
from spahd.oracle import ExactMeanDensity
from spahd.saddle import solve_saddle
from spahd.spa import budget_total, spa_density
from spahd.experiments import (
    CSV_HEADER,
    ExperimentSpec,
    emit_plot_data,
    format_csv,
    load_experiment_spec,
    read_records,
)

# mpmath 40-digit reference: mu = 1, sigma = 1, a = 0, n = 2
REL_ERR_N2 = 0.033872956787750616434


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("d = 1\nmu = unit\nsigma = identity\n")
    return str(path)


def make_spec(model_file, **kw):
    base = dict(
        mode="error_scaling",
        model_path=model_file,
        n_grid=(2, 4),
        a_points=((0.0,),),
    )
    base.update(kw)
    return ExperimentSpec(**base)


class TestErrorScaling:
    def test_reference_row(self, model_file):
        records, _ = run_experiment(make_spec(model_file))
        first = records[0]
        assert first.d == 1 and first.n == 2
        assert first.rel_err == pytest.approx(REL_ERR_N2, rel=1e-12)
        assert first.status == "ok"

    def test_row_identity(self, model_file):
        # rel_err = |spa/exact - 1| and i_minus_one = |exact/spa - 1| are
        # the same gap seen from the two sides of the ratio
        records, _ = run_experiment(
            make_spec(model_file, n_grid=(2, 8, 32), a_points=((0.2,),))
        )
        for r in records:
            assert r.rel_err == pytest.approx(
                r.i_minus_one / (r.rho_exact / r.rho_spa), rel=1e-12
            )

    def test_gap_halves_when_n_doubles(self, model_file):
        records, _ = run_experiment(
            make_spec(model_file, n_grid=(100, 200, 400), a_points=((0.1,),))
        )
        gaps = [r.i_minus_one for r in records]
        for a, b in zip(gaps, gaps[1:]):
            assert 1.6 <= a / b <= 2.5

    def test_pure_gaussian_rows_are_exact(self, tmp_path):
        path = tmp_path / "gauss.txt"
        path.write_text("d = 2\nsigma = identity\n")
        spec = make_spec(str(path), n_grid=(10, 50), a_points=((0.3, -0.1),))
        records, _ = run_experiment(spec)
        for r in records:
            assert r.rel_err <= 1e-12
            assert r.status == "ok"

    def test_underflowed_densities_give_finite_rows(self, model_file):
        # at n = 1e5 the a = 0.3 densities underflow to 0.0; the errors come
        # from the log difference and stay finite
        spec = make_spec(model_file, n_grid=(100000,), a_points=((0.0,), (0.1,), (0.3,)))
        records, _ = run_experiment(spec)
        assert [r.status for r in records] == ["ok"] * 3
        last = records[-1]
        assert last.rho_spa == 0.0
        assert math.isfinite(last.rel_err) and math.isfinite(last.i_minus_one)
        assert 1e-7 < last.rel_err < 1e-6

    def test_any_package_error_fails_only_its_row(self, model_file, monkeypatch):
        solve = spahd.experiments._solve_batch

        def picky(model, points, tol):
            return [DimensionError("refused") if a[0] > 0.15 else saddle
                    for a, saddle in zip(points, solve(model, points, tol))]

        monkeypatch.setattr(spahd.experiments, "_solve_batch", picky)
        records, _ = run_experiment(make_spec(model_file, a_points=((0.1,), (0.2,))))
        assert [r.status for r in records] == ["ok", "DimensionError"] * 2

    @pytest.mark.parametrize("points", [((math.nan,), (0.1,)), ((0.1,), (math.nan,))])
    def test_non_finite_point_fails_only_its_row(self, model_file, points):
        records, _ = run_experiment(make_spec(model_file, a_points=points))
        finite, _ = run_experiment(make_spec(model_file, a_points=((0.1,),)))
        expected = ["DimensionError" if math.isnan(p[0]) else "ok" for p in points]
        assert [r.status for r in records] == expected * 2
        # the budget covers the finite points only
        assert [r.bound_total for r in records] == [
            r.bound_total for r in finite for _ in points
        ]

    @pytest.mark.parametrize("big", [1e160, 1e308])
    def test_point_past_double_range_fails_only_its_row(self, model_file, big):
        # phi* overflows there; the row is a DimensionError, not a nan row
        # marked ok, and the other rows keep their values
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, _ = run_experiment(make_spec(model_file, n_grid=(50,),
                                                  a_points=((0.1,), (big,))))
        (alone,), _ = run_experiment(make_spec(model_file, n_grid=(50,), a_points=((0.1,),)))
        assert [r.status for r in records] == ["ok", "DimensionError"]
        assert records[0] == alone

    def test_spa_density_past_double_range_fails_its_row(self, tmp_path):
        # sigma = 100, a = 1e155: phi* = 5e307 is finite but n phi* is not, so
        # both log densities are -inf; the row is a DimensionError, not an ok
        # row whose errors are nan, and the first row keeps its value
        path = tmp_path / "wide.txt"
        path.write_text("d = 1\nmu = 3.0\nsigma = 100\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, _ = run_experiment(make_spec(str(path), n_grid=(50,),
                                                  a_points=((0.1,), (1e155,))))
        (alone,), _ = run_experiment(make_spec(str(path), n_grid=(50,), a_points=((0.1,),)))
        assert [r.status for r in records] == ["ok", "DimensionError"]
        assert records[0] == alone

    def test_point_past_squared_range_reports_its_norm(self, model_file):
        # ||a||^2 overflows, ||a|| does not: the row keeps its norm
        records, _ = run_experiment(make_spec(model_file, n_grid=(50,),
                                              a_points=((0.1,), (1e160,))))
        assert [(r.a_norm, r.status) for r in records] == [(0.1, "ok"), (1e160, "DimensionError")]

    def test_budget_ball_covers_ok_rows_past_squared_range(self, tmp_path):
        # mu = 100, sigma = 1e4: a = 1e155 solves (phi* = 5e305) and its row
        # is ok, so the budget's ball reaches it although ||a||^2 overflows
        path = tmp_path / "wide.txt"
        path.write_text("d = 1\nmu = 100\nsigma = 1e4\n")
        records, _ = run_experiment(make_spec(str(path), n_grid=(50,),
                                              a_points=((1e-4,), (1e155,))))
        assert [r.status for r in records] == ["ok", "ok"]
        model = GaussianMixture(load_model_file(str(path)))
        assert [r.bound_total for r in records] == [budget_total(model, 50, 1e155)] * 2
        assert budget_total(model, 50, 1e155) != budget_total(model, 50, 1e-4)

    def test_overflowed_densities_give_finite_rows(self, tmp_path):
        # d = 150, n = 1e5, a = 0: both densities are about e^725
        path = tmp_path / "scalable.txt"
        path.write_text("d = 1\nmu = unit\nsigma = identity\n")
        spec = make_spec(str(path), d_grid=(150,), n_grid=(100000,), a_points=(),
                         a_shells=((0.0, 1),))
        (r,), _ = run_experiment(spec)
        assert r.status == "ok"
        assert r.rho_spa == math.inf and r.rho_exact == math.inf
        assert 1e-7 < r.rel_err < 1e-6

    def test_log_gap_past_double_range_gives_inf_rel_err(self, tmp_path):
        # sigma = 1e-4, n = 1: the spa density at 0 is a Gaussian's, the exact
        # one sits 5000 nats lower, so expm1 of the gap leaves the double range
        path = tmp_path / "sharp.txt"
        path.write_text("d = 1\nmu = 1.0\nsigma = 0.0001\n")
        spec = make_spec(str(path), n_grid=(1,), a_points=((0.0,),))
        (r,), _ = run_experiment(spec)
        assert r.status == "ok"
        assert r.rho_exact == 0.0 and r.rho_spa > 0.0
        assert r.rel_err == math.inf
        assert r.i_minus_one == pytest.approx(1.0)

    def test_budget_past_double_range_keeps_the_rows(self, tmp_path):
        # d = 300, n = 100: (e eps / kappa^2)^(d/2) is about e^1170, so the
        # budget total is inf, and every row is still computed and written
        path = tmp_path / "scalable.txt"
        path.write_text("d = 1\nmu = unit\nsigma = identity\n")
        spec = make_spec(str(path), d_grid=(300,), n_grid=(100,), a_points=(),
                         a_shells=((0.0, 1), (0.05, 2)))
        records, csv_path = run_experiment(spec, out=tmp_path / "big_d.csv")
        assert [r.status for r in records] == ["ok"] * 3
        assert all(r.bound_total == math.inf for r in records)
        assert all(0.0 < r.rel_err < 1e-3 for r in records)
        assert read_records(csv_path) == records

    def test_alpha_range_past_double_range_keeps_the_rows(self, tmp_path):
        # sigma = 8.9e307, a = 9e307 solves, but the budget's tau_radius
        # 2 ||a|| overflows: the bound is inf and both rows are written
        path = tmp_path / "huge.txt"
        path.write_text("d = 1\nmu = 1\nsigma = 8.9e307\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            records, _ = run_experiment(make_spec(str(path), n_grid=(1,),
                                                  a_points=((0.1,), (9e307,))))
        assert format_csv(records).splitlines()[1:] == [
            "1,1,0.1,4.228779714704212e-155,4.228779714704212e-155,0.0,0.0,1.0,inf,,ok",
            "1,1,9e+307,0.0,0.0,1.0,inf,1.0,inf,,ok",
        ]

    def test_failed_rows_survive_a_budget_that_raises(self, model_file, monkeypatch):
        # a bound that raises fails the ok rows that read it, and the failed
        # rows report NaN for it instead of aborting the sweep
        def refuse(*args):
            raise DimensionError("no bound")

        monkeypatch.setattr(spahd.experiments, "budget_total", refuse)
        records, _ = run_experiment(make_spec(model_file, a_points=((0.1,), (math.nan,))))
        assert [r.status for r in records] == ["DimensionError"] * 4
        assert all(math.isnan(r.bound_total) for r in records)

    def test_eps_and_bound_columns(self, model_file):
        records, _ = run_experiment(make_spec(model_file, n_grid=(100,)))
        r = records[0]
        assert r.eps == pytest.approx(1 / 100)
        assert r.bound_total > 0


def ulps(x, y):
    """Distance of two doubles in units in the last place (0 for equal or both nan)."""
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0
    return abs(int(np.float64(x).view(np.int64)) - int(np.float64(y).view(np.int64)))


class TestCellBatch:
    """A cell's rows come from one saddle batch per d and one oracle batch per
    (d, n); each row must be the row its one-point calls give."""

    @staticmethod
    def cell_points(d):
        rng = np.random.default_rng(d)
        u = rng.normal(size=d)
        near = 0.1 * np.eye(d)[0]
        big = np.zeros(d)
        big[0] = 1e160
        return [np.zeros(d), near, 0.3 * u / np.linalg.norm(u), near, np.full(d, math.nan),
                big, near + 1e-3 / math.sqrt(d)]

    @pytest.mark.parametrize("d", [1, 8, 64])
    def test_rows_match_one_point_calls(self, model_file, d):
        points = self.cell_points(d)
        spec = make_spec(model_file, d_grid=(d,), n_grid=(200, 100000),
                         a_points=tuple(tuple(p) for p in points))
        records, _ = run_experiment(spec)
        params = load_model_file(model_file, d_override=d)
        model = GaussianMixture(params)
        assert len(records) == 2 * len(points)
        for r, a in zip(records, points * 2):
            oracle = ExactMeanDensity(params, r.n)
            try:
                est = spa_density(solve_saddle(model, a, tol=spec.tol), r.n)
                log_exact = oracle.log_density(a)
            except DimensionError:
                assert r.status == "DimensionError"
                continue
            gap = est.log_density - log_exact
            expected = (est.density, math.exp(log_exact), abs(math.expm1(gap)),
                        abs(math.expm1(-gap)))
            assert r.status == "ok"
            got = (r.rho_spa, r.rho_exact, r.rel_err, r.i_minus_one)
            assert max(ulps(x, y) for x, y in zip(got, expected)) <= 4
        assert [r.status for r in records].count("ok") == 2 * (len(points) - 2)

    def test_correction_rows_match_one_point_calls(self, model_file):
        spec = make_spec(model_file, mode="correction_study", d_grid=(2,), n_grid=(200,),
                         a_points=((0.0, 0.0), (0.2, -0.1), (0.2, -0.1)))
        records, _ = run_experiment(spec)
        model = GaussianMixture(load_model_file(model_file, d_override=2))
        quad = QuadSpec(nodes_per_axis=spec.quad_nodes, trunc_radius=spec.trunc_radius)
        for r, a in zip(records, spec.a_points):
            corr = correction_integral(model, solve_saddle(model, np.array(a)), 200, quad)
            assert r.status == "ok"
            assert r.i_minus_one == corr.abs_err_from_one
        assert records[1] == records[2]

    def test_saddles_are_solved_once_per_d(self, model_file, monkeypatch):
        calls = []
        solve = spahd.experiments._solve_batch

        def counting(model, points, tol):
            calls.append((model.dim, len(points)))
            return solve(model, points, tol)

        monkeypatch.setattr(spahd.experiments, "_solve_batch", counting)
        for mode in ("error_scaling", "correction_study"):
            calls.clear()
            records, _ = run_experiment(make_spec(model_file, mode=mode, d_grid=(1, 2),
                                                  n_grid=(50, 200, 800), a_points=(),
                                                  a_shells=((0.0, 1), (0.2, 3))))
            assert calls == [(1, 4), (2, 4)]
            assert len(records) == 24 and all(r.status == "ok" for r in records)

    def test_timing_shares_each_cell_among_its_rows(self, model_file):
        spec = make_spec(model_file, n_grid=(50, 200), a_points=((0.0,), (0.1,), (0.2,)),
                         timing=True)
        records, _ = run_experiment(spec)
        for cell in (records[:3], records[3:]):
            assert len({r.wall_ms for r in cell}) == 1 and cell[0].wall_ms > 0


class TestCorrectionStudy:
    def test_rows_consistent(self, model_file):
        spec = make_spec(
            model_file,
            mode="correction_study",
            n_grid=(10, 40),
            a_points=((0.25,),),
        )
        records, _ = run_experiment(spec)
        assert len(records) == 2
        for r in records:
            assert r.status == "ok"  # includes the quad-vs-ratio cross-check
            assert r.i_minus_one > 0


class TestCltStudy:
    @pytest.fixture
    def standard_file(self, tmp_path):
        path = tmp_path / "standard.txt"
        path.write_text("d = 1\nmu = 0.6\nsigma = 0.64\n")
        return str(path)

    def test_rows_match_clt_ratio_with_one_oracle_per_n(self, standard_file, monkeypatch):
        builds = []
        init = spahd.oracle.ExactMeanDensity.__init__

        def counting_init(self, params, n):
            builds.append(n)
            init(self, params, n)

        monkeypatch.setattr(spahd.oracle.ExactMeanDensity, "__init__", counting_init)
        spec = make_spec(standard_file, mode="clt_study", n_grid=(50, 200),
                         a_points=((0.0,), (0.7,), (-1.5,)))
        records, _ = run_experiment(spec)
        assert builds == [50, 200]
        params = load_model_file(standard_file)
        for r, x in zip(records, [0.0, 0.7, -1.5] * 2):
            comparison = clt_ratio(params, r.n, np.array([x]))
            assert r.status == "ok"
            assert r.rel_err == r.i_minus_one == abs(comparison.ratio - 1.0)
            assert r.bound_total == comparison.bound
            assert r.rho_exact == exact_mean_density(params, r.n, np.array([x / math.sqrt(r.n)]))

    def test_overflowed_limit_density(self, tmp_path):
        # pure Gaussian at d = 150, n = 1e5, x = 0: n^(d/2) gamma_d(0) is
        # about e^725, and the exact density equals it
        path = tmp_path / "gauss.txt"
        path.write_text("d = 150\nsigma = identity\n")
        spec = make_spec(str(path), mode="clt_study", n_grid=(100000,), a_points=(),
                         a_shells=((0.0, 1),))
        (r,), _ = run_experiment(spec)
        assert r.status == "ok"
        assert r.rho_spa == math.inf and r.rho_exact == math.inf
        # the ratio is 1 up to the oracle's log-weight rounding at n = 1e5
        assert r.rel_err == pytest.approx(0.0, abs=1e-9)

    def test_failed_row_reports_the_budget_of_the_scaled_ball(self, standard_file):
        # the rows query a = x / sqrt(n), so a failed row's budget covers
        # ||a|| <= max ||x|| / sqrt(n), not max ||x||
        spec = make_spec(standard_file, mode="clt_study", n_grid=(50, 200),
                         a_points=((0.0,), (1.5,), (-0.8,), (math.nan,)))
        records, _ = run_experiment(spec)
        model = GaussianMixture(load_model_file(standard_file))
        failed = [r for r in records if r.status != "ok"]
        assert [(r.n, r.status) for r in failed] == [(50, "DimensionError"),
                                                    (200, "DimensionError")]
        for r in failed:
            assert r.bound_total == budget_total(model, r.n, 1.5 / math.sqrt(r.n))

    def test_one_cold_suprema_pair_per_row(self, standard_file, monkeypatch):
        # each clt row needs the suprema at its own radius; a sweep with no
        # failed row computes no other pair
        calls = []
        certified_sup = model_module._certified_sup

        def counting(*args):
            calls.append(args)
            return certified_sup(*args)

        monkeypatch.setattr(model_module, "_certified_sup", counting)
        spec = make_spec(standard_file, mode="clt_study", n_grid=(50, 200),
                         a_points=((0.0,), (1.5,), (-0.8,)))
        records, _ = run_experiment(spec)
        assert all(r.status == "ok" for r in records)
        assert len(calls) == len(records) == 6

    def test_unstandardized_model_fails_each_row(self, model_file):
        records, _ = run_experiment(make_spec(model_file, mode="clt_study"))
        assert [r.status for r in records] == ["StandardizationError"] * 2


class TestDeterminism:
    def test_reruns_are_byte_identical(self, model_file, tmp_path):
        spec = make_spec(
            model_file, n_grid=(5, 20), a_shells=((0.3, 2),), a_points=((0.1,),)
        )
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run_experiment(spec, out=str(out1))
        run_experiment(spec, out=str(out2))
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_digest_matches_file(self, model_file, tmp_path):
        out = tmp_path / "run.csv"
        run_experiment(make_spec(model_file), out=str(out))
        manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
        assert manifest["csv_sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
        assert manifest["rows"] == 2
        assert manifest["total_wall_ms"] is None  # timing off by default

    def test_csv_round_trip(self, model_file, tmp_path):
        spec = make_spec(model_file, n_grid=(3, 9))
        records, _ = run_experiment(spec)
        out = tmp_path / "x.csv"
        out.write_text(format_csv(records))
        back = read_records(str(out))
        assert back == records

    def test_read_rejects_foreign_csv(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            read_records(str(bad))


class TestSpecFiles:
    def test_load_round_trip(self, tmp_path, model_file):
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(
            "mode = error_scaling\n"
            f"model = {model_file}\n"
            "n_grid = 10 20 40\n"
            "d_grid = 1 2\n"
            "a_shells = 0.0:1 0.3:2\n"
            "seed = 3\n"
            "timing = on\n"
        )
        spec = load_experiment_spec(str(spec_path))
        assert spec.n_grid == (10, 20, 40)
        assert spec.d_grid == (1, 2)
        assert spec.a_shells == ((0.0, 1), (0.3, 2))
        assert spec.seed == 3
        assert spec.timing

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "s.spec"
        p.write_text("mode = error_scaling\nmodel = m.txt\n")
        with pytest.raises(ConfigError, match="n_grid"):
            load_experiment_spec(str(p))

    def test_bad_shell_token(self, tmp_path, model_file):
        p = tmp_path / "s.spec"
        p.write_text(
            f"mode = error_scaling\nmodel = {model_file}\n"
            "n_grid = 10\na_shells = 0.3x4\n"
        )
        with pytest.raises(ConfigError, match="a_shells"):
            load_experiment_spec(str(p))

    def test_spec_validation(self, model_file):
        with pytest.raises(ConfigError):
            make_spec(model_file, mode="noise_study")
        with pytest.raises(ConfigError):
            make_spec(model_file, n_grid=())
        with pytest.raises(ConfigError):
            make_spec(model_file, n_grid=(0,))
        with pytest.raises(ConfigError):
            make_spec(model_file, a_points=(), a_shells=())

    @pytest.mark.parametrize("field", ["kappa", "tol"])
    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    def test_kappa_and_tol_must_be_finite_and_positive(self, model_file, field, value):
        # a bad value used to abort the whole sweep (kappa) or fail every row
        # (tol); the spec refuses it
        with pytest.raises(ConfigError, match=field):
            make_spec(model_file, **{field: value})

    def test_timing_column(self, model_file, tmp_path):
        records, _ = run_experiment(make_spec(model_file, timing=True))
        assert all(r.wall_ms is not None and r.wall_ms >= 0 for r in records)
        # timing rows still parse, but reruns are no longer byte-stable
        out = tmp_path / "t.csv"
        out.write_text(format_csv(records))
        assert read_records(str(out))[0].wall_ms is not None


class TestPlotData:
    def test_round_trip(self, model_file, tmp_path):
        records, _ = run_experiment(make_spec(model_file, n_grid=(5, 10)))
        path = tmp_path / "plot.json"
        doc = emit_plot_data(records, str(path))
        back = json.loads(path.read_text())
        assert back == doc
        assert back["series"]["1"]  # d = 1 series present


class TestFitSlope:
    def test_recovers_power_law(self):
        xs = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        fit = fit_slope(xs, 3.0 * xs**2)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.points == 5

    def test_refusals(self):
        with pytest.raises(FitError):  # too few points
            fit_slope([1, 2, 4], [1, 2, 4])
        with pytest.raises(FitError):  # non-positive y
            fit_slope([1, 2, 4, 8], [1, 2, 0, 4])
        with pytest.raises(FitError):  # under half a decade of x
            fit_slope([1.0, 1.2, 1.5, 2.0], [1, 2, 3, 4])
        with pytest.raises(FitError):  # shape mismatch
            fit_slope([1, 2, 4, 8], [1, 2, 4])

    @pytest.mark.parametrize("xs, ys", [
        ([1, 2, 4, 8], [1, 2, math.nan, 4]),
        ([1, 2, 4, math.inf], [1, 2, 3, 4]),
        ([1, 2, 4, 8], [1, 2, 3, math.inf]),
        ([math.nan, 2, 4, 8], [1, 2, 3, 4]),
    ])
    def test_refuses_non_finite(self, xs, ys):
        with pytest.raises(FitError):
            fit_slope(xs, ys)


def test_csv_header_is_stable():
    # downstream tooling keys on these exact column names
    assert CSV_HEADER == (
        "d,n,a_norm,rho_spa,rho_exact,rel_err,i_minus_one,eps,bound_total,"
        "wall_ms,status"
    )
