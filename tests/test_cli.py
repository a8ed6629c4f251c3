"""End-to-end runs of every CLI subcommand through main()."""

import json

import pytest

from spahd.cli import main

STD_MODEL = "d = 1\nmu = 0.6\nsigma = diag 0.64\n"


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("d = 1\nmu = 1.0\nsigma = identity\n")
    return str(path)


@pytest.fixture
def std_model_file(tmp_path):
    path = tmp_path / "std.txt"
    path.write_text(STD_MODEL)
    return str(path)


def run_cli(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    lines = {}
    for ln in out.out.strip().splitlines():
        if " = " in ln:
            key, val = ln.split(" = ", 1)
            lines[key] = val
    return rc, lines, out


class TestSolve:
    def test_prints_solution(self, capsys, model_file):
        rc, kv, _ = run_cli(capsys, ["solve", "--model", model_file, "-a", "0.5"])
        assert rc == 0
        assert float(kv["tau"]) == pytest.approx(0.25262004315986258556, rel=1e-13)
        assert float(kv["residual"]) <= 1e-12
        assert kv["method"] in {"newton", "fixed_point"}
        # mu = 1, sigma = 1 is unstandardized: no gap report lines
        assert "gap" not in kv

    def test_gap_report_for_standardized_model(self, capsys, std_model_file):
        rc, kv, _ = run_cli(capsys, ["solve", "--model", std_model_file, "-a", "0.2"])
        assert rc == 0
        assert "gap" in kv and "admissible" in kv
        assert float(kv["gap"]) <= float(kv["gap_bound"])

    def test_dim_override(self, capsys, tmp_path):
        path = tmp_path / "scalable.txt"
        path.write_text("d = 1\nmu = unit\nsigma = identity\n")
        rc, kv, _ = run_cli(
            capsys,
            ["solve", "--model", str(path), "--dim", "3", "-a", "0.1 0.0 0.0"],
        )
        assert rc == 0
        assert len(kv["tau"].split()) == 3


class TestEval:
    def test_against_exact(self, capsys, model_file):
        rc, kv, _ = run_cli(
            capsys, ["eval", "--model", model_file, "-a", "0.5", "-n", "50"]
        )
        assert rc == 0
        assert float(kv["rho_spa"]) == pytest.approx(0.0875710272793962, rel=1e-10)
        assert float(kv["rel_err"]) < 0.01

    def test_underflowed_densities(self, capsys, tmp_path):
        # both densities underflow to 0.0; rel_err comes from the log gap
        path = tmp_path / "unit.txt"
        path.write_text("d = 1\nmu = unit\nsigma = identity\n")
        rc, kv, _ = run_cli(
            capsys, ["eval", "--model", str(path), "-a", "0.3", "-n", "100000"]
        )
        assert rc == 0
        assert float(kv["rho_spa"]) == 0.0 and float(kv["rho_exact"]) == 0.0
        assert 1e-7 < float(kv["rel_err"]) < 1e-6

    def test_log_gap_past_double_range(self, capsys, tmp_path):
        # sigma = 1e-4, n = 1: the log densities differ by about 5000
        path = tmp_path / "sharp.model"
        path.write_text("d = 1\nmu = 1.0\nsigma = 0.0001\n")
        rc, kv, _ = run_cli(capsys, ["eval", "--model", str(path), "-a0.0", "-n", "1"])
        assert rc == 0
        assert float(kv["rho_exact"]) == 0.0
        assert kv["rel_err"] == "inf"

    def test_no_exact_flag(self, capsys, model_file):
        rc, kv, _ = run_cli(
            capsys,
            ["eval", "--model", model_file, "-a", "0.5", "-n", "50", "--no-exact"],
        )
        assert rc == 0
        assert "rho_exact" not in kv


class TestCorrection:
    def test_near_one(self, capsys, model_file):
        rc, kv, _ = run_cli(
            capsys, ["correction", "--model", model_file, "-a", "0.2", "-n", "200"]
        )
        assert rc == 0
        assert abs(float(kv["i_re"]) - 1.0) < 0.01
        assert abs(float(kv["i_im"])) < 1e-12
        assert int(kv["nodes_used"]) > 0

    def test_rule_option_is_gone(self, capsys, model_file):
        # Gauss-Legendre is the one rule; argparse refuses the old option
        with pytest.raises(SystemExit) as exc:
            main(["correction", "--model", model_file, "-a", "0.2", "-n", "200",
                  "--rule", "trapezoid"])
        assert exc.value.code == 2
        assert "--rule" in capsys.readouterr().err


class TestVerifyAssumptions:
    def test_clean_report(self, capsys, std_model_file):
        rc, kv, _ = run_cli(
            capsys,
            [
                "verify-assumptions", "--model", std_model_file,
                "-a", "0.0", "-a", "0.25", "-n", "200", "--samples", "800",
            ],
        )
        assert rc == 0
        assert kv["magnitude_violations"] == "0"
        assert kv["exp_branch_violations"] == "0"
        assert kv["note"] == "none"
        assert float(kv["delta_arg"]) > 0


class TestClt:
    def test_ratio_near_one(self, capsys, std_model_file):
        rc, kv, _ = run_cli(
            capsys, ["clt", "--model", std_model_file, "-x", "0.5", "-n", "100"]
        )
        assert rc == 0
        assert float(kv["ratio"]) == pytest.approx(1.0, abs=0.01)
        assert float(kv["bound"]) > 0


class TestNumericOutput:
    def test_values_parse_as_floats(self, capsys, model_file, std_model_file):
        # every printed number is a plain literal that float() reads back
        calls = [
            ["verify-assumptions", "--model", std_model_file, "-a", "0.0", "-a", "0.25",
             "-n", "200", "--samples", "800"],
            ["correction", "--model", model_file, "-a", "0.2", "-n", "200"],
            ["eval", "--model", model_file, "-a", "0.5", "-n", "50"],
            ["clt", "--model", std_model_file, "-x", "0.5", "-n", "100"],
        ]
        for argv in calls:
            rc, kv, out = run_cli(capsys, argv)
            assert rc == 0
            assert "np." not in out.out
            for key, val in kv.items():
                if key not in ("note", "underflow"):
                    float(val)  # a repr such as np.float64(1.0) raises here


class TestExperiment:
    def test_writes_csv_and_manifest(self, capsys, tmp_path, model_file):
        spec = tmp_path / "run.spec"
        spec.write_text(
            f"mode = error_scaling\nmodel = {model_file}\n"
            "n_grid = 50 100\na_points = 0.1\n"
        )
        out = tmp_path / "out.csv"
        rc, kv, _ = run_cli(
            capsys, ["experiment", "--spec", str(spec), "--out", str(out)]
        )
        assert rc == 0
        assert kv["rows"] == "2"
        assert kv["failed_rows"] == "0"
        assert out.exists()
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert manifest["csv_sha256"] == kv["sha256"]

    def test_stdout_csv_without_out(self, capsys, tmp_path, model_file):
        spec = tmp_path / "run.spec"
        spec.write_text(
            f"mode = error_scaling\nmodel = {model_file}\n"
            "n_grid = 50\na_points = 0.1\n"
        )
        rc = main(["experiment", "--spec", str(spec)])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0].startswith("d,n,a_norm")

    def test_plot_data_flag(self, capsys, tmp_path, model_file):
        spec = tmp_path / "run.spec"
        spec.write_text(
            f"mode = error_scaling\nmodel = {model_file}\n"
            "n_grid = 50 100 200\na_points = 0.1\n"
        )
        plot = tmp_path / "plot.json"
        rc, kv, _ = run_cli(
            capsys,
            ["experiment", "--spec", str(spec), "--plot-data", str(plot)],
        )
        assert rc == 0
        doc = json.loads(plot.read_text())
        assert doc["series"]["1"]


class TestErrorPaths:
    def test_missing_model_file(self, capsys):
        rc = main(["solve", "--model", "/nonexistent/m.txt", "-a", "0.5"])
        err = capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")

    def test_config_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("mu = 1.0\n")  # missing d
        rc = main(["solve", "--model", str(bad), "-a", "0.5"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_failed_rows_exit_code(self, capsys, tmp_path):
        # mu = 3 at n = 1 violates the branch assumption on every row
        model = tmp_path / "wild.txt"
        model.write_text("d = 1\nmu = 3.0\nsigma = identity\n")
        spec = tmp_path / "run.spec"
        spec.write_text(
            f"mode = correction_study\nmodel = {model}\n"
            "n_grid = 1\na_points = 0.0\n"
        )
        rc, kv, _ = run_cli(capsys, ["experiment", "--spec", str(spec)])
        assert rc == 1
        assert kv["failed_rows"] == "1"
