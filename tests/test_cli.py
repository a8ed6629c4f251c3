"""End-to-end runs of every CLI subcommand through main()."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spahd import GaussianMixture, cli
from spahd import saddle as saddle_module
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

    def test_solves_once(self, capsys, monkeypatch, std_model_file):
        # the gap report reads the saddle the command printed: one solve per call
        calls = []
        solve = saddle_module._solve_batch

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(saddle_module, "_solve_batch", counting)
        for _ in range(2):
            calls.clear()
            rc, kv, _ = run_cli(capsys, ["solve", "--model", std_model_file, "-a", "0.2"])
            assert rc == 0 and "gap" in kv and len(calls) == 1

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

    @pytest.mark.parametrize("option", [["--trunc-radius", "3"], ["--quad-nodes", "32"]])
    def test_quadrature_options_are_gone(self, capsys, model_file, option):
        # one truncation radius and the default node count; argparse refuses both
        with pytest.raises(SystemExit) as exc:
            main(["correction", "--model", model_file, "-a", "0.2", "-n", "200", *option])
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err


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

    def test_builds_one_model_per_call(self, capsys, monkeypatch, std_model_file):
        # clt_ratio builds the model it reads; the command reads only the params
        built = []
        init = GaussianMixture.__init__

        def counting(self, params):
            built.append(params)
            init(self, params)

        monkeypatch.setattr(GaussianMixture, "__init__", counting)
        for _ in range(2):
            built.clear()
            rc, _, _ = run_cli(capsys, ["clt", "--model", std_model_file, "-x", "0.5", "-n", "100"])
            assert rc == 0 and len(built) == 1


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

    def test_printed_digest_is_the_written_files(self, capsys, tmp_path, model_file, monkeypatch):
        # the sha256 line is the digest of the bytes on disk and the one the
        # manifest records, and the CSV is formatted once, not again to be hashed
        from spahd import experiments

        formatted = []
        format_csv = experiments.format_csv

        def counting(records):
            formatted.append(len(records))
            return format_csv(records)

        monkeypatch.setattr(experiments, "format_csv", counting)
        monkeypatch.setattr(cli, "format_csv", counting)
        spec = tmp_path / "run.spec"
        spec.write_text(f"mode = error_scaling\nmodel = {model_file}\n"
                        "n_grid = 50 100\na_points = 0.1\n")
        out = tmp_path / "out.csv"
        rc, kv, _ = run_cli(capsys, ["experiment", "--spec", str(spec), "--out", str(out)])
        assert rc == 0 and formatted == [2]
        manifest = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        written = hashlib.sha256(out.read_bytes()).hexdigest()
        assert kv["sha256"] == manifest["csv_sha256"] == written

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

    @pytest.mark.parametrize("point, named", [("0.1,x", "'x'"), ("1e", "'1e'"),
                                              ("", "at least one number")])
    def test_bad_point_token_is_an_argparse_error(self, capsys, model_file, point, named):
        # argparse exits 2 and names the token the converter could not read
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--model", model_file, "-a", point])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument -a" in err and named in err

    @pytest.mark.parametrize("command", ["experiment", "solve"])
    def test_entry_point_prints_one_error_line(self, tmp_path, std_model_file, command):
        # the real entry point, in a fresh interpreter: a spec with a negative
        # seed and a model with a malformed mu scale each used to end in a
        # traceback
        if command == "experiment":
            spec = tmp_path / "bad.spec"
            spec.write_text(f"mode = clt_study\nmodel = {std_model_file}\n"
                            "n_grid = 50\na_points = 0.1\nseed = -1\n")
            argv = ["experiment", "--spec", str(spec)]
        else:
            model = tmp_path / "bad.txt"
            model.write_text("d = 1\nmu = ones*1e\n")
            argv = ["solve", "--model", str(model), "-a0.1"]
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-m", "spahd.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and proc.stdout == ""


def call(capsys, argv):
    """(exit code, stdout, stderr) of one main(argv) call; an argparse exit
    counts with its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def clt_spec(tmp_path, std_model_file):
    path = tmp_path / "clt.spec"
    path.write_text(f"mode = clt_study\nmodel = {std_model_file}\n"
                    "n_grid = 50 200\na_points = 0.0; 0.5\n")
    return str(path)


COMMANDS = ("solve", "eval", "correction", "verify-assumptions", "clt", "experiment")


def good_and_bad(model, spec):
    """Per subcommand, a call that runs and one that argparse refuses."""
    m = ["--model", model]
    return {
        "solve": (["solve", *m, "-a", "0.2"], ["solve", *m]),
        "eval": (["eval", *m, "-a", "0.2", "-n", "50"], ["eval", *m, "-a", "0.2"]),
        "correction": (["correction", *m, "-a", "0.2", "-n", "50"],
                       ["correction", *m, "-a", "0.2", "-n", "x"]),
        "verify-assumptions": (["verify-assumptions", *m, "-a", "0.0", "-a", "0.3", "-n", "50",
                                "--samples", "200"], ["verify-assumptions", *m, "-n", "50"]),
        "clt": (["clt", *m, "-x", "0.5", "-n", "50"], ["clt", *m, "-x", "0.5", "-n"]),
        "experiment": (["experiment", "--spec", spec], ["experiment", "--spec"]),
    }


class TestRepeatedCalls:
    # main builds its parser once per process; every call must still read
    # as if it were the first

    @pytest.mark.parametrize("command", COMMANDS)
    def test_argparse_error_between_two_good_calls(self, capsys, std_model_file, clt_spec,
                                                   command):
        good, bad = good_and_bad(std_model_file, clt_spec)[command]
        first, refused, third = call(capsys, good), call(capsys, bad), call(capsys, good)
        assert first == third and first[0] == 0 and first[1]
        assert refused[0] == 2 and refused[1] == ""
        assert refused[2].startswith("usage: spahd") and "error:" in refused[2]

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_is_the_same_on_every_call(self, capsys, command):
        argv = [command, "--help"] if command else ["--help"]
        first, second, third = (call(capsys, argv) for _ in range(3))
        assert first == second == third
        assert first[0] == 0 and first[1].startswith("usage: spahd") and first[2] == ""

    def test_append_does_not_carry_points_over(self, capsys, std_model_file):
        one = ["verify-assumptions", "--model", std_model_file, "-a", "0.3", "-n", "50",
               "--samples", "200"]
        two = one[:3] + ["-a", "0.0"] + one[3:]
        cli._parser.cache_clear()
        fresh = call(capsys, one)  # the first parse of a new parser
        outs = [call(capsys, argv) for argv in (two, one, two, one)]
        assert outs[1] == outs[3] == fresh
        assert outs[0] == outs[2] != fresh
        assert "samples = 200" in fresh[1] and "samples = 320" in outs[0][1]

    def test_parser_is_built_once(self, capsys, monkeypatch, std_model_file, clt_spec):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._parser.cache_clear()
        try:
            cli._parser()
            assert len(built) == 7  # spahd and its six subcommands
            built.clear()
            cli._parser.cache_clear()
            goods = [good for good, _ in good_and_bad(std_model_file, clt_spec).values()]
            codes = [call(capsys, goods[i % len(goods)])[0] for i in range(20)]
            assert codes == [0] * 20
            assert len(built) == 7
        finally:
            cli._parser.cache_clear()


IMPORT_PROBE = """
import json, sys
import spahd, spahd.cli
from spahd.experiments import load_experiment_spec, run_experiment
spec, out = sys.argv[1:]
loaded = lambda: sorted(m for m in ("hashlib", "numpy.random") if m in sys.modules)
assert spahd.cli.main(["experiment", "--spec", spec]) == 0
run_experiment(load_experiment_spec(spec))
before = loaded()
assert spahd.cli.main(["experiment", "--spec", spec, "--out", out]) == 0
print(json.dumps([before, loaded()]))
"""


def test_only_a_written_csv_loads_hashlib(tmp_path, clt_spec):
    # hashlib (OpenSSL) and numpy.random cost MBs of RSS in every process
    # that imports them; a sweep of explicit points that writes no CSV
    # needs neither
    out = tmp_path / "run.csv"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, clt_spec, str(out)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = json.loads(proc.stdout.splitlines()[-1])
    assert before == [] and after == ["hashlib"]
    manifest = json.loads((tmp_path / "run.csv.manifest.json").read_text())
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["csv_sha256"] == digest
    assert f"sha256 = {digest}" in proc.stdout
