"""Workload child: one fresh interpreter per run, driven by run.py.

  python3 perfbench/workload.py setup PLAN   import spahd, load the inputs,
                                             print 'ready' and exit
  python3 perfbench/workload.py run PLAN     run the workload's closed loop
                                             and write the result JSON

Both modes refuse to run unless spahd is imported from the checkout's src/.
The loop is single-threaded with one client: the next call starts when the
previous one has returned.
"""

from __future__ import annotations

import io
import json
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_spahd():
    import spahd

    where = Path(spahd.__file__).resolve()
    if ROOT / "src" not in where.parents:
        sys.exit(f"spahd imported from {where}, not from {ROOT / 'src'}")
    return spahd


def _load_inputs(plan):
    from spahd.experiments import load_experiment_spec
    from spahd.model import load_model_file

    if plan["kind"] == "sweep":
        return [[load_experiment_spec(p) for p in cell["specs"]] for cell in plan["cells"]]
    for path in plan["models"]:
        load_model_file(path)
    return load_experiment_spec(plan["spec"])


def _env_stamp(spahd):
    import numpy

    try:
        from importlib.metadata import version

        scipy_version = version("scipy")
    except ImportError:
        scipy_version = "absent"
    return {"spahd": spahd.__version__, "backend": spahd.BACKEND,
            "numpy": numpy.__version__, "scipy": scipy_version}


def _run_cell(experiments, spec, keep_rows):
    """One run_experiment call; any exception is the cell's failure."""
    t0 = time.perf_counter()
    try:
        records, _ = experiments.run_experiment(spec)
    except Exception as exc:  # the loop must go on; the class is reported
        return {"wall_ms": (time.perf_counter() - t0) * 1e3,
                "error": type(exc).__name__, "ok_rows": 0}
    wall = (time.perf_counter() - t0) * 1e3
    bad = [r.status for r in records if r.status != "ok"]
    out = {"wall_ms": wall, "error": bad[0] if bad else None,
           "ok_rows": len(records) - len(bad)}
    if keep_rows:
        out["output"] = [[r.rho_spa, r.rho_exact, r.i_minus_one, r.status] for r in records]
    return out


def _closed_loop(plan, tracer, run_pass):
    """Run passes back to back until the run's time is up.

    A traced run alternates an untraced and a traced copy of each pass, so
    the ratio of their walls is the cost of tracing on identical work.
    """
    calls, passes = [], []
    walls = {False: 0.0, True: 0.0}
    traced_passes = 0
    start = time.perf_counter()
    p = 0
    while True:
        for traced in ((False, True) if tracer else (False,)):
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                done = run_pass(p, traced)
            finally:
                if traced:
                    tracer.uninstall()
            wall = (time.perf_counter() - t0) * 1e3
            walls[traced] += wall
            traced_passes += traced
            passes.append({"wall_ms": wall,
                           "calls": list(range(len(calls), len(calls) + len(done)))})
            calls += done
        p += 1
        if time.perf_counter() - start >= plan["seconds"]:
            break
    return {"calls": calls, "passes": passes, "traced_passes": traced_passes,
            "overhead_ratio": walls[True] / walls[False] if tracer else None}


def _sweep(plan, specs, tracer):
    from spahd import experiments

    def run_pass(p, traced):
        rotation = p % len(specs[0])
        cells = [_run_cell(experiments, cell_specs[rotation], rotation == 0)
                 for cell_specs in specs]
        for i, cell in enumerate(cells):
            cell["cell"] = i
        return cells

    result = _closed_loop(plan, tracer, run_pass)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def _cli_inprocess(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its input this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the loop must go on; the class is reported
        code, err = None, io.StringIO(type(exc).__name__)
    wall = (time.perf_counter() - t0) * 1e3
    return wall, code, out.getvalue(), err.getvalue()


def _failure(code, stderr):
    """None for a clean exit; else the exception class a traceback names,
    or the exit status."""
    if code == 0:
        return None
    last = (stderr.strip().splitlines() or [""])[-1].split(":")[0]
    return last if last.isidentifier() and last != "error" else f"exit {code}"


def _cli(plan, tracer):
    """Each call is spahd.cli.main(argv) in this process, after import: what
    a call does beyond starting an interpreter and importing spahd, which
    setup_s times.  A fresh process per call would time mostly the host's
    process start-up, whose speed drifts by tens of percent between runs."""
    from spahd import cli

    def run_pass(p, traced):
        done = []
        for i, call in enumerate(plan["calls"]):
            if traced:
                wall, code, stdout, stderr = tracer.call(
                    "cli." + call["name"], _cli_inprocess, cli, call["argv"])
            else:
                wall, code, stdout, stderr = _cli_inprocess(cli, call["argv"])
            done.append({"cell": i, "wall_ms": wall, "error": _failure(code, stderr),
                         "output": stdout})
        return done

    result = _closed_loop(plan, tracer, run_pass)
    result["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return result


def main(argv):
    mode, plan_path = argv
    plan = json.loads(Path(plan_path).read_text())
    spahd = _import_spahd()
    inputs = _load_inputs(plan)
    if mode == "setup":
        print("ready", flush=True)
        return 0
    tracer = None
    if plan["trace"]:
        from spans import Tracer, layer_metrics

        tracer = Tracer()
    if plan["kind"] == "sweep":
        result = _sweep(plan, inputs, tracer)
    else:
        result = _cli(plan, tracer)
    result["env"] = _env_stamp(spahd)
    if tracer:
        result["layers"] = layer_metrics(tracer.spans, result["traced_passes"])
    Path(plan["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
