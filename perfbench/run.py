"""spahd benchmark: sweep throughput, CLI latency and oracle-checked accuracy.

  python3 perfbench/run.py --workload sweep-scaling --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --self-check

Each run writes its seeded inputs under perfbench/.work, times set-up in
fresh interpreters, runs the workload in one more fresh interpreter (see
workload.py), checks a fixed subset of its outputs against 50-digit mpmath
references (reference.py, cached in perfbench/.cache) and prints every
metric of BENCHMARK.json by name with its unit.  The last line is one JSON
object.  Exit codes: 0 done, 1 an output failed the reference check,
2 the benchmark could not run.  See perfbench/README.md for the workloads
and the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import mpmath

import reference
from inputs import WORKLOADS, scalable, write_inputs

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# the largest relative error any checked output may have; the oracle's own
# floor is 1.5e-10 at n = 1e5 (log-Gamma weights), everything else is tighter
REF_TOL = 1e-8
SETUP_SPAWNS = 8
IMPORTTIME_SPAWNS = 3
RUN_DEADLINE_S = 170.0
# BLAS pools pinned to one thread, in the benchmark's children only
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark could not run: no result is printed, exit code 2."""


def _metric_specs():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def _child_env():
    env = dict(os.environ)
    # children cache bytecode as a normal install does, whatever the caller set
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(BLAS_PIN)
    return env


def _remaining(deadline):
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("run exceeded its time limit")
    return left


def _env_stamp(child_env):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        git_env = dict(os.environ, GIT_DIR=str(ROOT / ".git"), GIT_WORK_TREE=str(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, env=git_env, timeout=30)
        commit = proc.stdout.strip() or "unknown"
    stamp = {"python": platform.python_version(), "mpmath": mpmath.__version__,
             "nproc": os.cpu_count(), "cpu": cpu, "commit": commit}
    stamp.update({k: v for k, v in child_env.items() if k in BLAS_PIN})
    return stamp


def _time_setup(plan_path, env, deadline):
    """Seconds from spawning a fresh interpreter until it has imported spahd
    and loaded the workload's inputs (it prints 'ready' at that point)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "workload.py"), "setup", str(plan_path)],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], _remaining(deadline))
        line = proc.stdout.readline() if ready else ""
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=_remaining(deadline))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up child failed (exit {proc.returncode})")
    return elapsed


def _import_times(env, deadline):
    """Cumulative import times (ms) of spahd and of every scipy module that
    spahd's import pulls in, from `python -X importtime`, median of spawns."""
    spahd_ms, scipy_ms = [], []
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import spahd"],
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError("import spahd failed")
        entries = []
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "cumulative" in line:
                continue
            _, cum, name = line.split("|")
            stripped = name.lstrip()
            entries.append(((len(name) - len(stripped)) // 2, stripped.strip(), int(cum)))
        # children are printed before their parent; walk backwards keeping
        # the chain of open ancestors, and count only outermost scipy modules
        stack, top_spahd, top_scipy = [], 0, 0
        for depth, name, cum in reversed(entries):
            while stack and stack[-1][0] >= depth:
                stack.pop()
            is_scipy = name == "scipy" or name.startswith("scipy.")
            if is_scipy and not any(s[2] for s in stack):
                top_scipy += cum
            if name == "spahd":
                top_spahd = cum
            stack.append((depth, name, is_scipy))
        spahd_ms.append(top_spahd / 1e3)
        scipy_ms.append(top_scipy / 1e3)
    return statistics.median(spahd_ms), statistics.median(scipy_ms)


def _kv(text):
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key.strip()] = value.strip()
    return out


def _csv_rows(text):
    lines = text.splitlines()
    if not lines or not lines[0].startswith("d,n,"):
        raise ValueError("no CSV header")
    rows = []
    for line in lines[1:]:
        if " = " in line:
            break
        f = line.split(",")
        rows.append([float(f[3]), float(f[4]), float(f[6]), f[10]])
    return rows


class Checker:
    """Compares outputs with the references; keeps the worst error per layer."""

    def __init__(self, refs):
        self.refs = refs
        self.worst = {"oracle": 0.0, "spa": 0.0, "correction": 0.0}
        self.bad = []

    def _note(self, layer, what, err):
        self.worst[layer] = max(self.worst[layer], err)
        if not err <= REF_TOL:
            self.bad.append(f"{what}: relative error {err:.3g} > {REF_TOL:g}")
            return False
        return True

    def density(self, layer, what, out, log_ref):
        return self._note(layer, what, reference.density_error(out, log_ref))

    def value(self, layer, what, out, ref):
        return self._note(layer, what, reference.relative_error(out, ref))

    def gap(self, layer, what, out, ratio):
        """out is |I - 1|; the error is measured relative to I itself."""
        with mpmath.mp.workdps(reference.DPS):
            err = abs(mpmath.mpf(out) - abs(ratio - 1)) / ratio if math.isfinite(out) else math.inf
        return self._note(layer, what, float(err))

    def sweep_row(self, mode, model, n, a, row):
        rho_spa, rho_exact, i_minus_one, _ = row
        exact = self.refs.get("exact", model, n, a)
        spa = self.refs.get("spa", model, n, a)
        ok = self.density("oracle", f"rho_exact n={n} a={a[:2]}", rho_exact, exact)
        ok &= self.density("spa", f"rho_spa n={n} a={a[:2]}", rho_spa, spa)
        if mode == "correction_study":
            ok &= self.gap("correction", f"|I-1| n={n} a={a[:2]}", i_minus_one,
                           mpmath.exp(exact - spa))
        return ok

    def clt_row(self, model, n, x, row):
        limit, rho_exact, gap, _ = row
        a = [v / math.sqrt(n) for v in x]
        exact = self.refs.get("exact", model, n, a)
        gauss = self.refs.get("gauss", model, n, x)
        ok = self.density("oracle", f"clt rho_exact n={n} x={x}", rho_exact, exact)
        ok &= self.density("oracle", f"clt limit n={n} x={x}", limit, gauss)
        ok &= self.gap("oracle", f"clt gap n={n} x={x}", gap, mpmath.exp(exact - gauss))
        return ok

    def cli_call(self, check, output):
        """(passed, rows) for one CLI call's stdout."""
        kind = check["kind"]
        kv = _kv(output)
        if kind == "solve":
            ref = self.refs.get("phi", check["model"], 1, check["a"])
            return self.value("spa", f"phi_star a={check['a']}", float(kv["phi_star"]), ref), 1
        if kind == "eval":
            m, n, a = check["model"], check["n"], check["a"]
            ok = self.density("oracle", f"eval rho_exact a={a}", float(kv["rho_exact"]),
                              self.refs.get("exact", m, n, a))
            ok &= self.density("spa", f"eval rho_spa a={a}", float(kv["rho_spa"]),
                               self.refs.get("spa", m, n, a))
            return ok, 1
        if kind == "correction":
            m, n, a = check["model"], check["n"], check["a"]
            ratio = mpmath.exp(self.refs.get("exact", m, n, a) - self.refs.get("spa", m, n, a))
            return self.value("correction", f"correction i_re a={a}", float(kv["i_re"]), ratio), 1
        if kind == "clt":
            m, n, x = check["model"], check["n"], check["x"]
            a = [v / math.sqrt(n) for v in x]
            ratio = mpmath.exp(self.refs.get("exact", m, n, a) - self.refs.get("gauss", m, n, x))
            return self.value("oracle", f"clt ratio x={x}", float(kv["ratio"]), ratio), 1
        if kind == "verify":
            # no reference exists for the sampled margins; the report must be complete
            int(kv["samples"]), float(kv["delta_arg"]), float(kv["delta_mod"])
            return True, 1
        rows = _csv_rows(output)
        expected = [(n, x) for n in check["n_grid"] for x in check["points"]]
        if len(rows) != len(expected):
            self.bad.append(f"experiment printed {len(rows)} rows, expected {len(expected)}")
            return False, 0
        ok = all([self.clt_row(check["model"], n, x, row)
                  for (n, x), row in zip(expected, rows)])
        return ok, len(rows)


def _check(plan, result, checker):
    """Mark calls that fail the reference check; return ok rows per call."""
    ok_rows = []
    for call in result["calls"]:
        rows = 0
        if call["error"] is None:
            try:
                if plan["kind"] == "sweep":
                    rows = call["ok_rows"]
                    cell = plan["cells"][call["cell"]]
                    passed = all([checker.sweep_row(plan["mode"], scalable(cell["d"]), cell["n"],
                                                    cell["points"][i], call["output"][i])
                                  for i in (plan["checked"] if "output" in call else ())])
                else:
                    passed, rows = checker.cli_call(plan["calls"][call["cell"]]["check"],
                                                    call["output"])
            except (KeyError, ValueError, IndexError) as exc:
                checker.bad.append(f"unreadable output of call {call['cell']}: {exc!r}")
                passed = False
            if not passed:
                call["error"] = "reference check"
        ok_rows.append(rows if call["error"] is None else 0)
    return ok_rows


def _percentiles(samples):
    """(p50, p75) of (wall_ms, failed) samples; a failed call ranks slower
    than any success and counts at least as long as the slowest success."""
    slowest_ok = max((w for w, failed in samples if not failed), default=0.0)
    values = sorted(max(w, slowest_ok) if failed else w for w, failed in samples)
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=4, method="inclusive")[2]


def run_workload(workload, seed, seconds, trace):
    """One benchmark run.  Returns (json result, printed lines)."""
    if not (ROOT / "src" / "spahd" / "__init__.py").is_file():
        raise BenchError(f"spahd sources not found under {ROOT / 'src'}")
    deadline = time.monotonic() + RUN_DEADLINE_S
    e2e_units, layer_units = _metric_specs()
    work = BENCH / ".work" / f"{workload}-{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        plan = write_inputs(workload, seed, work)
        plan.update(seconds=seconds, trace=trace, result=str(work / "result.json"))
        plan_path = work / "plan.json"
        plan_path.write_text(json.dumps(plan))
        env = _child_env()
        stamp = _env_stamp(env)

        metrics = {}
        if trace:
            metrics["import.spahd_ms"], metrics["import.scipy_ms"] = _import_times(env, deadline)
        else:
            _time_setup(plan_path, env, deadline)  # warms the file and bytecode caches
            setups = [_time_setup(plan_path, env, deadline) for _ in range(SETUP_SPAWNS // 2)]
        proc = subprocess.run([sys.executable, str(BENCH / "workload.py"), "run", str(plan_path)],
                              env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"workload child failed (exit {proc.returncode}): "
                             + proc.stderr.strip()[-2000:])
        result = json.loads(Path(plan["result"]).read_text())
        if not trace:
            # half the set-up samples come after the workload, so that one
            # burst of machine noise cannot move the median
            setups += [_time_setup(plan_path, env, deadline) for _ in range(SETUP_SPAWNS // 2)]
            metrics["setup_s"] = statistics.median(setups)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("run exceeded its time limit") from exc
    finally:
        shutil.rmtree(work, ignore_errors=True)

    refs = reference.References(BENCH / ".cache" / "references.json")
    checker = Checker(refs)
    ok_rows = _check(plan, result, checker)
    refs.save()
    calls = result["calls"]
    failed = [c for c in calls if c["error"] is not None]
    by_class = {}
    for c in failed:
        by_class[c["error"]] = by_class.get(c["error"], 0) + 1
    stamp.update(result["env"])

    if trace:
        metrics.update(result["layers"])
        metrics["trace.overhead_ratio"] = result["overhead_ratio"]
        for layer, err in checker.worst.items():
            metrics[f"{layer}.ref_err_max"] = err
        units = layer_units
    else:
        metrics["rows_per_s"] = statistics.median(
            sum(ok_rows[i] for i in p["calls"]) / (p["wall_ms"] / 1e3) for p in result["passes"])
        # a latency sample is one pass: a grid pass, or one cycle of CLI calls
        samples = [(p["wall_ms"], any(calls[i]["error"] is not None for i in p["calls"]))
                   for p in result["passes"]]
        metrics["call_ms_p50"], metrics["call_ms_p75"] = _percentiles(samples)
        metrics["peak_rss_mb"] = result["rss_kb"] / 1024.0
        units = e2e_units
    missing = set(units) ^ set(metrics)
    if missing:
        raise BenchError(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")

    lines = [f"# workload {workload}  seed {seed}  seconds {seconds}  trace {trace}",
             "# env " + " ".join(f"{k}={v}" for k, v in stamp.items()),
             f"# calls {len(calls)}  passes {len(result['passes'])}  failed {len(failed)}"
             + "".join(f"  {k}={v}" for k, v in sorted(by_class.items()))]
    lines += [f"# reference check failed: {msg}" for msg in checker.bad[:20]]
    for name in units:
        lines.append(f"{name} = {metrics[name]!r} {units[name]}")
    if not trace:
        lines.append(f"fail_ratio = {len(failed) / len(calls)!r} ratio")
        lines.append(f"ref_err_max = {max(checker.worst.values())!r} relative")
    out = {"correct": not checker.bad, "attempted": len(calls), "failed": len(failed),
           "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units}}
    return out, lines


def self_check():
    """A tiny pass of every workload, untraced and traced, asserting that all
    metrics are printed with their units and the per-layer predictions hold."""
    e2e_units, layer_units = _metric_specs()
    problems, results = [], {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            out, lines = run_workload(workload, 0, 1, trace)
            print("\n".join(lines), flush=True)
            results[workload, trace] = out["metrics"]
            units = layer_units if trace else e2e_units
            for name, unit in units.items():
                if not any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                           for line in lines):
                    problems.append(f"{workload}: {name} not printed with unit {unit}")
            if not out["correct"]:
                problems.append(f"{workload} trace {trace}: reference check failed")

    def value(workload, trace, name):
        return results[workload, trace][name]["value"]

    if value("sweep-scaling", 1, "correction.calls") != 0:
        problems.append("sweep-scaling calls correction_integral")
    self_ms = ("saddle.ms", "spa.ms", "oracle.build_ms", "oracle.query_ms", "model.sup_ms",
               "correction.ms", "correction.check_assumptions_ms", "experiments.self_ms")
    largest = max(self_ms, key=lambda n: value("sweep-correction", 1, n))
    if largest != "correction.ms":
        problems.append(f"largest self time on sweep-correction is {largest}")
    if not value("cli", 1, "import.spahd_ms") > 500 * value("cli", 0, "setup_s"):
        problems.append("import spahd is not most of a CLI process's set-up")
    for p in problems:
        print("self-check problem:", p)
    print("self-check:", "FAILED" if problems else "ok")
    return 1 if problems else 0


def _seed(text):
    value = int(text)
    if value < 0:  # spec files carry the seed, and spahd seeds numpy with it
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if args.workload is None:
            parser.error("--workload is required")
        code = 0
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            out, lines = run_workload(workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
            print(json.dumps(out), flush=True)
            code = max(code, 0 if out["correct"] else 1)
        return code
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
