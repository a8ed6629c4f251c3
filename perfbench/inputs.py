"""Seeded input generation: model files, spec files and CLI argument lists.

The program only ever sees the files written here; the plan returned
alongside them tells the workload child what to run and the driver what to
check.  The same (workload, seed) always writes the same bytes.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

WORKLOADS = ("sweep-scaling", "sweep-correction", "cli")

# Point sets per cell: each pass of a sweep uses the next rotation, so a run
# visits ROTATIONS different direction sets while every pass does the same work.
ROTATIONS = 8
SCALING_D = (1, 8, 64)
SCALING_N = (200, 6400, 100000)
SCALING_SHELLS = ((0.0, 1), (0.1, 4), (0.3, 4))
CORRECTION_D = (1, 2)
CORRECTION_N = (200, 800, 3200)
CORRECTION_SHELLS = ((0.0, 1), (0.3, 1), (0.6, 1))
# Sweep rows checked against the references: the first point of each shell,
# in every rotation-0 pass.
SCALING_CHECKED = (0, 1, 5)
CORRECTION_CHECKED = (0, 1, 2)

SCALABLE_TEXT = "d = 1\nmu = unit\nsigma = identity\n"
STANDARD_TEXT = "d = 1\nmu = 0.6\nsigma = 0.64\n"
STANDARD = {"mu": [0.6], "sigma_diag": [0.64]}


def scalable(d):
    """Reference description of the 'mu = unit, sigma = identity' model at d."""
    return {"mu": [1.0] + [0.0] * (d - 1), "sigma_diag": [1.0] * d}


def _direction(rng, d):
    while True:
        u = [rng.gauss(0.0, 1.0) for _ in range(d)]
        norm = math.sqrt(sum(x * x for x in u))
        if norm > 1e-12:
            return [x / norm for x in u]


def _shell_points(rng, d, shells):
    pts = []
    for radius, count in shells:
        for _ in range(count):
            pts.append([0.0] * d if radius == 0.0 else
                       [radius * x for x in _direction(rng, d)])
    return pts


def _fmt(v):
    return repr(float(v))


def _write_model(path, text, seed):
    path.write_text(f"# perfbench input, seed {seed}\n{text}")
    return str(path)


def _write_spec(path, seed, header, mode, model, points, n_grid, d=None):
    lines = [f"# {header}", f"mode = {mode}", f"model = {model}"]
    if d is not None:
        lines.append(f"d_grid = {d}")
    lines += [
        "n_grid = " + " ".join(str(n) for n in n_grid),
        "a_points = " + "; ".join(" ".join(_fmt(v) for v in p) for p in points),
        f"seed = {seed}",
    ]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def _sweep_plan(workload, seed, work, rng):
    if workload == "sweep-scaling":
        mode, d_grid, n_grid = "error_scaling", SCALING_D, SCALING_N
        shells, checked = SCALING_SHELLS, SCALING_CHECKED
    else:
        mode, d_grid, n_grid = "correction_study", CORRECTION_D, CORRECTION_N
        shells, checked = CORRECTION_SHELLS, CORRECTION_CHECKED
    _write_model(work / "scalable.model", SCALABLE_TEXT, seed)
    points = {d: [_shell_points(rng, d, shells) for _ in range(ROTATIONS)] for d in d_grid}
    cells = []
    for d in d_grid:
        for n in n_grid:
            specs = [
                _write_spec(work / f"d{d}-n{n}-r{r}.spec", seed,
                            f"perfbench {workload} input, seed {seed}, rotation {r}",
                            mode, "scalable.model", points[d][r], [n], d=d)
                for r in range(ROTATIONS)
            ]
            cells.append({"d": d, "n": n, "specs": specs, "points": points[d][0]})
    return {"kind": "sweep", "mode": mode, "cells": cells, "checked": list(checked)}


def _signed(rng, lo, hi):
    return rng.choice((-1.0, 1.0)) * rng.uniform(lo, hi)


def _cli_plan(seed, work, rng):
    std = _write_model(work / "standard.model", STANDARD_TEXT, seed)
    scal = _write_model(work / "scalable.model", SCALABLE_TEXT, seed)
    a_solve = _signed(rng, 0.05, 0.4)
    a_eval = _signed(rng, 0.05, 0.3)
    a_corr1 = _signed(rng, 0.05, 0.3)
    angle, radius = rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.05, 0.4)
    a_corr2 = [radius * math.cos(angle), radius * math.sin(angle)]
    verify_pts = [_signed(rng, 0.0, 0.3) for _ in range(3)]
    x_clt = _signed(rng, 0.1, 2.0)
    exp_points = [[0.0], [_signed(rng, 0.5, 2.0)], [_signed(rng, 0.5, 2.0)]]
    exp_n = [50, 200]
    spec = _write_spec(work / "clt.spec", seed, f"perfbench cli input, seed {seed}",
                       "clt_study", "standard.model", exp_points, exp_n)
    # values are attached to their flag (-a-0.2) so that argparse never
    # mistakes a negative number for an option
    calls = [
        {"name": "solve", "argv": ["solve", "--model", std, "-a" + _fmt(a_solve)],
         "check": {"kind": "solve", "model": STANDARD, "a": [a_solve]}},
        {"name": "eval", "argv": ["eval", "--model", std, "-a" + _fmt(a_eval), "-n", "6400"],
         "check": {"kind": "eval", "model": STANDARD, "n": 6400, "a": [a_eval]}},
        {"name": "correction",
         "argv": ["correction", "--model", std, "-a" + _fmt(a_corr1), "-n", "200"],
         "check": {"kind": "correction", "model": STANDARD, "n": 200, "a": [a_corr1]}},
        {"name": "correction",
         "argv": ["correction", "--model", scal, "--dim", "2",
                  "-a" + ",".join(_fmt(v) for v in a_corr2), "-n", "200"],
         "check": {"kind": "correction", "model": scalable(2), "n": 200, "a": a_corr2}},
        {"name": "verify-assumptions",
         "argv": ["verify-assumptions", "--model", std]
         + ["-a" + _fmt(v) for v in verify_pts]
         + ["-n", "200", "--samples", "20000", "--seed", str(seed)],
         "check": {"kind": "verify"}},
        {"name": "clt", "argv": ["clt", "--model", std, "-x" + _fmt(x_clt), "-n", "200"],
         "check": {"kind": "clt", "model": STANDARD, "n": 200, "x": [x_clt]}},
        {"name": "experiment", "argv": ["experiment", "--spec", spec],
         "check": {"kind": "clt_rows", "model": STANDARD, "n_grid": exp_n,
                   "points": exp_points}},
    ]
    return {"kind": "cli", "calls": calls, "models": [std, scal], "spec": spec}


def write_inputs(workload, seed, work: Path):
    """Write the inputs of one workload into work/ and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    work.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli":
        plan = _cli_plan(seed, work, rng)
    else:
        plan = _sweep_plan(workload, seed, work, rng)
    plan["workload"] = workload
    plan["seed"] = seed
    return plan
