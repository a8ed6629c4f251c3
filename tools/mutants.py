"""Single-line mutants of src/spahd, and the tier-1 tests that catch each.

    python tools/mutants.py                 run every mutant
    python tools/mutants.py NAME [NAME...]  run the named ones
    python tools/mutants.py --list          list the names

Each mutant replaces one line of the committed src/ (read with `git show
HEAD:...`, so local edits are not mutated) in a temporary copy, runs the
tier-1 suite against that copy with pytest and prints the tests that
failed.  A mutant that no test catches prints "survived".  The suite runs
once per mutant, about 20-30 s each; the unmutated tree is checked first,
since a failure there would be charged to every mutant.  This is a tool for
reviewing the checks, not part of tier-1.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name: (file under src/spahd, the line as committed, its replacement)
MUTANTS = {
    "allow-times-0": (
        "suprema.py",
        "        allow = _SUP_ULPS * _EPS * (m0 + m1 * (1.0 + a1 + b1)) * w",
        "        allow = 0.0 * _SUP_ULPS * _EPS * (m0 + m1 * (1.0 + a1 + b1)) * w"),
    "allow-without-k1": (
        "suprema.py",
        "        allow = _SUP_ULPS * _EPS * (m0 + m1 * (1.0 + a1 + b1)) * w",
        "        allow = _SUP_ULPS * _EPS * m0 * w"),
    "sup-rtol-1e-3": ("suprema.py", "_SUP_RTOL = 1e-6", "_SUP_RTOL = 1e-3"),
    "sup-ulps-8": ("suprema.py", "_SUP_ULPS = 16.0", "_SUP_ULPS = 8.0"),
    "sup-slack-1e-10": ("suprema.py", "_SUP_SLACK = 1e-9", "_SUP_SLACK = 1e-10"),
    "sup-slack-dropped": (
        "suprema.py",
        "        w = r1 ** k * (1.0 + _SUP_SLACK)",
        "        w = r1 ** k"),
    "sup-sech2-unclamped": ("suprema.py", "        qh = np.minimum(qh, 1.0)", "        qh = qh"),
    "sup-convex-unguarded": (
        "suprema.py",
        "        drop = mono[0] | mono[1] | (kept & (convex[0] | convex[1]))",
        "        drop = mono[0] | mono[1] | (convex[0] | convex[1])"),
    "term-main-exp-30": (
        "spa.py",
        "    term_main = exp_or_inf(40.0 * c4 * eps * eps) * (c3 * c3 + c4) * eps",
        "    term_main = exp_or_inf(30.0 * c4 * eps * eps) * (c3 * c3 + c4) * eps"),
    "log-det-h-one-sech": (
        "saddle.py",
        "    log_det_h = model._log_det_sigma + math.log1p(s * s * model._g)",
        "    log_det_h = model._log_det_sigma + math.log1p(s * model._g)"),
    "window-nats-20": ("oracle.py", "_WINDOW_NATS = 40.0", "_WINDOW_NATS = 20.0"),
    "trunc-radius-2.4": ("spa.py", "TRUNC_RADIUS = 2.5", "TRUNC_RADIUS = 2.4"),
    "tail-rel-1e-9": ("oracle.py", "_TAIL_REL = 1e-16", "_TAIL_REL = 1e-9"),
    "geometric-tail-first-term": (
        "oracle.py",
        "    return math.exp(log_edge + ratio - math.log(-math.expm1(ratio)))",
        "    return math.exp(log_edge + ratio)"),
    "agreement-rtol-1e-2": ("correction.py", "_AGREEMENT_RTOL = 1e-6", "_AGREEMENT_RTOL = 1e-2"),
    "surface-floor-1e-8": ("correction.py", "_SURFACE_FLOOR = 1e-16", "_SURFACE_FLOOR = 1e-8"),
    "scalar-newton-accept-1e6": ("saddle.py", "    if res <= tol:", "    if res <= 1e6 * tol:"),
    "scalar-newton-no-subnormal-floor": (
        "saddle.py",
        "        if abs(f) <= 4.0 * (_EPS * (abs(alpha) + g * abs(t) + abs(c)) + 2.0**-1074):",
        "        if abs(f) <= 4.0 * _EPS * (abs(alpha) + g * abs(t) + abs(c)):"),
}

FAILED = re.compile(r"^FAILED (\S+)", re.MULTILINE)


def _checkout(where: Path) -> Path:
    """The committed src/spahd, written under where; returns the src dir."""
    names = subprocess.run(["git", "-C", str(ROOT), "ls-files", "src/spahd"],
                           check=True, capture_output=True, text=True).stdout.split()
    for name in names:
        text = subprocess.run(["git", "-C", str(ROOT), "show", f"HEAD:{name}"],
                              check=True, capture_output=True, text=True).stdout
        target = where / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return where / "src"


def _mutate(src: Path, name: str) -> None:
    path, old, new = MUTANTS[name]
    target = src / "spahd" / path
    lines = target.read_text().split("\n")
    hits = [i for i, line in enumerate(lines) if line == old]
    if len(hits) != 1:
        sys.exit(f"{name}: {path} has {len(hits)} lines equal to {old.strip()!r}, not one")
    lines[hits[0]] = new
    target.write_text("\n".join(lines))


def _failures(src: Path) -> list[str]:
    """The ids of the tier-1 tests that fail with spahd imported from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors"],
        cwd=ROOT, env=env, capture_output=True, text=True)
    return FAILED.findall(run.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        print("\n".join(MUTANTS))
        return 0
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(unknown)} (see --list)")
    names = argv or list(MUTANTS)
    with tempfile.TemporaryDirectory() as tmp:
        base = _failures(_checkout(Path(tmp) / "base"))
        if base:
            sys.exit("the unmutated tree fails: " + ", ".join(base))
        survivors = 0
        for name in names:
            src = _checkout(Path(tmp) / name)
            _mutate(src, name)
            caught = _failures(src)
            survivors += not caught
            verdict = f"caught by {len(caught)}" if caught else "survived"
            print(f"{name}: {verdict}", flush=True)
            for test in caught:
                print(f"    {test}", flush=True)
    print(f"{len(names) - survivors} of {len(names)} mutants caught")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
