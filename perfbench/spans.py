"""Span recording at spahd's layer boundaries, from outside the program.

install() wraps each boundary function on its defining module and on every
spahd module that imported the name, and wraps the boundary methods on their
classes; uninstall() puts the originals back.  Spans stay in memory as
[name, start_ns, end_ns, parent index, attributes] and are reduced to
per-layer metrics by layer_metrics().
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, function, span name, attributes read from the result)
FUNCTIONS = (
    ("spahd.saddle", "solve_saddle", "saddle",
     lambda args, out: {"iterations": out.iterations,
                        "fallback": out.method == "fixed_point"}),
    ("spahd.spa", "spa_density", "spa", lambda args, out: {"underflow": out.underflow}),
    ("spahd.correction", "correction_integral", "correction",
     lambda args, out: {"nodes": out.nodes_used}),
    ("spahd.correction", "check_assumptions", "check_assumptions",
     lambda args, out: {"samples": out.samples}),
    ("spahd.experiments", "run_experiment", "experiments", None),
)

# (module, class, method, span name, attributes read from the arguments)
METHODS = (
    ("spahd.oracle", "ExactMeanDensity", "__init__", "oracle.build", None),
    ("spahd.oracle", "ExactMeanDensity", "log_density", "oracle.query",
     lambda args, out: {"terms": args[0].n + 1}),
    ("spahd.model", "GaussianMixture", "c3_sup", "model.sup", None),
    ("spahd.model", "GaussianMixture", "c4_sup", "model.sup", None),
)

CLI_COMMANDS = ("solve", "eval", "correction", "verify-assumptions", "clt", "experiment")


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def _wrap(self, name, fn, attrs):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter_ns(), 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, out)
            return out

        return wrapper

    def call(self, name, fn, *args):
        """Run fn(*args) inside a span recorded by the benchmark itself."""
        return self._wrap(name, fn, None)(*args)

    def install(self):
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "spahd" or key.startswith("spahd."))]
        for mod_name, attr, name, attrs in FUNCTIONS:
            orig = getattr(sys.modules[mod_name], attr)
            wrapper = self._wrap(name, orig, attrs)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, name, attrs in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(name, orig, attrs))

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)


def layer_metrics(spans, passes):
    """Per-layer metrics, each per pass of the workload (a sweep over the grid,
    or one cycle of CLI calls); cli.* are mean milliseconds per call."""
    self_ns = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_ns[s[3]] -= s[2] - s[1]
    count, ns, attr = {}, {}, {}
    durations = {}
    for s, own in zip(spans, self_ns):
        count[s[0]] = count.get(s[0], 0) + 1
        ns[s[0]] = ns.get(s[0], 0) + own
        durations.setdefault(s[0], []).append(s[2] - s[1])
        for key, value in (s[4] or {}).items():
            attr[key] = attr.get(key, 0) + int(value)
    per = 1.0 / max(passes, 1)

    def calls(name):
        return count.get(name, 0) * per

    def ms(name):
        return ns.get(name, 0) * 1e-6 * per

    out = {
        "saddle.calls": calls("saddle"),
        "saddle.ms": ms("saddle"),
        "saddle.iterations": attr.get("iterations", 0) * per,
        "saddle.fallbacks": attr.get("fallback", 0) * per,
        "spa.calls": calls("spa"),
        "spa.ms": ms("spa"),
        "spa.underflows": attr.get("underflow", 0) * per,
        "oracle.builds": calls("oracle.build"),
        "oracle.build_ms": ms("oracle.build"),
        "oracle.queries": calls("oracle.query"),
        "oracle.query_ms": ms("oracle.query"),
        "oracle.terms": attr.get("terms", 0) * per,
        "model.sup_calls": calls("model.sup"),
        "model.sup_ms": ms("model.sup"),
        "correction.calls": calls("correction"),
        "correction.ms": ms("correction"),
        "correction.nodes": attr.get("nodes", 0) * per,
        "correction.ns_per_node": (ns.get("correction", 0) / attr["nodes"]
                                   if attr.get("nodes") else 0.0),
        "correction.check_assumptions_calls": calls("check_assumptions"),
        "correction.check_assumptions_ms": ms("check_assumptions"),
        "correction.assumption_samples": attr.get("samples", 0) * per,
        "experiments.calls": calls("experiments"),
        "experiments.self_ms": ms("experiments"),
    }
    for cmd in CLI_COMMANDS:
        walls = durations.get("cli." + cmd)
        out[f"cli.{cmd}_ms"] = statistics.fmean(walls) * 1e-6 if walls else 0.0
    return out
