"""Command line front end.

Every subcommand prints plain ``key = value`` lines so output can be grepped
or diffed; floats are printed with repr and round-trip exactly.
"""

from __future__ import annotations

import argparse
import hashlib
import numbers
import sys

import numpy as np

from .correction import QuadSpec, check_assumptions, correction_integral
from .errors import SpahdError
from .model import GaussianMixture, load_model_file
from .oracle import ExactMeanDensity, clt_ratio
from .saddle import legendre_gap_report, solve_saddle
from .spa import exp_or_inf, expm1_or_inf, spa_density
from .experiments import load_experiment_spec, run_experiment, emit_plot_data, format_csv


def _floats(text):
    toks = text.replace(",", " ").split()
    if not toks:
        raise argparse.ArgumentTypeError("expected at least one number")
    try:
        return [float(t) for t in toks]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _emit(pairs):
    for key, value in pairs:
        # NumPy scalars too, so every real prints as a plain float literal
        if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
            value = repr(float(value))
        print(f"{key} = {value}")


def _load(args):
    params = load_model_file(args.model, d_override=args.dim)
    return params, GaussianMixture(params)


def _add_model_args(p, point_flag="-a", point_help="query point"):
    p.add_argument("--model", required=True, help="model file")
    p.add_argument("--dim", type=int, default=None,
                   help="dimension override for scalable model files")
    p.add_argument(point_flag, dest="point", type=_floats, required=True,
                   metavar="V", help=point_help + " (space or comma separated)")
    p.add_argument("--tol", type=float, default=1e-12, help="saddle tolerance")


def _cmd_solve(args):
    _, model = _load(args)
    saddle = solve_saddle(model, np.asarray(args.point), tol=args.tol)
    pairs = [
        ("tau", " ".join(repr(float(v)) for v in saddle.tau)),
        ("phi_star", saddle.phi_star),
        ("log_det_h", saddle.log_det_h),
        ("residual", saddle.residual),
        ("iterations", saddle.iterations),
        ("method", saddle.method),
    ]
    try:
        report = legendre_gap_report(model, np.asarray(args.point), tol=args.tol)
        pairs += [
            ("gap", report.gap),
            ("gap_bound", report.bound),
            ("admissible", report.admissible),
        ]
    except SpahdError:
        pass  # unstandardized model: the gap report has no reference scale
    _emit(pairs)
    return 0


def _cmd_eval(args):
    params, model = _load(args)
    a = np.asarray(args.point)
    saddle = solve_saddle(model, a, tol=args.tol)
    est = spa_density(saddle, args.n)
    pairs = [
        ("rho_spa", est.density),
        ("log_rho_spa", est.log_density),
        ("log_prefactor", est.log_prefactor),
        ("exponent", est.exponent),
        ("underflow", est.underflow),
    ]
    if not args.no_exact:
        log_exact = ExactMeanDensity(params, args.n).log_density(a)
        pairs += [
            ("rho_exact", exp_or_inf(log_exact)),
            ("rel_err", abs(expm1_or_inf(est.log_density - log_exact))),
        ]
    _emit(pairs)
    return 0


def _cmd_correction(args):
    _, model = _load(args)
    saddle = solve_saddle(model, np.asarray(args.point), tol=args.tol)
    spec = QuadSpec(nodes_per_axis=args.quad_nodes, trunc_radius=args.trunc_radius)
    result = correction_integral(model, saddle, args.n, spec, kappa=args.kappa)
    _emit([
        ("i_re", result.i_value.real),
        ("i_im", result.i_value.imag),
        ("abs_err_from_one", result.abs_err_from_one),
        ("tail_estimate", result.tail_estimate),
        ("nodes_used", result.nodes_used),
        ("panels_per_axis", result.panels_per_axis),
    ])
    return 0


def _cmd_verify(args):
    _, model = _load(args)
    taus = [
        solve_saddle(model, np.asarray(pt), tol=args.tol).tau
        for pt in args.point
    ]
    report = check_assumptions(model, taus, args.n,
                               sample_count=args.samples, seed=args.seed)
    _emit([
        ("kappa_est", report.kappa_est),
        ("delta_arg", report.delta_arg),
        ("delta_mod", report.delta_mod),
        ("magnitude_violations", report.magnitude_violations),
        ("exp_branch_violations", report.exp_branch_violations),
        ("samples", report.samples),
        ("note", report.note or "none"),
    ])
    return 0


def _cmd_clt(args):
    params, _ = _load(args)
    comparison = clt_ratio(params, args.n, np.asarray(args.point), kappa=args.kappa)
    _emit([
        ("ratio", comparison.ratio),
        ("gap", abs(comparison.ratio - 1.0)),
        ("bound", comparison.bound),
    ])
    return 0


def _cmd_experiment(args):
    spec = load_experiment_spec(args.spec)
    records, csv_path = run_experiment(spec, out=args.out)
    pairs = [("mode", spec.mode), ("rows", len(records))]
    if csv_path is not None:
        digest = hashlib.sha256(format_csv(records).encode()).hexdigest()
        pairs += [("csv", str(csv_path)), ("sha256", digest)]
    else:
        sys.stdout.write(format_csv(records))
    if args.plot_data:
        emit_plot_data(records, args.plot_data)
        pairs.append(("plot_data", args.plot_data))
    bad = [r for r in records if r.status != "ok"]
    pairs.append(("failed_rows", len(bad)))
    _emit(pairs)
    return 0 if not bad else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="spahd",
        description="saddlepoint density approximation for Gaussian mixture means",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the saddle equation at a point")
    _add_model_args(p)
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("eval", help="saddlepoint density of the n-sample mean")
    _add_model_args(p)
    p.add_argument("-n", type=int, required=True, help="sample count")
    p.add_argument("--no-exact", action="store_true",
                   help="skip the exact-density comparison")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("correction", help="correction factor by contour quadrature")
    _add_model_args(p)
    p.add_argument("-n", type=int, required=True, help="sample count")
    p.add_argument("--quad-nodes", type=int, default=24)
    p.add_argument("--trunc-radius", type=float, default=2.5)
    p.add_argument("--kappa", type=float, default=1.0)
    p.set_defaults(fn=_cmd_correction)

    p = sub.add_parser("verify-assumptions",
                       help="audit the contour-tail and branch assumptions by "
                            "scans in beta on whitened shells")
    p.add_argument("--model", required=True)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("-a", dest="point", type=_floats, action="append",
                   required=True, metavar="V",
                   help="expansion point; repeat for several")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--samples", type=int, default=2000,
                   help="scanned points in total; sets the beta points per shell")
    p.add_argument("--seed", type=int, default=0,
                   help="no effect: the audit draws nothing at random")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("clt", help="scaled-mean density against its Gaussian limit")
    _add_model_args(p, point_flag="-x", point_help="standardized query point")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--kappa", type=float, default=1.0)
    p.set_defaults(fn=_cmd_clt)

    p = sub.add_parser("experiment", help="run a sweep from a spec file")
    p.add_argument("--spec", required=True, help="experiment spec file")
    p.add_argument("--out", default=None, help="override the spec's output path")
    p.add_argument("--plot-data", default=None,
                   help="also write grouped x/y pairs as JSON")
    p.set_defaults(fn=_cmd_experiment)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (SpahdError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
