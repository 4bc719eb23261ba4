"""Command line driver for regularity certification runs.

Input is a registry instance name or a problem file path; output is a short
human summary on stdout plus, on request, a canonical JSON report (--out)
and a per-sample CSV dump (--csv).  Command-line flags override values from
the problem file, which override library defaults.

Exit codes:
  0  every requested analysis ran and no verdict failed
  1  a verdict failed or could not be established (details in the report)
  2  input error: malformed file, unknown instance, bad flag values; no
     report file is written
  3  internal guard tripped: lattice size cap or LP iteration limit
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import __version__
from .errors import (DimensionMismatch, GridTooLarge, InvalidParameter,
                     NotInSet, NotPolyhedral, ProblemFileError, RegcertError,
                     SimplexIterationLimit, UnknownInstance)
from .geometry import TOL_FEAS, TOL_MEMBER
from .instances import builtin, registry_names
from .multimap import (as_polyhedron, default_region, image_distance,
                       image_distance_batch)
from .oracle import Grid, grid_modulus
from .problems import (ANALYSIS_OPS, SCHEMA_VERSION, Problem,
                       canonical_json, instance_problem, load_problem,
                       parse_analysis, problem_to_dict, samples_csv)
from .regularity import (NORM_CHOICE, SLOPE_SLACK, RegularityQuery,
                         coderivative_criterion,
                         empirical_directional_modulus, parametric_sweep,
                         perturbation_bound, robinson_condition,
                         slope_criterion)
from .slopes import ScalarField, error_bound_certificate

_GUARDS = (GridTooLarge, SimplexIterationLimit)

_INPUT_ERRORS = (ProblemFileError, UnknownInstance, NotInSet,
                 DimensionMismatch, InvalidParameter, NotPolyhedral)

_EPILOG = """\
precedence: command-line flags > problem-file values > library defaults.

exit codes:
  0  all requested analyses ran and held
  1  a verdict failed or could not be established
  2  input error (no report file is written)
  3  internal guard tripped (lattice size cap, LP iteration limit)
"""


# ---------------------------------------------------------------------------
# Small helpers.

def _fmt(value: float) -> str:
    if np.isinf(value):
        return "inf" if value > 0 else "-inf"
    return f"{value:.6g}"


def _write_atomic(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_report(args, report: dict) -> None:
    """Stamp the report and write it to --out, when one is given."""
    if not getattr(args, "out", None):
        return
    report["schema_version"] = SCHEMA_VERSION
    report["generated_at"] = (None if args.no_timestamp
                              else datetime.now(timezone.utc).isoformat())
    _write_atomic(args.out, canonical_json(report))
    print(f"report written to {args.out}")


def _parse_floats(text: str, flag: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise InvalidParameter(
            f"{flag} expects comma-separated numbers, got {text!r}") from None


def _load_target(target: str) -> Problem:
    if target.endswith(".json") or os.path.sep in target \
            or os.path.isfile(target):
        return load_problem(target)
    return instance_problem(builtin(target))


def _build_query(problem: Problem, args) -> RegularityQuery:
    region = problem.region
    if region is None:
        region = default_region(problem.x0, 2.5 * problem.epsilon,
                                sample_budget=4000, grid_resolution=7)
    if getattr(args, "budget", None) is not None:
        if args.budget < 1:
            raise InvalidParameter("--budget must be positive")
        region = replace(region, sample_budget=args.budget)
    if getattr(args, "seed", None) is not None:
        if not 0 <= args.seed < 2 ** 64:
            raise InvalidParameter("--seed must lie in [0, 2^64)")
        region = replace(region, seed=args.seed)
    if args.threads < 1:
        raise InvalidParameter("--threads must be at least 1")
    tol = getattr(args, "tol", None)
    tol = TOL_MEMBER if tol is None else tol
    return RegularityQuery(problem.F, problem.x0, problem.y0, dc=problem.dc,
                           epsilon=problem.epsilon, region=region,
                           tol_member=tol)


# ---------------------------------------------------------------------------
# Analysis ops.  Each runner returns the result payload, a verdict and the
# per-sample records it collected (collect asks for them; only the modulus
# run has any).  Verdicts stay None for purely informational runs (no target
# given).  Parameters the library reads pass through as keyword arguments,
# so an absent one takes the library default.

def _residual_field(q: RegularityQuery) -> ScalarField:
    y0 = q.y0

    def batch(X: np.ndarray) -> np.ndarray:
        Y = np.tile(y0, (X.shape[0], 1))
        return image_distance_batch(q.F, X, Y)

    return ScalarField(q.F.dim_in, fn=lambda x: image_distance(q.F, x, y0),
                       batch=batch)


def _within_target(value: float, params) -> bool | None:
    """Verdict value <= tau_target, or None when no target is given."""
    target = params.get("tau_target")
    if target is None:
        return None
    return bool(np.isfinite(value) and value <= target)


def _run_modulus(problem, q, params, args, collect):
    est = empirical_directional_modulus(q, threads=args.threads,
                                        collect=collect)
    witness = None
    if est.worst_witness is not None:
        witness = {"x": est.worst_witness[0], "y": est.worst_witness[1]}
    result = {"sup_ratio": est.sup_ratio, "n_admissible": est.n_admissible,
              "n_checked": est.n_checked, "worst_witness": witness}
    return result, _within_target(est.sup_ratio, params), est.samples


def _run_slope(problem, q, params, args, collect):
    res = slope_criterion(q, **params)
    result = {"min_slope": res.min_slope, "threshold": res.threshold,
              "tau": res.tau, "slack": res.slack,
              "n_violators": len(res.violators),
              "violators": [{"x": x, "y": y, "slope": s}
                            for x, y, s in res.violators[:5]]}
    return result, bool(res.holds), None


def _run_robinson(problem, q, params, args, collect):
    if params.get("ybar") is not None:
        ybar = np.asarray(params["ybar"], dtype=float)
    elif q.dc is not None:
        ybar = q.dc.ybar
    else:
        ybar = np.zeros(q.F.dim_out)
    res = robinson_condition(q.F, q.x0, q.y0, ybar)
    result = {"margin": res.margin, "ybar": ybar,
              "lambda_max": res.lambda_max, "u_max": res.u_max}
    return result, bool(res.holds), None


def _run_coderivative(problem, q, params, args, collect):
    est = coderivative_criterion(
        q, **{k: v for k, v in params.items() if k != "m"})
    result = {"inf_value": est.inf_value,
              "per_delta": [{"delta": d, "min": v, "n_pairs": n}
                            for d, v, n in est.per_delta],
              "n_pairs": est.n_pairs,
              "bound_direction": est.bound_direction}
    m = params.get("m")
    holds = None if m is None else bool(est.holds_for_m(m))
    return result, holds, None


def _run_perturb(problem, q, params, args, collect):
    return {"bound": perturbation_bound(**params)}, True, None


def _run_sweep(problem, q, params, args, collect):
    family = problem.family()
    grid = params.get("p_grid") or list(problem.p_grid)
    res = parametric_sweep(family, grid, q, threads=args.threads)
    result = {"uniform_modulus": res.uniform_modulus,
              "per_p": [{"p": p, "sup_ratio": s} for p, s in res.per_p]}
    return result, _within_target(res.uniform_modulus, params), None


def _run_error_bound(problem, q, params, args, collect):
    cert = error_bound_certificate(_residual_field(q), region=q.region,
                                   **params)
    result = {"f_value": cert.f_value, "d_sublevel": cert.d_sublevel,
              "slope_inf": cert.slope_inf,
              "n_slope_points": cert.n_slope_points,
              "boundary_witness": cert.boundary_witness}
    return result, bool(cert.holds), None


def _precheck_coderivative(problem, spec, path):
    if problem.dc is None:
        raise ProblemFileError(path,
                               "coderivative analysis needs a direction")
    if as_polyhedron(problem.F.K) is None:
        raise ProblemFileError(
            path, "coderivative analysis needs a polyhedral constraint set")


def _precheck_sweep(problem, spec, path):
    if problem.family_kind is None:
        raise ProblemFileError(path, "sweep analysis needs a family")
    if not spec.get("p_grid") and not problem.p_grid:
        raise ProblemFileError(f"{path}.p_grid",
                               "sweep analysis needs a p grid")


@dataclass(frozen=True)
class _Op:
    """How the report pipeline runs one analysis op and reads its result.

    headline and witness are (report key, result key) pairs: the report
    summary takes the value of the op's first successful record, the
    witnesses its first nonempty one.  precheck rejects a request the
    problem cannot satisfy, before any analysis runs.
    """

    run: Callable
    summary: Callable
    headline: tuple = ()
    witness: tuple = ()
    precheck: Callable | None = None


_OPS = {
    "modulus": _Op(
        _run_modulus,
        lambda r: (f"sup_ratio={_fmt(r['sup_ratio'])} over "
                   f"{r['n_admissible']} admissible pairs"),
        ("modulus_estimate", "sup_ratio"),
        ("modulus_worst", "worst_witness")),
    "slope": _Op(
        _run_slope,
        lambda r: (f"min_slope={_fmt(r['min_slope'])} vs threshold "
                   f"{_fmt(r['threshold'])}"),
        ("min_slope", "min_slope"), ("slope_violators", "violators")),
    "robinson": _Op(
        _run_robinson, lambda r: f"margin={_fmt(r['margin'])}",
        ("robinson_margin", "margin")),
    "coderivative": _Op(
        _run_coderivative,
        lambda r: (f"inf={_fmt(r['inf_value'])} over {r['n_pairs']} dual "
                   f"pairs ({r['bound_direction']} bound)"),
        ("coderivative_inf", "inf_value"),
        precheck=_precheck_coderivative),
    "perturb": _Op(_run_perturb, lambda r: f"bound={_fmt(r['bound'])}"),
    "sweep": _Op(
        _run_sweep,
        lambda r: f"uniform_modulus={_fmt(r['uniform_modulus'])}",
        precheck=_precheck_sweep),
    "error_bound": _Op(
        _run_error_bound,
        lambda r: (f"f={_fmt(r['f_value'])} d={_fmt(r['d_sublevel'])} "
                   f"slope_inf={_fmt(r['slope_inf'])}"),
        witness=("sublevel_boundary", "boundary_witness")),
}


def _precheck_analyses(problem: Problem) -> None:
    """Reject unsatisfiable analysis requests before any work starts."""
    for i, spec in enumerate(problem.analyses):
        op = spec["op"]
        path = f"analyses[{i}]"
        for key in ANALYSIS_OPS[op][0]:
            if key not in spec:
                raise ProblemFileError(f"{path}.{key}",
                                       f"{op} analysis needs {key}")
        if _OPS[op].precheck is not None:
            _OPS[op].precheck(problem, spec, path)


def _run_analysis(problem, q, spec, args, collect):
    params = {k: v for k, v in spec.items() if k != "op"}
    record = {"op": spec["op"], "params": params, "result": None,
              "holds": None, "error": None}
    samples = None
    guard = False
    try:
        record["result"], record["holds"], samples = _OPS[spec["op"]].run(
            problem, q, params, args, collect)
    except RegcertError as exc:
        record["error"] = {"type": type(exc).__name__, "message": str(exc)}
        guard = isinstance(exc, _GUARDS)
        if guard:
            print(f"internal guard: {exc}", file=sys.stderr)
    return record, samples, guard


def _describe(record: dict) -> str:
    op = record["op"]
    if record["error"] is not None:
        return (f"{op}: ERROR {record['error']['type']}: "
                f"{record['error']['message']}")
    tag = {True: " -> PASS", False: " -> FAIL", None: ""}[record["holds"]]
    return f"{op}: {_OPS[op].summary(record['result'])}{tag}"


# ---------------------------------------------------------------------------
# Report pipeline shared by analyze and the single-analysis commands.

def _summaries(records: list) -> tuple:
    """The report's summary and witnesses, read off the records."""
    summary = {op.headline[0]: None for op in _OPS.values() if op.headline}
    witnesses = {}
    for rec in records:
        op, res = _OPS[rec["op"]], rec["result"]
        if rec["error"] is not None:
            continue
        if op.headline and summary[op.headline[0]] is None:
            summary[op.headline[0]] = res[op.headline[1]]
        value = res[op.witness[1]] if op.witness else None
        if value is not None and len(value):
            witnesses.setdefault(op.witness[0], value)
    return summary, witnesses


def _run_problem(problem: Problem, args) -> int:
    _precheck_analyses(problem)
    q = _build_query(problem, args)
    t0 = time.perf_counter()
    records = []
    all_samples = None
    guard_hit = False
    want_csv = getattr(args, "csv", None) is not None
    for spec in problem.analyses:
        record, samples, guard = _run_analysis(
            problem, q, spec, args, want_csv and all_samples is None)
        records.append(record)
        guard_hit = guard_hit or guard
        if samples is not None and all_samples is None:
            all_samples = samples
    wall = time.perf_counter() - t0

    n_failed = sum(1 for r in records if r["holds"] is False)
    n_errors = sum(1 for r in records if r["error"] is not None)
    verdicts = {"all_hold": n_failed == 0 and n_errors == 0,
                "n_analyses": len(records), "n_failed": n_failed,
                "n_errors": n_errors}
    summary, witnesses = _summaries(records)

    report = {
        "problem": problem_to_dict(problem),
        "query": {"epsilon": q.epsilon, "seed": q.seed,
                  "sample_budget": q.region.sample_budget,
                  "grid_resolution": q.region.grid_resolution,
                  "box": q.region.box, "tol_member": q.tol_member},
        "analyses": records,
        "verdicts": verdicts,
        "summary": summary,
        "witnesses": witnesses,
        "seed": q.seed,
        "tolerances": {"tol_member": q.tol_member, "tol_feas": TOL_FEAS,
                       "slope_slack": SLOPE_SLACK},
        "norm_choice": NORM_CHOICE,
        "wall_time_s": None if args.no_timestamp else round(wall, 3),
    }

    name = problem.name or "problem"
    print(f"{name}: {len(records)} analyses, seed {q.seed}, budget "
          f"{q.region.sample_budget}")
    for record in records:
        print("  " + _describe(record))
    _write_report(args, report)
    if want_csv:
        if all_samples is None:
            print("no modulus samples collected; csv not written",
                  file=sys.stderr)
        else:
            _write_atomic(args.csv, samples_csv(all_samples, q.F.dim_in,
                                                q.F.dim_out))
            print(f"samples written to {args.csv}")
    if guard_hit:
        return 3
    return 1 if n_failed or n_errors else 0


# ---------------------------------------------------------------------------
# Subcommand entry points.

def _cmd_run(args) -> int:
    """Run the problem's analyses or, for a single-analysis command, only
    args.op; each parameter of that op comes from the flag of the same
    name, comma-separated lists arriving as text, and is validated like a
    problem-file value."""
    problem = _load_target(args.problem)
    if args.op is not None:
        spec = {"op": args.op}
        for key in sum(ANALYSIS_OPS[args.op], ()):
            value = getattr(args, key, None)
            if isinstance(value, str):
                value = _parse_floats(value, "--" + key.replace("_", "-"))
            if value is not None:
                spec[key] = value
        problem.analyses = (parse_analysis(spec, "flags"),)
    return _run_problem(problem, args)


def _cmd_perturb(args) -> int:
    params = {key: getattr(args, key) for key in ANALYSIS_OPS["perturb"][0]}
    bound = perturbation_bound(**params)
    print(_fmt(bound))
    _write_report(args, {"analysis": {"op": "perturb", **params},
                         "result": {"bound": bound}})
    return 0


def _cmd_oracle_check(args) -> int:
    problem = _load_target(args.problem)
    q = _build_query(problem, args)
    din, dout = q.F.dim_in, q.F.dim_out
    px = (201 if din == 1 else 41) if args.points_x is None else args.points_x
    py = (201 if dout == 1 else 21) if args.points_y is None else args.points_y
    g_x = Grid(np.stack([q.x0 - 2.5 * q.epsilon, q.x0 + 2.5 * q.epsilon],
                        axis=1), px)
    g_y = Grid(np.stack([q.y0 - q.epsilon, q.y0 + q.epsilon], axis=1), py)
    oracle_sup = grid_modulus(q.F, q, g_x, g_y)
    est = empirical_directional_modulus(q, threads=args.threads)
    emp = est.sup_ratio

    step = max(g_x.step, g_y.step)
    if np.isinf(oracle_sup) and np.isinf(emp):
        agree, tol, diff = True, np.inf, 0.0
    elif np.isinf(oracle_sup) != np.isinf(emp):
        agree, tol, diff = False, 0.0, np.inf
    else:
        tol = step * max(1.0, oracle_sup)
        diff = abs(emp - oracle_sup)
        agree = diff <= tol

    name = problem.name or "problem"
    print(f"{name}: estimator={_fmt(emp)} oracle={_fmt(oracle_sup)} "
          f"diff={_fmt(diff)} tol={_fmt(tol)} "
          f"-> {'PASS' if agree else 'FAIL'}")
    _write_report(args, {
        "problem": problem_to_dict(problem),
        "oracle_check": {"estimator": emp, "oracle": oracle_sup,
                         "difference": diff, "tolerance": tol,
                         "grid_step": step, "points_x": px,
                         "points_y": py, "agree": agree},
        "seed": q.seed,
    })
    return 0 if agree else 1


def _cmd_instances(args) -> int:
    if args.export:
        problem = instance_problem(builtin(args.export))
        text = canonical_json(problem_to_dict(problem))
        if args.out:
            _write_atomic(args.out, text)
            print(f"problem written to {args.out}")
        else:
            sys.stdout.write(text)
        return 0
    for name in registry_names():
        inst = builtin(name)
        known = inst.known
        mod = "?" if known is None or known.modulus is None \
            else _fmt(known.modulus)
        rob = "?" if known is None or known.robinson is None \
            else str(known.robinson)
        dims = f"({inst.F.dim_in}->{inst.F.dim_out})"
        direction = " directional" if inst.dc is not None else ""
        print(f"{name} {dims}: modulus={mod} robinson={rob}{direction}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regcert",
        description="Estimate and certify metric regularity of "
                    "finite-dimensional set-valued mappings.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"regcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", metavar="PATH",
                        help="write a canonical JSON report (atomic)")
    common.add_argument("--csv", metavar="PATH",
                        help="write per-sample records of the first "
                             "modulus analysis")
    common.add_argument("--seed", type=int, default=None,
                        help="sampling seed (overrides the problem file)")
    common.add_argument("--budget", type=int, default=None,
                        help="sample budget (overrides the problem file)")
    common.add_argument("--tol", type=float, default=None,
                        help=f"membership tolerance (default {TOL_MEMBER})")
    common.add_argument("--threads", type=int, default=1,
                        help="worker threads for sampling loops")
    common.add_argument("--no-timestamp", action="store_true",
                        help="omit timestamps and wall time for "
                             "byte-stable reports")

    p = sub.add_parser("analyze", parents=[common],
                       help="run every analysis listed in the problem")
    p.add_argument("problem", help="problem file path or instance name")
    p.set_defaults(func=_cmd_run, op=None)

    p = sub.add_parser("modulus", parents=[common],
                       help="empirical modulus estimate")
    p.add_argument("problem", help="problem file path or instance name")
    p.add_argument("--tau", type=float, default=None, dest="tau_target",
                   metavar="TAU",
                   help="target modulus; verdict is sup_ratio <= tau")
    p.set_defaults(func=_cmd_run, op="modulus")

    p = sub.add_parser("slope", parents=[common],
                       help="envelope slope criterion for a given tau")
    p.add_argument("problem", help="problem file path or instance name")
    p.add_argument("--tau", type=float, required=True,
                   help="modulus to certify against")
    p.add_argument("--n-points", type=int, default=24,
                   help="admissible pairs to probe")
    p.add_argument("--slope-budget", type=int, default=300,
                   help="samples per slope evaluation")
    p.set_defaults(func=_cmd_run, op="slope")

    p = sub.add_parser("robinson", parents=[common],
                       help="interiority LP certificate")
    p.add_argument("problem", help="problem file path or instance name")
    p.add_argument("--ybar", metavar="V1,V2,...", default=None,
                   help="direction (defaults to the problem direction, "
                        "else zero for the undirected condition)")
    p.set_defaults(func=_cmd_run, op="robinson")

    p = sub.add_parser("coderivative", parents=[common],
                       help="dual-pair coderivative criterion")
    p.add_argument("problem", help="problem file path or instance name")
    p.add_argument("--delta-ladder", metavar="D1,D2,...",
                   default="0.2,0.1,0.05", help="delta values to sweep")
    p.add_argument("--samples-per-delta", type=int, default=800,
                   help="dual pairs per delta")
    p.add_argument("--m", type=float, default=None,
                   help="threshold; verdict is inf > m")
    p.set_defaults(func=_cmd_run, op="coderivative")

    p = sub.add_parser("perturb",
                       help="stability bound under Lipschitz perturbation")
    p.add_argument("--tau", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--ybar-norm", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--L", type=float, required=True,
                   help="Lipschitz size of the perturbation")
    p.add_argument("--out", metavar="PATH",
                   help="write a canonical JSON report (atomic)")
    p.add_argument("--no-timestamp", action="store_true",
                   help="omit timestamps for byte-stable reports")
    p.set_defaults(func=_cmd_perturb)

    p = sub.add_parser("sweep", parents=[common],
                       help="uniform modulus over a parameter family")
    p.add_argument("problem", help="problem file path or instance name")
    p.add_argument("--tau", type=float, default=None, dest="tau_target",
                   metavar="TAU",
                   help="target; verdict is uniform modulus <= tau")
    p.add_argument("--p-grid", metavar="P1,P2,...", default=None,
                   help="parameter grid (overrides the problem file)")
    p.set_defaults(func=_cmd_run, op="sweep")

    p = sub.add_parser("oracle-check", parents=[common],
                       help="compare the estimator against the grid oracle")
    p.add_argument("problem", help="problem file path or instance name")
    p.add_argument("--points-x", type=int, default=None,
                   help="lattice points per x axis")
    p.add_argument("--points-y", type=int, default=None,
                   help="lattice points per y axis")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("instances",
                       help="list registry instances or export one")
    p.add_argument("--export", metavar="NAME", default=None,
                   help="emit the named instance as a problem file")
    p.add_argument("--out", metavar="PATH",
                   help="write the export here instead of stdout")
    p.set_defaults(func=_cmd_instances)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _GUARDS as exc:
        print(f"internal guard: {exc}", file=sys.stderr)
        return 3
    except _INPUT_ERRORS as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except RegcertError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
