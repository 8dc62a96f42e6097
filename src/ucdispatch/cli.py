"""Command-line pipeline: validate, thin, build, solve, report, run.

Exit codes: 0 success, 1 domain failure (validation errors, non-monotone
curves), 2 usage or I/O problems, 3 solver failures.  UC_SOLVER_CMD serves as
a fallback for --solver-cmd.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .errors import (
    DataError,
    DomainError,
    IoFailure,
    NonMonotoneCurve,
    SolverError,
    TooManyBinaries,
    ValidationFailed,
)
from .instance import CONFIG_KEYS, load_instance, validate
from .model import build_model, model_stats
from .report import build_report, write_reports
from .solve import SolverConfig, Solution, accept_solution, solve
from .thinning import thin_all
from .writers import write_file, write_lp, write_mps


def _add_input_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="key-value config file")
    sub.add_argument("--units", required=True, help="units.csv")
    sub.add_argument("--startup", required=True, help="units_cu.csv")
    sub.add_argument("--periods", required=True, help="periods.csv")
    sub.add_argument("--set", dest="overrides", action="append", default=[],
                     metavar="KEY=VALUE", help="override a config entry")
    sub.add_argument("--json", action="store_true", help="machine-readable output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucdispatch",
        description="Unit-commitment power market pipeline")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("validate", help="check the input data")
    _add_input_arguments(sub)
    sub.set_defaults(handler=_cmd_validate)

    sub = commands.add_parser("thin", help="thin the startup-cost curves")
    _add_input_arguments(sub)
    sub.add_argument("--tol", type=float, default=None,
                     help="relative error tolerance (default: config STARTUP_TOL)")
    sub.set_defaults(handler=_cmd_thin)

    sub = commands.add_parser("build", help="emit the model as MPS or LP")
    _add_input_arguments(sub)
    sub.add_argument("--format", choices=("mps", "lp"), default="mps")
    sub.add_argument("--out", required=True, help="output model file")
    sub.set_defaults(handler=_cmd_build)

    for name in ("solve", "run"):
        sub = commands.add_parser(
            name, help="full pipeline: validate, thin, build, solve, report")
        _add_input_arguments(sub)
        sub.add_argument("--backend", choices=("builtin-exact", "external"),
                         default="builtin-exact")
        sub.add_argument("--solver-cmd", default=None,
                         help="external command with {model} and {solution} "
                              "placeholders (fallback: UC_SOLVER_CMD)")
        sub.add_argument("--binary-budget", type=int,
                         default=SolverConfig.binary_budget,
                         help="enumeration cap of the builtin backend")
        sub.add_argument("--out-dir", default="results")
        sub.set_defaults(handler=_cmd_solve)

    sub = commands.add_parser(
        "report", help="post-process an existing solution file")
    _add_input_arguments(sub)
    sub.add_argument("--solution", required=True, help="solution file (name value)")
    sub.add_argument("--out-dir", default="results")
    sub.set_defaults(handler=_cmd_report)

    return parser


def _parse_overrides(parser, pairs) -> dict[str, str]:
    overrides = {}
    for pair in pairs:
        if "=" not in pair:
            parser.error(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = (part.strip() for part in pair.partition("="))
        if key not in CONFIG_KEYS:
            parser.error(f"--set: unknown config key {key!r} "
                         f"(known: {', '.join(CONFIG_KEYS)})")
        overrides[key] = value
    return overrides


def _load(args, parser):
    overrides = _parse_overrides(parser, args.overrides)
    return load_instance(args.config, args.units, args.startup, args.periods,
                         overrides=overrides)


def _print_report(report, as_json: bool) -> None:
    if as_json:
        payload = {
            "errors": [vars(r) for r in report.errors()],
            "warnings": [vars(r) for r in report.warnings()],
        }
        print(json.dumps(payload, indent=2))
    else:
        for record in report:
            print(record)


def _cmd_validate(args, parser) -> int:
    instance = _load(args, parser)
    report = validate(instance)
    _print_report(report, args.json)
    if report.ok and not args.json:
        print(f"ok: {len(instance.units)} unit(s), "
              f"{instance.num_periods} period(s), "
              f"{len(report.warnings())} warning(s)")
    return 0 if report.ok else 1


def _cmd_thin(args, parser) -> int:
    instance = _load(args, parser)
    tol = args.tol if args.tol is not None else instance.general.startup_tol
    if not 0.0 <= tol <= 1.0:
        parser.error(f"--tol must lie in [0, 1], got {tol}")
    thinned = thin_all(instance, tol)
    print("unit_id,t_a,t_b,step")
    for unit_id in sorted(thinned):
        curve = thinned[unit_id]
        for start in curve.group_starts():
            print(f"{unit_id},{start},{curve.group_extents[start]},"
                  f"{curve.steps[start]:.12g}")
    return 0


def _cmd_build(args, parser) -> int:
    model = build_model(_load(args, parser))
    text = write_mps(model) if args.format == "mps" else write_lp(model)
    try:
        write_file(args.out, text)
    except OSError as exc:
        raise IoFailure(f"cannot write {args.out}: {exc}") from exc
    stats = model_stats(model)
    if args.json:
        print(json.dumps(stats, indent=2))
    else:
        print(f"wrote {args.out} ({stats['total_constraints']} constraints, "
              f"{stats['total_variables']} variables, "
              f"{stats['binaries']} binaries)")
        for family, count in sorted(stats["families"].items()):
            print(f"  {family}: {count}")
    return 0


def _solver_config(args, parser) -> SolverConfig:
    command = (args.solver_cmd or os.environ.get("UC_SOLVER_CMD", "")).strip()
    if args.backend == "external" and not command:
        parser.error("--backend external requires --solver-cmd or UC_SOLVER_CMD")
    if args.binary_budget < 0:
        parser.error(f"--binary-budget must be at least 0, got {args.binary_budget}")
    return SolverConfig(backend=args.backend, command_template=command,
                        binary_budget=args.binary_budget)


def _print_solution(solution: Solution, report, as_json: bool, out_dir) -> None:
    if as_json:
        print(json.dumps({
            "status": solution.status,
            "backend": solution.backend,
            "objective": solution.objective,
            "wall_time": solution.wall_time,
            "out_dir": str(out_dir),
            "cost_breakdown": report.cost_breakdown,
            "stats": solution.stats,
        }, indent=2))
        return
    print(f"status {solution.status} ({solution.backend}, "
          f"{solution.wall_time:.3f}s)")
    print(f"objective {solution.objective:.12g}")
    for label, value in report.cost_breakdown.items():
        print(f"  {label} {value:.12g}")
    print(f"reports written to {out_dir}")


def _cmd_solve(args, parser) -> int:
    instance = _load(args, parser)
    model = build_model(instance)
    solution = solve(model, _solver_config(args, parser))
    if solution.status != "optimal":
        print(f"solve failed: status {solution.status}", file=sys.stderr)
        return 3
    report = build_report(instance, model, solution)
    write_reports(instance, model, solution, report, args.out_dir)
    _print_solution(solution, report, args.json, args.out_dir)
    return 0


def _cmd_report(args, parser) -> int:
    instance = _load(args, parser)
    model = build_model(instance)
    try:
        text = Path(args.solution).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoFailure(f"cannot read {args.solution}: {exc}") from exc
    solution = Solution(*accept_solution(text, model), "optimal", "file", 0.0)
    report = build_report(instance, model, solution)
    write_reports(instance, model, solution, report, args.out_dir)
    _print_solution(solution, report, args.json, args.out_dir)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, parser)
    except ValidationFailed as exc:
        for record in exc.report.errors():
            print(record, file=sys.stderr)
        return 1
    except (NonMonotoneCurve, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, IoFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TooManyBinaries as exc:
        print(f"solver error: {exc}\nhint: retry with --backend external",
              file=sys.stderr)
        return 3
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
