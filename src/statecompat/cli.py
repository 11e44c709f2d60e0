"""Command-line front end.

Verbs:
  check     read an instance file, decide compatibility, write a report
  scenario  additionally build the joint state and verify every recovery
  generate  write a seeded random instance file

Exit codes: 0 compatible (or successful generation), 1 incompatible,
2 input or validation error. Reports go to --output or standard output;
diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import sys

from .compat import full_report
from .density import DensityMatrix, validate_density
from .errors import IncompatibleError, StateCompatError
from .fileio import Instance, dump_payload, instance_payload, load_instance, report_payload
from .generate import generate_instance
from .linalg import Tolerances
from .scenario import scenario_with_shared_state

EXIT_OK = 0
EXIT_INCOMPATIBLE = 1
EXIT_ERROR = 2


def _diag_code(exc: Exception) -> str:
    return type(exc).__name__.removesuffix("Error")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecompat",
        description="Decide whether several density-matrix assignments can "
        "describe the same system, and construct the state that realizes "
        "compatible ones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_tol_flags(p):
        p.add_argument("--tol-rank", type=float, default=None, metavar="FLOAT",
                       help="relative rank cutoff (default 1e-10)")
        p.add_argument("--tol-match", type=float, default=None, metavar="FLOAT",
                       help="absolute matching threshold (default 1e-8)")

    check = sub.add_parser("check", help="compatibility report for an instance file")
    check.add_argument("--input", required=True, metavar="PATH")
    check.add_argument("--output", default=None, metavar="PATH")
    add_tol_flags(check)

    scenario = sub.add_parser(
        "scenario", help="compatibility report plus joint-state recovery check"
    )
    scenario.add_argument("--input", required=True, metavar="PATH")
    scenario.add_argument("--output", default=None, metavar="PATH")
    add_tol_flags(scenario)

    generate = sub.add_parser("generate", help="write a seeded random instance file")
    generate.add_argument("--dim", type=int, default=2, metavar="INT")
    generate.add_argument("--count", type=int, default=2, metavar="INT")
    generate.add_argument("--seed", type=int, default=0, metavar="INT")
    generate.add_argument(
        "--mode",
        choices=["compatible", "incompatible", "pairwise-only"],
        default="compatible",
    )
    generate.add_argument("--output", default=None, metavar="PATH")
    return parser


def _emit(payload: dict, output: str | None) -> None:
    if output is None:
        dump_payload(payload, sys.stdout)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            dump_payload(payload, fh)


def _load_validated(
    path: str, tol_rank: float | None, tol_match: float | None
) -> tuple[Instance, Tolerances, list[DensityMatrix]]:
    instance = load_instance(path)
    tol = instance.tolerances(rank_rel=tol_rank, match_abs=tol_match)
    rhos, problems = [], []
    for name, matrix in zip(instance.names, instance.matrices):
        try:
            rhos.append(validate_density(matrix, tol))
        except StateCompatError as exc:
            problems.append(f"{name}: {_diag_code(exc)}: {exc}")
    if problems:
        raise StateCompatError("\n".join(problems))
    return instance, tol, rhos


def cmd_check(args) -> int:
    instance, tol, rhos = _load_validated(args.input, args.tol_rank, args.tol_match)
    report = full_report(rhos, tol)
    _emit(report_payload(report, instance.names, tol, instance), args.output)
    return EXIT_OK if report.compatible else EXIT_INCOMPATIBLE


def cmd_scenario(args) -> int:
    instance, tol, rhos = _load_validated(args.input, args.tol_rank, args.tol_match)
    report = full_report(rhos, tol)
    try:
        result = scenario_with_shared_state(rhos, report.witness, tol)
    except IncompatibleError as exc:
        _emit(report_payload(report, instance.names, tol, instance), args.output)
        print(f"statecompat: {exc}", file=sys.stderr)
        return EXIT_INCOMPATIBLE
    _emit(report_payload(report, instance.names, tol, instance, result), args.output)
    return EXIT_OK if result.success else EXIT_INCOMPATIBLE


def cmd_generate(args) -> int:
    matrices = generate_instance(args.dim, args.count, args.seed, args.mode)
    names = [f"rho_{i + 1}" for i in range(len(matrices))]
    instance = Instance(dim=args.dim, names=names, matrices=matrices)
    _emit(instance_payload(instance), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"check": cmd_check, "scenario": cmd_scenario, "generate": cmd_generate}[
        args.command
    ]
    try:
        return handler(args)
    except (StateCompatError, ValueError) as exc:
        print(f"statecompat: error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"statecompat: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
