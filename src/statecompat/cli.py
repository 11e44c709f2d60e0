"""Command-line front end.

Verbs:
  check     read an instance file, decide compatibility, write a report
  scenario  additionally run the round trip around the report's witness: each
            observer's state after finding their ancilla at level 0, and its
            distance from their input. The set is checked, its matrices
            and spectra stacked, its ranks split, its intersection decided
            and its witness phase-fixed once, and the report and the round
            trip both read that one split.
  generate  write a seeded random instance file

Exit codes: 0 compatible (or successful generation), 1 incompatible,
2 input or validation error, also for an instance over a size cap of
statecompat.fileio (MAX_INSTANCE_MATRICES matrices, MAX_INSTANCE_ENTRIES
matrix entries). generate refuses such a size with the reader's words,
naming --count or --dim instead of the instance.
Reports go to --output or standard output; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .compat import _report, _split_set
from .density import DensityMatrix, validate_density
from .errors import IncompatibleError, StateCompatError
from .fileio import Instance, _over_a_cap, dump_payload, instance_payload, load_instance, report_payload
from .generate import generate_instance
from .linalg import DEFAULT_TOL, Tolerances
from .scenario import _realize

EXIT_OK = 0
EXIT_INCOMPATIBLE = 1
EXIT_ERROR = 2


@functools.cache  # built once per process; parse_args keeps no state between calls
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statecompat",
        description="Decide whether several density-matrix assignments can "
        "describe the same system, and run the round trip in which each "
        "observer of a compatible set recovers their own assignment.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the default tolerances as the help writes them: 1e-8, not Python's 1e-08
    rank, match = (f"{x:g}".replace("e-0", "e-") for x in (DEFAULT_TOL.rank_rel, DEFAULT_TOL.match_abs))
    for verb, text in (
        ("check", "compatibility report for an instance file"),
        ("scenario", "compatibility report plus joint-state recovery check"),
    ):
        report = sub.add_parser(verb, help=text)
        report.add_argument("--input", required=True, metavar="PATH")
        report.add_argument("--output", default=None, metavar="PATH")
        report.add_argument("--tol-rank", type=float, default=None, metavar="FLOAT",
                            help=f"relative rank cutoff (default {rank})")
        report.add_argument("--tol-match", type=float, default=None, metavar="FLOAT",
                            help=f"absolute matching threshold (default {match})")

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
            problems.append(f"{name}: {type(exc).__name__.removesuffix('Error')}: {exc}")
    if problems:
        raise StateCompatError("\n".join(problems))
    return instance, tol, rhos


def cmd_report(args) -> int:
    """The ``check`` and ``scenario`` verbs: write the report and return the exit code.

    ``scenario`` adds the round trip around the report's witness, from the
    report's own split of the set. On an incompatible set it writes the
    report before its diagnostic.
    """
    instance, tol, rhos = _load_validated(args.input, args.tol_rank, args.tol_match)
    split = _split_set(rhos, tol)
    report = _report(split, tol)
    result = failure = None
    if args.command == "scenario":
        try:
            result = _realize(split, tol)
        except IncompatibleError as exc:
            failure = exc
    _emit(report_payload(report, instance.names, tol, instance, result), args.output)
    if failure is not None:
        print(f"statecompat: {failure}", file=sys.stderr)
    passed = report.compatible if result is None else result.success
    return EXIT_OK if passed else EXIT_INCOMPATIBLE


def cmd_generate(args) -> int:
    # refused as reading refuses it; a dim or count below 2 is generate_instance's to refuse
    if too_large := _over_a_cap(args.count, args.dim if min(args.dim, args.count) >= 2 else 1):
        # --count when the count alone is over, or two matrices of this dim would fit
        flag = "--count" if _over_a_cap(args.count, 1) or not _over_a_cap(2, args.dim) else "--dim"
        raise StateCompatError(f"{flag} too large: {too_large}")
    matrices = generate_instance(args.dim, args.count, args.seed, args.mode)
    names = [f"rho_{i + 1}" for i in range(len(matrices))]
    instance = Instance(dim=args.dim, names=names, matrices=matrices)
    _emit(instance_payload(instance), args.output)
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = cmd_generate if args.command == "generate" else cmd_report
    try:
        return handler(args)
    except (ValueError, OSError) as exc:  # StateCompatError is a ValueError
        print(f"statecompat: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
