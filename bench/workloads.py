"""The three benchmark workloads: their seeded inputs, one op each, and the gate.

A workload builds a pool of ops from a seed during set-up, runs one op at a
time (one caller, closed loop) and checks every output with :func:`Workload.check`,
which returns the list of problems found (empty when the output is correct).

Every input comes from ``statecompat.generate``. Instance seeds are derived
from the workload seed and the position in the pool, so one seed always
gives the same inputs. Pool shapes are fixed; only values depend on the seed,
which keeps the cost of a pool steady from seed to seed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from statecompat import cli, fileio, generate
from statecompat.compat import full_report
from statecompat.density import validate_density
from statecompat.linalg import Tolerances
from statecompat.scenario import run_scenario

TOL = Tolerances()
EXIT_OK, EXIT_ERROR = cli.EXIT_OK, cli.EXIT_ERROR
#: errors of the gate reading an op's output: the output is wrong, so the op fails
GATE_ERRORS = (OSError, KeyError, TypeError, ValueError)


@dataclass(eq=False)
class Case:
    """One instance: raw matrices, the planted verdict, and derived inputs."""

    label: str
    dim: int
    matrices: list[np.ndarray]
    expect_compatible: bool | None  # None: no planted verdict (theta pairs)
    rhos: list | None = None  # validated matrices, when set-up prepares them
    path: Path | None = None  # instance file, when set-up writes one


@dataclass(eq=False)
class Op:
    case: Case
    verb: str  # "check" or "scenario": the CLI verb equivalent to the op
    out_path: Path | None = None


def instance_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def planted(dim: int, count: int, seed: int, mode: str, label: str) -> Case:
    return Case(label, dim, generate.generate_instance(dim, count, seed, mode), mode == "compatible")


def planted_pool(seed: int, shapes, replicas: int) -> list[Case]:
    """``replicas`` generated instances of every (dim, count, mode) shape."""
    grid = [(shape, r) for r in range(replicas) for shape in shapes]
    return [planted(d, c, instance_seed(seed, i), mode, f"d{d}c{c}-{mode}#{r}")
            for i, ((d, c, mode), r) in enumerate(grid)]


def theta_pair(theta: float, seed: int) -> Case:
    """Two pure states at angle theta in a seeded random 2-d frame."""
    frame = generate.random_unitary(2, np.random.default_rng(seed))
    a = frame[:, 0]
    b = np.cos(theta) * frame[:, 0] + np.sin(theta) * frame[:, 1]
    return Case(f"theta={theta:.0e}", 2, [np.outer(v, v.conj()) for v in (a, b)], None)


def write_instance(case: Case, path: Path) -> None:
    names = [f"rho_{i + 1}" for i in range(len(case.matrices))]
    instance = fileio.Instance(dim=case.dim, names=names, matrices=case.matrices)
    with open(path, "w", encoding="utf-8") as fh:
        fileio.dump_payload(fileio.instance_payload(instance), fh)
    case.path = path


def support_defect(matrix: np.ndarray, v: np.ndarray) -> float:
    """Distance of unit vector v from the support of a density matrix.

    Computed here with one plain eigendecomposition and the library's rank
    rule (eigenvalues above rank_rel times the largest), independently of the
    library's own support code.
    """
    w, u = np.linalg.eigh((matrix + matrix.conj().T) / 2)
    kept = u[:, w > TOL.rank_rel * max(float(w[-1]), 1e-30)]
    return float(np.linalg.norm(v - kept @ (kept.conj().T @ v)))


def report_problems(case: Case, compatible: bool, inter: int, forbidden: int, witness, matrices) -> list[str]:
    """The gate on one compatibility report (the same rules for objects and files)."""
    problems = []
    if case.expect_compatible is not None and compatible != case.expect_compatible:
        problems.append(f"verdict {compatible}, planted {case.expect_compatible}")
    if inter + forbidden != case.dim:
        problems.append(f"intersection_dim {inter} + forbidden_dim {forbidden} != dim {case.dim}")
    if compatible:
        if witness is None:
            problems.append("compatible without a witness")
        else:
            worst = max(support_defect(m, witness) for m in matrices)
            if worst > TOL.match_abs:
                problems.append(f"witness defect {worst:.3e} > match_abs")
    return problems


def scenario_problems(success: bool, distances) -> list[str]:
    worst = max(distances)
    if success and worst <= TOL.match_abs:
        return []
    return [f"scenario success={success}, largest recovery distance {worst:.3e}"]


class Workload:
    """Base: ``setup`` builds the ops, ``run`` performs one, ``check`` gates it."""

    name = ""

    def setup(self, seed: int, workdir: Path) -> list[Op]:
        raise NotImplementedError

    def warm_ops(self, ops: list[Op]) -> list[Op]:
        """One op of each distinct shape, run during set-up to warm caches."""
        seen, warm = set(), []
        for op in ops:
            key = (op.case.dim, len(op.case.matrices), op.verb)
            if key not in seen:
                seen.add(key)
                warm.append(op)
        return warm

    def prepare(self, op: Op) -> None:
        """Untimed work before an op runs."""

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError


class CheckManySmall(Workload):
    """validate_density on each raw matrix, then full_report; small instances."""

    name = "check-many-small"
    REPLICAS = 10

    def setup(self, seed, workdir):
        shapes = [(d, c, mode) for d in range(2, 6) for c in range(2, 5)
                  for mode in ("compatible", "incompatible")]
        shapes += [(d, 3, "pairwise-only") for d in range(3, 6)]
        return [Op(case, "check") for case in planted_pool(seed, shapes, self.REPLICAS)]

    def run(self, op):
        rhos = [validate_density(m, TOL) for m in op.case.matrices]
        return rhos, full_report(rhos, TOL)

    def check(self, op, out):
        rhos, rep = out
        return report_problems(op.case, rep.compatible, rep.intersection_dim, rep.forbidden_dim,
                               rep.witness, [r.matrix for r in rhos])


class ScenarioObservers(Workload):
    """run_scenario on pre-validated compatible instances, dim 3, n = 2..8 observers.

    Each instance takes n of the DRAW matrices of one generated compatible
    instance (all share its planted state): the first two of full rank and
    the first n - 2 of the others, in drawn order. With two full-rank
    matrices every ancilla has the largest dimension, so the joint state has
    one size at each n and the pool's cost does not depend on the seed;
    without this choice an n = 8 op took 7 ms to 81 ms over twelve seeds on
    a 2-CPU host. Drawing a fixed count, instead of redrawing whole
    instances until two matrices have full rank, keeps the set-up's cost
    steady too.
    """

    name = "scenario-observers"
    DIM = 3
    OBSERVERS = range(2, 9)
    REPLICAS = 15
    DRAW = 24  # fewer than two of full rank (probability 1/3 each): about 1e-3

    def setup(self, seed, workdir):
        draws = itertools.count()
        cases = []
        for r in range(self.REPLICAS):
            for n in self.OBSERVERS:
                full = []
                while len(full) < 2:
                    drawn = generate.generate_instance(self.DIM, self.DRAW, instance_seed(seed, next(draws)),
                                                       "compatible")
                    ranks = np.linalg.matrix_rank(np.stack(drawn), hermitian=True)
                    full = list(np.flatnonzero(ranks == self.DIM)[:2])
                keep = sorted(full + [k for k in range(self.DRAW) if k not in full][:n - 2])
                case = Case(f"n{n}#{r}", self.DIM, [drawn[k] for k in keep], True)
                case.rhos = [validate_density(m, TOL) for m in case.matrices]
                cases.append(case)
        return [Op(case, "scenario") for case in cases]

    def run(self, op):
        return run_scenario(op.case.rhos, TOL)

    def check(self, op, out):
        return scenario_problems(out.success, out.distances)


class CliRoundtrip(Workload):
    """In-process ``statecompat.cli.main`` on instance files, writing report files.

    Every file gets ``check``; files with two matrices also get ``scenario``,
    run right after the file's ``check`` so the two exit codes can be
    compared. Scenario on three large matrices is left out: its joint state
    grows with the seeded ranks (9 ms to 187 ms at dim 32 across twelve seeds
    on a 2-CPU host), which would make the workload's cost depend on the seed.

    Near-parallel pure-state pairs (:func:`theta_pair`) are not in the pool:
    at angles of about 1e-9 to 1e-5 the library's report breaks
    ``intersection_dim + forbidden_dim == dim`` and ``check`` and ``scenario``
    disagree on the exit code, so every run would fail its gate. The
    self-check keeps them as a known failure (test_bench.py).
    """

    name = "cli-roundtrip"
    DIMS = (8, 16, 24, 32)
    COUNTS = (2, 3)
    REPLICAS = 4

    def __init__(self):
        self._check_exit: dict[Path, int] = {}

    def setup(self, seed, workdir):
        shapes = [(d, c, mode) for d in self.DIMS for c in self.COUNTS
                  for mode in ("compatible", "incompatible")]
        cases = planted_pool(seed, shapes, self.REPLICAS)
        order = np.random.default_rng(seed).permutation(len(cases))
        ops = []
        for idx in order:
            case = cases[idx]
            write_instance(case, workdir / f"case{idx}.json")
            verbs = ["check", "scenario"] if len(case.matrices) == 2 else ["check"]
            ops += [Op(case, verb, workdir / f"case{idx}.{verb}.out.json") for verb in verbs]
        self._check_exit.clear()
        return ops

    def run(self, op):
        # Diagnostics for exit 1 and 2 go to stderr; keep them out of the output.
        with contextlib.redirect_stderr(io.StringIO()):
            return cli.main([op.verb, "--input", str(op.case.path), "--output", str(op.out_path)])

    def prepare(self, op):
        # A failed op must not pass the gate on the previous pass's report.
        op.out_path.unlink(missing_ok=True)

    def check(self, op, code):
        if op.verb == "check":
            self._check_exit[op.case.path] = code
        if code == EXIT_ERROR:
            return [f"{op.verb} exited {EXIT_ERROR}"]
        problems = []
        compatible = code == EXIT_OK
        with open(op.out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        rep = payload["report"]
        if op.verb == "check" and compatible != rep["compatible"]:
            problems.append(f"exit {code} but report compatible={rep['compatible']}")
        witness = None if rep["witness"] is None else np.array([complex(*p) for p in rep["witness"]])
        problems += report_problems(op.case, rep["compatible"], rep["intersection_dim"],
                                    rep["forbidden_dim"], witness, op.case.matrices)
        if op.verb == "scenario":
            if rep["compatible"]:
                sc = payload.get("scenario")
                if sc is None:
                    problems.append("compatible report without a scenario section")
                else:
                    problems += scenario_problems(
                        sc["success"], [o["recovery_distance"] for o in sc["observers"]])
            check_code = self._check_exit.get(op.case.path)
            if check_code is not None and check_code != code:
                problems.append(f"check exited {check_code}, scenario exited {code}")
        return problems


WORKLOADS = {w.name: w for w in (CheckManySmall, ScenarioObservers, CliRoundtrip)}


def attempt(workload: Workload, op: Op, around=contextlib.nullcontext) -> tuple[float, list[str]]:
    """Run one op inside ``around()`` and gate its output: (seconds, problems).

    Only the op itself is timed; an op that raises is a failure, not an error
    of the benchmark.
    """
    workload.prepare(op)
    error = None
    with around():
        start = perf_counter()
        try:
            out = workload.run(op)
        except Exception as exc:
            error = exc
        elapsed = perf_counter() - start
    if error is not None:
        return elapsed, [f"raised {type(error).__name__}: {error}"]
    try:
        return elapsed, workload.check(op, out)
    except GATE_ERRORS as exc:
        return elapsed, [f"unreadable output: {type(exc).__name__}: {exc}"]


@dataclass
class Loop:
    """Latencies of each pool position, in visiting order, and the failures."""

    per_op: list[list[float]]
    failures: list[tuple[str, str, list[str]]] = field(default_factory=list)
    attempted: int = 0

    @classmethod
    def for_pool(cls, size: int) -> "Loop":
        return cls([[] for _ in range(size)])


def closed_loop(workload: Workload, ops: list[Op], seconds: float, loop: Loop) -> Loop:
    """One caller: ops in pool order, each after the last completes, until time is up.

    Runs at least one op, and continues ``loop`` from the pool position where
    it stopped.
    """
    deadline = perf_counter() + seconds
    first = loop.attempted
    while loop.attempted == first or perf_counter() < deadline:
        i = loop.attempted % len(ops)
        elapsed, problems = attempt(workload, ops[i])
        loop.per_op[i].append(elapsed)
        loop.attempted += 1
        if problems:
            loop.failures.append((ops[i].case.label, ops[i].verb, problems))
    return loop
