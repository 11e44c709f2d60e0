"""The traced run: per-layer times taken from outside the package.

Each traced op is one span ("op") with children: the workload's own op
("workload.op", the same call the end-to-end run times, under a
numpy.linalg call counter),
then the public functions that op's pipeline calls, one by one in the
pipeline's order (see PIPELINES): check-many-small validates and reports;
scenario-observers tests the supports, builds ensembles and the joint state
and recovers each observer; cli-roundtrip loads the file, validates,
reports, runs the scenario stages for ``scenario`` ops, writes the report
file and calls cli.main. A layer the workload's op does not use is not
called, and its time reads 0.

A stage function that is missing, or whose signature no longer accepts the
arguments, is reported as absent and its metric is left out; the run still
completes.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import tracemalloc
from collections import defaultdict
from itertools import combinations, count
from pathlib import Path
from time import perf_counter

import numpy as np

from statecompat import cli, compat, density, fileio, scenario
from statecompat.errors import StateCompatError
from statecompat.generate import generate_instance

from workloads import TOL, attempt

#: per-layer time metric -> the spans (module.function) it sums
LAYER_SPANS = {
    "density.validate_ms": ("density.validate_density",),
    "density.support_ms": ("density.support", "density.null_space"),
    "compat.intersection_ms": ("compat.support_compatible",),
    "compat.forbidden_ms": ("compat.forbidden_subspace",),
    "compat.pairwise_ms": ("compat.commutes", "compat.product_nonzero"),
    "compat.full_report_ms": ("compat.full_report",),
    "density.ensemble_ms": ("density.ensemble_containing",),
    "scenario.build_ms": ("scenario.build_joint_state",),
    "scenario.recover_ms": ("scenario.observer_conditional_state", "scenario.observer_reduced_density"),
    "scenario.run_scenario_ms": ("scenario.run_scenario",),
    "fileio.load_ms": ("fileio.load_instance",),
    "fileio.report_ms": ("fileio.report_payload", "fileio.dump_payload"),
    "cli.main_ms": ("cli.main",),
}

#: whole call -> the stages it is made of (for the CLI, per verb)
REPORT_STAGES = ("compat.support_compatible", "compat.forbidden_subspace",
                 "compat.commutes", "compat.product_nonzero")
CLI_STAGES = ("fileio.load_instance", "density.validate_density", "compat.full_report",
              "fileio.report_payload", "fileio.dump_payload")

#: (dim, count) -> eigh calls of validate_density (all matrices) / full_report /
#: run_scenario on generate_instance(dim, count, 7, "compatible"), as measured
#: by wrapping numpy.linalg at the baseline commit. svd counts are reported as found.
BASELINE_EIGH = {(2, 2): (2, 8, 9), (3, 3): (3, 11, 13), (5, 4): (4, 14, 17), (16, 4): (4, 14, 17)}
BASELINE_CALLS = ("validate", "report", "scenario")
COUNTED = ("eigh", "svd")

MISSING = object()


@contextlib.contextmanager
def count_linalg():
    """Count numpy.linalg.eigh and numpy.linalg.svd calls made inside the block."""
    counts = dict.fromkeys(COUNTED, 0)
    originals = {name: getattr(np.linalg, name) for name in COUNTED}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        setattr(np.linalg, name, counting(name, fn))
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(np.linalg, name, fn)


class Tracer:
    """Spans kept in memory as (id, parent id, name, start, end)."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._ids = count()
        self._stack: list[int] = []
        self.absent: set[str] = set()

    @contextlib.contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = perf_counter()
        try:
            yield sid
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    def call(self, module, attr: str, *args):
        """Call module.attr(*args) inside a span; MISSING if the stage is absent."""
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        fn = getattr(module, attr, None)
        try:
            inspect.signature(fn).bind(*args)
        except TypeError:  # fn is None, or its signature changed
            self.absent.add(name)
            return MISSING
        with self.span(name):
            return fn(*args)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus what its children cover."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals = defaultdict(float)
        for sid, _, name, start, end in self.spans:
            totals[name] += (end - start) - child[sid]
        return totals


def report_stages(tr: Tracer, rhos) -> tuple:
    """The stages of full_report, then full_report itself; returns (verdict, report)."""
    for rho in rhos:
        tr.call(density, "support", rho, TOL)
        tr.call(density, "null_space", rho, TOL)
    verdict = tr.call(compat, "support_compatible", rhos, TOL)
    tr.call(compat, "forbidden_subspace", rhos, TOL)
    for a, b in combinations(rhos, 2):
        tr.call(compat, "commutes", a, b, TOL)
        tr.call(compat, "product_nonzero", a, b, TOL)
    return verdict, tr.call(compat, "full_report", rhos, TOL)


def scenario_stages(tr: Tracer, rhos, verdict, facts):
    """The stages of run_scenario after its support test, then run_scenario itself."""
    try:
        if verdict is not MISSING and verdict[0]:
            phi = verdict[1].basis[:, 0]
            ensembles = [tr.call(density, "ensemble_containing", rho, phi, TOL) for rho in rhos]
            psi = MISSING
            if not any(e is MISSING for e in ensembles):
                psi = tr.call(scenario, "build_joint_state", ensembles, TOL)
            if psi is not MISSING:
                facts["joint_amplitudes"] += int(psi.amplitudes.size)
                dims = list(psi.ancilla_dims)
                for k in range(len(dims)):
                    cond = tr.call(scenario, "observer_conditional_state", psi, k)
                    if cond is not MISSING:
                        remaining = dims[:k] + dims[k + 1:] + [psi.system_dim]
                        tr.call(scenario, "observer_reduced_density", cond, remaining,
                                len(remaining) - 1, TOL)
        # On an incompatible set it raises, as it does inside the CLI.
        return tr.call(scenario, "run_scenario", rhos, TOL)
    except StateCompatError:
        return None


def check_pipeline(tr: Tracer, op, workdir: Path, facts) -> None:
    """check-many-small: validate_density on each raw matrix, then full_report."""
    rhos = [tr.call(density, "validate_density", m, TOL) for m in op.case.matrices]
    if not any(r is MISSING for r in rhos):
        report_stages(tr, rhos)


def scenario_pipeline(tr: Tracer, op, workdir: Path, facts) -> None:
    """scenario-observers: run_scenario on validated matrices."""
    verdict = tr.call(compat, "support_compatible", op.case.rhos, TOL)
    scenario_stages(tr, op.case.rhos, verdict, facts)


def cli_pipeline(tr: Tracer, op, workdir: Path, facts) -> None:
    """cli-roundtrip: the steps of cli.main for the op's verb, then cli.main itself."""
    facts["bytes_read"] += op.case.path.stat().st_size
    instance = tr.call(fileio, "load_instance", op.case.path)
    if instance is not MISSING:
        rhos = [tr.call(density, "validate_density", m, TOL) for m in instance.matrices]
        if not any(r is MISSING for r in rhos):
            verdict, report = report_stages(tr, rhos)
            result = scenario_stages(tr, rhos, verdict, facts) if op.verb == "scenario" else None
            if report is not MISSING:
                payload = tr.call(fileio, "report_payload", report, instance.names, TOL, instance,
                                  None if result is MISSING else result)
                if payload is not MISSING:
                    out = workdir / "trace.report.json"
                    with open(out, "w", encoding="utf-8") as fh:
                        tr.call(fileio, "dump_payload", payload, fh)
                    facts["bytes_written"] += out.stat().st_size
    with contextlib.redirect_stderr(io.StringIO()):
        tr.call(cli, "main", [op.verb, "--input", str(op.case.path),
                              "--output", str(workdir / "trace.cli.json")])


#: workload -> the layer calls its op makes; a layer outside them reads 0
PIPELINES = {"check-many-small": check_pipeline, "scenario-observers": scenario_pipeline,
             "cli-roundtrip": cli_pipeline}


def whole_minus_stages(tr: Tracer, op_ids: set[int]) -> tuple[float, float]:
    """Seconds of full_report and of cli.main not covered by their separately timed stages."""
    per_op: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for _, parent, name, start, end in tr.spans:
        if parent in op_ids:
            per_op[parent][name] += end - start
    report_extra = cli_glue = 0.0
    for took in per_op.values():
        if "compat.full_report" in took:
            report_extra += took["compat.full_report"] - sum(took[s] for s in REPORT_STAGES)
        if "cli.main" in took:
            cli_glue += took["cli.main"] - sum(took[s] for s in CLI_STAGES) - took["scenario.run_scenario"]
    return report_extra, cli_glue


def baseline_counts() -> dict[str, float]:
    """eigh/svd counts of the three whole calls at the ROADMAP baseline points."""
    metrics = {}
    for dim, count in BASELINE_EIGH:
        matrices = generate_instance(dim, count, 7, "compatible")
        with count_linalg() as validate:
            rhos = [density.validate_density(m, TOL) for m in matrices]
        with count_linalg() as report:
            compat.full_report(rhos, TOL)
        with count_linalg() as scen:
            scenario.run_scenario(rhos, TOL)
        for call, counts in zip(BASELINE_CALLS, (validate, report, scen)):
            for fn in COUNTED:
                metrics[f"linalg.baseline.d{dim}c{count}.{call}.{fn}"] = counts[fn]
    return metrics


def baseline_mismatches(metrics: dict[str, float]) -> list[str]:
    """One line per (point, call) whose eigh count differs from BASELINE_EIGH."""
    out = []
    for (dim, count), expected in BASELINE_EIGH.items():
        for call, want in zip(BASELINE_CALLS, expected):
            found = metrics[f"linalg.baseline.d{dim}c{count}.{call}.eigh"]
            if found != want:
                out.append(f"({dim},{count}) {call} eigh {found}, baseline {want}")
    return out


@contextlib.contextmanager
def whole_op(tr: Tracer, counts: dict[str, int]):
    """The workload's own op: one span, with numpy.linalg calls counted."""
    with count_linalg() as found, tr.span("workload.op"):
        yield
    for fn in COUNTED:
        counts[fn] += found[fn]


@contextlib.contextmanager
def allocation_peak(peaks: list[int]):
    """Peak of the memory traced by tracemalloc inside the block, above its start."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    yield
    peaks.append(tracemalloc.get_traced_memory()[1] - before)


#: the traced ops stop at this count, or at 0.6 of --seconds
MAX_TRACED = 2000


def traced_run(workload, ops, seconds: float, workdir: Path, spans_path: Path):
    """Traced ops, each right after the same op untraced; a tracemalloc pass; counts.

    Running each op untraced just before its traced run lets both sample the
    host at the same moment, so the tracing overhead is not swamped by host
    drift. Every run of an op is gated and counted in ``attempted``.
    Returns (per-layer metrics, attempted, failures, printable notes).
    """
    tr = Tracer()
    counts = dict.fromkeys(COUNTED, 0)
    facts = defaultdict(int)
    failures = []
    op_ids: set[int] = set()
    sequence = []
    whole = untraced = 0.0
    pipeline = PIPELINES[workload.name]

    def gated(op, problems):
        if problems:
            failures.append((op.case.label, op.verb, problems))

    deadline = perf_counter() + 0.6 * seconds
    while len(sequence) < MAX_TRACED and (not sequence or perf_counter() < deadline):
        op = ops[len(sequence) % len(ops)]
        sequence.append(op)
        elapsed, problems = attempt(workload, op)
        untraced += elapsed
        gated(op, problems)
        with tr.span("op") as sid:
            op_ids.add(sid)
            elapsed, problems = attempt(workload, op, lambda: whole_op(tr, counts))
            whole += elapsed
            pipeline(tr, op, workdir, facts)
        gated(op, problems)

    peaks: list[int] = []
    deadline = perf_counter() + 0.2 * seconds
    tracemalloc.start()
    try:
        for op in sequence:
            if peaks and perf_counter() > deadline:
                break
            gated(op, attempt(workload, op, lambda: allocation_peak(peaks))[1])
    finally:
        tracemalloc.stop()
    attempted = 2 * len(sequence) + len(peaks)

    n = len(sequence)
    by_name = defaultdict(float)
    for _, _, name, start, end in tr.spans:
        by_name[name] += end - start
    metrics = {}
    for metric, names in LAYER_SPANS.items():
        if not any(name in tr.absent for name in names):
            metrics[metric] = 1e3 * sum(by_name[name] for name in names) / n
    metrics.update({
        "linalg.eigh_calls": counts["eigh"] / n,
        "linalg.svd_calls": counts["svd"] / n,
        "scenario.joint_amplitudes": facts["joint_amplitudes"] / n,
        "fileio.bytes_read": facts["bytes_read"] / n,
        "fileio.bytes_written": facts["bytes_written"] / n,
        "mem.traced_peak_mib": max(peaks) / 2**20,
        "trace.overhead_pct": 100.0 * (whole / untraced - 1.0),
    })
    base = baseline_counts()
    # validate_density calls no svd, so those four counts stay in the notes only.
    metrics.update({k: v for k, v in base.items() if not k.endswith(".validate.svd")})
    mismatch = baseline_mismatches(base)
    # The table is pinned to the baseline commit: a change that saves eigh
    # calls moves this count on purpose, and it is no failure of the run.
    metrics["linalg.baseline.eigh_mismatches"] = len(mismatch)

    self_by_name = tr.self_times()
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start_s", "end_s"],
                   "spans": tr.spans, "absent": sorted(tr.absent)}, fh)

    notes = [f"traced ops: {n}, each after the same op untraced; tracemalloc pass: {len(peaks)} ops",
             f"spans: {len(tr.spans)} written to {spans_path}"]
    notes += [f"absent stage: {name}" for name in sorted(tr.absent)]
    report_extra, cli_glue = whole_minus_stages(tr, op_ids)
    notes.append(f"compat.full_report minus its stages: {1e3 * report_extra / n:.4f} ms per op "
                 "(work the report repeats)")
    notes.append(f"cli.main minus its stages: {1e3 * cli_glue / n:.4f} ms per op (CLI glue)")
    notes.append("self time per op (ms): " + ", ".join(
        f"{name} {1e3 * t / n:.3f}" for name, t in sorted(self_by_name.items(), key=lambda kv: -kv[1])[:8]))
    notes.append("baseline svd counts (validate/report/scenario): " + ", ".join(
        f"d{dim}c{count} " + "/".join(str(base[f"linalg.baseline.d{dim}c{count}.{c}.svd"]) for c in BASELINE_CALLS)
        for dim, count in BASELINE_EIGH))
    notes.append("baseline eigh counts: " + ("match the ROADMAP table" if not mismatch
                                             else "differ: " + "; ".join(mismatch)))
    return metrics, attempted, failures, notes
