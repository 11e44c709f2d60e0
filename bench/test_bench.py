"""Self-check of the benchmark, a few ops per workload.

Run from the repository root:  python3 -m pytest bench -q
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from statecompat.generate import generate_instance  # noqa: E402

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_printed_with_its_unit(name, trace, capsys):
    result = run.measure(name, seed=3, seconds=0.3, trace=trace, segments=1, cold_per_segment=1)
    printed = capsys.readouterr().out
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} " in printed
    assert result["attempted"] >= 1
    assert result["correct"] == (result["failed"] == 0)


def test_linalg_counter_counts_exactly():
    with tracing.count_linalg() as counts:
        np.linalg.eigh(np.eye(3))
        np.linalg.eigh(np.eye(2))
        np.linalg.svd(np.eye(2))
    assert counts == {"eigh": 2, "svd": 1}
    assert np.linalg.eigh.__name__ == "eigh"  # restored after the block


def test_baseline_mismatch_is_counted():
    table = {f"linalg.baseline.d{d}c{c}.{call}.eigh": want
             for (d, c), counts in tracing.BASELINE_EIGH.items()
             for call, want in zip(tracing.BASELINE_CALLS, counts)}
    assert tracing.baseline_mismatches(table) == []
    table["linalg.baseline.d3c3.report.eigh"] -= 1
    assert len(tracing.baseline_mismatches(table)) == 1


def mislabelled_op(name, workdir):
    """A pool op whose instance is incompatible but labelled compatible."""
    workload = workloads.WORKLOADS[name]()
    ops = workload.setup(5, workdir)
    op = ops[0]
    case = workloads.planted(op.case.dim, 3, 11, "incompatible", "mislabelled")
    case.expect_compatible = True
    case.rhos = [workloads.validate_density(m) for m in case.matrices]
    if op.case.path is not None:
        workloads.write_instance(case, op.case.path)
        case.path = op.case.path
    op.case = case
    return workload, op


@pytest.mark.parametrize("name", NAMES)
def test_gate_counts_a_mislabelled_instance(name, tmp_path):
    workload, op = mislabelled_op(name, tmp_path)
    loop = workloads.closed_loop(workload, [op], 0, workloads.Loop.for_pool(1))
    assert loop.attempted == 1
    assert len(loop.failures) == 1


def test_gate_passes_a_correct_instance(tmp_path):
    workload = workloads.CheckManySmall()
    case = workloads.Case("ok", 3, generate_instance(3, 3, 11, "incompatible"), False)
    loop = workloads.closed_loop(workload, [workloads.Op(case, "check")], 0, workloads.Loop.for_pool(1))
    assert loop.attempted == 1
    assert loop.failures == []


@pytest.mark.xfail(reason="ROADMAP item 2: near-parallel pure states break the report", strict=False)
def test_theta_pairs_pass_the_gate(tmp_path):
    """Pure-state pairs at 1e-9..1e-3 rad through the CLI; kept out of the cli-roundtrip pool."""
    workload = workloads.CliRoundtrip()
    ops = []
    for k, theta in enumerate(np.logspace(-9, -3, 7)):
        case = workloads.theta_pair(float(theta), k)
        workloads.write_instance(case, tmp_path / f"theta{k}.json")
        ops += [workloads.Op(case, verb, tmp_path / f"theta{k}.{verb}.out.json") for verb in ("check", "scenario")]
    loop = workloads.Loop.for_pool(len(ops))
    for _ in ops:
        workloads.closed_loop(workload, ops, 0, loop)  # one op per call, in order
    assert loop.failures == []


def test_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
