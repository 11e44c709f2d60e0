"""In-process A/B of the benchmark ops: the working tree against a git ref.

Usage, from the repository root:

    python3 tools/ab_ops.py REF [--seed 11] [--runs 15] [--workload NAME ...]

``src/statecompat`` at REF is exported with ``git archive`` into a temporary
directory and imported as the package ``statecompat_base`` (its imports are
relative, so the renamed copy is self-contained). ``bench/workloads.py`` is
loaded twice, once bound to each package, and each copy builds its own pool
from the same seed, ``--runs`` times, the two packages' set-ups alternating;
a set-up is timed as ``bench/run.py`` times it (the pool built, then one op
of each shape run to warm up) and ``setup_s`` is the fastest. Every op then
runs under both packages alternately, ``--runs`` times each, the side that
goes first alternating from op to op and from run to run; an op's time is
its fastest run, and ``ops_per_s`` is the pool's op count over the sum of
those times, as in ``bench/run.py``.

Before timing the ops, the two pools' inputs must be equal bit for bit: each
op's label, verb, dimension and planted verdict, its raw matrices, the
matrices and spectra validated during set-up, and the bytes of the instance
file set-up wrote. Then one untimed run of each op under each package must
give equal outputs: the bytes of the written report (with ``report_payload``
and ``dump_payload`` of each package) and the validated matrices and spectra
for check-many-small, every field of the scenario result for
scenario-observers, and the exit code and report file bytes for
cli-roundtrip. The first op whose input or output differs is printed and the
script exits 1 without timing the ops.

The last line printed per workload is the ratio of the working tree's
``ops_per_s`` to REF's, and beside it the ratio of the working tree's
``setup_s`` to REF's. BLAS and OpenMP run with one thread each, as in the
benchmark. Interleaving in one process keeps host drift out of the ratios,
which separate processes on a shared host do not (see ``bench/run.py``).
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
WORKLOAD_NAMES = ("check-many-small", "scenario-observers", "cli-roundtrip")


def export_base(ref: str, into: Path) -> None:
    """Write ``src/statecompat`` at ``ref`` to ``into/statecompat_base``."""
    tar = subprocess.run(["git", "archive", "--format=tar", ref, "src/statecompat"],
                         cwd=ROOT, capture_output=True, check=True).stdout
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(into, **safe)
    (into / "src" / "statecompat").rename(into / "statecompat_base")


def load_workloads(package: str, name: str):
    """``bench/workloads.py`` as module ``name``, its ``statecompat`` imports bound to ``package``."""
    __import__(package)
    saved = {key: mod for key, mod in sys.modules.items()
             if key == "statecompat" or key.startswith("statecompat.")}
    aliases = {key.replace(package, "statecompat", 1): mod for key, mod in sys.modules.items()
               if key == package or key.startswith(package + ".")}
    spec = importlib.util.spec_from_file_location(name, BENCH / "workloads.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    sys.modules.update(aliases)
    try:
        spec.loader.exec_module(module)
    finally:
        for key in aliases:
            sys.modules.pop(key, None)
        sys.modules.update(saved)
    return module


def array_bytes(value) -> bytes:
    import numpy as np  # not at the top: main pins the BLAS threads before numpy loads

    value = np.asarray(value)
    return repr((value.dtype.str, value.shape)).encode() + np.ascontiguousarray(value).tobytes()


def density_bytes(rho) -> list[bytes]:
    return [array_bytes(rho.matrix), array_bytes(rho.spectrum.eigenvalues),
            array_bytes(rho.spectrum.eigenvectors)]


def input_print(op) -> bytes:
    """The bytes two packages' set-ups must agree on for one op's input."""
    case = op.case
    parts = [repr((case.label, op.verb, case.dim, case.expect_compatible)).encode()]
    parts += [array_bytes(matrix) for matrix in case.matrices]
    for rho in case.rhos or ():
        parts += density_bytes(rho)
    if case.path is not None:
        parts.append(case.path.read_bytes())
    return b"|".join(parts)


def set_up(mod, load, seed: int, workdir: Path):
    """The pool, and the seconds ``bench/run.py`` counts as set-up: the pool built and warmed."""
    start = perf_counter()
    ops = load.setup(seed, workdir)
    for op in load.warm_ops(ops):
        mod.attempt(load, op)
    return ops, perf_counter() - start


def fingerprint(mod, name: str, op, out) -> bytes:
    """The bytes two packages must agree on for one op's output."""
    if name == "check-many-small":
        rhos, report = out
        fileio = mod.fileio
        names = [f"rho_{i + 1}" for i in range(len(rhos))]
        instance = fileio.Instance(dim=op.case.dim, names=names, matrices=op.case.matrices)
        text = io.StringIO()
        fileio.dump_payload(fileio.report_payload(report, names, mod.TOL, instance), text)
        parts = [text.getvalue().encode()]
        for rho in rhos:
            parts += density_bytes(rho)
        return b"|".join(parts)
    if name == "scenario-observers":
        parts = [repr((out.joint_zero_probability, out.success, out.distances)).encode()]
        parts += [array_bytes(matrix) for matrix in out.recovered]
        return b"|".join(parts)
    return repr(out).encode() + b"|" + op.out_path.read_bytes()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--runs", type=int, default=15)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))
    tmp = Path(tempfile.mkdtemp(prefix="ab_ops-"))
    try:
        export_base(args.ref, tmp)
        sys.path[:0] = [str(ROOT / "src"), str(tmp)]
        sides = {"base": load_workloads("statecompat_base", "workloads_base"),
                 "head": load_workloads("statecompat", "workloads_head")}
        code = 0
        for name in args.workload or WORKLOAD_NAMES:
            code |= compare(name, sides, args.seed, args.runs, tmp)
        return code
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def compare(name: str, sides: dict, seed: int, runs: int, tmp: Path) -> int:
    loads = {side: mod.WORKLOADS[name]() for side, mod in sides.items()}
    pools, setup = {}, dict.fromkeys(sides, float("inf"))
    for side in sides:
        (tmp / f"{name}-{side}").mkdir()
    for r in range(runs):
        for side in ("base", "head") if r % 2 else ("head", "base"):
            pools[side], took = set_up(sides[side], loads[side], seed, tmp / f"{name}-{side}")
            setup[side] = min(setup[side], took)
    n = len(pools["base"])
    if len(pools["head"]) != n:
        print(f"{name}: the ref's pool has {n} ops, the working tree's {len(pools['head'])}")
        return 1
    for i in range(n):
        if input_print(pools["base"][i]) != input_print(pools["head"][i]):
            print(f"{name}: the input of op {i} ({pools['base'][i].case.label} "
                  f"{pools['base'][i].verb}) differs between the ref and the working tree")
            return 1
    for i in range(n):
        prints = {}
        for side, mod in sides.items():
            op = pools[side][i]
            loads[side].prepare(op)
            prints[side] = fingerprint(mod, name, op, loads[side].run(op))
        if prints["base"] != prints["head"]:
            print(f"{name}: op {i} ({pools['base'][i].case.label} {pools['base'][i].verb}) "
                  f"differs between the ref and the working tree")
            return 1
    best = {side: [float("inf")] * n for side in sides}
    for r in range(runs):
        for i in range(n):
            order = ("base", "head") if (r + i) % 2 else ("head", "base")
            for side in order:
                elapsed, problems = sides[side].attempt(loads[side], pools[side][i])
                if problems:
                    print(f"{name}: {side} op {i} failed its gate: {problems}")
                    return 1
                best[side][i] = min(best[side][i], elapsed)
    rate = {side: n / sum(times) for side, times in best.items()}
    print(f"{name}: {n} ops, equal inputs and outputs, fastest of {runs}: "
          f"ref {rate['base']:.1f} ops/s, working tree {rate['head']:.1f} ops/s; "
          f"set-up ref {setup['base'] * 1e3:.1f} ms, working tree {setup['head'] * 1e3:.1f} ms")
    print(f"{name}: ratio {rate['head'] / rate['base']:.4f}, "
          f"set-up ratio {setup['head'] / setup['base']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
