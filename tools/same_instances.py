"""Check that ``generate_instance`` gives the bytes it gives at a git ref.

Usage, from the repository root:

    python3 tools/same_instances.py REF

``src/statecompat`` at REF is exported and imported as ``statecompat_base``,
as ``tools/ab_ops.py`` does it. The shapes are the benchmark pools': every
(dim, count, mode) that a set-up of each workload in ``bench/workloads.py``
passes to ``generate_instance``, recorded from one set-up of the working
tree's package. For each shape and each of two seeds, the two packages'
matrices must agree bit for bit: their number, and each one's dtype, shape
and bytes. The first shape and seed that differ are printed and the script
exits 1; otherwise it prints the number of shapes compared and exits 0.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from pathlib import Path
from unittest import mock

from ab_ops import ROOT, THREAD_VARS, WORKLOAD_NAMES, array_bytes, export_base, load_workloads

SEEDS = (1, 2)


def pool_shapes(workloads, workdir: Path) -> list[tuple[int, int, str]]:
    """The (dim, count, mode) shapes one set-up of every workload generates."""
    shapes = set()
    real = workloads.generate.generate_instance

    def record(dim, count, seed, mode="compatible"):
        shapes.add((dim, count, mode))
        return real(dim, count, seed, mode)

    with mock.patch.object(workloads.generate, "generate_instance", record):
        for name in WORKLOAD_NAMES:
            (workdir / name).mkdir()
            workloads.WORKLOADS[name]().setup(0, workdir / name)
    return sorted(shapes)


def instance_bytes(matrices) -> list[bytes]:
    return [array_bytes(matrix) for matrix in matrices]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref")
    args = parser.parse_args(argv)
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))  # before numpy loads, as in the benchmark
    tmp = Path(tempfile.mkdtemp(prefix="same_instances-"))
    try:
        export_base(args.ref, tmp)
        sys.path[:0] = [str(ROOT / "src"), str(tmp)]
        from statecompat import generate as head
        from statecompat_base import generate as base

        shapes = pool_shapes(load_workloads("statecompat", "workloads_head"), tmp)
        for dim, count, mode in shapes:
            for seed in SEEDS:
                got = instance_bytes(head.generate_instance(dim, count, seed, mode))
                if got != instance_bytes(base.generate_instance(dim, count, seed, mode)):
                    print(f"generate_instance({dim}, {count}, {seed}, {mode!r}) differs "
                          f"between the ref and the working tree")
                    return 1
        print(f"generate_instance: {len(shapes)} pool shapes at seeds {SEEDS}, "
              f"equal bytes at the ref and in the working tree")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
