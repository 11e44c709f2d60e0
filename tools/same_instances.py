"""Check that ``generate_instance`` gives the bytes it gives at a git ref.

Usage, from the repository root:

    python3 tools/same_instances.py REF

``src/statecompat`` at REF is exported and imported as ``statecompat_base``,
as ``tools/ab_ops.py`` does it. The shapes are the benchmark pools': every
(dim, count, mode) that a set-up of each workload in ``bench/workloads.py``
passes to ``generate_instance``, recorded from one set-up of the working
tree's package. Beside them come the largest shapes the ``generate`` verb
makes at its caps (:func:`cap_shapes`), where the batches are largest and a
compatible instance makes the most weight draws. For each shape and each of
two seeds, the two packages must
agree bit for bit on the matrices of ``generate_instance`` and on those of
the mode's function (``compatible_instance``, ``incompatible_instance`` or
``pairwise_only_instance``) called with a ``Generator`` of that seed: their
number, and each one's dtype, shape and bytes. They must also leave that
generator in the same state, since callers that share one generator across
calls would see extra or fewer draws shift every later instance. The first
shape and seed that differ are printed and the script exits 1; otherwise it
prints the number of shapes compared and exits 0.
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

def cap_shapes(max_matrices: int) -> list[tuple[int, int, str]]:
    """(dim, count, mode) at the ``generate`` verb's caps: ``max_matrices``
    matrices of dim 2 (the matrix cap, 1,024) and 512 of dim 4 in the
    compatible and incompatible modes, and the three matrices of
    pairwise-only mode at dim 64."""
    return [(d, c, mode) for mode in ("compatible", "incompatible")
            for d, c in ((2, max_matrices), (4, 512))] + [(64, 3, "pairwise-only")]


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


def drawn(gen, dim: int, count: int, mode: str, seed: int) -> tuple:
    """The bytes of ``generate_instance``, those of the mode's function with a
    ``Generator`` seeded ``seed``, and that generator's state afterwards."""
    import numpy as np  # not at the top: main pins the BLAS threads before numpy loads

    rng = np.random.default_rng(seed)
    if mode == "pairwise-only":
        matrices = gen.pairwise_only_instance(dim, rng)
    else:
        matrices = getattr(gen, f"{mode}_instance")(dim, count, rng)
    return (instance_bytes(gen.generate_instance(dim, count, seed, mode)),
            instance_bytes(matrices), rng.bit_generator.state)


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
        from statecompat.fileio import MAX_INSTANCE_MATRICES
        from statecompat_base import generate as base

        pools = pool_shapes(load_workloads("statecompat", "workloads_head"), tmp)
        shapes = pools + [shape for shape in cap_shapes(MAX_INSTANCE_MATRICES) if shape not in pools]
        for dim, count, mode in shapes:
            for seed in SEEDS:
                got, want = drawn(head, dim, count, mode, seed), drawn(base, dim, count, mode, seed)
                for what, a, b in zip(("generate_instance bytes", f"{mode} instance bytes",
                                       "generator end states"), got, want):
                    if a != b:
                        print(f"({dim}, {count}, {mode!r}) at seed {seed}: {what} differ "
                              f"between the ref and the working tree")
                        return 1
        print(f"generate_instance and the mode functions: {len(pools)} pool shapes and "
              f"{len(shapes) - len(pools)} cap shapes at seeds {SEEDS}, equal bytes and "
              f"generator end states at the ref and in the working tree")
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
