"""The seeded instance generators: the batched compatible instance against its
per-term oracle, bit for bit and in memory, and the sizes ``generate_instance`` takes."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from statecompat.errors import StateCompatError
from statecompat.generate import BLOCK_BYTES, compatible_instance, generate_instance

from conftest import loop_compatible_instance

#: (dim, count) shapes of the oracle grid: the small and the file-sized
#: dimensions at two to four matrices, and the 24 matrices at dim 3 that the
#: scenario-observers workload draws from
GRID = [(d, c) for d in (2, 3, 4, 5, 8, 16, 24, 32) for c in (2, 3, 4)] + [(3, 24)]


def same_bits(got, want) -> bool:
    return len(got) == len(want) and all(
        a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
        for a, b in zip(got, want)
    )


@pytest.mark.parametrize("dim, count", GRID, ids=[f"d{d}c{c}" for d, c in GRID])
def test_compatible_instance_is_the_loop_bit_for_bit(dim, count):
    """Every matrix as the per-term loop builds it, and the generator left where
    the loop leaves it, over 40 seeds; at dims 2-5, where a matrix has no extra
    term with probability 1/dim, the seeds reach such matrices too."""
    bare = 0
    for seed in range(40):
        batched, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = compatible_instance(dim, count, batched)
        want = loop_compatible_instance(dim, count, loop)
        assert same_bits(got, want), (dim, count, seed)
        assert batched.bit_generator.state == loop.bit_generator.state, (dim, count, seed)
        bare += sum(int(np.linalg.matrix_rank(m, hermitian=True) == 1) for m in want)
    if dim <= 5:
        assert bare, "no matrix without extra terms"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_large_instance_holds_one_block_more_than_the_loop(seed):
    """At dim 256 one term, 1 MiB, is more than :data:`BLOCK_BYTES`, so a block is
    one term: the traced peak of ``generate_instance`` stays within the per-term
    loop's plus that block, with equal bits."""
    makes = [lambda: loop_compatible_instance(256, 2, np.random.default_rng(seed)),
             lambda: generate_instance(256, 2, seed)]
    outs, peaks = [], []
    for make in makes:
        tracemalloc.start()
        try:
            outs.append(make())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert same_bits(outs[1], outs[0])
    block = max(BLOCK_BYTES, 16 * 256 * 256)
    assert peaks[1] <= peaks[0] + block, (peaks, block)


NOT_INTEGERS = [3.0, 2.5, np.float64(3.0), True, np.bool_(True), "3", None]


@pytest.mark.parametrize("bad", NOT_INTEGERS, ids=repr)
@pytest.mark.parametrize("where", ["dimension", "count"])
def test_generate_instance_refuses_sizes_that_are_not_integers(where, bad):
    """A float, a bool or anything else that is not an integer, also one equal to a
    valid size, is a StateCompatError (a ValueError), not a bare TypeError."""
    dim, count = (bad, 2) if where == "dimension" else (3, bad)
    with pytest.raises(StateCompatError, match=re.escape(f"{where} must be an integer, got {bad!r}")):
        generate_instance(dim, count, 0)
    assert issubclass(StateCompatError, ValueError)


@pytest.mark.parametrize("small", [1, 0, -3, np.int64(1), np.int32(0)], ids=repr)
@pytest.mark.parametrize("where", ["dimension", "count"])
def test_generate_instance_sizes_are_at_least_two(where, small):
    dim, count = (small, 2) if where == "dimension" else (3, small)
    with pytest.raises(StateCompatError, match=re.escape(f"{where} must be at least 2, got {small}")):
        generate_instance(dim, count, 0)


@pytest.mark.parametrize("mode", ["compatible", "incompatible", "pairwise-only"])
def test_generate_instance_takes_numpy_integer_sizes(mode):
    got = generate_instance(np.int64(3), np.int32(3), 5, mode)
    assert same_bits(got, generate_instance(3, 3, 5, mode))
