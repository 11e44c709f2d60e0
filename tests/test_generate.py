"""The seeded instance generators: the batched compatible and frame instances
against their per-term and per-slice oracles, bit for bit and in memory, the
frame instances' supports and draws, and the sizes ``generate_instance``
takes."""

from __future__ import annotations

import re
import tracemalloc

import numpy as np
import pytest

from statecompat.compat import full_report
from statecompat.density import support, validate_density
from statecompat.errors import StateCompatError
from statecompat.generate import (
    BLOCK_BYTES,
    compatible_instance,
    crandn,
    generate_instance,
    incompatible_instance,
    pairwise_only_instance,
    random_unitary,
)

from conftest import loop_compatible_instance, loop_frame_instance

#: (dim, count) shapes of the oracle grid: the small and the file-sized
#: dimensions at two to four matrices, the 24 matrices at dim 3 that the
#: scenario-observers workload draws from, and 256 matrices at dim 2, whose
#: weights take many ``dirichlet`` draws
GRID = [(d, c) for d in (2, 3, 4, 5, 8, 16, 24, 32) for c in (2, 3, 4)] + [(3, 24), (2, 256)]


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


#: (mode, dim, count) of the frame instances: incompatible at dims 2-8 and
#: counts 2-5, count > dim included, and pairwise-only at dims 3-8
FRAME_CASES = [("incompatible", d, c) for d in range(2, 9) for c in range(2, 6)] + [
    ("pairwise-only", d, 3) for d in range(3, 9)]
FRAME_IDS = [f"{m}-d{d}c{c}" for m, d, c in FRAME_CASES]


def frame_instance(mode, dim, count, rng):
    if mode == "incompatible":
        return incompatible_instance(dim, count, rng)
    return pairwise_only_instance(dim, rng)


def frame_slices(mode, dim, count) -> list[list[int]]:
    """The frame columns each matrix of the mode is built on."""
    if mode == "incompatible":
        return [[j for j in range(dim) if j % count != k] for k in range(count)]
    return [[0, 1], [1, 2], [0, 2]]


#: (mode, dim) of the frame oracle grid: incompatible at dims 2-32, pairwise-only at 3-32
FRAME_DIMS = [("incompatible", d) for d in range(2, 33)] + [("pairwise-only", d) for d in range(3, 33)]


@pytest.mark.parametrize("mode, dim", FRAME_DIMS, ids=[f"{m}-d{d}" for m, d in FRAME_DIMS])
def test_frame_instances_are_the_loop_bit_for_bit(mode, dim):
    """Every matrix as the per-slice loop builds it, and the generator left where
    the loop leaves it: incompatible at counts 2-5 and at two counts over the
    dimension, whose later slices keep every frame column; 40 seeds at dims up
    to 8, where slices of a few columns make runs of several sizes, 3 above."""
    counts = sorted({2, 3, 4, 5, dim + 1, dim + 3}) if mode == "incompatible" else [3]
    for count in counts:
        slices = frame_slices(mode, dim, count)
        for seed in range(40 if dim <= 8 else 3):
            batched, loop = np.random.default_rng(seed), np.random.default_rng(seed)
            got = frame_instance(mode, dim, count, batched)
            want = loop_frame_instance(dim, slices, loop)
            assert same_bits(got, want), (mode, dim, count, seed)
            assert batched.bit_generator.state == loop.bit_generator.state, (mode, dim, count, seed)


#: (dim, count) of large incompatible instances: one slice's frame columns are
#: more than BLOCK_BYTES, so a block is one slice
LARGE_FRAMES = [(512, 2), (256, 3), (128, 5)]


@pytest.mark.parametrize("dim, count", LARGE_FRAMES, ids=[f"d{d}c{c}" for d, c in LARGE_FRAMES])
def test_a_large_frame_instance_holds_one_block_more_than_the_loop(dim, count):
    """The traced peak of a large incompatible instance stays within the
    per-slice loop's plus one block, with equal bits: the Gram draws and the
    conjugation by frame columns are made a block at a time, not for every
    slice at once."""
    slices = frame_slices("incompatible", dim, count)
    makes = [lambda: loop_frame_instance(dim, slices, np.random.default_rng(7)),
             lambda: generate_instance(dim, count, 7, "incompatible")]
    outs, peaks = [], []
    for make in makes:
        tracemalloc.start()
        try:
            outs.append(make())
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert same_bits(outs[1], outs[0])
    block = max(BLOCK_BYTES, 16 * dim * dim)
    assert peaks[1] <= peaks[0] + block, (peaks, block)


@pytest.mark.parametrize("mode, dim, count", FRAME_CASES, ids=FRAME_IDS)
def test_frame_instances_sit_on_their_slices_well_mixed(mode, dim, count):
    """Each validated matrix's support is the span of its slice of the frame (the
    generator's first draw), with every kept eigenvalue at least 0.3 / r; the
    incompatible supports meet in nothing, the pairwise-only ones in a line per
    pair and nothing all three."""
    for seed in range(3):
        frame = random_unitary(dim, np.random.default_rng(seed))
        rhos = [validate_density(m) for m in frame_instance(mode, dim, count, np.random.default_rng(seed))]
        slices = frame_slices(mode, dim, count)
        assert len(rhos) == len(slices)
        for rho, kept in zip(rhos, slices):
            basis, span = support(rho).basis, frame[:, kept]
            assert basis.shape[1] == len(kept), (seed, kept)
            # as many columns as the slice, each inside its span: the same subspace
            np.testing.assert_allclose(span @ (span.conj().T @ basis), basis, atol=1e-12)
            assert rho.spectrum.eigenvalues[len(kept) - 1] >= 0.3 / len(kept) - 1e-12, (seed, kept)
        if mode == "incompatible":
            assert full_report(rhos).intersection_dim == 0
        else:
            for pair in ([0, 1], [1, 2], [0, 2]):
                assert full_report([rhos[i] for i in pair]).intersection_dim == 1, (seed, pair)
            assert full_report(rhos).intersection_dim == 0


@pytest.mark.parametrize("mode, dim, count", FRAME_CASES, ids=FRAME_IDS)
def test_frame_instances_draw_the_frame_then_one_gram_per_slice(mode, dim, count):
    """The generator ends where ``crandn(dim, dim)`` for the frame and then one
    ``crandn(r, r)`` per slice, in slice order, leave a same-seeded one."""
    for seed in range(3):
        rng, want = np.random.default_rng(seed), np.random.default_rng(seed)
        frame_instance(mode, dim, count, rng)
        crandn(want, dim, dim)
        for kept in frame_slices(mode, dim, count):
            crandn(want, len(kept), len(kept))
        assert rng.bit_generator.state == want.bit_generator.state, seed


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
