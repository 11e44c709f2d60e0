"""Seeded random states, unitaries, and test instances.

Pure states are drawn as standard complex normal vectors, normalized (a
rotation-invariant distribution); mixed states come from the normalized Gram
construction M M^dag / tr. Instance builders return raw matrices so that the
validation path stays exercised downstream. Generated instances are kept
well-conditioned on purpose: every eigenvalue inside a support sits orders of
magnitude above the rank cutoff, so the verdicts they exhibit are stable.
The builders take any size; how large an instance may be is decided by
:mod:`statecompat.fileio`, whose caps the ``generate`` verb checks first.

Draw order of :func:`compatible_instance`: the planted state's two
``standard_normal(dim)`` draws, then per matrix ``uniform``, ``integers`` and,
when the matrix has extra terms, ``standard_gamma(2.0, n_extra)`` and one
``standard_normal((n_extra, 2, dim))``. The gamma draws are those
``dirichlet`` makes for its weights, and the weights are its arithmetic for
every alpha of at least 0.1: each draw times the reciprocal of their sum,
added left to right (``np.sum`` adds pairwise from eight terms on,
``math.fsum`` rounds once and Python 3.12's ``sum`` compensates, so each
can give other bits). The normals are the numbers of
the n_extra pairs of ``standard_normal(dim)`` calls a per-term loop of
:func:`random_unit_vector` makes, in the same order. So a seed gives the same
matrices, bit for bit, as that loop with ``dirichlet`` did, and the
generator ends where the loop left it. Only after every draw are the unit
vectors formed, all at once, and the weighted outer products in blocks of
at most :data:`BLOCK_BYTES` (at least one term each), so the function holds
its output, the unit vectors and one block.

Draw order of the frame modes, :func:`incompatible_instance` and
:func:`pairwise_only_instance`, which build one matrix on each slice of one
random unitary frame: the frame's ``crandn(dim, dim)``, then the Gram
draws ``crandn(r, r)`` of the slices of r frame columns, in slice order.
Consecutive slices of one size share one ``standard_normal((n, 2, r, r))``
call, which yields those numbers in that order, and are built together: Gram
products, traces, mixing and the conjugation by their frame columns, in
blocks whose frame columns take at most :data:`BLOCK_BYTES` (at least one
slice each). So each matrix has the bits of the per-slice loop of
:func:`random_density`, and the function holds its output, the frame and
one block; one call for every slice's Gram draws would hold about as many
numbers as the output.
"""

from __future__ import annotations

from itertools import accumulate, groupby

import numpy as np

from .linalg import as_dim

#: Most bytes of weighted outer products :func:`compatible_instance` holds at
#: once, unless one term is larger: 64 KiB, four terms at dim 32. The frame
#: modes hold as many bytes of frame columns per block. A block stays
#: below glibc's first mmap threshold (128 KiB), since freeing a larger one
#: lets the heap keep more: blocks of 1 MiB raised the peak RSS of the
#: cli-roundtrip benchmark by 0.7 MiB, blocks of 256 KiB by about 0.15 MiB.
BLOCK_BYTES = 1 << 16


def _complex(normals: np.ndarray) -> np.ndarray:
    """crandn's ``(re + 1j * im) / sqrt(2)`` of ``normals[:, 0]`` and ``normals[:, 1]``,
    formed in place: the same bits, one array fewer."""
    z = 1j * normals[:, 1]
    z += normals[:, 0]
    z /= np.sqrt(2.0)
    return z


def crandn(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Standard complex normal samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def random_unit_vector(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = crandn(rng, dim)
    return z / np.linalg.norm(z)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase-corrected diagonal."""
    q, r = np.linalg.qr(crandn(rng, dim, dim))
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Random mixed state M M^dag / tr with M of shape (dim, rank)."""
    if rank is None:
        rank = dim
    if not 1 <= rank <= dim:
        raise ValueError(f"rank must lie in 1..{dim}, got {rank}")
    m = crandn(rng, dim, rank)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_subspace(dim: int, sub_dim: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal basis (columns) of a random subspace."""
    if not 0 <= sub_dim <= dim:
        raise ValueError(f"subspace dimension must lie in 0..{dim}, got {sub_dim}")
    if sub_dim == 0:
        return np.zeros((dim, 0), dtype=np.complex128)
    q, _ = np.linalg.qr(crandn(rng, dim, sub_dim))
    return q


def compatible_instance(
    dim: int, count: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Matrices built from ensembles that all contain one planted common state.

    Matrix k is p0 |phi><phi| plus n_extra pure terms w |chi><chi| whose
    weights are (1 - p0) times a Dirichlet(2, ..., 2) draw, added in drawn
    order; with no extra term it is p0 |phi><phi| / p0. Draws come first, in
    the order the module docstring states. The planted state is row 0 of the
    drawn normals, so it gets the same arithmetic as every chi: crandn's, then
    ``np.linalg.norm``'s (two strided BLAS dot products, summed).
    """
    normals = [rng.standard_normal((1, 2, dim))]
    draws, owners, weights = [], [], []
    for m in range(count):
        p0 = rng.uniform(0.3, 0.7)
        n_extra = int(rng.integers(0, dim))
        draws.append((p0, n_extra))
        if n_extra:
            owners += [m] * n_extra
            # rng.dirichlet's arithmetic (alpha >= 0.1): each gamma draw times the
            # reciprocal of their sum, added left to right, not pairwise as np.sum adds
            *_, total = accumulate(gammas := rng.standard_gamma(2.0, n_extra).tolist())
            weights += [(1.0 - p0) * (g * (1.0 / total)) for g in gammas]
            normals.append(rng.standard_normal((n_extra, 2, dim)))
    chis = _complex(np.concatenate(normals))
    del normals
    # one vector at a time: no batched sum adds in the order of BLAS's strided dot
    chis /= np.sqrt([x.dot(x) + y.dot(y) for x, y in zip(chis.real, chis.imag)])[:, None]
    phi, chis, weights = chis[0], chis[1:], np.array(weights)
    outer = phi[:, None] * phi.conj()
    rhos = [p0 * outer if n_extra else p0 * outer / p0 for p0, n_extra in draws]
    del outer
    step = max(1, BLOCK_BYTES // (chis.itemsize * dim * dim))
    for start in range(0, len(owners), step):
        chi = chis[start:start + step]
        terms = chi[:, :, None] * chi[:, None, :].conj()
        terms *= weights[start:start + step, None, None]
        for m, term in zip(owners[start:start + step], terms):
            rhos[m] += term
        del terms, term  # so the next block is formed with this one freed
    return rhos


def _frame_instance(dim: int, slices: list[list[int]], rng: np.random.Generator) -> list[np.ndarray]:
    """One matrix on the span of each slice of one random unitary frame.

    Matrix k is 0.7 rho + 0.3 I / r in the basis of slice k's r frame columns,
    rho a ``random_density(r)``, so every eigenvalue in its support is at
    least 0.3 / r. Draws come in the order the module docstring states, and
    each run of equal-size slices is built in blocks, with the per-slice
    loop's bits.
    """
    frame, matrices = random_unitary(dim, rng), []
    for r, run in groupby(slices, len):
        run, step = list(run), max(1, BLOCK_BYTES // (frame.itemsize * dim * r))
        for block in (run[i:i + step] for i in range(0, len(run), step)):
            # one name for M, M M^dag and sigma, so that no block keeps the one before
            sigma = _complex(rng.standard_normal((len(block), 2, r, r)))
            sigma = sigma @ sigma.conj().swapaxes(1, 2)
            sigma = 0.7 * (sigma / sigma.trace(axis1=1, axis2=2).real[:, None, None]) + 0.3 * np.eye(r) / r
            bases = np.ascontiguousarray(frame.T[block].swapaxes(1, 2))  # frame[:, kept] of each slice
            matrices.extend(bases @ sigma @ bases.conj().swapaxes(1, 2))
    return matrices


def incompatible_instance(
    dim: int, count: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Matrices whose supports jointly exclude every direction.

    A random unitary frame u_1 ... u_d is split so each matrix omits a slice
    of the frame and every frame vector is omitted by someone; the supports
    then have empty joint intersection. Matrix k omits the u_j with
    j % count == k, so with count >= 2 none omits all of them, and when
    count > dim the later matrices omit none and get full support. For
    dim = count = 2 this degenerates to a pair of orthogonal pure states.
    ``dim`` must be an integer of at least two (:func:`~statecompat.linalg.as_dim`).
    """
    dim = as_dim(dim, "dimension", 2)
    if count < 2:
        raise ValueError(f"the excluded-slice pattern needs count >= 2, got {count}")
    return _frame_instance(dim, [[j for j in range(dim) if j % count != k] for k in range(count)], rng)


def pairwise_only_instance(dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Three matrices, each pair sharing a support line, with no common line.

    Supports are the three coordinate planes span{u1,u2}, span{u2,u3},
    span{u1,u3} of a seeded random unitary frame. ``dim`` must be an integer
    (:func:`~statecompat.linalg.as_dim`) of at least three.
    """
    dim = as_dim(dim, "dimension")
    if dim < 3:
        raise ValueError(f"the three-plane pattern needs dimension >= 3, got {dim}")
    return _frame_instance(dim, [[0, 1], [1, 2], [0, 2]], rng)


def generate_instance(
    dim: int, count: int, seed: int, mode: str = "compatible"
) -> list[np.ndarray]:
    """Dispatch on mode; deterministic for a fixed seed.

    ``dim`` and ``count`` must be integers of at least two, numpy's included
    (:func:`~statecompat.linalg.as_dim`); anything else raises
    :class:`~statecompat.errors.StateCompatError`, a ``ValueError``.
    """
    dim, count = as_dim(dim, "dimension", 2), as_dim(count, "count", 2)
    rng = np.random.default_rng(seed)
    if mode == "compatible":
        return compatible_instance(dim, count, rng)
    if mode == "incompatible":
        return incompatible_instance(dim, count, rng)
    if mode == "pairwise-only":
        if dim < 3 or count != 3:
            raise ValueError("pairwise-only mode requires dim >= 3 and count = 3")
        return pairwise_only_instance(dim, rng)
    raise ValueError(f"unknown mode {mode!r}")
