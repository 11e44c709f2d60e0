"""Seeded random states, unitaries, and test instances.

Pure states are drawn as standard complex normal vectors, normalized (a
rotation-invariant distribution); mixed states come from the normalized Gram
construction M M^dag / tr. Instance builders return raw matrices so that the
validation path stays exercised downstream. Generated instances are kept
well-conditioned on purpose: every eigenvalue inside a support sits orders of
magnitude above the rank cutoff, so the verdicts they exhibit are stable.
"""

from __future__ import annotations

import numpy as np

#: Largest instance, in matrix entries (count * dim^2), the command line
#: generates, checks or realizes: 2**24 complex128 entries are 256 MiB.
MAX_INSTANCE_ENTRIES = 1 << 24

#: Most matrices in an instance the command line generates, checks or
#: realizes: a report holds count x count pairwise tables, so 1024 matrices
#: of 2 x 2 already give a 55 MB report.
MAX_INSTANCE_MATRICES = 1024


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


def _well_mixed(sub_dim: int, rng: np.random.Generator) -> np.ndarray:
    """A sub_dim x sub_dim density matrix with every eigenvalue >= 0.3/sub_dim."""
    gram = random_density(sub_dim, rng)
    return 0.7 * gram + 0.3 * np.eye(sub_dim) / sub_dim


def compatible_instance(
    dim: int, count: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Matrices built from ensembles that all contain one planted common state."""
    phi = random_unit_vector(dim, rng)
    matrices = []
    for _ in range(count):
        p0 = rng.uniform(0.3, 0.7)
        n_extra = int(rng.integers(0, dim))
        rho = p0 * np.outer(phi, phi.conj())
        if n_extra:
            weights = (1.0 - p0) * rng.dirichlet(2.0 * np.ones(n_extra))
            for w in weights:
                chi = random_unit_vector(dim, rng)
                rho = rho + w * np.outer(chi, chi.conj())
        else:
            rho = rho / p0
        matrices.append(rho)
    return matrices


def incompatible_instance(
    dim: int, count: int, rng: np.random.Generator
) -> list[np.ndarray]:
    """Matrices whose supports jointly exclude every direction.

    A random unitary frame u_1 ... u_d is split so each matrix omits a slice
    of the frame and every frame vector is omitted by someone; the supports
    then have empty joint intersection. For dim = count = 2 this degenerates
    to a pair of orthogonal pure states.
    """
    frame = random_unitary(dim, rng)
    excluded = [{j for j in range(dim) if j % count == k} for k in range(count)]
    matrices = []
    for k in range(count):
        # count >= 2 keeps every slice proper, so kept is never empty; when
        # count > dim the later observers exclude nothing and get full support.
        kept = [j for j in range(dim) if j not in excluded[k]]
        basis = frame[:, kept]
        sigma = _well_mixed(len(kept), rng)
        matrices.append(basis @ sigma @ basis.conj().T)
    return matrices


def pairwise_only_instance(dim: int, rng: np.random.Generator) -> list[np.ndarray]:
    """Three matrices, each pair sharing a support line, with no common line.

    Supports are the three coordinate planes span{u1,u2}, span{u2,u3},
    span{u1,u3} of a seeded random unitary frame.
    """
    if dim < 3:
        raise ValueError(f"the three-plane pattern needs dimension >= 3, got {dim}")
    frame = random_unitary(dim, rng)
    planes = [(0, 1), (1, 2), (0, 2)]
    matrices = []
    for a, b in planes:
        basis = frame[:, [a, b]]
        sigma = _well_mixed(2, rng)
        matrices.append(basis @ sigma @ basis.conj().T)
    return matrices


def generate_instance(
    dim: int, count: int, seed: int, mode: str = "compatible"
) -> list[np.ndarray]:
    """Dispatch on mode; deterministic for a fixed seed."""
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    if count < 2:
        raise ValueError(f"count must be at least 2, got {count}")
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
