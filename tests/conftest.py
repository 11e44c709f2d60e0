"""Shared helpers and independent oracles.

The oracles here deliberately avoid the code paths they are used to check:
the partial trace is a plain index sum, and intersection dimensions come from
the rank formula on concatenated bases (null-space folding), not from the
single SVD of stacked complement projectors used by the library. Helpers the
library no longer needs (tensor products, a reshaping partial trace, spans,
complements, eigen-ensembles, JSON vector parsing, the dense form of a block
state, the SVD basis completion) live here as references for the tests that
use them, and are checked themselves.
"""

from __future__ import annotations

import contextlib
from functools import reduce
from math import prod

import numpy as np

from statecompat.density import Ensemble, validate_density
from statecompat.linalg import PHASE_FLOOR, Subspace, fix_phase
from statecompat.scenario import BlockState


def tensor_product_vec(vs) -> np.ndarray:
    """Kronecker product of one or more vectors; the leftmost factor varies slowest."""
    return reduce(np.kron, [np.asarray(v, dtype=np.complex128) for v in vs])


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out every tensor factor not in ``keep``, by numpy.trace on reshaped axes."""
    dims = list(dims)
    tensor = np.asarray(m).reshape(dims + dims)
    remaining = list(range(len(dims)))
    for j in sorted(set(remaining) - set(keep), reverse=True):
        pos = remaining.index(j)
        tensor = np.trace(tensor, axis1=pos, axis2=pos + len(remaining))
        remaining.remove(j)
    kept = prod(dims[j] for j in sorted(keep))
    return np.asarray(tensor).reshape(kept, kept)


def span_of(pooled: np.ndarray, rel: float = 1e-10) -> Subspace:
    """Orthonormal basis of the column span of ``pooled``, rank by a relative singular-value cutoff."""
    d = pooled.shape[0]
    if pooled.shape[1] == 0:
        return Subspace.empty(d)
    u, s, _ = np.linalg.svd(pooled, full_matrices=False)
    return Subspace(d, u[:, : int(np.sum(s > rel * max(s[0], 1e-30)))])


def subspace_span_union(subspaces) -> Subspace:
    """Span of all basis vectors pooled across the subspaces."""
    return span_of(np.hstack([s.basis for s in subspaces]))


def orthogonal_complement(subspace: Subspace) -> Subspace:
    """Orthogonal complement, from the trailing left singular vectors of the basis."""
    d, k = subspace.ambient_dim, subspace.dim
    if k == 0:
        return Subspace.full(d)
    u, _, _ = np.linalg.svd(subspace.basis, full_matrices=True)
    return Subspace(d, u[:, k:])


def ensemble_to_density(ensemble: Ensemble):
    """Weighted sum of the state projectors, sum_i p_i |phi_i><phi_i|, validated."""
    return validate_density(sum(w * np.outer(s, s.conj()) for w, s in ensemble.terms))


def eigen_ensemble(rho) -> Ensemble:
    """The eigenvectors of nonzero eigenvalue (relative cutoff 1e-10), weights descending."""
    w, v = np.linalg.eigh(rho.matrix)
    kept = np.flatnonzero(w > 1e-10 * w.max())[::-1]
    return Ensemble(rho.dim, [(float(w[i]), v[:, i]) for i in kept])


def pairs_to_vector(pairs) -> np.ndarray:
    """A complex vector from its JSON spelling as [re, im] pairs."""
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def loop_fix_phase(v: np.ndarray) -> np.ndarray:
    """The phase convention one entry at a time: first modulus > 1e-8 made real positive."""
    for x in v:
        if abs(x) > PHASE_FLOOR:
            return v * (x.conjugate() / abs(x))
    return np.array(v, dtype=np.complex128)


@contextlib.contextmanager
def count_linalg():
    """Count numpy.linalg.eigh and numpy.linalg.svd calls made inside the block."""
    counts = {"eigh": 0, "svd": 0}
    originals = {name: getattr(np.linalg, name) for name in counts}

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


def loop_partial_trace(m: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Partial trace by explicit index summation."""
    keep = sorted(set(keep))
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    traced_dims = [dims[i] for i in traced]
    out = np.zeros((prod(kept_dims), prod(kept_dims)), dtype=np.complex128)

    def flat(kept_idx, traced_idx):
        full = [0] * len(dims)
        for pos, val in zip(keep, kept_idx):
            full[pos] = val
        for pos, val in zip(traced, traced_idx):
            full[pos] = val
        return np.ravel_multi_index(full, dims)

    for row in np.ndindex(*kept_dims):
        for col in np.ndindex(*kept_dims):
            acc = 0.0 + 0.0j
            for t in np.ndindex(*traced_dims):
                acc += m[flat(row, t), flat(col, t)]
            out[
                np.ravel_multi_index(row, kept_dims),
                np.ravel_multi_index(col, kept_dims),
            ] = acc
    return out


def intersect_pair_nullspace(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Basis of span(a) & span(b) from the null space of the stacked matrix [a, -b].

    The column count equals dim(a) + dim(b) - rank([a, b]), the rank formula.
    """
    d = a.shape[0]
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((d, 0), dtype=np.complex128)
    stacked = np.hstack([a, -b])
    _, s, vh = np.linalg.svd(stacked)
    rank = int(np.sum(s > tol))
    n_common = stacked.shape[1] - rank
    if n_common == 0:
        return np.zeros((d, 0), dtype=np.complex128)
    null_basis = vh[rank:].conj().T
    vectors = a @ null_basis[: a.shape[1], :]
    q, _ = np.linalg.qr(vectors)
    return q[:, :n_common]


def rank_formula_intersection_dim(bases: list[np.ndarray], tol: float = 1e-8) -> int:
    """Fold the rank-formula intersection pairwise across a family of bases."""
    current = bases[0]
    for b in bases[1:]:
        current = intersect_pair_nullspace(current, b, tol)
    return current.shape[1]


def proj(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span of an orthonormal basis."""
    return basis @ basis.conj().T


def dense_joint_tensor(ensembles) -> np.ndarray:
    """The multi-observer joint state as a full tensor over (ancilla 1, ..., ancilla N, system).

    A direct dense construction, kept as the oracle for the block layout of
    ``statecompat.scenario``: it allocates every amplitude, so use it only for
    a few observers on small systems.
    """
    n = len(ensembles)
    phi = ensembles[0].terms[0][1]
    extras = [len(e.terms) - 1 for e in ensembles]
    ancilla_dims = [1 + max(extras[k] for k in range(n) if k != j) for j in range(n)]
    tensor = np.zeros(ancilla_dims + [ensembles[0].dim], dtype=np.complex128)
    tensor[(0,) * n] = phi
    for k, ensemble in enumerate(ensembles):
        p_k = ensemble.terms[0][0]
        for i, (weight, state) in enumerate(ensemble.terms[1:], start=1):
            pattern = tuple(0 if j == k else i for j in range(n))
            tensor[pattern] = np.sqrt(weight / p_k) * state
    return tensor / np.linalg.norm(tensor)


def dense_conditional(tensor: np.ndarray, k: int) -> np.ndarray:
    """The slab of a dense joint tensor with ancilla k at level 0, renormalized."""
    slab = np.take(tensor, 0, axis=k)
    return slab / np.linalg.norm(slab)


def block_tensor(state: BlockState) -> np.ndarray:
    """The dense amplitude tensor of a block state, shape ancilla_dims + [system_dim]."""
    tensor = np.zeros(state.ancilla_dims + [state.system_dim], dtype=np.complex128)
    tensor[tuple(state.patterns.T)] = state.amplitudes
    return tensor


def dense_to_blocks(v: np.ndarray, dims, system_index: int) -> BlockState:
    """A dense vector over ``dims`` as a block state: every ancilla basis state one block, system last."""
    dims = list(dims)
    tensor = np.moveaxis(np.asarray(v).reshape(dims), system_index, -1)
    ancillas = dims[:system_index] + dims[system_index + 1:]
    patterns = np.array(list(np.ndindex(*ancillas)), dtype=np.intp).reshape(-1, len(ancillas))
    return BlockState(ancillas, dims[system_index], patterns, tensor.reshape(-1, dims[system_index]))


def svd_completion(psi: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """[psi, completion]: the leading left singular vectors of the basis with psi projected out.

    Removing the psi component from an orthonormal basis of k columns leaves
    k - 1 unit singular values, so no threshold is needed. The library's
    Householder completion must span the same columns without an SVD.
    """
    k = basis.shape[1]
    rest = basis - np.outer(psi, psi.conj() @ basis)
    u, _, _ = np.linalg.svd(rest, full_matrices=False)
    return fix_phase(np.column_stack((psi, u[:, : k - 1])))
