"""Shared helpers and independent oracles.

The oracles here deliberately avoid the code paths they are used to check:
the partial trace is a plain index sum, and intersection dimensions come from
the rank formula on concatenated bases (null-space folding), not from the
averaged-projector eigendecomposition used by the library.
"""

from __future__ import annotations

from math import prod

import numpy as np


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
