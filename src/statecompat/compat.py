"""Compatibility verdicts for sets of density-matrix assignments.

The decisive criterion is support intersection: a set of density matrices can
describe one system simultaneously exactly when all of their supports share
at least one state. One SVD decides it, of the null-space columns read from
each matrix's spectrum and stacked as rows, A = [N_1^dag; ...; N_n^dag], with
A^dag A = sum_k (I - P_k) (see :func:`statecompat.linalg.subspace_intersection`
for the same decision on bare subspaces). A direction belongs to every
support when its root-sum-square distance from them is at most
``match_abs/sqrt(2)``; then every matrix the scenario rebuilds around it lies
within ``match_abs`` of its original, so ``check`` and ``scenario`` agree.
Every other direction is forbidden. Every entry point that decides the
intersection (:func:`support_compatible`, :func:`forbidden_subspace`,
:func:`full_report` and :func:`statecompat.scenario.run_scenario`) starts
with :func:`_split_set`: it checks the set, stacks the spectra once, makes
the one rank decision (:func:`statecompat.density._rank_split`) and runs the
SVD, which yields the intersection dimension, the defects and the raw
directions; the scenario reuses the spectra with their cutoffs and ranks.
:func:`full_report` and the scenario phase-fix only the witness column, and
only the functions that return subspaces phase-fix and wrap the columns they
return.

Two older pairwise conditions are evaluated alongside for comparison:
commutation of the pair (neither necessary nor sufficient) and a nonzero
operator product (necessary but strictly weaker). Both are computed for all
pairs at once: the overlaps tr(rho_a rho_b) as one Gram product of the
flattened matrices, which equals the trace because the package's density
matrices are exactly Hermitian, and the commutator norms from one batched
product X = rho_a rho_b over the pairs a < b, as [rho_a, rho_b] = X - X^dag,
taken in blocks of rows within a fixed byte budget (:data:`_PAIR_BLOCK_BYTES`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .density import DensityMatrix, _spectra
from .errors import DimensionMismatchError, StateCompatError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    _membership_threshold,
    _split_rows,
    fix_phase,
)

#: Bytes of the pair products :func:`_commutator_norms` forms at once.
_PAIR_BLOCK_BYTES = 1 << 18

_MARGINAL_NOTE = (
    "marginal: a direction's distance from the supports lies within 10x "
    "of match_abs/sqrt(2); the compatibility verdict is numerically fragile"
)


@dataclass(eq=False)
class CompatReport:
    """Aggregated verdicts for one set of density matrices.

    ``compatible``, ``intersection_dim`` and ``witness`` describe the support
    criterion, and ``forbidden_dim`` is the dimension of the rest of the
    space, so the two add up to ``dim``. The pairwise matrices carry both the
    boolean flags and the underlying scalars (commutator Frobenius norms and
    product traces). ``marginal`` is set when some direction's distance from
    the supports lies within a factor of 10 of the membership threshold
    ``match_abs/sqrt(2)`` on either side, i.e. a slightly different tolerance
    could move it into or out of the intersection, so the verdict is
    numerically fragile.
    """

    dim: int
    n_matrices: int
    compatible: bool
    intersection_dim: int
    witness: np.ndarray | None
    forbidden_dim: int
    pairwise_commute: np.ndarray
    commute_residual: np.ndarray
    pairwise_product_nonzero: np.ndarray
    product_overlap: np.ndarray
    marginal: bool = False
    notes: list[str] = field(default_factory=list)


def _check_rhos(rhos) -> list[DensityMatrix]:
    rhos = list(rhos)
    if not rhos:
        raise StateCompatError("need at least one density matrix")
    dim = rhos[0].dim
    if any(r.dim != dim for r in rhos):
        raise DimensionMismatchError("density matrices have different dimensions")
    return rhos


def _split_set(rhos, tol: Tolerances) -> tuple:
    """The checked set, its stacked spectra, and the intersection split of their supports.

    Returns (rhos, spectra, count, defects, directions): the set as a list;
    the eigenvalues (n, d) and eigenvectors (n, d, d) stacked once with
    their zero cutoffs and ranks, by :func:`statecompat.density._spectra`,
    as one tuple that the scenario's ensembles read too; and the
    intersection dimension, defects and directions of one SVD (see
    :func:`_split_rows`) whose rows are the conjugated null-space
    eigenvectors, matrix by matrix.
    """
    rhos = _check_rhos(rhos)
    spectra = values, vectors, _, ranks = _spectra(rhos, tol)
    dim = values.shape[1]
    rows = vectors.transpose(0, 2, 1)[np.arange(dim) >= ranks[:, None]].conj()
    return (rhos, spectra, *_split_rows(rows, dim, tol))


def _intersection_basis(vectors: np.ndarray, count: int, directions: np.ndarray) -> np.ndarray:
    """The first ``count`` intersection directions, phase-fixed; for one matrix, its support's.

    A single matrix's intersection is its support, spanned by its leading
    eigenvectors in the order validation left them; the SVD counts them
    too, since one matrix's null-space rows are orthonormal (singular values
    0 or 1). Only the columns returned are phase-fixed: for a witness, one.
    """
    return fix_phase((vectors[0] if len(vectors) == 1 else directions)[:, :count])


def support_compatible(
    rhos, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, Subspace]:
    """Whether all supports share a state, plus the intersection itself."""
    _, (values, vectors, _, _), count, _, directions = _split_set(rhos, tol)
    basis = _intersection_basis(vectors, count, directions)
    return count >= 1, Subspace._trusted(values.shape[1], basis)


def forbidden_subspace(rhos, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """States none of the assignments allow: the complement of the support intersection.

    It is spanned by the null spaces of the matrices taken together.
    """
    _, _, count, _, directions = _split_set(rhos, tol)
    return Subspace._trusted(directions.shape[0], fix_phase(directions[:, count:]))


def _overlaps(matrices: np.ndarray) -> np.ndarray:
    """tr(rho_a rho_b) for all pairs of an (n, d, d) stack of Hermitian matrices.

    The Gram product of the matrices flattened to real 2d^2-vectors is
    Re tr(rho_a rho_b^dag), which is the trace because rho_b is Hermitian.
    """
    rows = matrices.reshape(len(matrices), -1).view(np.float64)
    gram = rows @ rows.T
    return (gram + gram.T) / 2.0


@lru_cache(maxsize=16)
def _block_pairs(n: int, first: int, last: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (first + a, b) with b > first + a of the rows first..last - 1, as (a, b).

    Cached, as a set of n matrices has the same blocks at every call; the
    arrays are read-only, as every call with these arguments shares them.
    """
    a, b = (np.arange(n) > np.arange(first, last)[:, None]).nonzero()
    a.flags.writeable = b.flags.writeable = False
    return a, b


def _commutator_norms(matrices: np.ndarray) -> np.ndarray:
    """||rho_a rho_b - rho_b rho_a||_F for all pairs of an (n, d, d) stack of Hermitian matrices.

    For the pairs a < b, X = rho_a rho_b is one batched product and
    rho_b rho_a = X^dag. The pairs go in blocks of whole rows a: as many
    rows as keep n - 1 pairs per row within :data:`_PAIR_BLOCK_BYTES` of
    products, and at least one, so memory stays O(n^2 + block). A block's
    index arrays come from :func:`_block_pairs`, which keeps the last 16.
    """
    n, d = matrices.shape[:2]
    norms = np.zeros((n, n))
    step = max(_PAIR_BLOCK_BYTES // (16 * d * d * max(n - 1, 1)), 1)
    for first in range(0, n - 1, step):
        a, b = _block_pairs(n, first, min(first + step, n - 1))
        x = matrices[first:].take(a, axis=0) @ matrices.take(b, axis=0)
        diff = (x - x.conj().transpose(0, 2, 1)).reshape(len(a), -1).view(np.float64)
        norms[first:][a, b] = np.sqrt((diff * diff).sum(axis=1))
    return norms + norms.T


def commutes(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """Commutation check; the residual is ||ab - ba||_F."""
    residual = float(_commutator_norms(np.array([r.matrix for r in _check_rhos([a, b])]))[0, 1])
    return residual <= tol.match_abs, residual


def product_nonzero(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """Whether the operator product ab is nonzero, decided through tr(ab).

    For positive-semidefinite factors the trace vanishes exactly when the
    product does, and the scalar is basis-free and cheap.
    """
    overlap = float(_overlaps(np.array([r.matrix for r in _check_rhos([a, b])]))[0, 1])
    return overlap > tol.rank_rel, overlap


def full_report(rhos, tol: Tolerances = DEFAULT_TOL) -> CompatReport:
    """Evaluate every criterion on the set and aggregate the results."""
    rhos, (values, vectors, _, _), count, defects, directions = _split_set(rhos, tol)
    matrices = np.array([r.matrix for r in rhos])
    commute_res, overlaps = _commutator_norms(matrices), _overlaps(matrices)

    ratio = defects / _membership_threshold(tol)
    marginal = bool(np.count_nonzero((ratio > 0.1) & (ratio < 10.0)))

    return CompatReport(
        dim=values.shape[1],
        n_matrices=len(rhos),
        compatible=count >= 1,
        intersection_dim=count,
        witness=_intersection_basis(vectors, 1, directions)[:, 0] if count else None,
        forbidden_dim=values.shape[1] - count,
        pairwise_commute=commute_res <= tol.match_abs,
        commute_residual=commute_res,
        pairwise_product_nonzero=(overlaps > tol.rank_rel) | np.eye(len(rhos), dtype=bool),
        product_overlap=overlaps,
        marginal=marginal,
        notes=[_MARGINAL_NOTE] if marginal else [],
    )
