"""Compatibility verdicts for sets of density-matrix assignments.

The decisive criterion is support intersection: a set of density matrices can
describe one system simultaneously exactly when all of their supports share
at least one state. One SVD decides it, of the null-space columns read from
each matrix's spectrum and stacked as rows, A = [N_1^dag; ...; N_n^dag], with
A^dag A = sum_k (I - P_k) (see :func:`statecompat.linalg.intersection_split`
for the same decision on bare subspaces). A direction belongs to every
support when its root-sum-square distance from them is at most
``match_abs/sqrt(2)``; then every matrix the scenario rebuilds around it lies
within ``match_abs`` of its original, so ``check`` and ``scenario`` agree.
Every other direction is forbidden. Two older pairwise conditions are
evaluated alongside for comparison: commutation of the pair (neither
necessary nor sufficient) and a nonzero operator product (necessary but
strictly weaker). Both are computed for all pairs at once: the overlaps
tr(rho_a rho_b) as one Gram product of the flattened matrices, which equals
the trace because the package's density matrices are exactly Hermitian, and
the commutator norms from one batched product per matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .density import DensityMatrix, _ranks
from .errors import DimensionMismatchError, StateCompatError
from .linalg import (
    DEFAULT_TOL,
    Subspace,
    Tolerances,
    _membership_threshold,
    _split_rows,
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


def _split(rhos, tol: Tolerances) -> tuple[Subspace, Subspace, np.ndarray]:
    """Intersection, forbidden subspace and defects, from the stacked null-space rows."""
    rhos = _check_rhos(rhos)
    ranks = _ranks(rhos, tol)
    rows = np.concatenate([r.spectrum.eigenvectors[:, k:].conj().T for r, k in zip(rhos, ranks)])
    single = rhos[0].spectrum.eigenvectors[:, : ranks[0]] if len(rhos) == 1 else None
    return _split_rows(rows, rhos[0].dim, tol, single)


def support_compatible(
    rhos, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, Subspace]:
    """Whether all supports share a state, plus the intersection itself."""
    intersection = _split(rhos, tol)[0]
    return intersection.dim >= 1, intersection


def forbidden_subspace(rhos, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """States none of the assignments allow: the complement of the support intersection.

    It is spanned by the null spaces of the matrices taken together.
    """
    return _split(rhos, tol)[1]


def _overlaps(matrices: np.ndarray) -> np.ndarray:
    """tr(rho_a rho_b) for all pairs of an (n, d, d) stack of Hermitian matrices.

    The Gram product of the matrices flattened to real 2d^2-vectors is
    Re tr(rho_a rho_b^dag), which is the trace because rho_b is Hermitian.
    """
    rows = matrices.reshape(len(matrices), -1).view(np.float64)
    gram = rows @ rows.T
    return (gram + gram.T) / 2.0


def _commutator_norms(matrices: np.ndarray) -> np.ndarray:
    """||rho_a rho_b - rho_b rho_a||_F for all pairs of an (n, d, d) stack of Hermitian matrices.

    Row a is one batched product X = rho_a rho_{a+1:}, as rho_b rho_a = X^dag; memory O(n^2 + nd^2).
    """
    n = len(matrices)
    norms = np.zeros((n, n))
    for a in range(n - 1):
        x = matrices[a] @ matrices[a + 1 :]
        diff = (x - x.conj().transpose(0, 2, 1)).reshape(n - a - 1, -1).view(np.float64)
        norms[a, a + 1 :] = np.sqrt((diff * diff).sum(axis=1))
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
    rhos = _check_rhos(rhos)
    intersection, forbidden, defects = _split(rhos, tol)
    compatible = intersection.dim >= 1
    witness = intersection.basis[:, 0].copy() if compatible else None
    matrices = np.array([r.matrix for r in rhos])
    commute_res, overlaps = _commutator_norms(matrices), _overlaps(matrices)

    notes: list[str] = []
    ratio = defects / _membership_threshold(tol)
    marginal = bool(np.any((ratio > 0.1) & (ratio < 10.0)))
    if marginal:
        notes.append(
            "marginal: a direction's distance from the supports lies within 10x "
            "of match_abs/sqrt(2); the compatibility verdict is numerically fragile"
        )

    return CompatReport(
        dim=rhos[0].dim,
        n_matrices=len(rhos),
        compatible=compatible,
        intersection_dim=intersection.dim,
        witness=witness,
        forbidden_dim=forbidden.dim,
        pairwise_commute=commute_res <= tol.match_abs,
        commute_residual=commute_res,
        pairwise_product_nonzero=(overlaps > tol.rank_rel) | np.eye(len(rhos), dtype=bool),
        product_overlap=overlaps,
        marginal=marginal,
        notes=notes,
    )
