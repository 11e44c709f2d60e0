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
strictly weaker).
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


def commutes(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """Commutation check; the residual is ||ab - ba||_F."""
    if a.dim != b.dim:
        raise DimensionMismatchError("density matrices have different dimensions")
    residual = float(np.linalg.norm(a.matrix @ b.matrix - b.matrix @ a.matrix))
    return residual <= tol.match_abs, residual


def product_nonzero(
    a: DensityMatrix, b: DensityMatrix, tol: Tolerances = DEFAULT_TOL
) -> tuple[bool, float]:
    """Whether the operator product ab is nonzero, decided through tr(ab).

    For positive-semidefinite factors the trace vanishes exactly when the
    product does, and the scalar is basis-free and cheap.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError("density matrices have different dimensions")
    overlap = float(np.trace(a.matrix @ b.matrix).real)
    return overlap > tol.rank_rel, overlap


def full_report(rhos, tol: Tolerances = DEFAULT_TOL) -> CompatReport:
    """Evaluate every criterion on the set and aggregate the results."""
    rhos = _check_rhos(rhos)
    n = len(rhos)
    intersection, forbidden, defects = _split(rhos, tol)
    compatible = intersection.dim >= 1
    witness = intersection.basis[:, 0].copy() if compatible else None

    commute_flags = np.ones((n, n), dtype=bool)
    commute_res = np.zeros((n, n))
    product_flags = np.ones((n, n), dtype=bool)
    overlaps = np.zeros((n, n))
    for i in range(n):
        overlaps[i, i] = float(np.trace(rhos[i].matrix @ rhos[i].matrix).real)
        for j in range(i + 1, n):
            c_ok, c_res = commutes(rhos[i], rhos[j], tol)
            p_ok, p_val = product_nonzero(rhos[i], rhos[j], tol)
            commute_flags[i, j] = commute_flags[j, i] = c_ok
            commute_res[i, j] = commute_res[j, i] = c_res
            product_flags[i, j] = product_flags[j, i] = p_ok
            overlaps[i, j] = overlaps[j, i] = p_val

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
        n_matrices=n,
        compatible=compatible,
        intersection_dim=intersection.dim,
        witness=witness,
        forbidden_dim=forbidden.dim,
        pairwise_commute=commute_flags,
        commute_residual=commute_res,
        pairwise_product_nonzero=product_flags,
        product_overlap=overlaps,
        marginal=marginal,
        notes=notes,
    )
