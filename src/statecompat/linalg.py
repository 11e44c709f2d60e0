"""Dense complex linear algebra on small matrices.

Hermitian eigendecomposition and orthonormal-basis subspace arithmetic (the
intersection of a family, and completing a vector to a basis), all with
explicit numerical tolerances. Matrices and vectors are plain ``numpy``
arrays of complex128; coercion and structural validation happen at the
function boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
    NumericalFailureError,
    StateCompatError,
    VectorOutsideSubspaceError,
)

#: Modulus below which a component cannot anchor the global phase convention.
PHASE_FLOOR = 1e-8

#: Entrywise tolerance for the orthonormality of stored subspace bases.
ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds shared by every operation.

    ``rank_rel`` is the relative eigenvalue cutoff used for rank decisions;
    ``match_abs`` is the absolute Frobenius/Euclidean threshold for treating
    matrices or vectors as equal, and so also for deciding that a vector lies
    in a subspace.
    """

    rank_rel: float = 1e-10
    match_abs: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "match_abs"):
            value = getattr(self, name)
            if not 0.0 < value < 1e-2:
                raise StateCompatError(f"{name} must lie in (0, 1e-2), got {value!r}")


DEFAULT_TOL = Tolerances()


def as_complex_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array."""
    arr = np.asarray(v, dtype=np.complex128)
    if arr.ndim != 1:
        raise StateCompatError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise StateCompatError("vector must not be empty")
    if not np.all(np.isfinite(arr)):
        raise StateCompatError("vector contains non-finite entries")
    return arr


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite 2-d complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise StateCompatError(f"expected a 2-d matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise StateCompatError("matrix contains non-finite entries")
    return arr


def require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the first component with modulus > 1e-8 real positive by a global phase.

    Works on a vector or on each column of a matrix; a vector or column with
    no such component is returned unrotated.
    """
    v = np.asarray(v, dtype=np.complex128)
    cols = v.reshape(v.shape[0], -1)
    big = np.abs(cols) > PHASE_FLOOR
    lead = cols[np.argmax(big, axis=0), np.arange(cols.shape[1])]
    anchored = big.any(axis=0)
    phase = np.ones_like(lead)
    phase[anchored] = lead[anchored].conjugate() / np.abs(lead[anchored])
    return (cols * phase).reshape(v.shape)


def zero_cutoff(values: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> float:
    """Threshold below which an eigenvalue or singular value counts as zero.

    Relative to the largest value present, with an absolute floor so an
    all-zero spectrum still yields a positive cutoff.
    """
    peak = float(np.max(values)) if np.size(values) else 0.0
    return tol.rank_rel * max(peak, 1e-30)


@dataclass(frozen=True, eq=False)
class EigResult:
    """Eigenvalues in descending order, eigenvector i (column i) paired with eigenvalue i."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(m, tol: Tolerances = DEFAULT_TOL) -> EigResult:
    """Eigendecomposition of a (near-)Hermitian matrix, eigenvalues descending.

    Inputs whose Hermiticity defect ||M - M^dag||_F is at most ``tol.match_abs``
    are symmetrized to (M + M^dag)/2 before decomposition; larger defects are
    rejected. Eigenvector columns follow the global phase convention.
    """
    m = require_square(as_complex_matrix(m))
    defect = float(np.linalg.norm(m - m.conj().T))
    if defect > tol.match_abs:
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds match_abs {tol.match_abs:.3e}"
        )
    sym = (m + m.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return EigResult(eigenvalues=np.real(w[::-1]).copy(), eigenvectors=fix_phase(v[:, ::-1]))


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^ambient_dim, stored as orthonormal basis columns.

    The basis may be empty (shape ``(ambient_dim, 0)``); orthonormality is
    enforced entrywise to within 1e-10 at construction.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.ambient_dim < 1:
            raise StateCompatError("ambient dimension must be positive")
        basis = np.asarray(self.basis, dtype=np.complex128)
        if basis.ndim != 2 or basis.shape[0] != self.ambient_dim:
            raise StateCompatError(
                f"basis must be {self.ambient_dim} x k, got shape {basis.shape}"
            )
        if basis.shape[1] > self.ambient_dim:
            raise StateCompatError("subspace dimension exceeds ambient dimension")
        if not np.all(np.isfinite(basis)):
            raise StateCompatError("basis contains non-finite entries")
        if basis.shape[1] > 0:
            gram = basis.conj().T @ basis
            defect = float(np.max(np.abs(gram - np.eye(basis.shape[1]))))
            if defect > ORTHO_TOL:
                raise StateCompatError(
                    f"basis columns are not orthonormal (defect {defect:.3e})"
                )
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The orthogonal projector onto this subspace."""
        return self.basis @ self.basis.conj().T

    def projection_defect(self, v) -> float:
        """Euclidean distance between ``v`` and its projection onto the subspace."""
        v = as_complex_vector(v)
        if v.shape[0] != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector length {v.shape[0]} != ambient dimension {self.ambient_dim}"
            )
        return float(np.linalg.norm(v - self.basis @ (self.basis.conj().T @ v)))

    @classmethod
    def empty(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.zeros((ambient_dim, 0), dtype=np.complex128))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, np.eye(ambient_dim, dtype=np.complex128))


def orthonormal_basis_containing(
    psi, subspace: Subspace, tol: Tolerances = DEFAULT_TOL
) -> Subspace:
    """Complete a unit vector inside ``subspace`` to an orthonormal basis of it.

    The returned basis has the same dimension as ``subspace`` and its first
    column is ``psi`` up to the global phase convention.
    """
    psi = as_complex_vector(psi)
    if psi.shape[0] != subspace.ambient_dim:
        raise DimensionMismatchError(
            f"vector length {psi.shape[0]} != ambient dimension {subspace.ambient_dim}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol.match_abs:
        raise StateCompatError(f"vector is not unit norm (|v| = {norm:.12g})")
    defect = subspace.projection_defect(psi)
    if defect > tol.match_abs:
        raise VectorOutsideSubspaceError(
            f"vector lies outside the subspace (projection defect {defect:.3e})"
        )
    k = subspace.dim
    # Removing the psi component from an orthonormal basis of the subspace
    # leaves exactly k-1 unit singular values, so no thresholding is needed.
    rest = subspace.basis - np.outer(psi, psi.conj() @ subspace.basis)
    columns = [fix_phase(psi)]
    if k > 1:
        u, _, _ = np.linalg.svd(rest, full_matrices=False)
        columns.append(fix_phase(u[:, : k - 1]))
    return Subspace(subspace.ambient_dim, np.column_stack(columns))


def intersection_split(
    subspaces, tol: Tolerances = DEFAULT_TOL
) -> tuple[Subspace, Subspace, np.ndarray]:
    """The family's intersection, its orthogonal complement, and the defects deciding them.

    One SVD of the stacked complement projectors A = [I - P_1; ...; I - P_n]
    decides everything. For a unit vector v, ||Av||^2 is the sum of its
    squared distances from the subspaces, so each singular value (the
    defects, ascending) is the root-sum-square distance of its right singular
    vector from the family. The intersection holds the vectors with defect at
    most ``tol.match_abs``, smallest first; the complement holds the rest, so
    the two dimensions add up to the ambient one. The SVD resolves small
    principal angles to absolute accuracy, where an eigendecomposition of
    A^dag A would square them. A single subspace is its own intersection and
    keeps its basis order (phase-fixed).
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise StateCompatError("need at least one subspace")
    ambient = subspaces[0].ambient_dim
    if any(s.ambient_dim != ambient for s in subspaces):
        raise DimensionMismatchError("subspaces live in different ambient dimensions")
    stacked = np.vstack([np.eye(ambient) - s.projector() for s in subspaces])
    _, sigma, vh = np.linalg.svd(stacked, full_matrices=False)
    defects = sigma[::-1].copy()
    vectors = fix_phase(vh[::-1].conj().T)
    count = int(np.sum(defects <= tol.match_abs))
    inside = fix_phase(subspaces[0].basis) if len(subspaces) == 1 else vectors[:, :count]
    return Subspace(ambient, inside), Subspace(ambient, vectors[:, count:]), defects


def subspace_intersection(subspaces, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection of subspaces: the directions within ``tol.match_abs`` of all of them."""
    return intersection_split(subspaces, tol)[0]
