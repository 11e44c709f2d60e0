"""Dense complex linear algebra on small matrices.

Hermitian eigendecomposition and orthonormal-basis subspace arithmetic (the
intersection of a family, decided by one SVD, and completing a vector to a
basis of a subspace by one Householder reflector), all with explicit
numerical tolerances. Matrices and vectors are plain ``numpy`` arrays of
complex128; coercion and structural validation happen at the function
boundaries.
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
    in a subspace. The support intersection accepts a direction whose
    root-sum-square distance from the supports is at most ``match_abs/sqrt(2)``
    (see :func:`intersection_split`), so that every matrix rebuilt around it
    lies within ``match_abs`` of its original.
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
    if not np.isfinite(arr).all():
        raise StateCompatError("vector contains non-finite entries")
    return arr


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite, non-empty 2-d complex128 array."""
    arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim != 2:
        raise StateCompatError(f"expected a 2-d matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise StateCompatError("matrix must not be empty")
    if not np.isfinite(arr).all():
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
    first, columns = big.argmax(axis=0), np.arange(cols.shape[1])
    lead = np.where(big[first, columns], cols[first, columns], 1.0)  # unanchored: phase 1
    return (cols * (lead.conj() / np.abs(lead))).reshape(v.shape)


def zero_cutoff(values: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Threshold below which an eigenvalue or singular value counts as zero.

    Relative to the largest value present, with an absolute floor so an
    all-zero spectrum still yields a positive cutoff. A stack of spectra
    (along the last axis) gets one cutoff each.
    """
    return tol.rank_rel * np.maximum(values.max(axis=-1, initial=0.0), 1e-30)


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
    return EigResult(*_hermitian_part_eig(require_square(as_complex_matrix(m)), tol)[1:])


def _hermitian_part_eig(m: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """(M + M^dag)/2 and the :func:`hermitian_eig` eigenvalues and vectors of a coerced square M."""
    mh = m.conj().T
    diff = m - mh
    defect = float(np.sqrt(np.vdot(diff, diff).real))
    if defect > tol.match_abs:
        raise NotHermitianError(
            f"Hermiticity defect {defect:.3e} exceeds match_abs {tol.match_abs:.3e}"
        )
    sym = (m + mh) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
    return sym, w[::-1].copy(), fix_phase(v[:, ::-1])


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^ambient_dim, stored as orthonormal basis columns.

    The basis may be empty (shape ``(ambient_dim, 0)``); a caller-supplied
    basis is checked for finite entries and entrywise orthonormality within
    :data:`ORTHO_TOL`. Bases the package computes itself (eigenvectors,
    singular vectors, Householder completions) are orthonormal by
    construction and enter through :meth:`_trusted`, which skips the Gram
    product.
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

    @classmethod
    def _trusted(cls, ambient_dim: int, basis: np.ndarray) -> "Subspace":
        """A subspace on a complex128 basis the package computed, without re-checking it."""
        subspace = object.__new__(cls)
        object.__setattr__(subspace, "ambient_dim", ambient_dim)
        object.__setattr__(subspace, "basis", basis)
        return subspace

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The orthogonal projector onto this subspace."""
        return self.basis @ self.basis.conj().T


def _householder_completion(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The k - 1 columns completing the support vector ``basis @ coeffs`` to a basis.

    ``basis`` is a d x k orthonormal basis U and ``coeffs`` a nonzero k-vector
    c. With v = c/|c| + e^{i arg c_1} e_1 the Householder reflector
    H = I - 2 v v^dag / (v^dag v) is unitary and maps e_1 to a multiple of c
    (Golub & Van Loan, *Matrix Computations*, section 5.1), so the columns
    2..k of U H lie in the span of U, are orthonormal, and are orthogonal to
    U c and to every vector whose coefficients on U are proportional to c.
    The sign of v's first entry avoids cancellation. O(dk); no SVD.
    """
    v = coeffs / np.sqrt(np.vdot(coeffs, coeffs).real)
    lead = abs(v[0])
    v[0] += v[0] / lead if lead > 0.0 else 1.0
    scale = 1.0 / (1.0 + lead)  # 2 / (v^dag v)
    return basis[:, 1:] - (basis @ v)[:, None] * (scale * v[1:].conj())


def orthonormal_basis_containing(
    psi, subspace: Subspace, tol: Tolerances = DEFAULT_TOL
) -> Subspace:
    """Complete a unit vector inside ``subspace`` to an orthonormal basis of it.

    The returned basis has the same dimension as ``subspace``. Its first
    column is ``psi`` rescaled to unit norm; the others come from
    :func:`_householder_completion`, so they lie in ``subspace`` and are
    orthogonal to ``psi`` even when ``psi`` is up to ``tol.match_abs`` off it.
    Every column follows the global phase convention.
    """
    psi = as_complex_vector(psi)
    if psi.shape[0] != subspace.ambient_dim:
        raise DimensionMismatchError(
            f"vector length {psi.shape[0]} != ambient dimension {subspace.ambient_dim}"
        )
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > tol.match_abs:
        raise StateCompatError(f"vector is not unit norm (|v| = {norm:.12g})")
    coeffs = subspace.basis.conj().T @ psi
    defect = float(np.linalg.norm(psi - subspace.basis @ coeffs))
    if defect > tol.match_abs:
        raise VectorOutsideSubspaceError(
            f"vector lies outside the subspace (projection defect {defect:.3e})"
        )
    rest = _householder_completion(subspace.basis, coeffs)
    return Subspace._trusted(subspace.ambient_dim, fix_phase(np.column_stack((psi / norm, rest))))


def _membership_threshold(tol: Tolerances) -> float:
    """Largest root-sum-square support defect of an intersection direction (see :class:`Tolerances`)."""
    return tol.match_abs / np.sqrt(2.0)


def _split_rows(
    rows: np.ndarray, ambient: int, tol: Tolerances, single: np.ndarray | None = None
) -> tuple[Subspace, Subspace, np.ndarray]:
    """Intersection, complement and defects from one SVD of A, where A^dag A = sum_k (I - P_k).

    For a unit vector v, ||Av||^2 is then the sum of its squared distances
    from the subspaces, so each singular value (the defects, ascending) is
    the root-sum-square distance of its right singular vector from the
    family; the SVD resolves small principal angles to absolute accuracy,
    where an eigendecomposition of A^dag A would square them. ``rows`` is
    padded with zero rows to at least ``ambient``, which leaves A^dag A
    unchanged. The directions with defect at most ``tol.match_abs/sqrt(2)``
    form the intersection, smallest first, and the rest its complement, so
    the two dimensions add up to ``ambient``. ``single``, a basis, replaces
    the intersection when the family is that one subspace.
    """
    if rows.shape[0] < ambient:
        rows = np.concatenate((rows, np.zeros((ambient - rows.shape[0], ambient))))
    _, sigma, vh = np.linalg.svd(rows, full_matrices=False)
    defects = sigma[::-1].copy()
    vectors = fix_phase(vh[::-1].conj().T)
    count = int(np.sum(defects <= _membership_threshold(tol)))
    inside = fix_phase(single) if single is not None else vectors[:, :count]
    return (
        Subspace._trusted(ambient, inside),
        Subspace._trusted(ambient, vectors[:, count:]),
        defects,
    )


def intersection_split(
    subspaces, tol: Tolerances = DEFAULT_TOL
) -> tuple[Subspace, Subspace, np.ndarray]:
    """The family's intersection, its orthogonal complement, and the defects deciding them.

    A is the stack of complement projectors [I - P_1; ...; I - P_n] (see
    :func:`_split_rows`). A single subspace is its own intersection and keeps
    its basis order (phase-fixed).
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise StateCompatError("need at least one subspace")
    ambient = subspaces[0].ambient_dim
    if any(s.ambient_dim != ambient for s in subspaces):
        raise DimensionMismatchError("subspaces live in different ambient dimensions")
    rows = np.vstack([np.eye(ambient) - s.projector() for s in subspaces])
    return _split_rows(rows, ambient, tol, subspaces[0].basis if len(subspaces) == 1 else None)


def subspace_intersection(subspaces, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection of subspaces: the directions within ``tol.match_abs/sqrt(2)`` of all of them."""
    return intersection_split(subspaces, tol)[0]
