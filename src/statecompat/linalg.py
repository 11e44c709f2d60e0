"""Dense complex linear algebra on small matrices.

Hermitian eigendecomposition and orthonormal-basis subspace arithmetic (the
intersection of a family, decided by one SVD, and the batched completion of
vectors to bases of subspaces, one Householder reflector each), all with
explicit numerical tolerances. Matrices and vectors are plain ``numpy``
arrays of complex128; coercion and structural validation happen at the
function boundaries.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
    NumericalFailureError,
    StateCompatError,
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
    (see :func:`_split_rows`), so that every matrix rebuilt around it lies
    within ``match_abs`` of its original.
    """

    rank_rel: float = 1e-10
    match_abs: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel", "match_abs"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Real) and 0.0 < value < 1e-2):
                raise StateCompatError(f"{name} must lie in (0, 1e-2), got {value!r}")
            object.__setattr__(self, name, float(value))  # a numpy scalar is no JSON number


DEFAULT_TOL = Tolerances()


def as_array(value, what: str, dtype=np.complex128) -> np.ndarray:
    """``np.asarray``, raising :class:`StateCompatError` for input numpy cannot convert."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:  # ragged nesting, strings, objects
        raise StateCompatError(f"cannot read the {what} as an array of numbers: {exc}") from exc


def as_complex_vector(v) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array."""
    arr = as_array(v, "vector")
    if arr.ndim != 1:
        raise StateCompatError(f"expected a 1-d vector, got shape {arr.shape}")
    if arr.size == 0:
        raise StateCompatError("vector must not be empty")
    if not np.isfinite(arr).all():
        raise StateCompatError("vector contains non-finite entries")
    return arr


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a finite, non-empty 2-d complex128 array."""
    arr = as_array(m, "matrix")
    if arr.ndim != 2:
        raise StateCompatError(f"expected a 2-d matrix, got shape {arr.shape}")
    if arr.size == 0:
        raise StateCompatError("matrix must not be empty")
    if np.count_nonzero(np.isfinite(arr)) < arr.size:  # cheaper than .all() on small arrays
        raise StateCompatError("matrix contains non-finite entries")
    return arr


def require_square(m: np.ndarray) -> np.ndarray:
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def fix_phase(v: np.ndarray) -> np.ndarray:
    """Make the first component with modulus > 1e-8 real positive by a global phase.

    Works on a vector or on each column of a matrix; a vector or column with
    no such component is returned unrotated. When every column's first entry
    has modulus above the floor, as for almost every eigen- or singular
    vector, the first row is the anchor and is read directly. Only when some
    column's first entry is at or below 1e-8 does the general path run,
    which finds each column's first entry above the floor by argmax; it
    gives the same bits for the columns the first row would anchor.
    """
    v = np.asarray(v, dtype=np.complex128)
    cols = v.reshape(v.shape[0], -1)
    lead = cols[0]
    modulus = np.abs(lead)
    if np.count_nonzero(modulus > PHASE_FLOOR) < modulus.size:
        big = np.abs(cols) > PHASE_FLOOR
        first, columns = big.argmax(axis=0), np.arange(cols.shape[1])
        lead = np.where(big[first, columns], cols[first, columns], 1.0)  # unanchored: phase 1
        modulus = np.abs(lead)
    return (cols * (lead.conj() / modulus)).reshape(v.shape)


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
    defect = math.sqrt(np.vdot(diff, diff).real)
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
        basis = as_array(self.basis, "basis")
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


def _householder_completions(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """For each k, the columns completing ``basis[k] @ coeffs[k]`` to a basis, all k at once.

    ``basis`` stacks n orthonormal d x R bases U_k, padded with zero columns
    to a common R, and ``coeffs`` (n, R) their coefficient vectors c_k, zero
    on the padding. With v = c/|c| + e^{i arg c_1} e_1 the Householder
    reflector H = I - 2 v v^dag / (v^dag v) is unitary and maps e_1 to a
    multiple of c (Golub & Van Loan, *Matrix Computations*, section 5.1), so
    the columns 2..R of U H lie in the span of U, are orthonormal, and are
    orthogonal to U c and to every vector whose coefficients on U are
    proportional to c. The sign of v's first entry avoids cancellation; for
    c_1 = 0 the phase e^{i arg c_1} is taken as 1, and c = 0 gives v = e_1, so
    nothing is divided by zero. A padding column of U_k yields a zero column.
    One batched product; no SVD.
    """
    norms = np.sqrt((coeffs.conj() * coeffs).real.sum(axis=1))
    v = coeffs / np.where(norms > 0.0, norms, 1.0)[:, None]
    lead = np.abs(v[:, 0])
    v[:, 0] += v[:, 0] / np.where(lead > 0.0, lead, 1.0) + (lead == 0.0)
    scale = 1.0 / (1.0 + lead)  # 2 / (v^dag v)
    return basis[:, :, 1:] - (basis @ v[:, :, None]) * (scale[:, None] * v[:, 1:].conj())[:, None]


def _membership_threshold(tol: Tolerances) -> float:
    """Largest root-sum-square support defect of an intersection direction (see :class:`Tolerances`)."""
    return tol.match_abs / math.sqrt(2.0)


def _split_rows(
    rows: np.ndarray, ambient: int, tol: Tolerances
) -> tuple[int, np.ndarray, np.ndarray]:
    """Intersection dimension, defects and directions from one SVD of A, A^dag A = sum_k (I - P_k).

    For a unit vector v, ||Av||^2 is then the sum of its squared distances
    from the subspaces, so each singular value (the defects, ascending) is
    the root-sum-square distance of its right singular vector (the
    directions, columns in the same order, not phase-fixed) from the family;
    the SVD resolves small principal angles to absolute accuracy, where an
    eigendecomposition of A^dag A would square them. ``rows`` is padded with
    zero rows to at least ``ambient``, which leaves A^dag A unchanged. The
    leading directions, those with defect at most ``tol.match_abs/sqrt(2)``,
    span the intersection and the rest its complement, so the count and
    ``ambient`` minus it are the two dimensions. Callers phase-fix only the
    columns they return.
    """
    if rows.shape[0] < ambient:
        rows = np.concatenate((rows, np.zeros((ambient - rows.shape[0], ambient))))
    _, sigma, vh = np.linalg.svd(rows, full_matrices=False)
    count = int(np.count_nonzero(sigma <= _membership_threshold(tol)))
    return count, sigma[::-1], vh[::-1].conj().T


def subspace_intersection(subspaces, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection of subspaces: the directions within ``tol.match_abs/sqrt(2)`` of all of them.

    Decided by one SVD of the stacked complement projectors
    [I - P_1; ...; I - P_n] (see :func:`_split_rows`). A single subspace is
    its own intersection and keeps its basis order (phase-fixed), no SVD.
    """
    subspaces = list(subspaces)
    if not subspaces:
        raise StateCompatError("need at least one subspace")
    ambient = subspaces[0].ambient_dim
    if any(s.ambient_dim != ambient for s in subspaces):
        raise DimensionMismatchError("subspaces live in different ambient dimensions")
    if len(subspaces) == 1:
        return Subspace._trusted(ambient, fix_phase(subspaces[0].basis))
    rows = np.vstack([np.eye(ambient) - s.projector() for s in subspaces])
    count, _, directions = _split_rows(rows, ambient, tol)
    return Subspace._trusted(ambient, fix_phase(directions[:, :count]))
