"""Dense complex linear algebra on small matrices, shared by the other modules.

The coercion of inputs to finite complex arrays, the tolerances, the phase
convention of eigen- and singular vectors, and orthonormal-basis subspace
arithmetic (the intersection of a family, decided by one SVD, and the
batched completion of vectors to bases of subspaces, one Householder
reflector each). Matrices and vectors are plain ``numpy`` arrays of
complex128. What a density matrix is, its validation and its zero cutoff,
is decided in :mod:`statecompat.density`.

The package's one LAPACK entry is here: :func:`_eigh`, the eigendecomposition
of every validated matrix, and :func:`_svd`, the one SVD of the support
intersection. Each is one call of numpy's own gufunc
(``numpy.linalg._umath_linalg``), with the signature and under the
``np.errstate`` that ``np.linalg.eigh`` and ``np.linalg.svd`` use for a
complex128 input, so the bits and a failure's ``LinAlgError`` are theirs.
They skip the wrappers' input checks and dtype dispatch, which the
package's own checks already make: about 2.4 of 6.8 us per 3x3 ``eigh``
with numpy 2.4 on a 2-CPU x86-64 host.
Each helper reads its gufunc from a module-level name at call time, the one
place to count or fail a call. The reduced SVD is ``svd_s`` since numpy 2.0
and ``svd_n_s`` before, which numpy 1.x's ``svd`` picks when the rows are
at least as many as the columns, as :func:`_split_rows` pads them to be; the
name is resolved once, at import.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import DimensionMismatchError, StateCompatError

#: Modulus below which a component cannot anchor the global phase convention.
PHASE_FLOOR = 1e-8

#: Absolute tolerance on a norm or overlap that must be one (or, off the
#: diagonal of a Gram matrix, zero): ensemble states, joint states, the
#: overlap of the ensembles' leading states, and the orthonormality of
#: subspace bases, entrywise.
UNIT_TOL = 1e-10


#: The gufuncs of :func:`_eigh` and :func:`_svd`, read at each call.
_EIGH_GUFUNC = _umath_linalg.eigh_lo
_SVD_GUFUNC = getattr(_umath_linalg, "svd_s", None) or _umath_linalg.svd_n_s


def _eigh_failed(err, flag):
    """The ``np.errstate`` ``call=`` handler of :func:`_eigh`: numpy's own error and message."""
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


def _svd_failed(err, flag):
    """The ``np.errstate`` ``call=`` handler of :func:`_svd`: numpy's own error and message."""
    raise np.linalg.LinAlgError("SVD did not converge")


def _eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.linalg.eigh(a)`` for a square complex128 ``a``, bit for bit: ascending values, vectors."""
    with np.errstate(call=_eigh_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _EIGH_GUFUNC(a, signature="D->dD")


def _svd(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``np.linalg.svd(rows, full_matrices=False)`` for complex128 ``rows``, no fewer rows than columns."""
    with np.errstate(call=_svd_failed, invalid="call", over="ignore", divide="ignore", under="ignore"):
        return _SVD_GUFUNC(rows, signature="D->DdD")


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
        for f in fields(self):
            value = getattr(self, f.name)
            if not (isinstance(value, numbers.Real) and 0.0 < value < 1e-2):
                raise StateCompatError(f"{f.name} must lie in (0, 1e-2), got {value!r}")
            object.__setattr__(self, f.name, float(value))  # a numpy scalar is no JSON number


DEFAULT_TOL = Tolerances()


def _check_tol(tol) -> None:
    """Refuse a ``tol`` that is not a :class:`Tolerances`, naming its type.

    Every public function that takes tolerances runs this first, so a bare
    number, a mapping or None gets a :class:`StateCompatError`, never an
    ``AttributeError``.
    """
    if not isinstance(tol, Tolerances):
        raise StateCompatError(f"tolerances must be a Tolerances, got {type(tol).__name__}")


def _check_elements(items, kind: type) -> list:
    """``items`` as a list, every element a ``kind``; the first that is not is named with its type.

    A list is returned as it is, anything else is copied into one.
    """
    items = items if type(items) is list else list(items)
    for k, item in enumerate(items):
        if not isinstance(item, kind):
            raise StateCompatError(f"element {k} of the set has type {type(item).__name__}, not {kind.__name__}")
    return items


def as_array(value, what: str, dtype=np.complex128) -> np.ndarray:
    """``np.asarray``, raising :class:`StateCompatError` for input numpy cannot convert."""
    try:
        return np.asarray(value, dtype=dtype)
    except (TypeError, ValueError) as exc:  # ragged nesting, strings, objects
        raise StateCompatError(f"cannot read the {what} as an array of numbers: {exc}") from exc


def _as_finite(value, ndim: int, what: str) -> np.ndarray:
    """Coerce to a finite, non-empty complex128 array of ``ndim`` axes; ``what`` names it.

    The checks run in this order: the array converts, has ``ndim`` axes, is
    not empty and has finite entries. Finiteness is read first from the sum
    of squared moduli, one ``vdot``: it is finite only when every entry is.
    Only when it is not, which a huge finite entry (beyond about 1e154) can
    cause too, are the entries counted one by one, so the test is exact.
    """
    arr = as_array(value, what)
    if arr.ndim != ndim:
        raise StateCompatError(f"expected a {ndim}-d {what}, got shape {arr.shape}")
    if arr.size == 0:
        raise StateCompatError(f"{what} must not be empty")
    if not math.isfinite(np.vdot(arr, arr).real) and np.count_nonzero(np.isfinite(arr)) < arr.size:
        raise StateCompatError(f"{what} contains non-finite entries")
    return arr


def as_complex_vector(v, length: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d complex128 array, of ``length`` entries when one is given."""
    arr = _as_finite(v, 1, "vector")
    if length is not None and arr.shape[0] != length:
        raise DimensionMismatchError(
            f"vector length {arr.shape[0]} != ambient dimension {length}"
        )
    return arr


def as_dim(value, what: str, least: int = 1) -> int:
    """A dimension as an ``int``: an integer of at least ``least``, numpy's included; ``what`` names it.

    A bool, a float or anything else that is not an integer raises
    :class:`StateCompatError`, as a non-integer ``"dim"`` does in an
    instance file, and so does a value below ``least`` (one by default:
    "must be positive").
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise StateCompatError(f"{what} must be an integer, got {value!r}")
    if value < least:
        bound = "positive" if least == 1 else f"at least {least}, got {value}"
        raise StateCompatError(f"{what} must be {bound}")
    return int(value)


def read_only(a, dtype=None) -> np.ndarray:
    """A read-only copy of ``a`` (of ``dtype`` when one is given).

    The copy is the array's own, so the caller's array keeps its flags, and
    nothing the caller holds can write into the copy.
    """
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)  # half the cost of setting ``a.flags.writeable``
    return a


def _fix_columns(cols: np.ndarray) -> np.ndarray:
    """Make each column's first entry of modulus > 1e-8 real positive by a global phase.

    ``cols`` is a complex128 matrix; a column with no such entry is returned
    unrotated. When every column's first entry has modulus above the floor,
    as for almost every eigen- or singular vector, the first row is the
    anchor and is read directly. Only when some column's first entry is at
    or below 1e-8 does the general path run, which finds each column's
    first entry above the floor by argmax; it gives the same bits for the
    columns the first row would anchor.
    """
    lead = cols[0]
    modulus = np.abs(lead)
    if not all(x > PHASE_FLOOR for x in modulus.tolist()):
        big = np.abs(cols) > PHASE_FLOOR
        first, columns = big.argmax(axis=0), np.arange(cols.shape[1])
        lead = np.where(big[first, columns], cols[first, columns], 1.0)  # unanchored: phase 1
        modulus = np.abs(lead)
    return cols * (lead.conj() / modulus)


@dataclass(frozen=True, eq=False)
class EigResult:
    """Eigenvalues in descending order, eigenvector i (column i) paired with eigenvalue i."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True, eq=False)
class Subspace:
    """A subspace of C^ambient_dim, stored as orthonormal basis columns.

    The constructor is the one way to make one, and it checks
    ``ambient_dim``, a positive integer, and the basis: two axes of
    ``ambient_dim`` rows and at most as many columns, finite
    entries, and entrywise orthonormality within :data:`UNIT_TOL`. The basis
    may be empty (shape ``(ambient_dim, 0)``). Bases the package computes
    (eigenvectors, singular vectors) pass the same check as a caller's. The
    subspace keeps a read-only copy of the basis, so no array the caller
    holds can change it, and copies and pickles are made by the constructor.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ambient_dim", as_dim(self.ambient_dim, "ambient dimension"))
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
            if defect > UNIT_TOL:
                raise StateCompatError(
                    f"basis columns are not orthonormal (defect {defect:.3e})"
                )
        object.__setattr__(self, "basis", read_only(basis))

    def __reduce__(self):
        return (Subspace, (self.ambient_dim, self.basis))

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
    norms = np.sqrt(np.add.reduce((coeffs.conj() * coeffs).real, axis=1))
    v = coeffs / (norms + (norms == 0.0))[:, None]  # the norm, or 1 where it is 0
    lead = np.abs(v[:, 0])
    zero = lead == 0.0
    v[:, 0] += v[:, 0] / (lead + zero) + zero  # e^{i arg c_1}, taken as 1 where the lead is 0
    scale = np.reciprocal(1.0 + lead)  # 2 / (v^dag v)
    return basis[:, :, 1:] - (basis @ v[:, :, None]) * (scale[:, None] * v.conj())[:, None, 1:]


def _membership_threshold(tol: Tolerances) -> float:
    """Largest root-sum-square support defect of an intersection direction (see :class:`Tolerances`)."""
    return tol.match_abs / math.sqrt(2.0)


def _split_rows(rows: np.ndarray, ambient: int, tol: Tolerances) -> tuple[int, np.ndarray, np.ndarray]:
    """Intersection dimension, defects and directions from one SVD of A, A^dag A = sum_k (I - P_k).

    For a unit vector v, ||Av||^2 is then the sum of its squared distances
    from the subspaces, so each singular value (the defects, ascending) is
    the root-sum-square distance of its right singular vector (the
    directions, in the same order, not phase-fixed) from the family; the
    SVD resolves small principal angles to absolute accuracy, where an
    eigendecomposition of A^dag A would square them. ``rows`` is padded with
    zero rows to at least ``ambient``, which leaves A^dag A unchanged. The
    leading directions, those with defect at most ``tol.match_abs/sqrt(2)``,
    span the intersection and the rest its complement, so the count and
    ``ambient`` minus it are the two dimensions. The directions come back
    conjugated, one per row, as the SVD gives them: callers conjugate and
    phase-fix only the ones they return. ``rows`` is complex128, so the SVD
    is :func:`_svd`, and the padding is also what numpy 1.x's reduced SVD
    gufunc asks for.
    """
    if rows.shape[0] < ambient:
        rows = np.concatenate((rows, np.zeros((ambient - rows.shape[0], ambient))))
    _, sigma, vh = _svd(rows)
    threshold = _membership_threshold(tol)
    count = sum(s <= threshold for s in sigma.tolist())
    return count, sigma[::-1], vh[::-1]


def subspace_intersection(subspaces, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Intersection of subspaces: the directions within ``tol.match_abs/sqrt(2)`` of all of them.

    Decided by one SVD of the stacked complement projectors
    [I - P_1; ...; I - P_n] (see :func:`_split_rows`). A single subspace is
    its own intersection and keeps its basis order (phase-fixed), no SVD.
    ``tol`` must be a :class:`Tolerances` and every element a
    :class:`Subspace`; both are checked first.
    """
    _check_tol(tol)
    subspaces = _check_elements(subspaces, Subspace)
    if not subspaces:
        raise StateCompatError("need at least one subspace")
    ambient = subspaces[0].ambient_dim
    if any(s.ambient_dim != ambient for s in subspaces):
        raise DimensionMismatchError("subspaces live in different ambient dimensions")
    if len(subspaces) == 1:
        return Subspace(ambient, _fix_columns(subspaces[0].basis))
    rows = np.vstack([np.eye(ambient) - s.projector() for s in subspaces])
    count, _, conjugated = _split_rows(rows, ambient, tol)
    return Subspace(ambient, _fix_columns(conjugated[:count].conj().T))
