"""Density matrices, their supports and null spaces, and ensemble decompositions.

A density matrix is a Hermitian, positive-semidefinite, trace-one operator.
:func:`validate_density` diagonalizes each input once and keeps that
spectrum; supports, null spaces, the support intersection and the ensembles
below all read it. An ensemble is a list of positive weights and unit states
(not necessarily orthogonal) whose weighted projectors sum to the density
matrix. This module can rewrite a density matrix as an ensemble in which an
arbitrarily chosen support vector appears explicitly: with eigenvalues r_i
(smallest nonzero value r_0) and eigenvectors psi_i,

    rho = r_0 |psi><psi| + sum_{j>0} r_0 |eta_j><eta_j|
          + sum_i (r_i - r_0) |psi_i><psi_i|,

where {psi, eta_1, ...} is an orthonormal basis of the support that starts
at the chosen vector; the eta_j come from one Householder reflector on the
support's eigenvector basis, so no further factorization is needed. Such a
rewriting exists exactly when the chosen vector lies in the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    NotPositiveError,
    StateCompatError,
    StateOutsideSupportError,
    TraceNotOneError,
)
from .linalg import (
    DEFAULT_TOL,
    EigResult,
    Subspace,
    Tolerances,
    as_complex_matrix,
    _householder_completion,
    as_complex_vector,
    hermitian_eig,
    require_square,
    zero_cutoff,
)

#: Absolute tolerance on the trace of a density matrix.
TRACE_TOL = 1e-8

#: Absolute tolerance on the norm of ensemble states.
UNIT_TOL = 1e-10

#: Tolerated defect of an ensemble's weight sum before renormalization.
WEIGHT_SUM_TOL = 1e-8


class DensityMatrix:
    """A density matrix and, once read, its spectrum; validate inputs with :func:`validate_density`.

    ``spectrum`` is the eigendecomposition of ``matrix`` (eigenvalues
    descending, eigenvectors phase-fixed). Validation passes the one it
    computed, and supports, null spaces and ensembles read it instead of
    diagonalizing again. Built without one, the matrix is diagonalized the
    first time ``spectrum`` is read, so matrices that are only compared,
    such as the scenario's recovered ones, are never diagonalized.
    """

    def __init__(self, matrix, spectrum: EigResult | None = None):
        self.matrix = require_square(as_complex_matrix(matrix))
        self._spectrum = spectrum

    @property
    def spectrum(self) -> EigResult:
        if self._spectrum is None:
            self._spectrum = hermitian_eig(self.matrix)
        return self._spectrum

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class Ensemble:
    """Positive weights and unit states; weights must sum to one within 1e-8.

    A weight-sum defect below the tolerance is silently renormalized away so
    that values surviving a file round trip remain acceptable. The states
    are checked together, as the rows of one array.
    """

    dim: int
    terms: list[tuple[float, np.ndarray]]

    def __post_init__(self):
        if self.dim < 1:
            raise StateCompatError("ensemble dimension must be positive")
        if not self.terms:
            raise StateCompatError("ensemble must contain at least one term")
        weights = np.array([float(w) for w, _ in self.terms])
        try:
            states = np.array([s for _, s in self.terms], dtype=np.complex128)
        except ValueError:  # states of different lengths
            states = None
        if states is None or states.ndim != 2 or states.shape[1] != self.dim:
            for _, state in self.terms:
                state = as_complex_vector(state)
                if state.shape[0] != self.dim:
                    raise StateCompatError(
                        f"ensemble state has length {state.shape[0]}, expected {self.dim}"
                    )
        positive = weights > 0.0
        if not positive.all():
            raise StateCompatError(
                f"ensemble weights must be positive, got {float(weights[~positive][0])!r}"
            )
        norms = np.linalg.norm(states, axis=1)
        unit = np.abs(norms - 1.0) <= UNIT_TOL  # False for a non-finite state too
        if not unit.all():
            i = int(np.argmin(unit))
            if not np.isfinite(states[i]).all():
                raise StateCompatError("vector contains non-finite entries")
            raise StateCompatError(f"ensemble state is not unit norm (|v| = {norms[i]:.12g})")
        total = float(weights.sum())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise StateCompatError(
                f"ensemble weights sum to {total:.12g}, outside 1 +- {WEIGHT_SUM_TOL}"
            )
        self.terms = list(zip((weights / total).tolist(), states))


def validate_density(m, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Check Hermiticity, trace one, and positivity; return the cleaned matrix.

    The input is symmetrized, eigenvalues within the negative tolerance band
    are clamped to zero, and the trace is renormalized to exactly one. The
    result keeps this one eigendecomposition, clamped and scaled the same way.
    """
    m = require_square(as_complex_matrix(m))
    eig = hermitian_eig(m, tol)  # raises NotHermitianError on a large defect
    sym = (m + m.conj().T) / 2.0
    trace = float(np.trace(sym).real)
    if abs(trace - 1.0) > TRACE_TOL:
        raise TraceNotOneError(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
    values = eig.eigenvalues
    lam_max = max(float(values[0]), 0.0)
    if float(values[-1]) < -tol.rank_rel * max(lam_max, 1e-30):
        raise NotPositiveError(
            f"eigenvalue {float(values[-1]):.6g} is negative beyond tolerance"
        )
    if float(values[-1]) < 0.0:
        values = np.maximum(values, 0.0)
        sym = (eig.eigenvectors * values) @ eig.eigenvectors.conj().T
        sym = (sym + sym.conj().T) / 2.0
    trace = float(np.trace(sym).real)
    return DensityMatrix(sym / trace, EigResult(values / trace, eig.eigenvectors))


def _ranks(rhos, tol: Tolerances) -> np.ndarray:
    """Support dimension of each matrix (all of one size): eigenvalues above its zero cutoff."""
    values = np.array([r.spectrum.eigenvalues for r in rhos])
    return np.sum(values > zero_cutoff(values, tol)[:, None], axis=1)


def _rank(rho: DensityMatrix, tol: Tolerances) -> int:
    values = rho.spectrum.eigenvalues
    return int((values > zero_cutoff(values, tol)).sum())


def support(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue above the zero cutoff."""
    return Subspace._trusted(rho.dim, rho.spectrum.eigenvectors[:, : _rank(rho, tol)])


def null_space(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue at or below the zero cutoff.

    Together with :func:`support` this exhausts the space: the two projectors
    sum to the identity.
    """
    return Subspace._trusted(rho.dim, rho.spectrum.eigenvectors[:, _rank(rho, tol) :])


def ensemble_containing(
    rho: DensityMatrix, psi, tol: Tolerances = DEFAULT_TOL
) -> Ensemble:
    """Decompose ``rho`` into an ensemble in which the unit vector ``psi`` appears.

    ``psi`` must lie in the support of ``rho`` (within ``tol.match_abs``); it
    enters with weight equal to the smallest nonzero eigenvalue r_0. The
    remaining terms are the other members of an orthonormal support basis
    completing ``psi`` (each with weight r_0; they lie in the support and are
    orthogonal to ``psi``) and the eigenvectors whose surplus r_i - r_0 is
    nonzero. Everything is read from ``rho.spectrum``.
    """
    psi = as_complex_vector(psi)
    if psi.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"vector length {psi.shape[0]} != ambient dimension {rho.dim}"
        )
    values, vectors = rho.spectrum.eigenvalues, rho.spectrum.eigenvectors
    rank = _rank(rho, tol)
    basis = vectors[:, :rank]
    coeffs = basis.conj().T @ psi
    defect = float(np.linalg.norm(psi - basis @ coeffs))
    if defect > tol.match_abs:
        raise StateOutsideSupportError(
            f"state has a null-space component (projection defect {defect:.3e}); "
            "no ensemble for this density matrix can contain it"
        )
    r0 = float(values[rank - 1])
    surplus = values[:rank] - r0
    extra = np.flatnonzero(surplus > zero_cutoff(values, tol))
    terms = [(r0, psi)]
    terms += [(r0, state) for state in _householder_completion(basis, coeffs).T]
    terms += [(float(surplus[i]), vectors[:, i]) for i in extra]
    return Ensemble(rho.dim, terms)
