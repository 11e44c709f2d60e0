"""Density matrices, their supports and null spaces, and ensemble decompositions.

A density matrix is a Hermitian, positive-semidefinite, trace-one operator.
An ensemble is a list of positive weights and unit states (not necessarily
orthogonal) whose weighted projectors sum to the density matrix. Besides the
eigenvalue decomposition, this module can rewrite a density matrix as an
ensemble in which an arbitrarily chosen support vector appears explicitly:
with eigenvalues r_i (smallest nonzero value r_0) and eigenvectors psi_i,

    rho = r_0 |psi><psi| + sum_{j>0} r_0 |eta_j><eta_j|
          + sum_i (r_i - r_0) |psi_i><psi_i|,

where {psi, eta_1, ...} is any orthonormal basis of the support that starts
at the chosen vector. Such a rewriting exists exactly when the chosen vector
lies in the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
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
    as_complex_vector,
    hermitian_eig,
    orthonormal_basis_containing,
    require_square,
    zero_cutoff,
)

#: Absolute tolerance on the trace of a density matrix.
TRACE_TOL = 1e-8

#: Absolute tolerance on the norm of ensemble states.
UNIT_TOL = 1e-10

#: Tolerated defect of an ensemble's weight sum before renormalization.
WEIGHT_SUM_TOL = 1e-8


@dataclass(eq=False)
class DensityMatrix:
    """A validated density matrix and its spectrum; construct through :func:`validate_density`.

    ``spectrum`` is the eigendecomposition of ``matrix`` (eigenvalues
    descending, eigenvectors phase-fixed) that validation computed; supports,
    null spaces and ensembles read it instead of diagonalizing again. Built
    directly without one, the matrix is diagonalized here.
    """

    matrix: np.ndarray
    spectrum: EigResult | None = None

    def __post_init__(self):
        self.matrix = require_square(as_complex_matrix(self.matrix))
        if self.spectrum is None:
            self.spectrum = hermitian_eig(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class Ensemble:
    """Positive weights and unit states; weights must sum to one within 1e-8.

    A weight-sum defect below the tolerance is silently renormalized away so
    that values surviving a file round trip remain acceptable.
    """

    dim: int
    terms: list[tuple[float, np.ndarray]]

    def __post_init__(self):
        if self.dim < 1:
            raise StateCompatError("ensemble dimension must be positive")
        if not self.terms:
            raise StateCompatError("ensemble must contain at least one term")
        cleaned = []
        for weight, state in self.terms:
            weight = float(weight)
            state = as_complex_vector(state)
            if state.shape[0] != self.dim:
                raise StateCompatError(
                    f"ensemble state has length {state.shape[0]}, expected {self.dim}"
                )
            if weight <= 0.0:
                raise StateCompatError(f"ensemble weights must be positive, got {weight!r}")
            norm = float(np.linalg.norm(state))
            if abs(norm - 1.0) > UNIT_TOL:
                raise StateCompatError(f"ensemble state is not unit norm (|v| = {norm:.12g})")
            cleaned.append((weight, state))
        total = sum(w for w, _ in cleaned)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise StateCompatError(
                f"ensemble weights sum to {total:.12g}, outside 1 +- {WEIGHT_SUM_TOL}"
            )
        self.terms = [(w / total, s) for w, s in cleaned]

    @classmethod
    def normalized(cls, dim: int, terms) -> "Ensemble":
        """Build an ensemble from positive weights of arbitrary total."""
        total = sum(float(w) for w, _ in terms)
        if total <= 0.0:
            raise StateCompatError("ensemble weights must have a positive sum")
        return cls(dim, [(float(w) / total, s) for w, s in terms])

    @property
    def weights(self) -> np.ndarray:
        return np.array([w for w, _ in self.terms])

    @property
    def states(self) -> np.ndarray:
        """States as columns of a dim x n matrix."""
        return np.column_stack([s for _, s in self.terms])


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


def _rank(rho: DensityMatrix, tol: Tolerances) -> int:
    values = rho.spectrum.eigenvalues
    return int(np.sum(values > zero_cutoff(values, tol)))


def support(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue above the zero cutoff."""
    return Subspace(rho.dim, rho.spectrum.eigenvectors[:, : _rank(rho, tol)])


def null_space(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue at or below the zero cutoff.

    Together with :func:`support` this exhausts the space: the two projectors
    sum to the identity.
    """
    return Subspace(rho.dim, rho.spectrum.eigenvectors[:, _rank(rho, tol) :])


def ensemble_containing(
    rho: DensityMatrix, psi, tol: Tolerances = DEFAULT_TOL
) -> Ensemble:
    """Decompose ``rho`` into an ensemble in which the unit vector ``psi`` appears.

    ``psi`` must lie in the support of ``rho``; it enters with weight equal to
    the smallest nonzero eigenvalue r_0. The remaining terms are the other
    members of an orthonormal support basis completing ``psi`` (each with
    weight r_0) and the eigenvectors whose surplus r_i - r_0 is nonzero.
    """
    psi = as_complex_vector(psi)
    supp = support(rho, tol)
    defect = supp.projection_defect(psi)
    if defect > tol.match_abs:
        raise StateOutsideSupportError(
            f"state has a null-space component (projection defect {defect:.3e}); "
            "no ensemble for this density matrix can contain it"
        )
    values = rho.spectrum.eigenvalues
    cutoff = zero_cutoff(values, tol)
    r0 = float(values[supp.dim - 1])
    basis = orthonormal_basis_containing(psi, supp, tol)
    terms: list[tuple[float, np.ndarray]] = [
        (r0, basis.basis[:, j]) for j in range(basis.dim)
    ]
    for i in range(supp.dim):
        surplus = float(values[i]) - r0
        if surplus > cutoff:
            terms.append((surplus, rho.spectrum.eigenvectors[:, i]))
    return Ensemble(rho.dim, terms)
