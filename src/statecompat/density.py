"""Density matrices, their supports and null spaces, and ensemble decompositions.

A density matrix is a Hermitian, positive-semidefinite, trace-one operator.
:func:`validate_density` makes one pass over each input (one Hermiticity
defect, symmetrization, eigendecomposition and trace) and keeps that
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

Every rank comes from one decision, :func:`_rank_split`: an eigenvalue
counts when it lies above its spectrum's zero cutoff. It is made once per
set, where the spectra are stacked (:func:`_spectra`), and the support test
of :mod:`statecompat.compat` and the scenario's ensembles read the same
cutoffs and ranks.

The scenario needs these ensembles for every observer around one state, so
they are computed in one array pass over the stacked spectra
(:func:`_ensembles_around`): all support defects, one batched Householder
completion cut to the largest rank, the surplus eigenvectors, and the
ensemble checks as stacked tests that name the first offending observer.
The terms are written in place into one preallocated array (the state, the
completion, the basis), and norms are summed squares, not
``numpy.linalg.norm`` calls, so each quantity costs about one numpy call.
:func:`ensemble_containing` is that pass for one matrix.

Two absolute tolerances hold every "must be one" decision of the package,
one per meaning: :data:`TRACE_TOL` (1e-8) for a total probability, the trace
of a density matrix and an ensemble's weight sum; :data:`UNIT_TOL` (1e-10)
for a norm or overlap, of ensemble states, of the joint state and of the
ensembles' leading states in :func:`statecompat.scenario.build_joint_state`.
Everything else compares against :class:`statecompat.linalg.Tolerances`.
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
    _hermitian_part_eig,
    _householder_completions,
    as_complex_vector,
    hermitian_eig,
    require_square,
    zero_cutoff,
)

#: Absolute tolerance on a total probability that must be one: the trace of a
#: density matrix, the weight sum of an ensemble (whose defect is then
#: renormalized away).
TRACE_TOL = 1e-8

#: Absolute tolerance on a norm or overlap that must be one: ensemble states,
#: joint states, and the overlap of the ensembles' leading states.
UNIT_TOL = 1e-10


class DensityMatrix:
    """A density matrix and, once read, its spectrum; validate inputs with :func:`validate_density`.

    ``spectrum`` is the eigendecomposition of ``matrix`` (eigenvalues
    descending, eigenvectors phase-fixed). Validation passes the one it
    computed, and supports, null spaces and ensembles read it instead of
    diagonalizing again. Built without one, the matrix is diagonalized the
    first time ``spectrum`` is read, so matrices that are only compared,
    such as the scenario's recovered ones, are never diagonalized. The
    pairwise conditions need ``matrix`` exactly Hermitian, as validated.
    """

    def __init__(self, matrix, spectrum: EigResult | None = None):
        self.matrix = require_square(as_complex_matrix(matrix))
        self._spectrum = spectrum

    @classmethod
    def _trusted(cls, matrix: np.ndarray, spectrum: EigResult | None = None) -> "DensityMatrix":
        """A density matrix on a square complex128 matrix the package computed, unchecked."""
        rho = object.__new__(cls)
        rho.matrix, rho._spectrum = matrix, spectrum
        return rho

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
    """Positive weights and unit states; weights must sum to one within :data:`TRACE_TOL`.

    A weight-sum defect below the tolerance is silently renormalized away so
    that values surviving a file round trip remain acceptable. The terms are
    checked together by :func:`_check_terms`, the states as one array.
    """

    dim: int
    terms: list[tuple[float, np.ndarray]]

    def __post_init__(self):
        if self.dim < 1:
            raise StateCompatError("ensemble dimension must be positive")
        if not self.terms:
            raise StateCompatError("ensemble must contain at least one term")
        try:
            weights = np.array([float(w) for w, _ in self.terms])
        except (TypeError, ValueError) as exc:
            raise StateCompatError(
                f"ensemble terms must be (real weight, state) pairs: {exc}"
            ) from exc
        try:
            states = np.array([s for _, s in self.terms], dtype=np.complex128)
        except (TypeError, ValueError):  # states of different lengths, or not numbers
            states = None
        if states is None or states.ndim != 2 or states.shape[1] != self.dim:
            for _, state in self.terms:
                state = as_complex_vector(state)
                if state.shape[0] != self.dim:
                    raise StateCompatError(
                        f"ensemble state has length {state.shape[0]}, expected {self.dim}"
                    )
        total = _check_terms(weights[None], states[None], np.ones((1, len(weights)), dtype=bool))
        self.terms = list(zip((weights / total[0]).tolist(), states))

    @classmethod
    def _trusted(cls, dim: int, terms: list[tuple[float, np.ndarray]]) -> "Ensemble":
        """An ensemble on terms :func:`_check_terms` has passed and normalized, unchecked."""
        ensemble = object.__new__(cls)
        ensemble.dim, ensemble.terms = dim, terms
        return ensemble


def _check_terms(weights: np.ndarray, states: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The weight sums of n stacked ensembles, after checking that each is one.

    Row k holds ensemble k: the terms of ``weights`` (n, m) and ``states``
    (n, m, d) where ``keep`` (n, m) is set. The first row that fails raises
    the first of these checks it fails: positive weights, unit states within
    :data:`UNIT_TOL`, a weight sum within :data:`TRACE_TOL` of one.
    """
    weights = np.where(keep, weights, 0.0)
    norms = np.sqrt((states.conj() * states).real.sum(axis=-1))
    positive = weights > 0.0
    unit = np.abs(norms - 1.0) <= UNIT_TOL  # False for a non-finite state too
    totals = weights.sum(axis=1)
    # kept weights that pass are positive, so their sum is never NaN
    fine = (positive & unit | ~keep).all(axis=1) & (np.abs(totals - 1.0) <= TRACE_TOL)
    if fine.all():
        return totals
    k = int(np.argmin(fine))
    if not (positive[k] | ~keep[k]).all():
        bad = float(weights[k, np.argmin(positive[k] | ~keep[k])])
        raise StateCompatError(f"ensemble weights must be positive, got {bad!r}")
    if not (unit[k] | ~keep[k]).all():
        i = int(np.argmin(unit[k] | ~keep[k]))
        if not np.isfinite(states[k, i]).all():
            raise StateCompatError("vector contains non-finite entries")
        raise StateCompatError(f"ensemble state is not unit norm (|v| = {norms[k, i]:.12g})")
    raise StateCompatError(
        f"ensemble weights sum to {totals[k]:.12g}, outside 1 +- {TRACE_TOL}"
    )


def validate_density(m, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Check Hermiticity, trace one, and positivity; return the cleaned matrix.

    The input is symmetrized, eigenvalues within the negative tolerance band
    are clamped to zero, and the trace is renormalized to exactly one. The
    result keeps this one eigendecomposition, clamped and scaled the same way.
    """
    sym, values, vectors = _hermitian_part_eig(require_square(as_complex_matrix(m)), tol)
    trace = sym.trace().real
    if abs(trace - 1.0) > TRACE_TOL:
        raise TraceNotOneError(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
    lowest = float(values[-1])
    if lowest < -tol.rank_rel * max(float(values[0]), 1e-30):
        raise NotPositiveError(f"eigenvalue {lowest:.6g} is negative beyond tolerance")
    if lowest < 0.0:
        values = np.maximum(values, 0.0)
        sym = (vectors * values) @ vectors.conj().T
        sym = (sym + sym.conj().T) / 2.0
        trace = sym.trace().real
    return DensityMatrix._trusted(sym / trace, EigResult(values / trace, vectors))


def _rank_split(values: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    """The zero cutoffs and ranks of spectra stacked along the last axis.

    The one rank decision of the package: an eigenvalue is kept when it lies
    above its spectrum's :func:`statecompat.linalg.zero_cutoff`.
    """
    cutoffs = zero_cutoff(values, tol)
    return cutoffs, (values > cutoffs[..., None]).sum(axis=-1)


def _spectra(rhos, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """Stacked spectra of n matrices of one size: (values, vectors, cutoffs, ranks).

    The eigenvalues (n, d) and eigenvectors (n, d, d), then their zero
    cutoffs and ranks from :func:`_rank_split`: the one rank split of the set.
    """
    values = np.array([r.spectrum.eigenvalues for r in rhos])
    return (values, np.array([r.spectrum.eigenvectors for r in rhos]), *_rank_split(values, tol))


def support(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue above the zero cutoff."""
    rank = _rank_split(rho.spectrum.eigenvalues, tol)[1]
    return Subspace._trusted(rho.dim, rho.spectrum.eigenvectors[:, :rank])


def null_space(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue at or below the zero cutoff.

    Together with :func:`support` this exhausts the space: the two projectors
    sum to the identity.
    """
    rank = _rank_split(rho.spectrum.eigenvalues, tol)[1]
    return Subspace._trusted(rho.dim, rho.spectrum.eigenvectors[:, rank:])


def _ensembles_around(
    values: np.ndarray, vectors: np.ndarray, cutoffs: np.ndarray, ranks: np.ndarray,
    phi: np.ndarray, tol: Tolerances,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The :func:`ensemble_containing` ensembles of n spectra around one state, all at once.

    ``values`` (n, d) and ``vectors`` (n, d, d) are stacked spectra with
    the ``cutoffs`` and ``ranks`` of :func:`_rank_split`, and ``phi`` a
    coerced d-vector. Row k of the result is ensemble k as 2R candidate
    terms, R the largest rank, of which ``keep`` marks the real ones: phi
    with weight r_0, the completion (R - 1 columns, weight r_0), then the
    eigenvectors with their surplus r_i - r_0 (R columns). The terms are
    written in place into one (n, d, 2R) array, returned as its (n, 2R, d)
    view: each support basis is cut to R, its columns past its own rank
    zeroed, so one batched product gives every support defect and one
    :func:`_householder_completions` call every completion. Weights are
    normalized as :class:`Ensemble` would. Errors name the first observer
    that fails, with the check order of one observer at a time: the support
    defect, then :func:`_check_terms`.
    """
    n, d = values.shape
    top = max(int(ranks.max()), 1)
    inside = np.arange(top) < ranks[:, None]
    r0 = values[np.arange(n), ranks - 1]
    weights, keep = np.empty((n, 2 * top)), np.empty((n, 2 * top), dtype=bool)
    states = np.empty((n, d, 2 * top), dtype=np.complex128)
    weights[:, :top] = r0[:, None]
    surplus = np.subtract(values[:, :top], r0[:, None], out=weights[:, top:])
    keep[:, :top] = inside
    np.logical_and(inside, surplus > cutoffs[:, None], out=keep[:, top:])
    keep[:, 0] = True
    states[:, :, 0] = phi
    basis = np.multiply(vectors[:, :, :top], inside[:, None], out=states[:, :, top:])
    coeffs = (phi.conj() @ basis).conj()  # U_k^dag phi, zero past rank k
    states[:, :, 1:top] = _householder_completions(basis, coeffs)
    gap = phi - (basis @ coeffs[:, :, None])[:, :, 0]
    defects = np.sqrt((gap.conj() * gap).real.sum(axis=1))
    states = states.transpose(0, 2, 1)
    outside = defects > tol.match_abs
    if outside.any():
        k = int(outside.argmax())
        _check_terms(weights[:k], states[:k], keep[:k])
        raise StateOutsideSupportError(
            f"state has a null-space component (projection defect {defects[k]:.3e}); "
            "no ensemble for this density matrix can contain it"
        )
    return weights / _check_terms(weights, states, keep)[:, None], states, keep


def ensemble_containing(
    rho: DensityMatrix, psi, tol: Tolerances = DEFAULT_TOL
) -> Ensemble:
    """Decompose ``rho`` into an ensemble in which the unit vector ``psi`` appears.

    ``psi`` must lie in the support of ``rho`` (within ``tol.match_abs``); it
    enters with weight equal to the smallest nonzero eigenvalue r_0. The
    remaining terms are the other members of an orthonormal support basis
    completing ``psi`` (each with weight r_0; they lie in the support and are
    orthogonal to ``psi``) and the eigenvectors whose surplus r_i - r_0 is
    nonzero. Everything is read from ``rho.spectrum``, by
    :func:`_ensembles_around` for this one matrix.
    """
    psi = as_complex_vector(psi)
    if psi.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"vector length {psi.shape[0]} != ambient dimension {rho.dim}"
        )
    values, vectors = rho.spectrum.eigenvalues[None], rho.spectrum.eigenvectors[None]
    weights, states, keep = _ensembles_around(values, vectors, *_rank_split(values, tol), psi, tol)
    return Ensemble._trusted(rho.dim, list(zip(weights[keep].tolist(), states[keep])))
