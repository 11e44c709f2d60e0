"""Density matrices, their supports and null spaces, and ensemble decompositions.

A density matrix is a Hermitian, positive-semidefinite, trace-one operator.
A :class:`DensityMatrix` exists only after validation: its constructor, which
:func:`validate_density` calls, makes one pass over each input (one
Hermiticity defect, symmetrization, eigendecomposition and trace) and keeps
that spectrum; supports, null spaces, the support intersection and the
ensembles below all read it. An ensemble is a list of positive weights and
unit states (not necessarily orthogonal) whose weighted projectors sum to the
density matrix. This module can rewrite a density matrix as an ensemble in
which an arbitrarily chosen support vector appears explicitly: with
eigenvalues r_i (smallest nonzero value r_0) and eigenvectors psi_i,

    rho = r_0 |psi><psi| + sum_{j>0} r_0 |eta_j><eta_j|
          + sum_i (r_i - r_0) |psi_i><psi_i|,

where {psi, eta_1, ...} is an orthonormal basis of the support that starts
at the chosen vector; the eta_j come from one Householder reflector on the
support's eigenvector basis, so no further factorization is needed. Such a
rewriting exists exactly when the chosen vector lies in the support.

Every rank comes from one decision, :func:`_rank_split`: an eigenvalue
counts when it lies above its spectrum's zero cutoff (:func:`zero_cutoff`,
whose floor validation's positivity test reads too). It is made once per
set, where the spectra are stacked (:func:`_spectra`), and the support test
of :mod:`statecompat.compat` and the scenario's ensembles read the same
cutoffs and ranks.

The scenario needs these ensembles for every observer around one state, so
they are computed in one array pass over the stacked spectra
(:func:`_ensembles_around`): all support defects, one batched Householder
completion cut to the largest rank and the surplus eigenvectors. Of the
ensemble checks it makes only those that can fail, naming the first
offending observer: the support defect, the unit norm of the shared state
and each weight sum; positive weights and unit terms hold by construction.
The terms are written in place into one preallocated array (the state, the
completion, the basis), and norms are summed squares, not
``numpy.linalg.norm`` calls, so each quantity costs about one numpy call.
:func:`ensemble_containing` is that pass for one matrix, whose terms the
:class:`Ensemble` constructor then checks in full.

Two absolute tolerances hold every "must be one" decision of the package,
one per meaning: :data:`TRACE_TOL` (1e-8) for a total probability, the trace
of a density matrix and an ensemble's weight sum; :data:`UNIT_TOL` (1e-10,
defined in :mod:`statecompat.linalg`) for a norm or overlap, of ensemble
states, of the joint state, of the ensembles' leading states in
:func:`statecompat.scenario.build_joint_state` and of the columns of a
subspace basis. Everything else compares against
:class:`statecompat.linalg.Tolerances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NumericalFailureError,
    StateCompatError,
    StateOutsideSupportError,
    TraceNotOneError,
)
from .linalg import (
    DEFAULT_TOL,
    UNIT_TOL,
    EigResult,
    Subspace,
    Tolerances,
    _as_finite,
    _fix_columns,
    _householder_completions,
    as_array,
    as_complex_vector,
    read_only,
)

#: Absolute tolerance on a total probability that must be one: the trace of a
#: density matrix, the weight sum of an ensemble (whose defect is then
#: renormalized away).
TRACE_TOL = 1e-8

#: Floor of every zero cutoff: the largest eigenvalue is taken as at least
#: this, so an all-zero spectrum still has a positive cutoff.
_CUTOFF_FLOOR = 1e-30


def zero_cutoff(values: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Threshold below which an eigenvalue counts as zero.

    Relative to the largest value present, with an absolute floor so an
    all-zero spectrum still yields a positive cutoff: the floor is the
    maximum's initial value, :data:`_CUTOFF_FLOOR`. A stack of spectra (along
    the last axis) gets one cutoff each.
    """
    return tol.rank_rel * np.maximum.reduce(values, axis=-1, initial=_CUTOFF_FLOOR)


class DensityMatrix:
    """A validated density matrix and its one eigendecomposition.

    ``DensityMatrix(m, tol)`` is the validation; there is no other way to
    make one. The checks run in this order: M converts to a complex array,
    has two axes, is not empty, has finite entries, is square, its
    Hermiticity defect is at most ``tol.match_abs``, the eigendecomposition
    of (M + M^dag)/2 succeeds, the trace is one within :data:`TRACE_TOL`,
    and no eigenvalue is negative beyond the zero cutoff. One probe stands
    in for the shape, finiteness and square checks: ||M||_F^2, a ``vdot``,
    is finite exactly when every entry is finite and none is huge (beyond
    about 1e154). Only an input that fails the probe runs them one at a
    time, which raises for every such input except a huge finite one; so
    the same classes and messages come out in the same order, and a
    non-finite entry never reaches M - M^dag, where an infinite one would
    raise a floating-point warning. The eigenvalues are put in descending
    order and the eigenvector columns phase-fixed (see
    :func:`statecompat.linalg._fix_columns`); eigenvalues within the
    negative tolerance band are clamped to zero and the matrix rebuilt from
    its spectrum, and the trace is renormalized to exactly one.

    ``matrix`` is the cleaned, exactly Hermitian matrix the pairwise
    conditions need, and ``spectrum`` its eigendecomposition (eigenvalues
    descending, eigenvectors phase-fixed), clamped and scaled the same way;
    supports, null spaces and ensembles read it instead of diagonalizing
    again. The three arrays are read-only, so a validated matrix stays as
    validated and its readers need not check it again; copies and unpickled
    matrices keep the original's bits and are read-only too.
    """

    def __init__(self, m, tol: Tolerances = DEFAULT_TOL):
        m = as_array(m, "matrix")
        if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size or not math.isfinite(np.vdot(m, m).real):
            m = _as_finite(m, 2, "matrix")
            if m.shape[0] != m.shape[1]:
                raise NotSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
        mh = m.conj().T
        diff = m - mh
        defect = math.sqrt(np.vdot(diff, diff).real)
        if defect > tol.match_abs:
            raise NotHermitianError(f"Hermiticity defect {defect:.3e} exceeds match_abs {tol.match_abs:.3e}")
        sym = (m + mh) / 2.0
        try:
            values, vectors = np.linalg.eigh(sym)
        except np.linalg.LinAlgError as exc:
            raise NumericalFailureError(f"eigendecomposition failed: {exc}") from exc
        values, vectors = values[::-1], _fix_columns(vectors[:, ::-1])
        trace = np.add.reduce(sym.diagonal()).real  # sym.trace().real without the method's wrapper
        if abs(trace - 1.0) > TRACE_TOL:
            raise TraceNotOneError(f"trace deviates from 1 by {abs(trace - 1.0):.3e}")
        lowest = float(values[-1])
        if lowest < -tol.rank_rel * max(float(values[0]), _CUTOFF_FLOOR):
            raise NotPositiveError(f"eigenvalue {lowest:.6g} is negative beyond tolerance")
        if lowest < 0.0:
            values = np.maximum(values, 0.0)
            sym = (vectors * values) @ vectors.conj().T
            sym = (sym + sym.conj().T) / 2.0
            trace = np.add.reduce(sym.diagonal()).real
        matrix, values = sym / trace, values / trace
        for array in (matrix, values, vectors):  # made here, so read-only without a copy
            array.setflags(write=False)
        self.matrix, self.spectrum = matrix, EigResult(values, vectors)

    def __setstate__(self, state):
        """A copy or an unpickled matrix keeps the original's bits, read-only too."""
        self.__dict__.update(state)
        for array in (self.matrix, self.spectrum.eigenvalues, self.spectrum.eigenvectors):
            array.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class Ensemble:
    """Positive weights and unit states; weights must sum to one within :data:`TRACE_TOL`.

    The constructor is the one way to make one, and it checks its input,
    also where the package built the terms (:func:`ensemble_containing`).
    Each state is coerced to a finite vector of length ``dim``; then the
    terms are checked together by :func:`_check_terms`, the states as one
    array. A weight-sum defect below the tolerance is silently renormalized
    away so that values surviving a file round trip remain acceptable.
    An ensemble cannot change after its checks: it is frozen, and ``terms``
    is a tuple of (weight, state) pairs whose states are rows of one
    read-only array of its own, so every reader can rely on the checks.
    Copies and pickles are made by the constructor, so they are checked and
    read-only too, and keep every bit of their terms: the weights, already
    normalized, are not divided by their sum again (:func:`_copied_ensemble`).
    """

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]

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
        states = read_only([as_complex_vector(s, self.dim) for _, s in self.terms])
        total = _check_terms(weights[None], states[None], np.ones((1, len(weights)), dtype=bool))
        object.__setattr__(self, "terms", tuple(zip((weights / total[0]).tolist(), states)))

    def __reduce__(self):
        return (_copied_ensemble, (self.dim, self.terms))


def _copied_ensemble(dim: int, terms) -> Ensemble:
    """``Ensemble(dim, terms)``, checked in full, keeping the weights of ``terms`` as given.

    Copies and pickles pass a checked ensemble's terms, whose weights are
    normalized already: dividing them by their sum once more could move one
    by an ulp. Whatever the terms, their weights have passed every check.
    """
    ensemble = Ensemble(dim, terms)
    weights = [float(w) for w, _ in terms]
    object.__setattr__(ensemble, "terms", tuple(zip(weights, (s for _, s in ensemble.terms))))
    return ensemble


def _check_terms(weights: np.ndarray, states: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The weight sums of n stacked ensembles, after checking that each is one.

    Row k holds ensemble k: the terms of ``weights`` (n, m) and ``states``
    (n, m, d) where ``keep`` (n, m) is set. The first row that fails raises
    the first of these checks it fails: positive weights, unit states within
    :data:`UNIT_TOL`, a weight sum within :data:`TRACE_TOL` of one. The
    states are finite: :class:`Ensemble` coerces them. The tests also run it
    over :func:`_ensembles_around`'s output, as the oracle of the checks
    that kernel leaves out.
    """
    weights = np.where(keep, weights, 0.0)
    norms = np.sqrt((states.conj() * states).real.sum(axis=-1))
    positive = weights > 0.0
    unit = np.abs(norms - 1.0) <= UNIT_TOL
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
        raise StateCompatError(f"ensemble state is not unit norm (|v| = {norms[k, i]:.12g})")
    raise StateCompatError(
        f"ensemble weights sum to {totals[k]:.12g}, outside 1 +- {TRACE_TOL}"
    )


def validate_density(m, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Check Hermiticity, trace one, and positivity; return the cleaned matrix.

    The same as ``DensityMatrix(m, tol)``, whose constructor is the
    validation (see :class:`DensityMatrix`).
    """
    return DensityMatrix(m, tol)


def _rank_split(values: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """The zero cutoffs, kept eigenvalues and ranks of spectra stacked along the last axis.

    The one rank decision of the package: an eigenvalue is kept when it lies
    above its spectrum's :func:`zero_cutoff`. The spectra are descending, so
    the largest value is the leading one, read instead of reduced (the same
    bits), the kept ones lead and ``kept[..., i]`` is ``i < rank``.
    """
    cutoffs = tol.rank_rel * np.maximum(values[..., 0], _CUTOFF_FLOOR)
    kept = values > cutoffs[..., None]
    return cutoffs, kept, np.add.reduce(kept, axis=-1)


def _spectra(rhos, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """Stacked spectra of n matrices of one size: (values, vectors, cutoffs, kept, ranks).

    The eigenvalues (n, d) and eigenvectors (n, d, d), then their zero
    cutoffs, kept eigenvalues and ranks from :func:`_rank_split`: the one
    rank split of the set.
    """
    values = np.array([r.spectrum.eigenvalues for r in rhos])
    return (values, np.array([r.spectrum.eigenvectors for r in rhos]), *_rank_split(values, tol))


def support(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue above the zero cutoff."""
    rank = _rank_split(rho.spectrum.eigenvalues, tol)[2]
    return Subspace(rho.dim, rho.spectrum.eigenvectors[:, :rank])


def null_space(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue at or below the zero cutoff.

    Together with :func:`support` this exhausts the space: the two projectors
    sum to the identity.
    """
    rank = _rank_split(rho.spectrum.eigenvalues, tol)[2]
    return Subspace(rho.dim, rho.spectrum.eigenvectors[:, rank:])


def _ensembles_around(
    values: np.ndarray, vectors: np.ndarray, cutoffs: np.ndarray, kept: np.ndarray,
    ranks: np.ndarray, phi: np.ndarray, tol: Tolerances,
) -> tuple[np.ndarray, ...]:
    """The :func:`ensemble_containing` ensembles of n spectra around one state, all at once.

    ``values`` (n, d) and ``vectors`` (n, d, d) are stacked spectra of
    validated matrices with the ``cutoffs``, ``kept`` and ``ranks`` of
    :func:`_rank_split`, and ``phi`` a coerced d-vector. Row k of the result
    is ensemble k as 2R candidate terms, R the largest rank, of which
    ``keep`` marks the real ones: phi with weight r_0, the completion (R - 1
    columns, weight r_0), then the eigenvectors with their surplus r_i - r_0
    (R columns). The terms are written in place into one (n, d, 2R) array,
    returned as its (n, 2R, d) view: each support basis is cut to R, its
    columns past its own rank zeroed, so one batched product gives every
    support defect and one :func:`_householder_completions` call every
    completion. The weights are returned as computed, with their sums over
    the kept terms, so that each caller divides them once.

    Only the checks that can fail are made, with the messages of
    :func:`_check_terms` and the order of one observer at a time: the
    support defect (the first observer outside raises
    :class:`StateOutsideSupportError` after the checks below pass for the
    observers before it), the unit norm of phi within :data:`UNIT_TOL`,
    checked once since phi is the one term a caller supplies, and each
    weight sum within :data:`TRACE_TOL`, which a large ``tol.rank_rel``
    breaks by dropping eigenvalues. The other checks of
    :func:`_check_terms` hold by construction: a kept weight is r_0 or a
    kept surplus, each above a zero cutoff greater than 0; a kept
    eigenvector is a column of a validated spectrum, and a completion a
    Householder reflection of an orthonormal support basis.
    """
    n, d = values.shape
    top = max(1, *ranks.tolist())
    inside = kept[:, :top]
    r0 = np.minimum.reduce(values, axis=1, where=kept, initial=np.inf)  # the least kept value
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
    defects = np.sqrt((gap.conj() * gap).real.sum(axis=1)).tolist()
    first = next((k for k, defect in enumerate(defects) if defect > tol.match_abs), n)
    if first:
        norm = math.sqrt((phi.conj() * phi).real.sum())
        if not abs(norm - 1.0) <= UNIT_TOL:
            raise StateCompatError(f"ensemble state is not unit norm (|v| = {norm:.12g})")
    totals = np.where(keep, weights, 0.0).sum(axis=1)
    for total in totals[:first].tolist():
        if not abs(total - 1.0) <= TRACE_TOL:
            raise StateCompatError(f"ensemble weights sum to {total:.12g}, outside 1 +- {TRACE_TOL}")
    if first < n:
        raise StateOutsideSupportError(
            f"state has a null-space component (projection defect {defects[first]:.3e}); "
            "no ensemble for this density matrix can contain it"
        )
    return weights, totals, states.transpose(0, 2, 1), keep


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
    :func:`_ensembles_around` for this one matrix; the terms it keeps are
    handed to the :class:`Ensemble` constructor as computed, so its
    normalization is the only one.
    """
    psi = as_complex_vector(psi, rho.dim)
    values, vectors = rho.spectrum.eigenvalues[None], rho.spectrum.eigenvectors[None]
    weights, _, states, keep = _ensembles_around(values, vectors, *_rank_split(values, tol), psi, tol)
    return Ensemble(rho.dim, list(zip(weights[keep].tolist(), states[keep])))
