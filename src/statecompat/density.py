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
counts when it lies above its spectrum's zero cutoff, ``rank_rel`` times the
largest eigenvalue with a floor (:data:`_CUTOFF_FLOOR`) that validation's
positivity test reads too. It is made once per set, where the spectra are
stacked (:func:`_spectra`, which checks the set first with
:func:`_check_rhos`), and returned with them as one named record,
:class:`_Spectra` (``values``, ``vectors``, ``cutoffs``, ``kept``,
``ranks``); the support test of :mod:`statecompat.compat` and the
scenario's ensembles read the same cutoffs and ranks from it, by name, and
so do :func:`support`, :func:`null_space` and :func:`ensemble_containing`
for their one matrix. ``reduced_cutoffs`` in ``tests/conftest.py``, which
reduces each spectrum to its maximum, is its oracle.

The scenario needs these ensembles for every observer around one state, so
they are computed in one array pass over the :class:`_Spectra` record
(:func:`_ensembles_around`): all coefficient vectors, one batched
Householder completion cut to the largest rank and the surplus
eigenvectors. Of the ensemble checks only three can fail, and they live in
two places. The two checks of the shared state, its largest support defect
and then its unit norm, are :func:`_check_state`, over the same record;
:func:`ensemble_containing`, where a caller's state enters, runs it before
the pass, and the scenario does not, as its state is the witness of the
supports' intersection, which passes both by construction. The pass makes
the third, each weight sum, which the scenario can fail too. Positive
weights and unit terms hold by construction.
The terms are written in place into one preallocated array (the state, the
completion, the basis), and norms are summed squares, not
``numpy.linalg.norm`` calls, so each quantity costs about one numpy call.
:func:`ensemble_containing` is the checker and that pass for one matrix,
whose terms the :class:`Ensemble` constructor then checks in full. The
tests run ``check_stacked_ensembles`` in ``tests/conftest.py``, the
ensemble checks on stacked ensembles, over the pass's output as the oracle
of the checks it leaves out.

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
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
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
    _check_elements,
    _check_tol,
    _eigh,
    _fix_columns,
    _householder_completions,
    as_complex_vector,
    as_dim,
    read_only,
)

#: Absolute tolerance on a total probability that must be one: the trace of a
#: density matrix, the weight sum of an ensemble.
TRACE_TOL = 1e-8

#: Floor of every zero cutoff: the largest eigenvalue is taken as at least
#: this, so an all-zero spectrum still has a positive cutoff.
_CUTOFF_FLOOR = 1e-30


@dataclass(frozen=True, eq=False, init=False)
class DensityMatrix:
    """A validated density matrix and its one eigendecomposition.

    ``DensityMatrix(m, tol)`` is the validation; there is no other way to
    make one. The checks run in this order: ``tol`` is a
    :class:`~statecompat.linalg.Tolerances`, M converts to a complex array,
    has two axes, is not empty, has finite entries, is square, its
    Hermiticity defect is at most ``tol.match_abs``, the eigendecomposition
    of (M + M^dag)/2 succeeds (one :func:`statecompat.linalg._eigh`, the
    bits of ``np.linalg.eigh`` without its wrapper; a ``LinAlgError``
    becomes :class:`~statecompat.errors.NumericalFailureError`), the trace
    is one within :data:`TRACE_TOL`, and no eigenvalue is negative beyond
    the zero cutoff. The shape and finiteness checks are
    :func:`statecompat.linalg._as_finite`, the one coercion of every checked
    array, so a non-finite entry is refused before it reaches M - M^dag,
    where an infinite one would raise a floating-point warning. The
    eigenvalues are put in descending order and the eigenvector columns
    phase-fixed (see
    :func:`statecompat.linalg._fix_columns`); eigenvalues within the
    negative tolerance band are clamped to zero and the matrix rebuilt from
    its spectrum, and the trace is renormalized to exactly one.

    ``matrix`` is the cleaned, exactly Hermitian matrix the pairwise
    conditions need, and ``spectrum`` its eigendecomposition (eigenvalues
    descending, eigenvectors phase-fixed), clamped and scaled the same way;
    supports, null spaces and ensembles read it instead of diagonalizing
    again. A validated matrix stays as validated, so its readers need not
    check it again: it is frozen, like every checked type of the package,
    and the three arrays are read-only. Copies and unpickled matrices keep
    the original's bits and are read-only too, without a second validation.
    """

    matrix: np.ndarray
    spectrum: EigResult

    def __init__(self, m, tol: Tolerances = DEFAULT_TOL):
        _check_tol(tol)
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
            values, vectors = _eigh(sym)
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
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "spectrum", EigResult(values, vectors))

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
    ``dim`` must be a positive integer. Each state is coerced to a finite
    vector of length ``dim``; then the first of these checks that fails
    raises: every weight positive (the first that is not is named), every
    state of unit norm within :data:`UNIT_TOL` (the first that is not is
    named), the weight sum one within :data:`TRACE_TOL`. The weights are
    kept as given. An ensemble cannot change after its checks: it is
    frozen, and ``terms`` is a tuple of (float weight, state) pairs whose
    states are rows of one read-only array of its own, so every reader can
    rely on the checks. Copies and pickles are made by the constructor, so
    they are checked and read-only too, and keep every bit of their terms.
    ``check_stacked_ensembles`` in ``tests/conftest.py`` makes the same
    checks on stacked ensembles, as the oracle of :func:`_ensembles_around`.
    """

    dim: int
    terms: tuple[tuple[float, np.ndarray], ...]

    def __post_init__(self):
        object.__setattr__(self, "dim", as_dim(self.dim, "ensemble dimension"))
        if not self.terms:
            raise StateCompatError("ensemble must contain at least one term")
        try:
            weights = [float(w) for w, _ in self.terms]
        except (TypeError, ValueError) as exc:
            raise StateCompatError(f"ensemble terms must be (real weight, state) pairs: {exc}") from exc
        states = read_only([as_complex_vector(s, self.dim) for _, s in self.terms])
        bad = [w for w in weights if not w > 0.0]
        if bad:
            raise StateCompatError(f"ensemble weights must be positive, got {bad[0]!r}")
        norms = np.sqrt((states.conj() * states).real.sum(axis=1)).tolist()
        bad = [v for v in norms if not abs(v - 1.0) <= UNIT_TOL]
        if bad:
            raise StateCompatError(f"ensemble state is not unit norm (|v| = {bad[0]:.12g})")
        total = np.sum(weights)
        if not abs(total - 1.0) <= TRACE_TOL:
            raise StateCompatError(f"ensemble weights sum to {total:.12g}, outside 1 +- {TRACE_TOL}")
        object.__setattr__(self, "terms", tuple(zip(weights, states)))

    def __reduce__(self):
        return (Ensemble, (self.dim, self.terms))


def validate_density(m, tol: Tolerances = DEFAULT_TOL) -> DensityMatrix:
    """Check Hermiticity, trace one, and positivity; return the cleaned matrix.

    The same as ``DensityMatrix(m, tol)``, whose constructor is the
    validation (see :class:`DensityMatrix`).
    """
    return DensityMatrix(m, tol)


def _rank_split(values: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """The zero cutoffs, kept eigenvalues and ranks of spectra stacked along the last axis.

    The one rank decision of the package: an eigenvalue is kept when it lies
    above its spectrum's zero cutoff, ``tol.rank_rel`` times its largest
    value, taken as at least :data:`_CUTOFF_FLOOR`. The spectra are
    descending, so the largest value is the leading one, read instead of
    reduced; ``reduced_cutoffs`` in ``tests/conftest.py`` reduces, as the
    oracle of these bits. The kept ones lead and ``kept[..., i]`` is
    ``i < rank``.
    """
    cutoffs = tol.rank_rel * np.maximum(values[..., 0], _CUTOFF_FLOOR)
    kept = values > cutoffs[..., None]
    return cutoffs, kept, np.add.reduce(kept, axis=-1)


def _check_rhos(rhos, tol: Tolerances) -> list[DensityMatrix]:
    """The set as a list: at least one :class:`DensityMatrix`, and nothing else, all of one size.

    ``tol`` must be a :class:`statecompat.linalg.Tolerances`; it is checked
    first. Every function that reads a set or a matrix's support runs this
    one check, through :func:`_spectra` or directly, so a wrong argument
    gets a :class:`StateCompatError`, never an ``AttributeError``.
    """
    _check_tol(tol)
    rhos = _check_elements(rhos, DensityMatrix)
    if not rhos:
        raise StateCompatError("need at least one density matrix")
    if len({rho.dim for rho in rhos}) > 1:
        raise DimensionMismatchError("density matrices have different dimensions")
    return rhos


class _Spectra(NamedTuple):
    """The stacked spectra of a set and their one rank split, as :func:`_spectra` makes them.

    ``values`` (n, d) and ``vectors`` (n, d, d) are the eigenvalues and
    eigenvectors of n validated matrices of one size; ``cutoffs`` (n,),
    ``kept`` (n, d) and ``ranks`` (n,) are their zero cutoffs, kept
    eigenvalues and ranks from :func:`_rank_split`.
    """

    values: np.ndarray
    vectors: np.ndarray
    cutoffs: np.ndarray
    kept: np.ndarray
    ranks: np.ndarray


def _spectra(rhos, tol: Tolerances) -> _Spectra:
    """The stacked spectra of the set ``rhos`` and their one rank split.

    The set is checked first, by :func:`_check_rhos`.
    """
    rhos = _check_rhos(rhos, tol)
    values = np.array([r.spectrum.eigenvalues for r in rhos])
    return _Spectra(values, np.array([r.spectrum.eigenvectors for r in rhos]), *_rank_split(values, tol))


def support(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue above the zero cutoff."""
    spectra = _spectra([rho], tol)
    return Subspace(rho.dim, spectra.vectors[0, :, :spectra.ranks[0]])


def null_space(rho: DensityMatrix, tol: Tolerances = DEFAULT_TOL) -> Subspace:
    """Span of the eigenvectors with eigenvalue at or below the zero cutoff.

    Together with :func:`support` this exhausts the space: the two projectors
    sum to the identity.
    """
    spectra = _spectra([rho], tol)
    return Subspace(rho.dim, spectra.vectors[0, :, spectra.ranks[0]:])


def _check_state(spectra: _Spectra, phi: np.ndarray, tol: Tolerances) -> None:
    """Refuse a state ``phi`` (a coerced d-vector) that :func:`_ensembles_around` cannot take.

    ``spectra`` is the :class:`_Spectra` record the pass reads. Two checks,
    with the messages of the :class:`Ensemble` constructor, in this order:
    the largest support defect, phi's distance from a support, read as the
    norm of its coefficients on that matrix's null-space eigenvectors (above
    ``tol.match_abs`` it raises :class:`StateOutsideSupportError`, quoting
    it), then the unit norm of phi within :data:`UNIT_TOL`, checked once
    since phi is the one term a caller supplies. :func:`ensemble_containing`,
    where a caller's state enters, runs it before the pass. The scenario
    does not: its phi is the witness of the supports' intersection, at most
    ``match_abs/sqrt(2)`` from them in root-sum-square and a unit vector
    from the SVD, so neither check could fail there.
    """
    null = phi @ (spectra.vectors * ~spectra.kept[:, None]).conj()  # N_k^dag phi, N_k the null space
    defect = math.sqrt(max(np.add.reduce((null.conj() * null).real, axis=1).tolist()))
    if defect > tol.match_abs:
        raise StateOutsideSupportError(f"state has a null-space component (projection defect {defect:.3e}); "
                                       "no ensemble for this density matrix can contain it")
    norm = math.sqrt(np.add.reduce((phi.conj() * phi).real))
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise StateCompatError(f"ensemble state is not unit norm (|v| = {norm:.12g})")


def _ensembles_around(spectra: _Spectra, phi: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """The :func:`ensemble_containing` ensembles of n spectra around one state, all at once.

    ``spectra`` is the :class:`_Spectra` record of n validated matrices,
    read by name: their stacked ``values`` (n, d) and ``vectors`` (n, d, d)
    with the ``cutoffs``, ``kept`` and ``ranks`` of :func:`_rank_split`; and
    ``phi`` is a coerced unit d-vector in every support. Row k of the result
    is ensemble k as 2R candidate terms, R the largest rank, of which
    ``keep`` marks the real ones: phi with weight r_0, the completion (R - 1
    columns, weight r_0), then the eigenvectors with their surplus r_i - r_0
    (R columns). The terms are written in place into one (n, d, 2R) array,
    returned as its (n, 2R, d) view: each support basis is cut to R, its
    columns past its own rank zeroed, so one batched product gives every
    coefficient vector and one :func:`_householder_completions` call every
    completion. The weights are returned as computed, with their sums over
    the kept terms, so that each caller divides them once; the arrays are
    new, so a caller may write into them.

    phi itself is not checked here: :func:`_check_state` refuses a state
    outside a support or off the unit sphere, and :func:`ensemble_containing`
    runs it first, while the scenario's phi, the witness of the
    intersection, passes it by construction. The one check made here is
    each weight sum within :data:`TRACE_TOL`, with the message of the
    :class:`Ensemble` constructor; it can fail on the scenario path too,
    where a large ``tol.rank_rel`` drops eigenvalues. The constructor's
    other checks hold by construction: a kept weight is r_0 or a kept
    surplus, each above a zero cutoff greater than 0; a kept eigenvector is
    a column of a validated spectrum, and a completion a Householder
    reflection of an orthonormal support basis. ``check_stacked_ensembles``
    in ``tests/conftest.py``, the constructor's checks on stacked
    ensembles, is the oracle that the tests run over this output.
    """
    n, d = spectra.values.shape
    top = max(1, *spectra.ranks.tolist())
    inside = spectra.kept[:, :top]
    r0 = np.minimum.reduce(spectra.values, axis=1, where=spectra.kept, initial=np.inf)[:, None]  # least kept
    weights, keep = np.empty((n, 2 * top)), np.empty((n, 2 * top), dtype=bool)
    states = np.empty((n, d, 2 * top), dtype=np.complex128)
    weights[:, :top] = r0
    surplus = np.subtract(spectra.values[:, :top], r0, out=weights[:, top:])
    keep[:, :top] = inside  # phi too: a validated matrix's largest eigenvalue is kept
    # a surplus past rank k is below 0, so above its cutoff means kept and inside
    np.greater(surplus, spectra.cutoffs[:, None], out=keep[:, top:])
    states[:, :, 0] = phi
    basis = np.multiply(spectra.vectors[:, :, :top], inside[:, None], out=states[:, :, top:])
    coeffs = (phi.conj() @ basis).conj()  # U_k^dag phi, zero past rank k
    states[:, :, 1:top] = _householder_completions(basis, coeffs)
    totals = np.add.reduce(np.where(keep, weights, 0.0), axis=1)
    for total in totals.tolist():
        if not abs(total - 1.0) <= TRACE_TOL:
            raise StateCompatError(f"ensemble weights sum to {total:.12g}, outside 1 +- {TRACE_TOL}")
    return weights, totals, states.transpose(0, 2, 1), keep


def ensemble_containing(rho: DensityMatrix, psi, tol: Tolerances = DEFAULT_TOL) -> Ensemble:
    """Decompose ``rho`` into an ensemble in which the unit vector ``psi`` appears.

    ``psi`` must lie in the support of ``rho`` (within ``tol.match_abs``); it
    enters with weight equal to the smallest nonzero eigenvalue r_0. The
    remaining terms are the other members of an orthonormal support basis
    completing ``psi`` (each with weight r_0; they lie in the support and are
    orthogonal to ``psi``) and the eigenvectors whose surplus r_i - r_0 is
    nonzero. Everything is read from ``rho.spectrum``: :func:`_check_state`
    refuses ``psi`` when it lies outside the support or is not of unit norm,
    and :func:`_ensembles_around` then decomposes this one matrix, checking
    the weight sum; the weights it keeps are divided once by their sum, and
    the :class:`Ensemble` constructor keeps them as given and checks the
    rest.
    """
    spectra, psi = _spectra([rho], tol), as_complex_vector(psi, rho.dim)
    _check_state(spectra, psi, tol)
    weights, _, states, keep = _ensembles_around(spectra, psi, tol)
    weights = weights[keep]
    return Ensemble(rho.dim, list(zip((weights / weights.sum()).tolist(), states[keep])))
