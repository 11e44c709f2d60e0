"""Shared helpers and independent oracles.

The oracles here deliberately avoid the code paths they are used to check:
the partial trace is a plain index sum, and intersection dimensions come from
the rank formula on concatenated bases (null-space folding), not from the
single SVD of stacked complement projectors used by the library. Helpers the
library no longer needs (tensor products, a reshaping partial trace, spans,
complements, eigen-ensembles, JSON vector parsing, the dense form of a block
state, the SVD basis completion, the completion of one vector to a basis of
one subspace, the all-zero outcome probability of a joint state, the phase
convention on a vector or a matrix of any dtype, the zero cutoff reduced over
each whole spectrum, the ensemble checks on stacked, masked ensembles) live
here as references for the tests that use them, and are checked themselves.
:func:`unchecked_density` builds a :class:`DensityMatrix` record around
given bits, past the constructor's validation: the validation oracle's
result, and a record that validation would refuse for an error-path test. So
do the earlier forms of nine library paths: the phase convention with every
anchor found by argmax, validation through a separately coerced, symmetrized
and diagonalized matrix, the support split with every direction phase-fixed
and wrapped, the pairwise conditions one pair at a time, the scenario one
observer at a time (one Householder completion, one checked ensemble and one
recovered matrix per observer), the scenario's ensemble pass and its batched
Householder completion as they were when the pass checked its state itself,
the planted compatible instance one
extra term at a time, and the frame instance (incompatible and
pairwise-only) one slice at a time. The instance reader keeps its earlier
decoder, the standard ``json`` alone, as the oracle of the orjson path, and
the writer keeps its earlier route, every array turned into lists and each
leaf written as text, as the oracle of the bytes it now writes from the
arrays themselves. The files the writer writes are checked against the
spelling of ``json.dumps`` value by value, with floats compared bit for bit.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import struct
from functools import reduce
from math import prod
from unittest import mock

import numpy as np
import orjson

from statecompat import fileio, linalg
from statecompat.density import TRACE_TOL, DensityMatrix, Ensemble, validate_density
from statecompat.errors import (
    CommonStateMismatchError,
    DimensionMismatchError,
    IncompatibleError,
    NotHermitianError,
    NotPositiveError,
    NotSquareError,
    NumericalFailureError,
    StateCompatError,
    StateOutsideSupportError,
    TraceNotOneError,
)
from statecompat.generate import random_density, random_unit_vector, random_unitary
from statecompat.linalg import (
    DEFAULT_TOL,
    PHASE_FLOOR,
    UNIT_TOL,
    EigResult,
    Subspace,
    _fix_columns,
    _householder_completions,
    as_complex_vector,
)
from statecompat.scenario import BlockState, CompositeState, ScenarioResult


def tensor_product_vec(vs) -> np.ndarray:
    """Kronecker product of one or more vectors; the leftmost factor varies slowest."""
    return reduce(np.kron, [np.asarray(v, dtype=np.complex128) for v in vs])


def partial_trace(m, dims, keep) -> np.ndarray:
    """Trace out every tensor factor not in ``keep``, by numpy.trace on reshaped axes."""
    dims = list(dims)
    tensor = np.asarray(m).reshape(dims + dims)
    remaining = list(range(len(dims)))
    for j in sorted(set(remaining) - set(keep), reverse=True):
        pos = remaining.index(j)
        tensor = np.trace(tensor, axis1=pos, axis2=pos + len(remaining))
        remaining.remove(j)
    kept = prod(dims[j] for j in sorted(keep))
    return np.asarray(tensor).reshape(kept, kept)


def span_of(pooled: np.ndarray, rel: float = 1e-10) -> Subspace:
    """Orthonormal basis of the column span of ``pooled``, rank by a relative singular-value cutoff."""
    d = pooled.shape[0]
    if pooled.shape[1] == 0:
        return Subspace(d, np.zeros((d, 0)))
    u, s, _ = np.linalg.svd(pooled, full_matrices=False)
    return Subspace(d, u[:, : int(np.sum(s > rel * max(s[0], 1e-30)))])


def projection_defect(subspace: Subspace, v) -> float:
    """Euclidean distance between ``v`` and its projection onto the subspace."""
    v = np.asarray(v, dtype=np.complex128)
    return float(np.linalg.norm(v - subspace.basis @ (subspace.basis.conj().T @ v)))


def subspace_span_union(subspaces) -> Subspace:
    """Span of all basis vectors pooled across the subspaces."""
    return span_of(np.hstack([s.basis for s in subspaces]))


def orthogonal_complement(subspace: Subspace) -> Subspace:
    """Orthogonal complement, from the trailing left singular vectors of the basis."""
    d, k = subspace.ambient_dim, subspace.dim
    if k == 0:
        return Subspace(d, np.eye(d))
    u, _, _ = np.linalg.svd(subspace.basis, full_matrices=True)
    return Subspace(d, u[:, k:])


def ensemble_to_density(ensemble: Ensemble):
    """Weighted sum of the state projectors, sum_i p_i |phi_i><phi_i|, validated."""
    return validate_density(sum(w * np.outer(s, s.conj()) for w, s in ensemble.terms))


def eigen_ensemble(rho) -> Ensemble:
    """The eigenvectors of nonzero eigenvalue (relative cutoff 1e-10), weights descending."""
    w, v = np.linalg.eigh(rho.matrix)
    kept = np.flatnonzero(w > 1e-10 * w.max())[::-1]
    return Ensemble(rho.dim, [(float(w[i]), v[:, i]) for i in kept])


def pairs_to_vector(pairs) -> np.ndarray:
    """A complex vector from its JSON spelling as [re, im] pairs."""
    return np.array([complex(re, im) for re, im in pairs], dtype=np.complex128)


def fix_phase(v: np.ndarray) -> np.ndarray:
    """The library's phase convention on a vector or on each column of a matrix.

    Coerces to complex128 and hands the columns to
    :func:`statecompat.linalg._fix_columns`, which the library calls on
    arrays that are already complex128 and 2-d.
    """
    v = np.asarray(v, dtype=np.complex128)
    return _fix_columns(v.reshape(v.shape[0], -1)).reshape(v.shape)


def unchecked_density(matrix, spectrum: EigResult) -> DensityMatrix:
    """A :class:`DensityMatrix` record on a matrix and spectrum as given, not validated.

    The record is frozen, so its fields are set as its constructor sets them.
    """
    rho = object.__new__(DensityMatrix)
    object.__setattr__(rho, "matrix", matrix)
    object.__setattr__(rho, "spectrum", spectrum)
    return rho


def reduced_cutoffs(values: np.ndarray, tol=DEFAULT_TOL) -> np.ndarray:
    """Threshold below which an eigenvalue counts as zero, each spectrum's maximum reduced.

    ``tol.rank_rel`` times the largest value present, with the library's
    absolute floor of 1e-30 as the maximum's initial value, so an all-zero
    spectrum still yields a positive cutoff. A stack of spectra (along the
    last axis) gets one cutoff each. The library's rank split reads a
    descending spectrum's leading value instead, and must give these bits.
    """
    return tol.rank_rel * np.maximum.reduce(values, axis=-1, initial=1e-30)


def check_stacked_ensembles(weights: np.ndarray, states: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The weight sums of n stacked ensembles, after checking that each is one.

    Row k holds ensemble k: the terms of ``weights`` (n, m) and ``states``
    (n, m, d) where ``keep`` (n, m) is set. The first row that fails raises
    the first of these checks it fails, with the messages of the
    :class:`Ensemble` constructor: positive weights, unit states within
    :data:`UNIT_TOL`, a weight sum within :data:`TRACE_TOL` of one. The
    states are finite. The tests run it over the scenario kernel's output,
    as the oracle of the checks that kernel leaves out, and check it against
    the constructor one ensemble at a time.
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


def loop_fix_phase(v: np.ndarray) -> np.ndarray:
    """The phase convention one entry at a time: first modulus > 1e-8 made real positive."""
    for x in v:
        if abs(x) > PHASE_FLOOR:
            return v * (x.conjugate() / abs(x))
    return np.array(v, dtype=np.complex128)


#: The package's one LAPACK entry: a count's key and the name of the gufunc it counts.
LAPACK_GUFUNCS = {"eigh": "_EIGH_GUFUNC", "svd": "_SVD_GUFUNC"}


@contextlib.contextmanager
def count_linalg():
    """Count the eigh and SVD calls the package makes inside the block.

    Every one goes through :mod:`statecompat.linalg`'s LAPACK entry, which
    reads its gufunc from a module-level name at each call; the names are
    patched here, so a call counts however the package reaches it.
    """
    counts = dict.fromkeys(LAPACK_GUFUNCS, 0)
    originals = {name: getattr(linalg, attr) for name, attr in LAPACK_GUFUNCS.items()}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in originals.items():
        setattr(linalg, LAPACK_GUFUNCS[name], counting(name, fn))
    try:
        yield counts
    finally:
        for name, fn in originals.items():
            setattr(linalg, LAPACK_GUFUNCS[name], fn)


def nan_fed(gufunc):
    """``gufunc`` run on a NaN-filled copy of its input, where LAPACK fails for real and flags it."""
    def failing(a, **kwargs):
        return gufunc(np.full_like(a, np.nan), **kwargs)
    return failing


def loop_partial_trace(m: np.ndarray, dims: list[int], keep) -> np.ndarray:
    """Partial trace by explicit index summation."""
    keep = sorted(set(keep))
    traced = [i for i in range(len(dims)) if i not in keep]
    kept_dims = [dims[i] for i in keep]
    traced_dims = [dims[i] for i in traced]
    out = np.zeros((prod(kept_dims), prod(kept_dims)), dtype=np.complex128)

    def flat(kept_idx, traced_idx):
        full = [0] * len(dims)
        for pos, val in zip(keep, kept_idx):
            full[pos] = val
        for pos, val in zip(traced, traced_idx):
            full[pos] = val
        return np.ravel_multi_index(full, dims)

    for row in np.ndindex(*kept_dims):
        for col in np.ndindex(*kept_dims):
            acc = 0.0 + 0.0j
            for t in np.ndindex(*traced_dims):
                acc += m[flat(row, t), flat(col, t)]
            out[
                np.ravel_multi_index(row, kept_dims),
                np.ravel_multi_index(col, kept_dims),
            ] = acc
    return out


def intersect_pair_nullspace(a: np.ndarray, b: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    """Basis of span(a) & span(b) from the null space of the stacked matrix [a, -b].

    The column count equals dim(a) + dim(b) - rank([a, b]), the rank formula.
    """
    d = a.shape[0]
    if a.shape[1] == 0 or b.shape[1] == 0:
        return np.zeros((d, 0), dtype=np.complex128)
    stacked = np.hstack([a, -b])
    _, s, vh = np.linalg.svd(stacked)
    rank = int(np.sum(s > tol))
    n_common = stacked.shape[1] - rank
    if n_common == 0:
        return np.zeros((d, 0), dtype=np.complex128)
    null_basis = vh[rank:].conj().T
    vectors = a @ null_basis[: a.shape[1], :]
    q, _ = np.linalg.qr(vectors)
    return q[:, :n_common]


def rank_formula_intersection_dim(bases: list[np.ndarray], tol: float = 1e-8) -> int:
    """Fold the rank-formula intersection pairwise across a family of bases."""
    current = bases[0]
    for b in bases[1:]:
        current = intersect_pair_nullspace(current, b, tol)
    return current.shape[1]


def proj(basis: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the column span of an orthonormal basis."""
    return basis @ basis.conj().T


def dense_joint_tensor(ensembles) -> np.ndarray:
    """The multi-observer joint state as a full tensor over (ancilla 1, ..., ancilla N, system).

    A direct dense construction, kept as the oracle for the block layout of
    ``statecompat.scenario``: it allocates every amplitude, so use it only for
    a few observers on small systems.
    """
    n = len(ensembles)
    phi = ensembles[0].terms[0][1]
    extras = [len(e.terms) - 1 for e in ensembles]
    ancilla_dims = [1 + max(extras[k] for k in range(n) if k != j) for j in range(n)]
    tensor = np.zeros(ancilla_dims + [ensembles[0].dim], dtype=np.complex128)
    tensor[(0,) * n] = phi
    for k, ensemble in enumerate(ensembles):
        p_k = ensemble.terms[0][0]
        for i, (weight, state) in enumerate(ensemble.terms[1:], start=1):
            pattern = tuple(0 if j == k else i for j in range(n))
            tensor[pattern] = np.sqrt(weight / p_k) * state
    return tensor / np.linalg.norm(tensor)


def dense_conditional(tensor: np.ndarray, k: int) -> np.ndarray:
    """The slab of a dense joint tensor with ancilla k at level 0, renormalized."""
    slab = np.take(tensor, 0, axis=k)
    return slab / np.linalg.norm(slab)


def block_tensor(state: BlockState) -> np.ndarray:
    """The dense amplitude tensor of a block state, shape ancilla_dims + [system_dim]."""
    tensor = np.zeros((*state.ancilla_dims, state.system_dim), dtype=np.complex128)
    tensor[tuple(state.patterns.T)] = state.amplitudes
    return tensor


def dense_to_blocks(v: np.ndarray, dims, system_index: int) -> BlockState:
    """A dense vector over ``dims`` as a block state: every ancilla basis state one block, system last."""
    dims = list(dims)
    tensor = np.moveaxis(np.asarray(v).reshape(dims), system_index, -1)
    ancillas = dims[:system_index] + dims[system_index + 1:]
    patterns = np.array(list(np.ndindex(*ancillas)), dtype=np.intp).reshape(-1, len(ancillas))
    return BlockState(ancillas, dims[system_index], patterns, tensor.reshape(-1, dims[system_index]))


def svd_completion(psi: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """[psi, completion]: the leading left singular vectors of the basis with psi projected out.

    Removing the psi component from an orthonormal basis of k columns leaves
    k - 1 unit singular values, so no threshold is needed. The library's
    Householder completion must span the same columns without an SVD.
    """
    k = basis.shape[1]
    rest = basis - np.outer(psi, psi.conj() @ basis)
    u, _, _ = np.linalg.svd(rest, full_matrices=False)
    return fix_phase(np.column_stack((psi, u[:, : k - 1])))


def reference_fix_phase(v: np.ndarray) -> np.ndarray:
    """The phase convention with each column's anchor found by argmax, as the library had it.

    The library now reads the anchors from the first row when all of them
    lie there, and must give the same bits.
    """
    v = np.asarray(v, dtype=np.complex128)
    cols = v.reshape(v.shape[0], -1)
    big = np.abs(cols) > PHASE_FLOOR
    first, columns = big.argmax(axis=0), np.arange(cols.shape[1])
    lead = np.where(big[first, columns], cols[first, columns], 1.0)  # unanchored: phase 1
    return (cols * (lead.conj() / np.abs(lead))).reshape(v.shape)


def reference_square_matrix(m) -> np.ndarray:
    """Coerce to complex128 and check one step at a time, with validation's classes and messages.

    Readable, two axes, not empty, finite entries, square: the checks the
    library folds into one probe.
    """
    try:
        m = np.array(m, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise StateCompatError(f"cannot read the matrix as an array of numbers: {exc}") from exc
    if m.ndim != 2:
        raise StateCompatError(f"expected a 2-d matrix, got shape {m.shape}")
    if m.size == 0:
        raise StateCompatError("matrix must not be empty")
    if not np.isfinite(m).all():
        raise StateCompatError("matrix contains non-finite entries")
    if m.shape[0] != m.shape[1]:
        raise NotSquareError(f"matrix is {m.shape[0]}x{m.shape[1]}, not square")
    return m


def reference_hermitian_eig(m, tol=DEFAULT_TOL) -> EigResult:
    """Coerce, check the Hermiticity defect by numpy.linalg.norm, symmetrize, eigh, order, fix phases."""
    m = reference_square_matrix(m)
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
    return EigResult(np.real(w[::-1]).copy(), reference_fix_phase(v[:, ::-1]))


def reference_validate_density(m, tol=DEFAULT_TOL) -> DensityMatrix:
    """validate_density through reference_hermitian_eig, coercing and symmetrizing separately."""
    m = reference_square_matrix(m)
    eig = reference_hermitian_eig(m, tol)
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
    return unchecked_density(sym / trace, EigResult(values / trace, eig.eigenvectors))


def reference_split(rhos, tol=DEFAULT_TOL) -> tuple[Subspace, Subspace, np.ndarray]:
    """Intersection, forbidden subspace and ascending defects, every direction phase-fixed.

    The support split as the library first built it: one SVD of the stacked
    conjugated null-space eigenvectors (zero-padded to d rows), all d right
    singular vectors phase-fixed and both subspaces wrapped; a single
    matrix's intersection is its phase-fixed support basis.
    """
    values = np.array([r.spectrum.eigenvalues for r in rhos])
    vectors = np.array([r.spectrum.eigenvectors for r in rhos])
    ranks = (values > reduced_cutoffs(values, tol)[:, None]).sum(axis=1)
    dim = values.shape[1]
    rows = vectors.transpose(0, 2, 1)[np.arange(dim) >= ranks[:, None]].conj()
    if rows.shape[0] < dim:
        rows = np.concatenate((rows, np.zeros((dim - rows.shape[0], dim))))
    _, sigma, vh = np.linalg.svd(rows, full_matrices=False)
    defects = sigma[::-1].copy()
    directions = reference_fix_phase(vh[::-1].conj().T)
    count = int(np.sum(defects <= tol.match_abs / np.sqrt(2.0)))
    single = len(rhos) == 1
    inside = reference_fix_phase(vectors[0, :, : ranks[0]]) if single else directions[:, :count]
    return Subspace(dim, inside), Subspace(dim, directions[:, count:]), defects


def loop_pairwise(rhos, tol=DEFAULT_TOL) -> tuple[np.ndarray, ...]:
    """Commute flags, commutator norms, product flags and overlaps, one pair of matrices at a time."""
    n = len(rhos)
    commute_flags = np.ones((n, n), dtype=bool)
    residuals = np.zeros((n, n))
    product_flags = np.ones((n, n), dtype=bool)
    overlaps = np.zeros((n, n))
    for i in range(n):
        a = rhos[i].matrix
        overlaps[i, i] = float(np.trace(a @ a).real)
        for j in range(i + 1, n):
            b = rhos[j].matrix
            residual = float(np.linalg.norm(a @ b - b @ a))
            overlap = float(np.trace(a @ b).real)
            commute_flags[i, j] = commute_flags[j, i] = residual <= tol.match_abs
            residuals[i, j] = residuals[j, i] = residual
            product_flags[i, j] = product_flags[j, i] = overlap > tol.rank_rel
            overlaps[i, j] = overlaps[j, i] = overlap
    return commute_flags, residuals, product_flags, overlaps


def householder_completion(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The k - 1 columns completing ``basis @ coeffs`` to a basis, for one d x k basis.

    The single-vector form of the library's batched completion: with
    v = c/|c| + e^{i arg c_1} e_1, the columns 2..k of U (I - 2 v v^dag / v^dag v).
    """
    v = coeffs / np.sqrt(np.vdot(coeffs, coeffs).real)
    lead = abs(v[0])
    v[0] += v[0] / lead if lead > 0.0 else 1.0
    scale = 1.0 / (1.0 + lead)  # 2 / (v^dag v)
    return basis[:, 1:] - (basis @ v)[:, None] * (scale * v[1:].conj())


def earlier_householder_completions(basis: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The batched completion in its earlier form: a ``where`` per guarded division and ``sum``.

    The library's :func:`statecompat.linalg._householder_completions` does
    the same arithmetic in fewer numpy calls and must give these bits.
    """
    norms = np.sqrt((coeffs.conj() * coeffs).real.sum(axis=1))
    v = coeffs / np.where(norms > 0.0, norms, 1.0)[:, None]
    lead = np.abs(v[:, 0])
    v[:, 0] += v[:, 0] / np.where(lead > 0.0, lead, 1.0) + (lead == 0.0)
    scale = 1.0 / (1.0 + lead)  # 2 / (v^dag v)
    return basis[:, :, 1:] - (basis @ v[:, :, None]) * (scale[:, None] * v[:, 1:].conj())[:, None]


def earlier_ensembles_around(spectra, phi: np.ndarray, tol=DEFAULT_TOL) -> tuple[np.ndarray, ...]:
    """The scenario's ensemble pass in its earlier form, which checked phi itself.

    In this order: the largest support defect (above ``tol.match_abs`` it
    raises :class:`StateOutsideSupportError`), the unit norm of phi within
    :data:`UNIT_TOL`, each weight sum within :data:`TRACE_TOL`. The library
    checks phi in :func:`statecompat.density._check_state` and makes only
    the last check in :func:`statecompat.density._ensembles_around`, whose
    four arrays must be these bits.
    """
    n, d = spectra.values.shape
    top = max(1, *spectra.ranks.tolist())
    inside = spectra.kept[:, :top]
    r0 = np.minimum.reduce(spectra.values, axis=1, where=spectra.kept, initial=np.inf)
    weights, keep = np.empty((n, 2 * top)), np.empty((n, 2 * top), dtype=bool)
    states = np.empty((n, d, 2 * top), dtype=np.complex128)
    weights[:, :top] = r0[:, None]
    surplus = np.subtract(spectra.values[:, :top], r0[:, None], out=weights[:, top:])
    keep[:, :top] = inside
    np.logical_and(inside, surplus > spectra.cutoffs[:, None], out=keep[:, top:])
    keep[:, 0] = True
    states[:, :, 0] = phi
    basis = np.multiply(spectra.vectors[:, :, :top], inside[:, None], out=states[:, :, top:])
    coeffs = (phi.conj() @ basis).conj()
    states[:, :, 1:top] = earlier_householder_completions(basis, coeffs)
    gap = phi - (basis @ coeffs[:, :, None])[:, :, 0]
    defect = math.sqrt(max((gap.conj() * gap).real.sum(axis=1).tolist()))
    if defect > tol.match_abs:
        raise StateOutsideSupportError(
            f"state has a null-space component (projection defect {defect:.3e}); "
            "no ensemble for this density matrix can contain it"
        )
    norm = math.sqrt((phi.conj() * phi).real.sum())
    if not abs(norm - 1.0) <= UNIT_TOL:
        raise StateCompatError(f"ensemble state is not unit norm (|v| = {norm:.12g})")
    totals = np.where(keep, weights, 0.0).sum(axis=1)
    for total in totals.tolist():
        if not abs(total - 1.0) <= TRACE_TOL:
            raise StateCompatError(f"ensemble weights sum to {total:.12g}, outside 1 +- {TRACE_TOL}")
    return weights, totals, states.transpose(0, 2, 1), keep


class OutsideSubspaceError(StateCompatError):
    """The vector :func:`orthonormal_basis_containing` must complete lies outside the subspace."""


def orthonormal_basis_containing(psi, subspace: Subspace, tol=DEFAULT_TOL) -> Subspace:
    """Complete a unit vector inside ``subspace`` to an orthonormal basis of it.

    The first column is ``psi`` rescaled to unit norm; the others come from
    the library's batched Householder completion of this one basis, so they
    lie in ``subspace`` and are orthogonal to ``psi`` even when ``psi`` is up
    to ``tol.match_abs`` off it. Every column follows the phase convention.
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
        raise OutsideSubspaceError(
            f"vector lies outside the subspace (projection defect {defect:.3e})"
        )
    rest = _householder_completions(subspace.basis[None], coeffs[None])[0]
    return Subspace(subspace.ambient_dim, fix_phase(np.column_stack((psi / norm, rest))))


def loop_ensemble_containing(rho, psi, tol=DEFAULT_TOL) -> Ensemble:
    """ensemble_containing for one matrix: rank, defect, completion, surplus, a checked Ensemble."""
    psi = as_complex_vector(psi)
    if psi.shape[0] != rho.dim:
        raise DimensionMismatchError(
            f"vector length {psi.shape[0]} != ambient dimension {rho.dim}"
        )
    values, vectors = rho.spectrum.eigenvalues, rho.spectrum.eigenvectors
    rank = int(np.sum(values > reduced_cutoffs(values, tol)))
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
    extra = np.flatnonzero(surplus > reduced_cutoffs(values, tol))
    terms = [(r0, psi)]
    terms += [(r0, state) for state in householder_completion(basis, coeffs).T]
    terms += [(float(surplus[i]), vectors[:, i]) for i in extra]
    return Ensemble(rho.dim, terms)


def joint_zero_outcome_probability(psi: CompositeState) -> float:
    """Probability that every observer finds their ancilla at level 0.

    It is the squared norm of the all-zero pattern's block.
    """
    block = psi.amplitudes[~psi.patterns.any(axis=1)]
    return float(np.vdot(block, block).real)


def loop_scenario(rhos, phi, tol=DEFAULT_TOL) -> tuple[CompositeState, ScenarioResult]:
    """The scenario around ``phi`` one observer at a time; returns the joint state and the result.

    One checked ensemble per observer, the joint state from Python lists of
    scaled terms, and each observer's level-0 rows (the all-zero row and
    its own block) reduced to the unit-trace Gram matrix on their own.
    """
    if phi is None:
        raise IncompatibleError("the supports share no common state")
    ensembles = [loop_ensemble_containing(r, phi, tol) for r in rhos]
    n = len(ensembles)
    if n < 2:
        raise StateCompatError(f"need at least two observers, got {n}")
    phi = ensembles[0].terms[0][1]
    for k, e in enumerate(ensembles):
        if abs(np.vdot(phi, e.terms[0][1])) < 1.0 - 1e-10:
            raise CommonStateMismatchError(f"ensemble {k} leads with another state")
    extras = [len(e.terms) - 1 for e in ensembles]
    ancilla_dims = [1 + max(extras[j] for j in range(n) if j != k) for k in range(n)]
    patterns, amplitudes = [[0] * n], [phi]
    for k, e in enumerate(ensembles):
        for i, (w, s) in enumerate(e.terms[1:], start=1):
            patterns.append([0 if j == k else i for j in range(n)])
            amplitudes.append(np.sqrt(w / e.terms[0][0]) * s)
    amplitudes = np.array(amplitudes) / np.linalg.norm(amplitudes)
    psi = CompositeState(ancilla_dims, rhos[0].dim, np.array(patterns), amplitudes)
    recovered, distances, start = [], [], 1
    for rho, m in zip(rhos, extras):
        rows = np.concatenate((psi.amplitudes[:1], psi.amplitudes[start : start + m]))
        start += m
        gram = rows.T @ rows.conj()
        gram = (gram + gram.conj().T) / 2.0
        gram /= np.trace(gram).real
        recovered.append(gram)
        distances.append(float(np.linalg.norm(gram - rho.matrix)))
    success = all(d <= tol.match_abs for d in distances)
    probability = float(np.sum(np.abs(psi.amplitudes[0]) ** 2))
    return psi, ScenarioResult(np.array(recovered), distances, probability, success)


def json_load_instance(path) -> fileio.Instance:
    """:func:`statecompat.fileio.load_instance` decoding with ``json.loads`` alone, as before orjson."""
    with mock.patch.object(fileio, "_decode", json.loads):
        return fileio.load_instance(path)


def json_bits(value):
    """A decoded JSON value with each float replaced by its 64-bit pattern, so
    that ``==`` compares floats bit for bit (-0.0 against 0.0, NaN to NaN)."""
    if isinstance(value, float):
        return ("float", struct.pack("<d", value))
    if isinstance(value, list):
        return [json_bits(item) for item in value]
    if isinstance(value, dict):
        return {key: json_bits(item) for key, item in value.items()}
    return value


def written_json(text: str):
    """The value of a file's ``text``, after checking that it is what the writer
    writes: one line of ASCII JSON with every object's keys in sorted order."""
    assert text.isascii() and text.endswith("\n") and "\n" not in text[:-1]

    def sorted_object(pairs):
        keys = [key for key, _ in pairs]
        assert keys == sorted(keys), keys
        return dict(pairs)

    return json.loads(text, object_pairs_hook=sorted_object)


def write_to_text(payload) -> str:
    """What :func:`statecompat.fileio.dump_payload` writes for ``payload``."""
    buf = io.StringIO()
    fileio.dump_payload(payload, buf)
    return buf.getvalue()


def as_lists(value):
    """``value`` with every numpy array, at any depth of dicts, lists and
    tuples, as its nested lists: a payload as the writer took it before it
    wrote arrays itself, and as ``json.dumps`` can write it."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [as_lists(item) for item in value]
    if isinstance(value, dict):
        return {key: as_lists(item) for key, item in value.items()}
    return value


def _list_route_nonfinite(value) -> bool:
    if isinstance(value, float):
        return not math.isfinite(value)
    if isinstance(value, (list, tuple)):
        return any(map(_list_route_nonfinite, value))
    return isinstance(value, dict) and any(map(_list_route_nonfinite, value.values()))


def _list_route_leaf(value) -> str:
    try:
        text = orjson.dumps(value, option=orjson.OPT_SORT_KEYS)
    except TypeError:
        return json.dumps(value, sort_keys=True)
    if text.isascii() and b"\x7f" not in text and not (b"null" in text and _list_route_nonfinite(value)):
        return text.decode("ascii")
    return json.dumps(value, sort_keys=True)


def _list_route_pieces(value):
    if isinstance(value, bytes):
        yield value.decode("ascii")
    elif isinstance(value, dict) and all(isinstance(key, str) for key in value):
        yield "{"
        for i, (key, item) in enumerate(sorted(value.items())):
            yield f"{', ' if i else ''}{json.dumps(key)}: "
            yield from _list_route_pieces(item)
        yield "}"
    else:
        yield _list_route_leaf(value)


def list_route_text(payload) -> str:
    """What the writer wrote for ``payload`` when it took every array as its
    lists (:func:`as_lists`): each dict with string keys key by key, bytes
    as they are, and every other value as one leaf, as orjson writes it
    (without its numpy option) unless orjson refuses it or its text holds a
    byte that ``json.dumps`` escapes or a ``null`` written for a NaN or an
    infinity, and then as ``json.dumps`` writes it; every leaf decoded to
    text on its own. The oracle of :func:`statecompat.fileio.dump_payload`."""
    return "".join(_list_route_pieces(as_lists(payload))) + "\n"


def assert_spells_as_json_dumps(text: str, value) -> None:
    """``text`` is a line the writer wrote and reads as ``json.dumps(value,
    sort_keys=True)`` reads, with every array as its lists (:func:`as_lists`),
    every float bit for bit."""
    plain = json.loads(json.dumps(as_lists(value), sort_keys=True))
    assert json_bits(written_json(text)) == json_bits(plain)


def loop_compatible_instance(dim: int, count: int, rng: np.random.Generator) -> list[np.ndarray]:
    """The planted compatible instance one extra term at a time: the earlier form
    of :func:`statecompat.generate.compatible_instance`, which must give its bits
    and leave ``rng`` where this loop leaves it."""
    phi = random_unit_vector(dim, rng)
    matrices = []
    for _ in range(count):
        p0 = rng.uniform(0.3, 0.7)
        n_extra = int(rng.integers(0, dim))
        rho = p0 * np.outer(phi, phi.conj())
        if n_extra:
            weights = (1.0 - p0) * rng.dirichlet(2.0 * np.ones(n_extra))
            for w in weights:
                chi = random_unit_vector(dim, rng)
                rho = rho + w * np.outer(chi, chi.conj())
        else:
            rho = rho / p0
        matrices.append(rho)
    return matrices


def loop_frame_instance(dim: int, slices: list[list[int]], rng: np.random.Generator) -> list[np.ndarray]:
    """The frame instance one slice at a time: the earlier form of
    :func:`statecompat.generate._frame_instance`, which must give its bits and
    leave ``rng`` where this loop leaves it. One ``random_unitary`` frame, then
    per slice of r frame columns a ``random_density(r)``, mixed 0.7 / 0.3 with
    I / r and conjugated by those columns."""
    frame = random_unitary(dim, rng)
    matrices = []
    for kept in slices:
        basis, r = frame[:, kept], len(kept)
        sigma = 0.7 * random_density(r, rng) + 0.3 * np.eye(r) / r
        matrices.append(basis @ sigma @ basis.conj().T)
    return matrices
