"""Constructive realization of a compatible set of density matrices.

Given N density matrices whose supports share a state phi, one entangled pure
state on N ancilla factors plus the system realizes all of them at once. Each
observer k controls one ancilla. The state is, up to normalization,

    |0 ... 0>|phi>  +  sum_k sum_{i>=1} sqrt(p_ki / p_k) |pattern(k, i)>|phi_ki>,

where ensemble k decomposes rho_k with leading term (p_k, phi) and extra
terms (p_ki, phi_ki), and pattern(k, i) puts ancilla k at level 0 and every
other ancilla at level i. When observer k finds their own ancilla at level 0
(a possible outcome, since the phi amplitude is nonzero) and knows nothing of
the others, the reduced state they assign to the system is exactly rho_k.

The state is stored as its nonzero blocks: one row per ancilla basis state
that carries amplitude, each with its system vector. There are 1 + sum_k m_k
rows, the all-zero pattern first and then each ensemble's extra terms in
observer order (m_k being ensemble k's extra-term count), so memory is linear
in sum_k m_k, where the dense tensor would need
prod_j (1 + max_{k != j} m_k) * d amplitudes. Because the patterns are
distinct ancilla basis states, conditioning on an outcome selects rows and
tracing out the ancillas sums the rows' outer products, which is the Gram
matrix rows^T rows^*; neither step needs the dense form.

:func:`run_scenario` performs the whole round trip: pick a common support
state, decompose every input around it, condition each observer on the
level-0 outcome, trace down to the system, and report the distance to the
original assignment. It is :func:`_realize` of the split that the check path
makes, the record :func:`statecompat.compat._split_set` returns: the matrices
and the spectra are stacked and their ranks decided once, for the support
test, the ensembles and the distances alike, and the shared state is the
split's ``witness``, the report's, phase-fixed once; so the CLI's
``scenario`` verb hands its report's split to :func:`_realize` and no state
from outside the package reaches the ensembles. It computes
only what it returns: one array call
(:func:`statecompat.density._ensembles_around`) gives every ensemble, and
observer k's level-0 rows of the joint state (phi and k's own scaled extra
terms) are read straight from those arrays, so all n reductions are one
batched Gram product and no :class:`CompositeState` is built. A Gram matrix
is positive semidefinite by construction, so the recovered matrices are
returned as that one stack, not validated or diagonalized again; the
distance to the validated input is the check. A single assignment is
realized by two observers holding it. The probability of the all-zero
outcome comes from the same arrays, as
:attr:`ScenarioResult.joint_zero_probability`; the tests check it against the
all-zero block of the :class:`CompositeState` that :func:`build_joint_state`
assembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import _Split, _split_set
from .density import Ensemble, _ensembles_around
from .errors import (
    CommonStateMismatchError,
    DimensionMismatchError,
    IncompatibleError,
    StateCompatError,
)
from .linalg import (DEFAULT_TOL, UNIT_TOL, Tolerances, _as_finite, _check_elements, _check_tol, as_array,
                     as_dim, read_only)

_NO_SHARED_STATE = (
    "the supports share no common state, so no single system can realize all of these assignments"
)


@dataclass(frozen=True, eq=False)
class BlockState:
    """A vector on (ancilla 1, ..., ancilla N, system) stored as its nonzero blocks.

    Row b of the int array ``patterns`` (shape (B, N)) is an ancilla basis
    state, one level per ancilla, and row b of the complex array
    ``amplitudes`` (shape (B, system_dim)) is the system vector attached to
    it. Ancilla basis states without a row have zero amplitude.

    This class checks only the types: every dimension is a positive integer,
    the patterns are integers and the amplitudes a finite complex matrix.
    :func:`observer_conditional_state` returns it for the rows of a
    validated :class:`CompositeState` that survive a level-0 outcome; such a
    slice keeps the parent's distinct patterns. A block state cannot change:
    it is frozen, ``ancilla_dims`` is a tuple of ints and ``system_dim`` an
    int, and the arrays are read-only copies, of dtype intp and complex128,
    that no caller holds. Copies and pickles are made by the constructor of
    the copied class, so a copied :class:`CompositeState` is checked again.
    """

    ancilla_dims: tuple[int, ...]
    system_dim: int
    patterns: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        dims = tuple(as_dim(d, "ancilla dimension") for d in self.ancilla_dims)
        object.__setattr__(self, "ancilla_dims", dims)
        object.__setattr__(self, "system_dim", as_dim(self.system_dim, "system dimension"))
        patterns = as_array(self.patterns, "ancilla patterns", None)
        if not np.issubdtype(patterns.dtype, np.integer):
            raise StateCompatError(f"ancilla patterns must be integers, got {patterns.dtype}")
        object.__setattr__(self, "patterns", read_only(patterns, np.intp))
        object.__setattr__(self, "amplitudes", read_only(_as_finite(self.amplitudes, 2, "matrix")))

    def __reduce__(self):
        return (type(self), (self.ancilla_dims, self.system_dim, self.patterns, self.amplitudes))

    @property
    def n_observers(self) -> int:
        return len(self.ancilla_dims)


@dataclass(frozen=True, eq=False)
class CompositeState(BlockState):
    """Normalized joint state on (ancilla 1, ..., ancilla N, system), N >= 2.

    Stored as blocks (see :class:`BlockState`): ``patterns`` are distinct
    ancilla basis states with every level in range, ``amplitudes`` are finite
    and of unit Frobenius norm, and the all-zero pattern is present with a
    nonzero block, since the all-zero joint outcome has to be possible.
    Memory is linear in the number of blocks. The constructor stores the
    fields as a :class:`BlockState` does, with its checks, and then checks
    the rest on what it stored, so the state cannot change after its checks.
    """

    def __post_init__(self):
        super().__post_init__()
        dims, patterns, amps = list(self.ancilla_dims), self.patterns, self.amplitudes
        if len(dims) < 2:
            raise StateCompatError(f"need at least two positive ancilla dimensions, got {dims}")
        n_blocks = amps.shape[0]
        if patterns.shape != (n_blocks, len(dims)):
            raise DimensionMismatchError(
                f"patterns have shape {patterns.shape}, expected ({n_blocks}, "
                f"{len(dims)}) for {n_blocks} blocks of {len(dims)} ancillas"
            )
        if amps.shape[1] != self.system_dim:
            raise DimensionMismatchError(
                f"blocks have length {amps.shape[1]}, expected {self.system_dim}"
            )
        if np.any(patterns < 0) or np.any(patterns >= np.asarray(dims)):
            raise StateCompatError(
                f"an ancilla level is out of range for dimensions {dims}"
            )
        if len({row.tobytes() for row in patterns}) != n_blocks:
            raise StateCompatError("ancilla patterns must be distinct")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > UNIT_TOL:
            raise StateCompatError(f"composite state is not normalized (|v| = {norm:.12g})")
        zero_rows = amps[~patterns.any(axis=1)]
        if float(np.linalg.norm(zero_rows)) == 0.0:
            raise StateCompatError("the all-zero ancilla outcome must have nonzero amplitude")


@dataclass(eq=False)
class ScenarioResult:
    """The round trip's outcome, as :func:`run_scenario` computes it.

    ``recovered`` is the (n, d, d) stack of the states the observers assign
    after finding their ancilla at level 0, and ``distances[k]`` is the
    Frobenius distance of ``recovered[k]`` from input k. ``success`` says
    every distance is within ``match_abs``.
    """

    recovered: np.ndarray
    distances: list[float]
    joint_zero_probability: float
    success: bool


def build_joint_state(ensembles, tol: Tolerances = DEFAULT_TOL) -> CompositeState:
    """Assemble the composite pure state from per-observer ensembles.

    ``tol`` must be a :class:`statecompat.linalg.Tolerances`, and each
    element an :class:`statecompat.density.Ensemble`, which cannot change
    after its constructor's checks, so its terms are read as they are: every
    weight is positive and every state a finite unit vector. Every
    ensemble's first term must carry the shared state: the term-0 states
    must overlap with the first one to within
    :data:`statecompat.linalg.UNIT_TOL` of unit modulus. Ancilla k needs one
    level per extra term of every *other* ensemble, so its dimension is
    1 + max over j != k of the extra-term counts; an observer whose peers
    are all single-term gets a trivial one-level ancilla. The state has one
    block for the shared state and one per extra term, grouped by observer:
    extra term i of ensemble k sits at ancilla k's level 0 and every other
    ancilla's level i.
    """
    _check_tol(tol)
    ensembles = _check_elements(ensembles, Ensemble)
    n = len(ensembles)
    if n < 2:
        raise StateCompatError(f"need at least two observers, got {n}")
    system_dim = ensembles[0].dim
    if any(e.dim != system_dim for e in ensembles):
        raise DimensionMismatchError("ensembles live on systems of different dimensions")
    phi = ensembles[0].terms[0][1]
    leads = np.array([e.terms[0][1] for e in ensembles])
    overlaps = np.abs(leads @ phi.conj())  # |<phi, lead_k>|
    bad = np.flatnonzero(overlaps < 1.0 - UNIT_TOL)
    if bad.size:
        k = int(bad[0])
        raise CommonStateMismatchError(
            f"ensemble {k} leads with a state of overlap {overlaps[k]:.12g} "
            "with the shared state; the leading states must coincide up to phase"
        )
    lead_weights = np.array([e.terms[0][0] for e in ensembles])
    extras = np.array([len(e.terms) - 1 for e in ensembles])
    # the largest extra count among the others is the overall largest, unless
    # observer j holds it, in which case it is the runner-up
    top, runner_up = np.sort(extras)[-2:][::-1]
    ancilla_dims = (1 + np.where(extras == top, runner_up, top)).tolist()
    owner = np.repeat(np.arange(n), extras)  # the observer of each extra term, and its level
    level = np.arange(owner.size) - (np.cumsum(extras) - extras)[owner] + 1
    patterns = np.zeros((1 + owner.size, n), dtype=np.intp)
    patterns[1:] = level[:, None]
    patterns[1 + np.arange(owner.size), owner] = 0
    extra_terms = [t for e in ensembles for t in e.terms[1:]]
    weights = np.array([w for w, _ in extra_terms])
    states = np.array([s for _, s in extra_terms]).reshape(-1, system_dim)
    amplitudes = np.vstack((phi, np.sqrt(weights / lead_weights[owner])[:, None] * states))
    amplitudes /= np.linalg.norm(amplitudes)
    return CompositeState(ancilla_dims, system_dim, patterns, amplitudes)


def observer_conditional_state(psi: CompositeState, k: int) -> BlockState:
    """State of the remaining factors after observer k finds level 0.

    Keeps the blocks whose pattern has ancilla k at level 0, drops that
    factor from the patterns, and renormalizes. The kept rows include the
    all-zero block, which :class:`CompositeState` checks to be nonzero and
    which cannot change after that check, so the norm is never zero.
    """
    _check_elements([psi], CompositeState)
    if not 0 <= k < psi.n_observers:
        raise StateCompatError(f"observer index {k} out of range (0..{psi.n_observers - 1})")
    keep = psi.patterns[:, k] == 0
    rows = psi.amplitudes[keep]
    kept = psi.patterns[keep]
    return BlockState(
        psi.ancilla_dims[:k] + psi.ancilla_dims[k + 1:],
        psi.system_dim,
        np.concatenate((kept[:, :k], kept[:, k + 1:]), axis=1),
        rows / np.linalg.norm(rows),
    )


def _reduced_matrices(rows: np.ndarray) -> np.ndarray:
    """Partial traces of block states given as row stacks (..., B, d): unit-trace Gram matrices.

    Rows with distinct ancilla patterns are orthogonal on the ancillas, so
    tracing them out leaves rows^T rows^*. It is symmetrized and divided by
    its trace, as :func:`statecompat.density.validate_density` would leave
    it, and is positive semidefinite by construction.
    """
    gram = rows.swapaxes(-1, -2) @ rows.conj()
    gram = (gram + gram.swapaxes(-1, -2).conj()) / 2.0
    return gram / gram.trace(axis1=-2, axis2=-1).real[..., None, None]


def observer_reduced_density(
    conditional: BlockState, factor_dims, system_index: int, tol: Tolerances = DEFAULT_TOL
) -> np.ndarray:
    """Partial trace of a conditional block state down to the system factor: a (d, d) array.

    ``factor_dims`` must list the state's ancillas and then the system, and
    ``system_index`` must point at the last. The patterns are distinct basis
    states, so the trace is the sum of the blocks' outer products (see
    :func:`_reduced_matrices`); the result is the unit-trace Gram array,
    positive semidefinite by construction, as :attr:`ScenarioResult.recovered`
    holds one per observer, not validated or diagonalized. ``tol`` is
    accepted for the call shape of the other stages and not needed, but,
    as everywhere, it must be a :class:`statecompat.linalg.Tolerances`.
    """
    _check_tol(tol)
    _check_elements([conditional], BlockState)
    # integers only; their values are checked against the state's factors below
    dims = [as_dim(d, "factor dimension", 0) for d in factor_dims]
    expected = [*conditional.ancilla_dims, conditional.system_dim]
    if dims != expected or system_index != len(dims) - 1:
        raise DimensionMismatchError(
            f"block state has factors {expected} with the system last, "
            f"got {dims} and system index {system_index}"
        )
    return _reduced_matrices(conditional.amplitudes)


def run_scenario(rhos, tol: Tolerances = DEFAULT_TOL) -> ScenarioResult:
    """Build the joint state for a compatible set and recover each assignment.

    Raises :class:`IncompatibleError` when the supports share no state. For a
    compatible set, each observer's recovered density matrix should match the
    corresponding input to within ``tol.match_abs`` in Frobenius norm. The
    spectra are stacked and rank-split once, by
    :func:`statecompat.compat._split_set`, for the support test and the
    ensembles.
    """
    return _realize(_split_set(rhos, tol), tol)


def _realize(split: _Split, tol: Tolerances) -> ScenarioResult:
    """The round trip of the set that :func:`statecompat.compat._split_set` split into ``split``.

    It runs around the split's ``witness``, the report's, and raises
    :class:`IncompatibleError` when there is none. It reads the split's
    ``spectra`` record (:func:`statecompat.density._spectra`) and compares
    with its stacked ``matrices``, by name. One
    :func:`statecompat.density._ensembles_around` call gives every ensemble
    as 2R candidate terms, R the largest rank. The pass runs without
    :func:`statecompat.density._check_state`: the witness lies within
    ``match_abs/sqrt(2)`` of the supports in root-sum-square and is a unit
    vector from the SVD, so it passes both of its checks; the weight sums
    are still checked. Scaling term i of ensemble k by sqrt(w_ki / w_k0)
    and zeroing the terms it does not keep gives observer k's level-0 rows
    of the joint state, phi first, as one (n, 2R, d) array, written over
    the pass's terms and reduced by one batched Gram product; memory stays
    O(n R d + n d^2). The all-zero outcome has probability
    |phi|^2 / (|phi|^2 + the squared norm of every extra row). A single
    assignment is realized by two observers holding it, its spectra record
    repeated field by field (``_make``), and reported once.
    """
    phi, spectra = split.witness, split.spectra
    if phi is None:
        raise IncompatibleError(_NO_SHARED_STATE)
    if len(split.matrices) == 1:
        spectra = spectra._make(part[[0, 0]] for part in spectra)
    weights, totals, states, keep = _ensembles_around(spectra, phi, tol)
    weights /= totals[:, None]
    rows = np.multiply(np.sqrt(weights * keep / weights[:, :1])[:, :, None], states, out=states)
    lead, extra = np.vdot(phi, phi).real, rows[:, 1:].ravel()
    probability = float(lead / (lead + np.vdot(extra, extra).real))
    recovered = _reduced_matrices(rows[: len(split.matrices)])
    diff = recovered - split.matrices
    dists = np.sqrt(np.add.reduce((diff.conj() * diff).real, axis=(1, 2))).tolist()
    return ScenarioResult(recovered, dists, probability, all(d <= tol.match_abs for d in dists))
