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
original assignment. It computes only what it returns: the spectra are
stacked and their ranks decided once, by the support test of the check path
(:func:`statecompat.compat._split_set`), and serve the ensembles too; one
array call (:func:`statecompat.density._ensembles_around`) gives every
ensemble, and observer k's level-0 rows of the joint state (phi and k's own scaled extra
terms) are read straight from those arrays, so all n reductions are one
batched Gram product and no :class:`CompositeState` is built. A Gram matrix
is positive semidefinite by construction, so the recovered matrices are not
validated or diagonalized again; the distance to the validated input is the
check. A single assignment is realized by two observers holding it. The
probability of the all-zero outcome comes from the same arrays, as
:attr:`ScenarioResult.joint_zero_probability`; the tests check it against the
all-zero block of the :class:`CompositeState` that :func:`build_joint_state`
assembles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import _check_rhos, _intersection_basis, _split_set
from .density import UNIT_TOL, DensityMatrix, _ensembles_around, _spectra
from .errors import (
    CommonStateMismatchError,
    DimensionMismatchError,
    IncompatibleError,
    StateCompatError,
    ZeroProjectionError,
)
from .linalg import DEFAULT_TOL, Tolerances, as_array, as_complex_matrix, as_complex_vector

_NO_SHARED_STATE = (
    "the supports share no common state, so no single system can realize all of these assignments"
)


@dataclass(eq=False)
class BlockState:
    """A vector on (ancilla 1, ..., ancilla N, system) stored as its nonzero blocks.

    Row b of the int array ``patterns`` (shape (B, N)) is an ancilla basis
    state, one level per ancilla, and row b of the complex array
    ``amplitudes`` (shape (B, system_dim)) is the system vector attached to
    it. Ancilla basis states without a row have zero amplitude.

    This class does no validation. :func:`observer_conditional_state` returns
    it for the rows of a validated :class:`CompositeState` that survive a
    level-0 outcome; such a slice keeps the parent's distinct patterns.
    """

    ancilla_dims: list[int]
    system_dim: int
    patterns: np.ndarray
    amplitudes: np.ndarray

    @property
    def n_observers(self) -> int:
        return len(self.ancilla_dims)


@dataclass(eq=False)
class CompositeState(BlockState):
    """Normalized joint state on (ancilla 1, ..., ancilla N, system), N >= 2.

    Stored as blocks (see :class:`BlockState`): ``patterns`` are distinct
    ancilla basis states with every level in range, ``amplitudes`` are finite
    and of unit Frobenius norm, and the all-zero pattern is present with a
    nonzero block, since the all-zero joint outcome has to be possible.
    Memory is linear in the number of blocks.
    """

    def __post_init__(self):
        self.ancilla_dims = [int(d) for d in self.ancilla_dims]
        if len(self.ancilla_dims) < 2 or any(d < 1 for d in self.ancilla_dims):
            raise StateCompatError(
                f"need at least two positive ancilla dimensions, got {self.ancilla_dims}"
            )
        if self.system_dim < 1:
            raise StateCompatError("system dimension must be positive")
        patterns = as_array(self.patterns, "ancilla patterns", None)
        if not np.issubdtype(patterns.dtype, np.integer):
            raise StateCompatError(f"ancilla patterns must be integers, got {patterns.dtype}")
        patterns = np.ascontiguousarray(patterns, dtype=np.intp)
        amps = as_complex_matrix(self.amplitudes)
        n_blocks = amps.shape[0]
        if patterns.shape != (n_blocks, self.n_observers):
            raise DimensionMismatchError(
                f"patterns have shape {patterns.shape}, expected ({n_blocks}, "
                f"{self.n_observers}) for {n_blocks} blocks of {self.n_observers} ancillas"
            )
        if amps.shape[1] != self.system_dim:
            raise DimensionMismatchError(
                f"blocks have length {amps.shape[1]}, expected {self.system_dim}"
            )
        if np.any(patterns < 0) or np.any(patterns >= np.asarray(self.ancilla_dims)):
            raise StateCompatError(
                f"an ancilla level is out of range for dimensions {self.ancilla_dims}"
            )
        if len({row.tobytes() for row in patterns}) != n_blocks:
            raise StateCompatError("ancilla patterns must be distinct")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > UNIT_TOL:
            raise StateCompatError(f"composite state is not normalized (|v| = {norm:.12g})")
        zero_rows = amps[~patterns.any(axis=1)]
        if float(np.linalg.norm(zero_rows)) == 0.0:
            raise StateCompatError("the all-zero ancilla outcome must have nonzero amplitude")
        self.patterns = patterns
        self.amplitudes = amps


@dataclass(eq=False)
class ObserverRecovery:
    """What one observer reconstructs after the level-0 outcome."""

    recovered: DensityMatrix
    distance: float


@dataclass(eq=False)
class ScenarioResult:
    recoveries: list[ObserverRecovery]
    joint_zero_probability: float
    success: bool

    @property
    def distances(self) -> list[float]:
        return [r.distance for r in self.recoveries]


def build_joint_state(ensembles, tol: Tolerances = DEFAULT_TOL) -> CompositeState:
    """Assemble the composite pure state from per-observer ensembles.

    Every ensemble's first term must carry the shared state (the term-0
    states must overlap with the first one to within
    :data:`statecompat.density.UNIT_TOL` of unit modulus) with a
    strictly positive weight. Ancilla k needs one level per extra term of
    every *other* ensemble, so its dimension is 1 + max over j != k of the
    extra-term counts; an observer whose peers are all single-term gets a
    trivial one-level ancilla. The state has one block for the shared state
    and one per extra term, grouped by observer: extra term i of ensemble k
    sits at ancilla k's level 0 and every other ancilla's level i.
    """
    ensembles = list(ensembles)
    n = len(ensembles)
    if n < 2:
        raise StateCompatError(f"need at least two observers, got {n}")
    system_dim = ensembles[0].dim
    if any(e.dim != system_dim for e in ensembles):
        raise DimensionMismatchError("ensembles live on systems of different dimensions")
    phi = ensembles[0].terms[0][1]
    leads = np.array([e.terms[0][1] for e in ensembles])
    overlaps = np.abs(leads @ phi.conj())  # |<phi, lead_k>|
    lead_weights = np.array([e.terms[0][0] for e in ensembles])
    bad = np.flatnonzero((overlaps < 1.0 - UNIT_TOL) | ~(lead_weights > 0.0))
    if bad.size:
        k = int(bad[0])
        if overlaps[k] < 1.0 - UNIT_TOL:
            raise CommonStateMismatchError(
                f"ensemble {k} leads with a state of overlap {overlaps[k]:.12g} "
                "with the shared state; the leading states must coincide up to phase"
            )
        raise StateCompatError(f"ensemble {k} gives the shared state zero weight")
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
    factor from the patterns, and renormalizes. States built by
    :func:`build_joint_state` always survive the projection; the zero check
    guards hand-built inputs.
    """
    if not 0 <= k < psi.n_observers:
        raise StateCompatError(f"observer index {k} out of range (0..{psi.n_observers - 1})")
    keep = psi.patterns[:, k] == 0
    rows = psi.amplitudes[keep]
    norm = float(np.linalg.norm(rows))
    if norm <= 1e-15:
        raise ZeroProjectionError(f"level-0 outcome of observer {k} has zero amplitude")
    kept = psi.patterns[keep]
    return BlockState(
        psi.ancilla_dims[:k] + psi.ancilla_dims[k + 1:],
        psi.system_dim,
        np.concatenate((kept[:, :k], kept[:, k + 1:]), axis=1),
        rows / norm,
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
) -> DensityMatrix:
    """Partial trace of a conditional block state down to the system factor.

    ``factor_dims`` must list the state's ancillas and then the system, and
    ``system_index`` must point at the last. The patterns are distinct basis
    states, so the trace is the sum of the blocks' outer products (see
    :func:`_reduced_matrices`); the result is positive semidefinite by
    construction and is returned without another eigendecomposition. ``tol``
    is accepted for the call shape of the other stages and not needed.
    """
    dims = [int(d) for d in factor_dims]
    if not dims or any(d < 1 for d in dims):
        raise DimensionMismatchError(f"factor dimensions must be positive, got {dims}")
    if not isinstance(conditional, BlockState):
        raise StateCompatError(
            f"expected a BlockState, got {type(conditional).__name__}"
        )
    expected = conditional.ancilla_dims + [conditional.system_dim]
    if dims != expected or system_index != len(dims) - 1:
        raise DimensionMismatchError(
            f"block state has factors {expected} with the system last, "
            f"got {dims} and system index {system_index}"
        )
    return DensityMatrix(_reduced_matrices(conditional.amplitudes))


def run_scenario(rhos, tol: Tolerances = DEFAULT_TOL) -> ScenarioResult:
    """Build the joint state for a compatible set and recover each assignment.

    Raises :class:`IncompatibleError` when the supports share no state. For a
    compatible set, each observer's recovered density matrix should match the
    corresponding input to within ``tol.match_abs`` in Frobenius norm. The
    spectra are stacked and rank-split once, by
    :func:`statecompat.compat._split_set`, for the support test and the
    ensembles.
    """
    rhos, spectra, count, _, directions = _split_set(rhos, tol)
    if count == 0:
        raise IncompatibleError(_NO_SHARED_STATE)
    return _realize(rhos, spectra, _intersection_basis(spectra[1], 1, directions)[:, 0], tol)


def scenario_with_shared_state(rhos, phi, tol: Tolerances = DEFAULT_TOL) -> ScenarioResult:
    """:func:`run_scenario` after its support test, around a known shared state.

    ``phi`` is a unit vector in every support, such as the witness of
    :func:`statecompat.compat.full_report`, or None when the supports share
    no state, which raises :class:`IncompatibleError`. The spectra are
    stacked and rank-split here, by :func:`statecompat.density._spectra` as
    in the support test.
    """
    if phi is None:
        raise IncompatibleError(_NO_SHARED_STATE)
    rhos = _check_rhos(rhos)
    phi = as_complex_vector(phi)
    if phi.shape[0] != rhos[0].dim:
        raise DimensionMismatchError(
            f"vector length {phi.shape[0]} != ambient dimension {rhos[0].dim}"
        )
    return _realize(rhos, _spectra(rhos, tol), phi, tol)


def _realize(rhos, spectra: tuple, phi, tol: Tolerances) -> ScenarioResult:
    """The round trip around ``phi`` for matrices with the stacked, rank-split ``spectra``.

    ``spectra`` is (values, vectors, cutoffs, ranks), as
    :func:`statecompat.density._spectra` returns it. One
    :func:`statecompat.density._ensembles_around` call gives every ensemble
    as 2R candidate terms, R the largest rank. Scaling term i of ensemble k
    by sqrt(w_ki / w_k0) and zeroing the terms it does not keep gives
    observer k's level-0 rows of the joint state, phi first, as one
    (n, 2R, d) array, reduced by one batched Gram product; memory stays
    O(n R d + n d^2). The all-zero outcome has probability
    |phi|^2 / (|phi|^2 + the squared norm of every extra row). A single
    assignment is realized by two observers holding it and reported once.
    """
    if len(rhos) == 1:
        spectra = [part[[0, 0]] for part in spectra]
    weights, states, keep = _ensembles_around(*spectra, phi, tol)
    rows = np.sqrt(weights * keep / weights[:, :1])[:, :, None] * states
    lead = np.vdot(phi, phi).real
    probability = float(lead / (lead + np.vdot(rows[:, 1:], rows[:, 1:]).real))
    recovered = _reduced_matrices(rows[: len(rhos)])
    diff = recovered - np.array([r.matrix for r in rhos])
    dists = np.sqrt((diff.conj() * diff).real.sum(axis=(1, 2))).tolist()
    recoveries = [ObserverRecovery(DensityMatrix._trusted(m), d) for m, d in zip(recovered, dists)]
    return ScenarioResult(recoveries, probability, all(d <= tol.match_abs for d in dists))
