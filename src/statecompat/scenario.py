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
state, decompose every input around it, build the joint state, condition each
observer on the level-0 outcome, trace down to the system, and report the
distance to the original assignment. Observer k's level-0 rows are the
all-zero row and k's own block of rows, so all n reductions are one batched
Gram product. A Gram matrix is positive semidefinite by construction, so the
recovered matrices are not validated or diagonalized again; the distance to
the validated input is the check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compat import support_compatible
from .density import DensityMatrix, Ensemble, ensemble_containing
from .errors import (
    CommonStateMismatchError,
    DimensionMismatchError,
    IncompatibleError,
    StateCompatError,
    ZeroProjectionError,
)
from .linalg import DEFAULT_TOL, Tolerances, as_complex_matrix

#: Absolute tolerance on the norm of composite-state amplitudes.
NORM_TOL = 1e-10


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
        patterns = np.asarray(self.patterns)
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
        if abs(norm - 1.0) > NORM_TOL:
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
    states must pairwise overlap to within 1e-10 of unit modulus) with a
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
    weights = np.array([e.terms[0][0] for e in ensembles])
    bad = np.flatnonzero((overlaps < 1.0 - 1e-10) | ~(weights > 0.0))
    if bad.size:
        k = int(bad[0])
        if overlaps[k] < 1.0 - 1e-10:
            raise CommonStateMismatchError(
                f"ensemble {k} leads with a state of overlap {overlaps[k]:.12g} "
                "with the shared state; the leading states must coincide up to phase"
            )
        raise StateCompatError(f"ensemble {k} gives the shared state zero weight")

    extras = np.array([len(e.terms) - 1 for e in ensembles])
    # the largest extra count among the others is the overall largest, unless
    # observer j holds it, in which case it is the runner-up
    top, runner_up = np.sort(extras)[-2:][::-1]
    ancilla_dims = [1 + int(runner_up if m == top else top) for m in extras]
    owner, level = _owners_and_levels(extras)
    patterns = np.zeros((1 + owner.size, n), dtype=np.intp)
    patterns[1:] = level[:, None]
    patterns[1 + np.arange(owner.size), owner] = 0
    scales = [np.sqrt(w / e.terms[0][0]) for e in ensembles for w, _ in e.terms[1:]]
    states = [s for e in ensembles for _, s in e.terms[1:]]
    amplitudes = np.empty((1 + owner.size, system_dim), dtype=np.complex128)
    amplitudes[0] = phi
    if states:
        amplitudes[1:] = np.multiply(np.array(scales)[:, None], states)
    amplitudes /= np.linalg.norm(amplitudes)
    return CompositeState(ancilla_dims, system_dim, patterns, amplitudes)


def _owners_and_levels(extras: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For the non-zero rows of the joint state, in order: the observer owning each, and its level."""
    owner = np.repeat(np.arange(extras.size), extras)
    starts = np.cumsum(extras) - extras
    level = np.arange(owner.size) - starts[owner] + 1
    return owner, level


def joint_zero_outcome_probability(psi: CompositeState) -> float:
    """Probability that every observer finds their ancilla at level 0."""
    block = psi.amplitudes[~psi.patterns.any(axis=1)]
    return float(np.sum(np.abs(block) ** 2))


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
    gram = np.swapaxes(rows, -1, -2) @ rows.conj()
    gram = (gram + np.swapaxes(gram, -1, -2).conj()) / 2.0
    return gram / np.trace(gram, axis1=-2, axis2=-1).real[..., None, None]


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
    corresponding input to within ``tol.match_abs`` in Frobenius norm.
    """
    rhos = list(rhos)
    compatible, intersection = support_compatible(rhos, tol)
    return scenario_with_shared_state(rhos, intersection.basis[:, 0] if compatible else None, tol)


def scenario_with_shared_state(rhos, phi, tol: Tolerances = DEFAULT_TOL) -> ScenarioResult:
    """:func:`run_scenario` after its support test, around a known shared state.

    ``phi`` is a unit vector in every support, such as the witness of
    :func:`statecompat.compat.full_report`, or None when the supports share
    no state, which raises :class:`IncompatibleError`. Observer k's level-0
    rows are gathered into one zero-padded (n, 1 + max_k m_k, d) array; since
    m_k < 2d, memory stays O(B d + n d^2).
    """
    if phi is None:
        raise IncompatibleError(
            "the supports share no common state, so no single system "
            "can realize all of these assignments"
        )
    rhos = list(rhos)
    ensembles: list[Ensemble] = [ensemble_containing(r, phi, tol) for r in rhos]
    psi = build_joint_state(ensembles, tol)
    probability = joint_zero_outcome_probability(psi)

    extras = np.array([len(e.terms) - 1 for e in ensembles])
    owner, level = _owners_and_levels(extras)
    rows = np.zeros((len(rhos), 1 + int(extras.max()), psi.system_dim), dtype=np.complex128)
    rows[:, 0] = psi.amplitudes[0]
    rows[owner, level] = psi.amplitudes[1:]
    recovered = _reduced_matrices(rows)
    distances = np.linalg.norm(recovered - np.array([r.matrix for r in rhos]), axis=(1, 2))
    recoveries = [
        ObserverRecovery(DensityMatrix._trusted(m), float(d)) for m, d in zip(recovered, distances)
    ]
    success = bool(np.all(distances <= tol.match_abs))
    return ScenarioResult(recoveries, probability, success)
