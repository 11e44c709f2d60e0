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
rows, the all-zero pattern plus one per extra term (m_k being ensemble k's
extra-term count), so memory is linear in sum_k m_k, where the dense tensor
would need prod_j (1 + max_{k != j} m_k) * d amplitudes.
Because the patterns are distinct ancilla basis states, conditioning on an
outcome selects rows and tracing out the ancillas sums the rows' outer
products; neither step needs the dense form.

:func:`run_scenario` performs the whole round trip: pick a common support
state, decompose every input around it, build the joint state, condition each
observer on the level-0 outcome, trace down to the system, and report the
distance to the original assignment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

import numpy as np

from .compat import support_compatible
from .density import DensityMatrix, Ensemble, ensemble_containing, validate_density
from .errors import (
    CommonStateMismatchError,
    DimensionMismatchError,
    IncompatibleError,
    StateCompatError,
    ZeroProjectionError,
)
from .linalg import DEFAULT_TOL, Tolerances, as_complex_matrix, as_complex_vector

#: Absolute tolerance on the norm of composite-state amplitudes.
NORM_TOL = 1e-10

#: Largest dense tensor :meth:`BlockState.as_tensor` builds (2**24 amplitudes,
#: 256 MiB of complex128).
MAX_DENSE_AMPLITUDES = 1 << 24


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

    def as_tensor(self) -> np.ndarray:
        """The dense amplitude tensor of shape ancilla_dims + [system_dim].

        Raises :class:`StateCompatError` before allocating when it would hold
        more than :data:`MAX_DENSE_AMPLITUDES` amplitudes.
        """
        size = prod(self.ancilla_dims) * self.system_dim
        if size > MAX_DENSE_AMPLITUDES:
            raise StateCompatError(
                f"the dense form of a state on {self.n_observers} ancillas and a "
                f"{self.system_dim}-dim system needs at least 10^{len(str(size)) - 1} "
                f"amplitudes, over the cap of {MAX_DENSE_AMPLITUDES}"
            )
        tensor = np.zeros(self.ancilla_dims + [self.system_dim], dtype=np.complex128)
        tensor[tuple(self.patterns.T)] = self.amplitudes
        return tensor


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
        if patterns.shape != (n_blocks, self.n_observers) or n_blocks == 0:
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
    and one per extra term.
    """
    ensembles = list(ensembles)
    n = len(ensembles)
    if n < 2:
        raise StateCompatError(f"need at least two observers, got {n}")
    system_dim = ensembles[0].dim
    if any(e.dim != system_dim for e in ensembles):
        raise DimensionMismatchError("ensembles live on systems of different dimensions")
    phi = ensembles[0].terms[0][1]
    for k, ensemble in enumerate(ensembles):
        weight, state = ensemble.terms[0]
        overlap = abs(complex(np.vdot(phi, state)))
        if overlap < 1.0 - 1e-10:
            raise CommonStateMismatchError(
                f"ensemble {k} leads with a state of overlap {overlap:.12g} "
                "with the shared state; the leading states must coincide up to phase"
            )
        if weight <= 0.0:
            raise StateCompatError(f"ensemble {k} gives the shared state zero weight")

    extras = [len(e.terms) - 1 for e in ensembles]
    # the largest extra count among the others is the overall largest, unless
    # observer j holds it, in which case it is the runner-up
    top, runner_up = sorted(extras)[-2:][::-1]
    ancilla_dims = [1 + (runner_up if m == top else top) for m in extras]
    n_blocks = 1 + sum(extras)
    patterns = np.zeros((n_blocks, n), dtype=np.intp)
    amplitudes = np.empty((n_blocks, system_dim), dtype=np.complex128)
    amplitudes[0] = phi
    row = 1
    for k, ensemble in enumerate(ensembles):
        p_k = ensemble.terms[0][0]
        for i, (weight, state) in enumerate(ensemble.terms[1:], start=1):
            patterns[row] = i
            patterns[row, k] = 0
            amplitudes[row] = np.sqrt(weight / p_k) * state
            row += 1
    amplitudes /= np.linalg.norm(amplitudes)
    return CompositeState(ancilla_dims, system_dim, patterns, amplitudes)


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


def observer_reduced_density(
    conditional, factor_dims, system_index: int, tol: Tolerances = DEFAULT_TOL
) -> DensityMatrix:
    """Partial trace of the conditional pure state down to the system factor.

    ``conditional`` is either a :class:`BlockState`, whose factors are its
    ancillas and then the system (``factor_dims`` must list exactly those and
    ``system_index`` must point at the last), or a dense vector over
    ``factor_dims``. For blocks the patterns are distinct basis states, so
    the trace is the sum of the blocks' outer products; for a dense vector it
    contracts |v><v| over every factor except ``factor_dims[system_index]``
    without materializing the projector.
    """
    dims = [int(d) for d in factor_dims]
    if not dims or any(d < 1 for d in dims):
        raise DimensionMismatchError(f"factor dimensions must be positive, got {dims}")
    if isinstance(conditional, BlockState):
        expected = conditional.ancilla_dims + [conditional.system_dim]
        if dims != expected or system_index != len(dims) - 1:
            raise DimensionMismatchError(
                f"block state has factors {expected} with the system last, "
                f"got {dims} and system index {system_index}"
            )
        rows = conditional.amplitudes
    else:
        v = as_complex_vector(conditional)
        if v.shape[0] != prod(dims):
            raise DimensionMismatchError(
                f"vector length {v.shape[0]} is not the product of factors {dims}"
            )
        if not 0 <= system_index < len(dims):
            raise DimensionMismatchError(
                f"system index {system_index} out of range for {len(dims)} factors"
            )
        rows = np.moveaxis(v.reshape(dims), system_index, -1).reshape(-1, dims[system_index])
    rho = rows.T @ rows.conj()
    return validate_density(rho, tol)


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
    no state, which raises :class:`IncompatibleError`.
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

    recoveries = []
    for k in range(len(rhos)):
        conditional = observer_conditional_state(psi, k)
        remaining = conditional.ancilla_dims + [psi.system_dim]
        recovered = observer_reduced_density(conditional, remaining, len(remaining) - 1, tol)
        distance = float(np.linalg.norm(recovered.matrix - rhos[k].matrix))
        recoveries.append(ObserverRecovery(recovered, distance))
    success = all(r.distance <= tol.match_abs for r in recoveries)
    return ScenarioResult(recoveries, probability, success)
