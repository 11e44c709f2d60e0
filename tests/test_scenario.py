import dataclasses
import operator
import re
import warnings

import numpy as np
import pytest

from conftest import (
    block_tensor,
    check_stacked_ensembles,
    dense_conditional,
    dense_joint_tensor,
    dense_to_blocks,
    earlier_ensembles_around,
    joint_zero_outcome_probability,
    loop_ensemble_containing,
    loop_scenario,
    partial_trace,
    projection_defect,
    unchecked_density,
)
from statecompat.compat import _report, _split_set, full_report, support_compatible
from statecompat.density import (
    Ensemble,
    _check_state,
    _ensembles_around,
    _spectra,
    ensemble_containing,
    support,
    validate_density,
)
from statecompat.errors import (
    CommonStateMismatchError,
    DimensionMismatchError,
    IncompatibleError,
    StateCompatError,
    StateOutsideSupportError,
)
from statecompat.generate import (
    compatible_instance,
    generate_instance,
    random_density,
    random_unit_vector,
    random_unitary,
)
from statecompat.linalg import DEFAULT_TOL, UNIT_TOL, EigResult, Tolerances
from statecompat.scenario import (
    BlockState,
    CompositeState,
    _realize,
    build_joint_state,
    observer_conditional_state,
    observer_reduced_density,
    run_scenario,
)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def pure(v):
    return validate_density(np.outer(v, v.conj()))


def two_observer_example():
    """rho_a = |0><0|, rho_b = I/2, shared state |0>."""
    ens_a = Ensemble(2, [(1.0, E0)])
    ens_b = Ensemble(2, [(0.5, E0), (0.5, E1)])
    return build_joint_state([ens_a, ens_b])


# ------------------------------------------------------------ build_joint_state


def test_joint_state_trivial_shared_pure():
    rng = np.random.default_rng(1)
    phi = random_unit_vector(2, rng)
    psi = build_joint_state([Ensemble(2, [(1.0, phi)]), Ensemble(2, [(1.0, phi)])])
    assert psi.ancilla_dims == (1, 1)
    np.testing.assert_array_equal(psi.patterns, [[0, 0]])
    np.testing.assert_allclose(psi.amplitudes, [phi], atol=1e-14)
    np.testing.assert_allclose(block_tensor(psi).reshape(-1), phi, atol=1e-14)


def test_joint_state_hand_expanded_two_observers():
    psi = two_observer_example()
    assert psi.ancilla_dims == (2, 1)
    assert psi.system_dim == 2
    # (|a0 b0>|0> + |a1 b0>|1>) / sqrt(2): one block per populated (a, b) pattern
    np.testing.assert_array_equal(psi.patterns, [[0, 0], [1, 0]])
    np.testing.assert_allclose(psi.amplitudes, np.eye(2) / np.sqrt(2), atol=1e-14)
    # the same state over factor order (a, b, system)
    expected = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    np.testing.assert_allclose(block_tensor(psi).reshape(-1), expected, atol=1e-14)


def test_joint_state_three_observers_four_terms():
    rng = np.random.default_rng(3)
    phi = random_unit_vector(2, rng)
    chis = [random_unit_vector(2, rng) for _ in range(3)]
    ensembles = [Ensemble(2, [(0.5, phi), (0.5, chi)]) for chi in chis]
    psi = build_joint_state(ensembles)
    assert psi.ancilla_dims == (2, 2, 2)
    tensor = block_tensor(psi)
    # the only populated ancilla patterns: 000, 011, 101, 110, each weight 1/4
    np.testing.assert_allclose(tensor[0, 0, 0], phi / 2, atol=1e-12)
    np.testing.assert_allclose(tensor[0, 1, 1], chis[0] / 2, atol=1e-12)
    np.testing.assert_allclose(tensor[1, 0, 1], chis[1] / 2, atol=1e-12)
    np.testing.assert_allclose(tensor[1, 1, 0], chis[2] / 2, atol=1e-12)
    assert np.linalg.norm(tensor[0, 0, 1]) == 0.0
    assert np.linalg.norm(tensor[1, 1, 1]) == 0.0


def test_joint_state_rejects_single_observer():
    with pytest.raises(StateCompatError):
        build_joint_state([Ensemble(2, [(1.0, E0)])])


def test_joint_state_rejects_mismatched_common_state():
    with pytest.raises(CommonStateMismatchError):
        build_joint_state([Ensemble(2, [(1.0, E0)]), Ensemble(2, [(1.0, E1)])])

    # An ensemble cannot change after its checks: each edit is refused where
    # it is made, and the constructor refuses the edited terms.
    edits = [  # (edit, its refusal, the edited terms, the constructor's message)
        (lambda terms: operator.setitem(terms, 0, (0.0, E0)), TypeError,
         [(0.0, E0), (0.5, E1)], "ensemble weights must be positive, got 0.0"),
        (lambda terms: operator.setitem(terms, 1, (-0.5, E1)), TypeError,
         [(0.5, E0), (-0.5, E1)], "ensemble weights must be positive, got -0.5"),
        (lambda terms: operator.setitem(terms[1][1], 0, np.nan), ValueError,
         [(0.5, E0), (0.5, np.array([np.nan, 1.0]))], "vector contains non-finite entries"),
    ]
    for edit, refusal, terms, message in edits:
        edited = Ensemble(2, [(0.5, E0), (0.5, E1)])
        with pytest.raises(refusal):
            edit(edited.terms)
        assert [w for w, _ in edited.terms] == [0.5, 0.5]
        np.testing.assert_array_equal(edited.terms[1][1], E1)
        assert build_joint_state([Ensemble(2, [(1.0, E0)]), edited]).ancilla_dims == (2, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(StateCompatError) as info:
                Ensemble(2, terms)
        assert type(info.value) is StateCompatError
        assert str(info.value) == message


def test_joint_state_rejects_mixed_system_dims():
    e3 = Ensemble(3, [(1.0, np.array([1.0, 0, 0]))])
    with pytest.raises(DimensionMismatchError):
        build_joint_state([Ensemble(2, [(1.0, E0)]), e3])


def test_joint_state_accepts_common_state_up_to_phase():
    phase = np.exp(0.7j)
    psi = build_joint_state(
        [Ensemble(2, [(1.0, E0)]), Ensemble(2, [(0.5, phase * E0), (0.5, E1)])]
    )
    assert joint_zero_outcome_probability(psi) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_leading_states_coincide_within_unit_tol(factor):
    """build_joint_state accepts leads whose overlap with the shared state is within
    UNIT_TOL = 1e-10 of one."""
    overlap = 1.0 - factor * 1e-10
    lead = np.array([overlap, np.sqrt(1.0 - overlap**2)], dtype=complex)
    ensembles = [Ensemble(2, [(1.0, E0)]), Ensemble(2, [(1.0, lead)])]
    if factor < 1.0:
        assert build_joint_state(ensembles).ancilla_dims == (1, 1)
    else:
        with pytest.raises(CommonStateMismatchError, match="overlap"):
            build_joint_state(ensembles)


@pytest.mark.parametrize("factor", [0.99, 1.01])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_composite_state_is_unit_within_unit_tol(factor, sign):
    amplitudes = [[1.0 + sign * factor * 1e-10, 0.0]]
    if factor < 1.0:
        CompositeState([1, 1], 2, [[0, 0]], amplitudes)
    else:
        with pytest.raises(StateCompatError, match="not normalized"):
            CompositeState([1, 1], 2, [[0, 0]], amplitudes)


# --------------------------------------------------- joint outcome probability


def test_zero_outcome_probability_trivial():
    rng = np.random.default_rng(5)
    phi = random_unit_vector(3, rng)
    psi = build_joint_state([Ensemble(3, [(1.0, phi)])] * 2)
    assert joint_zero_outcome_probability(psi) == pytest.approx(1.0, abs=1e-12)


def test_zero_outcome_probability_hand_example():
    assert joint_zero_outcome_probability(two_observer_example()) == pytest.approx(0.5)


def test_zero_outcome_probability_in_unit_interval():
    for seed in range(6):
        rng = np.random.default_rng(seed)
        mats = compatible_instance(3, 3, rng)
        rhos = [validate_density(m) for m in mats]
        result = run_scenario(rhos)
        assert 0.0 < result.joint_zero_probability <= 1.0 + 1e-12


# ---------------------------------------------------- conditional and reduced


def test_conditional_trivial_state():
    rng = np.random.default_rng(7)
    phi = random_unit_vector(2, rng)
    psi = build_joint_state([Ensemble(2, [(1.0, phi)])] * 2)
    cond = observer_conditional_state(psi, 0)
    assert cond.ancilla_dims == (1,)
    np.testing.assert_array_equal(cond.patterns, [[0]])
    np.testing.assert_allclose(cond.amplitudes, [phi], atol=1e-14)
    np.testing.assert_allclose(block_tensor(cond).reshape(-1), phi, atol=1e-14)


def test_conditional_states_of_hand_example():
    psi = two_observer_example()
    # Bob conditions on b0: keeps both branches, (|a0>|0> + |a1>|1>)/sqrt(2)
    bob = observer_conditional_state(psi, 1)
    assert bob.ancilla_dims == (2,)
    np.testing.assert_array_equal(bob.patterns, [[0], [1]])
    np.testing.assert_allclose(bob.amplitudes, np.eye(2) / np.sqrt(2), atol=1e-14)
    np.testing.assert_allclose(
        block_tensor(bob).reshape(-1), np.array([1, 0, 0, 1]) / np.sqrt(2), atol=1e-14
    )
    # Alice conditions on a0: the a1 branch dies, leaving |b0>|0>
    alice = observer_conditional_state(psi, 0)
    assert alice.ancilla_dims == (1,)
    np.testing.assert_array_equal(alice.patterns, [[0]])
    np.testing.assert_allclose(alice.amplitudes, [[1, 0]], atol=1e-14)
    np.testing.assert_allclose(block_tensor(alice).reshape(-1), [1, 0], atol=1e-14)


def test_conditional_rejects_bad_index():
    psi = two_observer_example()
    with pytest.raises(StateCompatError):
        observer_conditional_state(psi, 2)


def test_conditional_zero_projection_guard():
    """No state conditioning reads has zero level-0 rows: the constructor
    refuses such a state, and a checked state refuses every edit."""
    psi = two_observer_example()
    # all amplitude moved out of the a0 slab, into the a1 b0 block
    tampered = np.array([[0, 0], [1, 0]], dtype=complex)
    with pytest.raises(dataclasses.FrozenInstanceError):
        psi.amplitudes = tampered
    with pytest.raises(ValueError, match="read-only"):
        psi.amplitudes[...] = tampered
    with pytest.raises(StateCompatError, match="all-zero ancilla outcome must have nonzero"):
        CompositeState(psi.ancilla_dims, psi.system_dim, psi.patterns, tampered)
    np.testing.assert_allclose(observer_conditional_state(psi, 0).amplitudes, [[1, 0]], atol=1e-14)


def test_conditional_state_keeps_a_tiny_all_zero_block():
    """An all-zero block the state accepts, however small, survives the level-0 outcome."""
    psi = CompositeState([2, 2], 2, [[0, 0], [0, 1]], [[1e-16, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(observer_conditional_state(psi, 1).amplitudes, [[1.0, 0.0]])


def test_reduced_density_product_state():
    rng = np.random.default_rng(9)
    phi = random_unit_vector(3, rng)
    cond = dense_to_blocks(np.kron(np.array([1.0 + 0j]), phi), [1, 3], 1)  # |b0>|phi>
    rho = observer_reduced_density(cond, [1, 3], 1)
    np.testing.assert_allclose(rho, np.outer(phi, phi.conj()), atol=1e-12)


def test_reduced_density_bell_type():
    cond = dense_to_blocks(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2), [2, 2], 1)
    rho = observer_reduced_density(cond, [2, 2], 1)
    np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-12)


def test_reduced_density_matches_generic_partial_trace():
    rng = np.random.default_rng(11)
    for dims, sys_idx in [([2, 3], 1), ([3, 2, 2], 2), ([2, 2, 3], 0)]:
        v = random_unit_vector(int(np.prod(dims)), rng)
        blocks = dense_to_blocks(v, dims, sys_idx)
        factors = [*blocks.ancilla_dims, blocks.system_dim]
        via_scenario = observer_reduced_density(blocks, factors, len(factors) - 1)
        via_ptrace = partial_trace(np.outer(v, v.conj()), dims, {sys_idx})
        np.testing.assert_allclose(via_scenario, via_ptrace, atol=1e-12)


def test_reduced_density_rejects_bad_dims():
    bob = observer_conditional_state(two_observer_example(), 1)  # factors [2, 2]
    with pytest.raises(DimensionMismatchError):
        observer_reduced_density(bob, [2, 0], 1)
    with pytest.raises(DimensionMismatchError):
        observer_reduced_density(bob, [2, 2, 2], 2)
    with pytest.raises(StateCompatError, match="BlockState"):
        observer_reduced_density(np.ones(4) / 2, [2, 2], 1)  # dense vectors are not reduced
    with pytest.raises(DimensionMismatchError):
        observer_reduced_density(bob, [2, 3], 1)
    with pytest.raises(DimensionMismatchError):
        observer_reduced_density(bob, [2, 2], 0)  # blocks reduce to the system only


def test_reduced_density_refuses_float_factor_dims():
    """A factor dimension that is not an integer is refused, not truncated to the
    state's, also one equal to it; a numpy integer is taken."""
    state = BlockState([2, 1], 2, [[0, 0]], [[1.0, 0.0]])
    for dims, bad in [([2.7, 1.2, 2.9], 2.7), ([2.0, 1.0, 2.0], 2.0), ([2, 1, True], True)]:
        with pytest.raises(StateCompatError, match=re.escape(f"factor dimension must be an integer, got {bad!r}")):
            observer_reduced_density(state, dims, 2)
    np.testing.assert_array_equal(observer_reduced_density(state, [np.int64(2), 1, 2], 2), [[1, 0], [0, 0]])


# ----------------------------------------------------------------- run_scenario


def test_scenario_identical_pure_states():
    rng = np.random.default_rng(13)
    phi = random_unit_vector(2, rng)
    result = run_scenario([pure(phi), pure(phi)])
    assert result.success
    assert result.distances == pytest.approx([0.0, 0.0], abs=1e-12)
    assert result.joint_zero_probability == pytest.approx(1.0, abs=1e-12)


def test_scenario_mixed_with_pure():
    rhos = [validate_density(np.diag([0.75, 0.25])), pure(PLUS)]
    result = run_scenario(rhos)
    assert result.success
    assert max(result.distances) <= 1e-8


def test_scenario_rejects_incompatible_inputs():
    with pytest.raises(IncompatibleError):
        run_scenario([pure(E0), pure(PLUS)])


def test_scenario_recovers_every_observer():
    combos = [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]
    for seed, (dim, count) in enumerate(combos):
        rng = np.random.default_rng(400 + seed)
        rhos = [validate_density(m) for m in compatible_instance(dim, count, rng)]
        result = run_scenario(rhos)
        assert result.success, result.distances
        for recovered, rho in zip(result.recovered, rhos):
            assert np.linalg.norm(recovered - rho.matrix) <= 1e-8


def test_conditioning_order_consistency():
    rng = np.random.default_rng(17)
    rhos = [validate_density(m) for m in compatible_instance(3, 3, rng)]
    result = run_scenario(rhos)
    # rebuild the same joint state to inspect intermediate quantities
    phi = full_report(rhos).witness
    ensembles = [ensemble_containing(r, phi) for r in rhos]
    psi = build_joint_state(ensembles)
    for k in range(3):
        tensor = block_tensor(psi)
        slab = np.take(tensor, 0, axis=k).reshape(-1)
        p_k = float(np.linalg.norm(slab) ** 2)
        dims = [d for j, d in enumerate(psi.ancilla_dims) if j != k] + [psi.system_dim]
        normalized_then_trace = observer_reduced_density(
            observer_conditional_state(psi, k), dims, len(dims) - 1
        )
        trace_then_normalize = (
            partial_trace(np.outer(slab, slab.conj()), dims, {len(dims) - 1}) / p_k
        )
        np.testing.assert_allclose(normalized_then_trace, trace_then_normalize, atol=1e-10)
    assert result.success


def test_scaling_ensemble_weights_changes_nothing():
    rng = np.random.default_rng(19)
    phi = random_unit_vector(3, rng)
    chi1, chi2 = random_unit_vector(3, rng), random_unit_vector(3, rng)
    raw = [(0.4, phi), (0.35, chi1), (0.25, chi2)]
    other = Ensemble(3, [(0.6, phi), (0.4, chi1)])

    base = build_joint_state([Ensemble(3, raw), other])
    total = sum(7.3 * w for w, _ in raw)
    scaled = build_joint_state([Ensemble(3, [(7.3 * w / total, s) for w, s in raw]), other])
    for k in range(2):
        dims = [d for j, d in enumerate(base.ancilla_dims) if j != k] + [base.system_dim]
        rho_a = observer_reduced_density(observer_conditional_state(base, k), dims, len(dims) - 1)
        rho_b = observer_reduced_density(observer_conditional_state(scaled, k), dims, len(dims) - 1)
        np.testing.assert_allclose(rho_a, rho_b, atol=1e-10)


def test_composite_state_validation():
    zero_one = np.array([[0, 0], [1, 1]])
    half = np.eye(2) / np.sqrt(2)
    with pytest.raises(StateCompatError, match="not normalized"):
        CompositeState([2, 2], 2, zero_one, np.ones((2, 2)))
    with pytest.raises(DimensionMismatchError):
        CompositeState([2, 2], 2, zero_one, np.ones((3, 2)) / np.sqrt(6))  # 3 blocks, 2 patterns
    with pytest.raises(DimensionMismatchError):
        CompositeState([2, 2], 2, [[0, 0, 0], [1, 1, 0]], half)  # 3 levels, 2 ancillas
    with pytest.raises(DimensionMismatchError):
        CompositeState([2, 2], 2, zero_one, np.ones((2, 3)) / np.sqrt(6))  # blocks of length 3
    with pytest.raises(StateCompatError, match="all-zero"):
        CompositeState([2, 2], 2, [[1, 1]], [[1.0, 0.0]])  # all-zero pattern absent
    with pytest.raises(StateCompatError, match="all-zero"):
        CompositeState([2, 2], 2, zero_one, [[0.0, 0.0], [1.0, 0.0]])  # its block empty
    with pytest.raises(StateCompatError, match="distinct"):
        CompositeState([2, 2], 2, [[0, 0], [0, 0]], half)
    with pytest.raises(StateCompatError, match="out of range"):
        CompositeState([2, 3], 2, [[0, 0], [0, 3]], half)
    with pytest.raises(StateCompatError, match="out of range"):
        CompositeState([2, 2], 2, [[0, 0], [-1, 1]], half)
    with pytest.raises(StateCompatError, match="non-finite"):
        CompositeState([2, 2], 2, zero_one, [[1.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(StateCompatError, match="integers"):
        CompositeState([2, 2], 2, zero_one.astype(float), half)
    with pytest.raises(StateCompatError, match="two positive"):
        CompositeState([2], 2, [[0], [1]], half)
    with pytest.raises(StateCompatError, match="system dimension must be positive"):
        CompositeState([2, 2], 0, zero_one, np.zeros((2, 0)))
    psi = CompositeState([2, 3], 2, [[0, 0], [1, 2]], half)
    assert psi.patterns.dtype == np.intp
    assert joint_zero_outcome_probability(psi) == pytest.approx(0.5, abs=1e-15)


# ------------------------------------------------- block layout vs dense oracle


def test_block_state_matches_dense_reference():
    atol = 4 * np.finfo(float).eps  # amplitudes are at most 1 in modulus
    for dim in (2, 3):
        for count in (2, 3, 4):
            for seed in range(4):
                rng = np.random.default_rng(1000 * dim + 100 * count + seed)
                rhos = [validate_density(m) for m in compatible_instance(dim, count, rng)]
                phi = support_compatible(rhos)[1].basis[:, 0]
                ensembles = [ensemble_containing(r, phi) for r in rhos]
                psi = build_joint_state(ensembles)
                dense = dense_joint_tensor(ensembles)
                np.testing.assert_allclose(block_tensor(psi), dense, rtol=0, atol=atol)
                dense_zero = float(np.sum(np.abs(dense[(0,) * count]) ** 2))
                result = run_scenario(rhos)
                assert result.joint_zero_probability == pytest.approx(dense_zero, abs=atol)
                for k in range(count):
                    slab = dense_conditional(dense, k)
                    block = observer_conditional_state(psi, k)
                    np.testing.assert_allclose(block_tensor(block), slab, rtol=0, atol=atol)
                    v = slab.reshape(-1)
                    via_dense = partial_trace(np.outer(v, v.conj()), slab.shape, {slab.ndim - 1})
                    np.testing.assert_allclose(result.recovered[k], via_dense, atol=1e-14)


def test_thousand_observer_state_is_stored_as_blocks():
    rng = np.random.default_rng(23)
    phi, chi = random_unit_vector(3, rng), random_unit_vector(3, rng)
    psi = build_joint_state([Ensemble(3, [(0.5, phi), (0.5, chi)])] * 1000)
    assert psi.ancilla_dims == (2,) * 1000
    assert psi.amplitudes.shape == (1001, 3)
    assert psi.patterns.shape == (1001, 1000)


def test_scenario_thousand_observers():
    rng = np.random.default_rng(29)
    rhos = [validate_density(m) for m in compatible_instance(3, 1000, rng)]
    result = run_scenario(rhos)
    assert result.success, max(result.distances)
    assert len(result.recovered) == 1000
    assert 0.0 < result.joint_zero_probability <= 1.0


def test_recovered_matrices_pass_validation_unchanged():
    """The recovered Gram matrices are not validated; validation would accept
    each one and return it within 4 ulp."""
    ulp = np.finfo(float).eps
    for dim in (2, 3, 5, 8):
        for count in (2, 3, 5):
            for seed in range(3):
                rhos = [validate_density(m) for m in generate_instance(dim, count, seed)]
                for recovered in run_scenario(rhos).recovered:
                    again = validate_density(recovered)
                    np.testing.assert_allclose(again.matrix, recovered, rtol=0, atol=4 * ulp)


def near_common_mixed_set(dim, ranks, angle, rng):
    """Mixed states whose supports nearly share a state: each holds phi tilted by ``angle``.

    Generic supports with these ranks would share nothing (their codimensions
    add up to at least ``dim``), so the smallest support defect is of order
    ``angle``.
    """
    frame = random_unitary(dim, rng)
    phi = frame[:, 0]
    rhos = []
    for rank in ranks:
        tilt = random_unit_vector(dim, rng)
        tilt -= phi * np.vdot(phi, tilt)
        near = np.cos(angle) * phi + np.sin(angle) * tilt / np.linalg.norm(tilt)
        others = random_unitary(dim, rng)[:, : rank - 1]
        basis, _ = np.linalg.qr(np.column_stack([near, others]))
        sigma = random_density(rank, rng)
        rhos.append(validate_density(basis @ sigma @ basis.conj().T))
    return rhos


def test_recovery_distance_within_sqrt2_support_defect_for_mixed_inputs():
    """distance_k <= sqrt(2) delta_k, delta_k being the witness's distance from support k.

    For a pure input the two are equal; a mixed one rebuilds its matrix as
    r_0 (|psi><psi| - |u><u|) plus itself, u the unit projection of psi on the
    support, so its distance is r_0 sqrt(2) delta_k. The slack of 1e-15 covers
    rounding in the Gram products.
    """
    rng = np.random.default_rng(31)
    checked = 0
    for dim, ranks in [(3, [2, 2, 2]), (4, [2, 2, 3]), (4, [3, 3, 2, 2]), (6, [3, 4, 2])]:
        for angle in (1e-10, 1e-9, 4e-9):
            rhos = near_common_mixed_set(dim, ranks, angle, rng)
            report = full_report(rhos)
            if not report.compatible:
                continue
            result = run_scenario(rhos)
            defects = [projection_defect(support(r), report.witness) for r in rhos]
            assert min(defects) > 0.0
            for distance, delta in zip(result.distances, defects):
                assert distance <= np.sqrt(2) * delta + 1e-15, (dim, ranks, angle)
            assert result.success
            checked += 1
    assert checked >= 8


# ------------------------------------------- batched pass vs the per-observer loop


def mixed_rank_set(dim, n, rng):
    """n matrices whose supports contain one random state: rank 1, full rank, dim // 2 in turn."""
    phi = random_unit_vector(dim, rng)
    rhos = []
    for k in range(n):
        rank = (1, dim, max(1, dim // 2))[k % 3]
        basis, _ = np.linalg.qr(np.column_stack([phi, random_unitary(dim, rng)[:, : rank - 1]]))
        rhos.append(validate_density(basis @ random_density(rank, rng) @ basis.conj().T))
    return rhos


def assert_same_ensemble(got, ref, atol=1e-15):
    assert got.dim == ref.dim and len(got.terms) == len(ref.terms)
    for (w, s), (w_ref, s_ref) in zip(got.terms, ref.terms):
        assert abs(w - w_ref) <= atol
        assert np.max(np.abs(s - s_ref)) <= atol


@pytest.mark.parametrize(
    "dim, n", [(d, n) for d in (1, 2, 3, 5, 16) for n in (2, 3, 8, 10)] + [(3, 1000)]
)
def test_batched_scenario_matches_the_per_observer_loop(dim, n):
    """run_scenario against the loop oracle at the report's witness, and the
    public assembler on the library's ensembles against the oracle's state
    (the runner-up rule for ancilla dimensions included)."""
    rng = np.random.default_rng(7000 + 31 * dim + n)
    rhos = mixed_rank_set(dim, n, rng)
    phi = full_report(rhos).witness
    assert np.array_equal(phi, support_compatible(rhos)[1].basis[:, 0])
    psi_ref, ref = loop_scenario(rhos, phi)
    got = run_scenario(rhos)
    assert got.success is ref.success is True
    assert abs(got.joint_zero_probability - ref.joint_zero_probability) <= 1e-15
    assert np.max(np.abs(np.subtract(got.distances, ref.distances))) <= 1e-15
    assert np.max(np.abs(got.recovered - ref.recovered)) <= 1e-15
    ensembles = [ensemble_containing(r, phi) for r in rhos]
    psi = build_joint_state(ensembles)
    assert psi.ancilla_dims == psi_ref.ancilla_dims
    np.testing.assert_array_equal(psi.patterns, psi_ref.patterns)
    assert np.max(np.abs(psi.amplitudes - psi_ref.amplitudes)) <= 1e-15
    assert abs(joint_zero_outcome_probability(psi) - ref.joint_zero_probability) <= 1e-15
    for ensemble, rho in zip(ensembles[:10], rhos):
        assert_same_ensemble(ensemble, loop_ensemble_containing(rho, phi))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_ensemble_containing_is_the_kernels_ensemble(dim):
    """ensemble_containing(rho_k, phi) holds the kept terms of observer k in the
    scenario kernel, the weights divided once, as _realize divides them, over
    the compatible check-many-small shapes (counts 2-4).

    The weights are the same bits where the kernel's weight rows hold fewer
    than eight entries (2 x the set's largest rank), as at dims 2 and 3.
    numpy sums eight or more numbers pairwise, so the kernel's row, with
    zeros for the dropped terms, and the ensemble's row of kept weights can
    round differently: by at most 4 units in the last place (2 seen over
    3,600 ensembles). The states are the same bits at dims 2 and 3 and for an
    observer of the set's largest rank; otherwise the kernel pads the
    observer's support basis to that rank, and its stacked products round
    differently: by at most 4 eps in an entry (2.2 seen).
    """
    eps = np.finfo(float).eps
    for count in (2, 3, 4):
        for seed in range(20):
            matrices = generate_instance(dim, count, 7919 * dim + 101 * count + seed, "compatible")
            rhos = [validate_density(m) for m in matrices]
            phi = support_compatible(rhos)[1].basis[:, 0]
            spectra = _spectra(rhos, DEFAULT_TOL)
            weights, totals, states, keep = _ensembles_around(spectra, phi, DEFAULT_TOL)
            weights = weights / totals[:, None]
            ranks = spectra.ranks
            for k, rho in enumerate(rhos):
                terms = ensemble_containing(rho, phi).terms
                got_w, got_s = np.array([w for w, _ in terms]), np.array([s for _, s in terms])
                want_w, want_s = weights[k][keep[k]], states[k][keep[k]]
                if weights.shape[1] < 8:
                    assert np.array_equal(got_w, want_w)
                assert np.all(np.abs(got_w - want_w) <= 4 * np.spacing(want_w))
                if dim <= 3 or ranks[k] == ranks.max():
                    assert np.array_equal(got_s, want_s)
                assert np.max(np.abs(got_s - want_s)) <= 4 * eps


def oracle_sets():
    """(matrices, state) pairs for the kernel: generated sets of every mode (dims 2-5,
    counts 2-4; pairwise-only at count 3), each matrix around a random state of its
    support, each compatible pair and each compatible set around its witness; then
    the scenario-observers shape, compatible sets at dim 3 of 2 to 8 matrices."""
    shapes = [(mode, dim, count) for mode in ("compatible", "incompatible")
              for dim in (2, 3, 4, 5) for count in (2, 3, 4)]
    shapes += [("pairwise-only", dim, 3) for dim in (3, 4, 5)]
    for mode, dim, count in shapes:
        for seed in range(4):
            rhos = [validate_density(m) for m in generate_instance(dim, count, 6100 + seed, mode)]
            rng = np.random.default_rng(6100 + seed)
            for rho in rhos:
                basis = support(rho).basis
                yield [rho], basis @ random_unit_vector(basis.shape[1], rng)
            for group in [[a, b] for i, a in enumerate(rhos) for b in rhos[i + 1:]] + [rhos]:
                compatible, witness = support_compatible(group)
                if compatible:
                    yield group, witness.basis[:, 0]
    for n in range(2, 9):
        for seed in range(4):
            rhos = [validate_density(m) for m in generate_instance(3, n, 6200 + seed, "compatible")]
            yield rhos, support_compatible(rhos)[1].basis[:, 0]


def test_check_terms_passes_on_every_kernel_ensemble():
    """The cross-check of the checks _ensembles_around leaves out: check_stacked_ensembles, the
    constructor's checks of an ensemble, passes on the kernel's candidate terms and
    returns the kernel's weight sums bit for bit."""
    cases = 0
    for rhos, phi in oracle_sets():
        weights, totals, states, keep = _ensembles_around(_spectra(rhos, DEFAULT_TOL), phi, DEFAULT_TOL)
        assert check_stacked_ensembles(weights, states, keep).tobytes() == totals.tobytes()
        cases += 1
    assert cases == 732


def test_ensemble_pass_keeps_the_earlier_bits():
    """The pass returns the four arrays of its earlier form, which checked phi itself,
    bit for bit on every oracle set."""
    cases = 0
    for rhos, phi in oracle_sets():
        spectra = _spectra(rhos, DEFAULT_TOL)
        got = _ensembles_around(spectra, phi, DEFAULT_TOL)
        want = earlier_ensembles_around(spectra, phi, DEFAULT_TOL)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        cases += 1
    assert cases == 732


def assert_witness_passes_the_state_checks(rhos):
    """The split's witness lies within match_abs/sqrt(2) of every support and is a unit
    vector within UNIT_TOL, so _check_state, which the scenario skips, passes on it."""
    witness = _split_set(rhos, DEFAULT_TOL).witness
    if witness is None:
        return
    largest = max(projection_defect(support(rho), witness) for rho in rhos)
    assert largest <= DEFAULT_TOL.match_abs / np.sqrt(2.0) + 1e-15
    assert abs(np.linalg.norm(witness) - 1.0) <= UNIT_TOL
    _check_state(_spectra(rhos, DEFAULT_TOL), witness, DEFAULT_TOL)


def test_the_witness_passes_the_checks_the_scenario_skips():
    """On every set of the oracle sets and at the scenario-observers shape (dim 3,
    1 to 8 matrices; one is the first of a pair), the witness passes the two state
    checks _realize leaves out."""
    for rhos, _ in oracle_sets():
        assert_witness_passes_the_state_checks(rhos)
    for n in range(1, 9):
        for seed in range(8):
            matrices = generate_instance(3, max(n, 2), 6300 + seed, "compatible")[:n]
            assert_witness_passes_the_state_checks([validate_density(m) for m in matrices])


@pytest.mark.parametrize("case", ["rank_rel 5e-3", "dim 120"])
def test_scenario_of_a_compatible_set_can_fail_the_weight_sum(case):
    """The weight-sum check stays in the pass, because it is reachable from a set the
    report calls compatible: the zero cutoff drops eigenvalues whose weight then misses
    from r_0's ensemble. diag(0.5, 0.4996, 0.0004) at rank_rel 5e-3 drops the surplus
    0.0004 and the eigenvalue 0.0004, and at the default tolerances one eigenvalue near
    1 beside 119 at 0.9e-10 (before normalizing) drops the 119; either beside |0><0|."""
    if case == "dim 120":
        tol, values, total = DEFAULT_TOL, np.array([1.0] + [0.9e-10] * 119), "0.99999998929"
        values /= values.sum()
    else:
        tol, values, total = Tolerances(rank_rel=5e-3), np.array([0.5, 0.4996, 0.0004]), "0.9992"
    lead = np.zeros(len(values), dtype=complex)
    lead[0] = 1.0
    rhos = [validate_density(np.diag(values), tol), validate_density(np.outer(lead, lead), tol)]
    assert full_report(rhos, tol).compatible
    assert raised(run_scenario, rhos, tol) == (
        StateCompatError, f"ensemble weights sum to {total}, outside 1 +- 1e-08")


def test_batched_scenario_of_one_matrix_is_its_pair():
    """One matrix is realized as the loop oracle realizes two observers holding it,
    around the one matrix's witness, its leading support vector."""
    rng = np.random.default_rng(77)
    for rho in mixed_rank_set(4, 3, rng):
        phi = full_report([rho]).witness
        assert np.array_equal(phi, support(rho).basis[:, 0])
        single = run_scenario([rho])
        _, pair = loop_scenario([rho, rho], phi)
        assert single.success and len(single.recovered) == 1
        assert abs(single.distances[0] - pair.distances[0]) <= 1e-15
        assert abs(single.joint_zero_probability - pair.joint_zero_probability) <= 1e-15
        assert np.max(np.abs(single.recovered[0] - pair.recovered[0])) <= 1e-15


def test_shared_state_scenario_checks_the_set():
    """The scenario checks its set as the other entry points do."""
    with pytest.raises(StateCompatError, match="at least one"):
        run_scenario([])
    with pytest.raises(DimensionMismatchError):
        run_scenario([pure(E0), validate_density(np.eye(3) / 3)])


def raised(call, *args):
    with pytest.raises(StateCompatError) as info:
        call(*args)
    return type(info.value), str(info.value)


def kernel(rhos, phi, tol=DEFAULT_TOL):
    """The state checker, then the scenario's ensemble pass, over the set around ``phi``."""
    spectra = _spectra(rhos, tol)
    _check_state(spectra, phi, tol)
    return _ensembles_around(spectra, phi, tol)


def test_batched_scenario_raises_like_the_per_observer_loop():
    """The kernel raises the per-observer class and message where one observer
    fails a check, and quotes the largest support defect; ensemble_containing
    refuses a caller's state (non-finite, of the wrong length, tilted out of
    the support or outside it) as the loop oracle does."""
    rng = np.random.default_rng(79)
    dim = 4
    rhos = mixed_rank_set(dim, 6, rng)
    phi = support_compatible(rhos)[1].basis[:, 0]
    away = random_unitary(dim, rng)[:, :2]
    away -= np.outer(phi, phi.conj() @ away)
    away, _ = np.linalg.qr(away)  # orthonormal, orthogonal to phi
    outside = validate_density(away @ random_density(2, rng) @ away.conj().T)  # defect 1
    tilted = np.column_stack([np.cos(0.5) * phi + np.sin(0.5) * away[:, 0], away[:, 1]])
    partly = validate_density(tilted @ random_density(2, rng) @ tilted.conj().T)  # sin(0.5)
    values, vectors = rhos[1].spectrum.eigenvalues, rhos[1].spectrum.eigenvectors
    doubled = unchecked_density(2.0 * rhos[1].matrix, EigResult(2.0 * values, vectors))  # weights sum to 2
    cases = {
        "outside at 2": rhos[:2] + [partly, rhos[3]],
        "weight sum at 1": [rhos[0], doubled, rhos[2]],
        "outside at 1, weight sum at 3": [rhos[0], outside, rhos[2], doubled],
    }
    for name, observers in cases.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = raised(kernel, observers, phi)
        assert got == raised(loop_scenario, observers, phi), name
    for name, state in {"non-finite": np.where(np.arange(dim) == 1, np.nan, phi),
                        "wrong length": phi[:-1]}.items():
        for rho in rhos:
            assert raised(ensemble_containing, rho, state) == raised(loop_ensemble_containing, rho, state), name
    for rho in (partly, outside):
        assert raised(ensemble_containing, rho, phi) == raised(loop_ensemble_containing, rho, phi)
    defects = [projection_defect(support(r), phi) for r in (partly, outside)]
    assert abs(defects[0] - np.sin(0.5)) <= 1e-12 and abs(defects[1] - 1.0) <= 1e-12
    for observers, defect in ((cases["outside at 2"], defects[0]),
                              (rhos[:2] + [partly, rhos[3], outside, rhos[5]], defects[1])):
        assert raised(kernel, observers, phi) == (
            StateOutsideSupportError,
            f"state has a null-space component (projection defect {defect:.3e}); "
            "no ensemble for this density matrix can contain it",
        )


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_shared_state_is_unit_within_unit_tol(sign):
    """The shared state's norm is checked once, at UNIT_TOL, with the per-observer loop's
    class and message, for ensemble_containing and the kernel alike; an observer outside
    its support raises before the norm."""
    rng = np.random.default_rng(83)
    dim = 4
    rhos = mixed_rank_set(dim, 5, rng)
    phi = support_compatible(rhos)[1].basis[:, 0]
    near = (1.0 + sign * 0.99 * UNIT_TOL) * phi
    for rho in rhos:
        assert_same_ensemble(ensemble_containing(rho, near), loop_ensemble_containing(rho, near))
    kernel(rhos, near)
    state = (1.0 + sign * 1.01 * UNIT_TOL) * phi
    norm = raised(kernel, rhos, state)
    assert norm == raised(loop_scenario, rhos, state)
    assert norm[0] is StateCompatError and norm[1].startswith("ensemble state is not unit norm")
    for rho in rhos:
        assert raised(ensemble_containing, rho, state) == raised(loop_ensemble_containing, rho, state) == norm
    away = random_unitary(dim, rng)[:, :2]
    away, _ = np.linalg.qr(away - np.outer(phi, phi.conj() @ away))  # orthogonal to phi
    outside = validate_density(away @ random_density(2, rng) @ away.conj().T)
    first = raised(kernel, [outside, *rhos], state)
    assert first == raised(loop_scenario, [outside, *rhos], state)
    assert first == raised(ensemble_containing, outside, state)
    assert first[0] is StateOutsideSupportError


def test_zero_leading_coefficient_needs_no_division():
    """phi with no component on the first support eigenvector: the lead = 0 reflector."""
    rhos = [validate_density(np.diag([0.6, 0.4])), validate_density(np.eye(2) / 2), pure(E1)]
    assert np.array_equal(full_report(rhos).witness, E1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_scenario(rhos)
        ensemble = ensemble_containing(rhos[0], E1)
    _, ref = loop_scenario(rhos, E1)
    assert got.success
    assert np.max(np.abs(np.subtract(got.distances, ref.distances))) <= 1e-15
    assert_same_ensemble(ensemble, loop_ensemble_containing(rhos[0], E1))
    np.testing.assert_allclose(ensemble.terms[1][1], -E0, atol=1e-15)


@pytest.mark.parametrize("eps, compatible", [(0.99e-10, False), (1.01e-10, True)])
def test_every_entry_point_reads_one_rank_decision(eps, compatible):
    """diag(1 - eps, eps, 0) beside |1><1|, eps just below or above the zero cutoff 1e-10:
    the rank of the first matrix decides the set, for the report, the scenario, the kernel
    around |1> and the ensemble around |1> alike."""
    e1 = np.array([0.0, 1.0, 0.0], dtype=complex)
    rhos = [validate_density(np.diag([1.0 - eps, eps, 0.0])), pure(e1)]
    report = full_report(rhos)
    assert report.compatible is compatible
    if compatible:
        np.testing.assert_allclose(report.witness, e1, rtol=0, atol=1e-15)
        assert run_scenario(rhos).success
        kernel(rhos, e1)
        ensemble = ensemble_containing(rhos[0], e1)
        assert np.array_equal(ensemble.terms[0][1], e1) and ensemble.terms[0][0] > 0.0
    else:
        with pytest.raises(IncompatibleError):
            run_scenario(rhos)
        with pytest.raises(StateOutsideSupportError):
            kernel(rhos, e1)
        with pytest.raises(StateOutsideSupportError):
            ensemble_containing(rhos[0], e1)


@pytest.mark.parametrize(
    "dim, count, seed", [(2, 2, 1), (3, 3, 7), (5, 4, 3), (8, 3, 5), (3, 8, 11), (4, 1, 2)]
)
def test_scenario_around_the_report_witness_is_run_scenario(dim, count, seed):
    """The report's split, realized as the CLI realizes it, gives run_scenario's bits,
    and the report made from it is full_report's."""
    matrices = generate_instance(dim, max(count, 2), seed, "compatible")[:count]
    rhos = [validate_density(m) for m in matrices]
    got = run_scenario(rhos)
    split = _split_set(rhos, DEFAULT_TOL)
    assert np.array_equal(_report(split, DEFAULT_TOL).witness, full_report(rhos).witness)
    shared = _realize(split, DEFAULT_TOL)
    assert got.success and got.distances == shared.distances
    assert got.joint_zero_probability == shared.joint_zero_probability
    assert np.array_equal(got.recovered, shared.recovered)
