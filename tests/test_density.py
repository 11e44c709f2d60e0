import copy
import dataclasses
import pickle
import re
from collections.abc import Mapping

import numpy as np
import pytest

from statecompat import compat
from statecompat.compat import forbidden_subspace, full_report, support_compatible
from statecompat.density import (
    DensityMatrix,
    Ensemble,
    _rank_split,
    ensemble_containing,
    null_space,
    support,
    validate_density,
)
from statecompat.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotPositiveError,
    StateCompatError,
    StateOutsideSupportError,
    TraceNotOneError,
)
from statecompat.fileio import Instance
from statecompat.generate import (
    compatible_instance,
    crandn,
    generate_instance,
    incompatible_instance,
    pairwise_only_instance,
    random_density,
    random_unit_vector,
    random_unitary,
)
from statecompat.linalg import DEFAULT_TOL, Subspace, Tolerances, subspace_intersection
from statecompat.scenario import (
    BlockState,
    CompositeState,
    build_joint_state,
    observer_conditional_state,
    observer_reduced_density,
    run_scenario,
)

from conftest import (
    check_stacked_ensembles,
    eigen_ensemble,
    ensemble_to_density,
    reference_hermitian_eig,
    reference_split,
    reference_validate_density,
    reduced_cutoffs,
    span_of,
)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def reconstruct(ensemble):
    acc = np.zeros((ensemble.dim, ensemble.dim), dtype=complex)
    for w, s in ensemble.terms:
        acc += w * np.outer(s, s.conj())
    return acc


# ------------------------------------------------------------ validate_density


def test_validate_accepts_maximally_mixed():
    rho = validate_density(np.eye(2) / 2)
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)
    assert rho.dim == 2


def test_validate_rejects_wrong_trace():
    with pytest.raises(TraceNotOneError):
        validate_density(np.diag([1.0, 1.0]))


def test_validate_rejects_negative_eigenvalue():
    with pytest.raises(NotPositiveError):
        validate_density(np.diag([1.5, -0.5]))


def test_validate_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))


def test_validate_symmetrizes_small_defect():
    m = np.diag([0.75, 0.25]).astype(complex)
    m[0, 1] += 2e-9
    rho = validate_density(m)
    assert np.linalg.norm(rho.matrix - rho.matrix.conj().T) == 0.0


def test_validate_clamps_tiny_negatives():
    rho = validate_density(np.diag([1.0 + 1e-12, -1e-12]))
    vals = np.linalg.eigvalsh(rho.matrix)
    assert vals.min() >= 0.0
    assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-15


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def oracle_inputs():
    """Generated matrices of all three modes at d = 1-16, a clamped eigenvalue, a small defect."""
    for dim in range(1, 17):
        rng = np.random.default_rng(800 + dim)
        yield from compatible_instance(dim, 3, rng)
        if dim >= 2:
            yield from incompatible_instance(dim, 3, rng)
        if dim >= 3:
            yield from pairwise_only_instance(dim, rng)
        if dim >= 2:
            u = random_unitary(dim, rng)
            values = np.linspace(1.0, 0.0, dim) + 1e-12
            values[-1] = -1e-12  # inside the negative band: clamped to zero
            yield (u * (values / values.sum())) @ u.conj().T
            m = random_density(dim, rng).astype(complex)
            m[0, 1] += 0.99 * DEFAULT_TOL.match_abs / np.sqrt(2.0)  # defect just inside match_abs
            yield m


def test_validate_matches_the_reference_bit_for_bit():
    count = clamped = 0
    for m in oracle_inputs():
        got, want = validate_density(m), reference_validate_density(m)
        for rho in (got, DensityMatrix(m, DEFAULT_TOL)):  # the constructor is the validation
            assert same_bits(rho.matrix, want.matrix)
            assert same_bits(rho.spectrum.eigenvalues, want.spectrum.eigenvalues)
            assert same_bits(rho.spectrum.eigenvectors, want.spectrum.eigenvectors)
        count += 1
        clamped += bool(np.linalg.eigvalsh((m + m.conj().T) / 2)[0] < -1e-13)
    assert count == 165 and clamped == 15  # the planted eigenvalues of about -1e-12


def invariant_sets():
    """Sets of validated matrices for the report-versus-subspaces invariants.

    Every run of one to three consecutive :func:`oracle_inputs` matrices of
    one size and each size's whole list; pure pairs whose matrices lie 1e-9
    to 1e-3 apart (the theta sweep, flipping at sqrt(2) match_abs); and the
    repeated-state triple [a, a, b] on both sides of its flip.
    """
    by_dim = {}
    for m in oracle_inputs():
        by_dim.setdefault(m.shape[0], []).append(validate_density(m))
    for rhos in by_dim.values():
        for k in (1, 2, 3):
            yield from (rhos[i : i + k] for i in range(len(rhos) - k + 1))
        yield rhos

    def pure(v):
        return validate_density(np.outer(v, v.conj()))

    for distance in (1e-9, 1e-8, 1.4e-8, 1.42e-8, 1e-7, 1e-5, 3e-5, 1e-3):
        theta = float(np.arcsin(distance / np.sqrt(2)))
        yield [pure(E0), pure(np.cos(theta) * E0 + np.sin(theta) * E1)]
    frame = random_unitary(3, np.random.default_rng(89))
    for theta in (8.5e-9, 1.15e-8):
        a = pure(frame[:, 0])
        yield [a, a, pure(np.cos(theta) * frame[:, 0] + np.sin(theta) * frame[:, 1])]


def test_report_and_subspace_functions_cannot_contradict():
    threshold = DEFAULT_TOL.match_abs / np.sqrt(2.0)
    verdicts = []
    for rhos in invariant_sets():
        report = full_report(rhos)
        compatible, intersection = support_compatible(rhos)
        forbidden = forbidden_subspace(rhos)
        ref_intersection, ref_forbidden, defects = reference_split(rhos)
        assert report.intersection_dim == intersection.dim == ref_intersection.dim
        assert report.forbidden_dim == forbidden.dim == report.dim - report.intersection_dim
        assert report.compatible == compatible == (intersection.dim >= 1)
        assert same_bits(intersection.basis, ref_intersection.basis)
        assert same_bits(forbidden.basis, ref_forbidden.basis)
        ratio = defects / threshold
        assert report.marginal == bool(np.any((ratio > 0.1) & (ratio < 10.0)))
        if compatible:
            assert same_bits(report.witness, intersection.basis[:, 0])
            assert same_bits(report.witness, ref_intersection.basis[:, 0])
        else:
            assert report.witness is None
        verdicts.append(compatible)
    assert (len(verdicts), sum(verdicts)) == (473, 340)


def all_entries_notes(rhos, tol=DEFAULT_TOL) -> list[str]:
    """The marginal notes with every ratio tested, as the report first computed them."""
    values = np.array([r.spectrum.eigenvalues for r in rhos])
    ratios = [reference_split(rhos, tol)[2] / (tol.match_abs / np.sqrt(2.0)),
              values / reduced_cutoffs(values, tol)[:, None]]
    return [note for note, ratio in zip((compat._MARGINAL_NOTE, compat._MARGINAL_RANK_NOTE), ratios)
            if np.count_nonzero((ratio > 0.1) & (ratio < 10.0))]


def test_marginal_notes_match_every_ratio_tested():
    """The report's marginal notes are those of every ratio tested against its band, as first computed.

    Over the invariant sets, and over diag(1 - eps, eps, 0) beside |1><1|
    with eps swept through the rank band and pure pairs swept through the
    defect band, both notes appear in each combination.
    """
    sets = list(invariant_sets())
    for eps in np.logspace(-12, -8, 41):
        sets.append([validate_density(np.diag([1 - eps, eps, 0.0])), validate_density(np.diag([0.0, 1.0, 0.0]))])
    for distance in np.logspace(-10, -6, 41):
        theta = float(np.arcsin(distance / np.sqrt(2)))
        pair = [validate_density(np.outer(v, v.conj())) for v in (E0, np.cos(theta) * E0 + np.sin(theta) * E1)]
        sets += [pair, pair + [validate_density(np.diag([1 - 2e-10, 2e-10]))]]
    seen = set()
    for rhos in sets:
        notes = full_report(rhos).notes
        assert notes == all_entries_notes(rhos)
        seen.add(tuple(notes))
    assert len(seen) == 4


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[np.nan, 0.0], [0.0, 1.0]]),
        np.zeros((2, 2, 2)),
        np.ones((2, 3)),
        np.array([[0.5, 0.3], [0.0, 0.5]]),
        np.diag([1.0, 1.0]),
        np.diag([1.5, -0.5]),
        np.diag([1.0 + 1e-6, -1e-6]),
        np.diag([2.0, -1.0]),
        np.array([[0.5, 1e200], [1e200, 0.5]]),
    ],
    ids=["non-finite", "3-d", "non-square", "non-hermitian", "trace", "negative", "just-negative",
         "eigenvalue-minus-one", "huge-finite"],
)
def test_validate_raises_what_the_reference_raises(bad):
    # also without a floating-point warning, which the suite turns into an error; the
    # huge finite entries overflow ||M||_F^2 but not a check that validation makes
    with pytest.raises(StateCompatError) as want:
        reference_validate_density(bad)
    for entry in (validate_density, DensityMatrix):
        with pytest.raises(StateCompatError) as got:
            entry(bad)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def folded_check_inputs():
    """Inputs refused by the checks that validation's one probe stands in for, or by the defect test after them."""
    e = DEFAULT_TOL.match_abs * (1.0 + 1e-9) / np.sqrt(2.0)  # ||M - M^dag|| = sqrt(2) e
    yield "nan-off-diagonal", np.array([[0.5, np.nan], [0.0, 0.5]])
    for sign in (1.0, -1.0):
        yield f"{sign:+.0f}inf-on-diagonal", np.diag([sign * np.inf, 0.5])
        yield f"{sign:+.0f}inf-off-diagonal", np.array([[0.5, sign * np.inf], [sign * np.inf, 0.5]])
        yield f"{sign:+.0f}inf-one-off-diagonal", np.array([[0.5, sign * np.inf], [0.0, 0.5]])
    yield "inf-imaginary", np.array([[0.5, complex(0.0, np.inf)], [complex(0.0, -np.inf), 0.5]])
    yield "non-finite-non-square", np.array([[0.5, 0.0, np.inf], [0.0, 0.5, 0.0]])
    yield "empty", np.zeros((0, 0))
    yield "1-d", np.array([0.5, 0.5])
    yield "1x1-nan", np.array([[np.nan]])
    yield "defect-just-above-match_abs", np.array([[0.5, e], [0.0, 0.5]])


def validated_spectrum(m):
    """The constructor's eigendecomposition, whose checks before the trace reference_hermitian_eig makes."""
    return DensityMatrix(m).spectrum


@pytest.mark.parametrize("entry, reference", [
    (validate_density, reference_validate_density),
    pytest.param(validated_spectrum, reference_hermitian_eig, id="hermitian_eig-reference_hermitian_eig"),
    (DensityMatrix, reference_validate_density),
])
@pytest.mark.parametrize("bad", [m for _, m in folded_check_inputs()],
                         ids=[name for name, _ in folded_check_inputs()])
def test_folded_checks_raise_what_the_reference_raises(entry, reference, bad):
    # also without a floating-point warning, which the suite turns into an error
    with pytest.raises(StateCompatError) as want:
        reference(bad)
    with pytest.raises(StateCompatError) as got:
        entry(bad)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("entry", [validate_density, DensityMatrix])
def test_empty_matrix_is_refused(entry):
    with pytest.raises(StateCompatError, match="matrix must not be empty"):
        entry(np.zeros((0, 0)))


# ------------------------------------------------------------ support / null


def test_support_of_pure_state():
    rho = validate_density(np.outer(E0, E0.conj()))
    s = support(rho)
    assert s.dim == 1
    np.testing.assert_allclose(np.abs(s.basis[:, 0]), [1, 0], atol=1e-14)


def test_support_of_maximally_mixed_is_full():
    assert support(validate_density(np.eye(2) / 2)).dim == 2


def test_support_of_rank_two_diagonal():
    rho = validate_density(np.diag([0.5, 0.5, 0.0]))
    s = support(rho)
    assert s.dim == 2
    np.testing.assert_allclose(s.projector(), np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_null_space_of_pure_state():
    rho = validate_density(np.outer(E0, E0.conj()))
    n = null_space(rho)
    assert n.dim == 1
    np.testing.assert_allclose(np.abs(n.basis[:, 0]), [0, 1], atol=1e-14)


def test_null_space_of_full_rank_is_empty():
    assert null_space(validate_density(np.eye(4) / 4)).dim == 0


def test_null_space_annihilates_rank_deficient_state():
    rng = np.random.default_rng(5)
    rho = validate_density(random_density(4, rng, rank=2))
    n = null_space(rho)
    assert n.dim == 2
    for j in range(n.dim):
        v = n.basis[:, j]
        assert abs(np.vdot(v, rho.matrix @ v)) <= 1e-10


def test_support_plus_null_resolve_identity():
    rng = np.random.default_rng(9)
    for rank in (1, 2, 3, 4):
        rho = validate_density(random_density(4, rng, rank=rank))
        total = support(rho).projector() + null_space(rho).projector()
        assert np.linalg.norm(total - np.eye(4)) <= 1e-10


# ------------------------------------------------------------------- Ensemble


def test_ensemble_rejects_nonpositive_weight():
    with pytest.raises(StateCompatError):
        Ensemble(2, [(0.0, E0), (1.0, E1)])


def test_ensemble_rejects_non_unit_state():
    with pytest.raises(StateCompatError):
        Ensemble(2, [(1.0, np.array([1.0, 1.0]))])


def test_ensemble_rejects_bad_weight_sum():
    with pytest.raises(StateCompatError):
        Ensemble(2, [(0.5, E0), (0.4, E1)])


def test_ensemble_rejects_dimension_zero_and_no_terms():
    with pytest.raises(StateCompatError, match="dimension must be positive"):
        Ensemble(0, [(1.0, E0)])
    with pytest.raises(StateCompatError, match="at least one term"):
        Ensemble(2, [])


@pytest.mark.parametrize("terms", [
    [(0.5, E0), (0.5, E1)],
    [(0.5, E0), (0.0, E1), (-1.0, 2 * E1)],
    [(0.5, 2 * E0), (float("nan"), E1)],
    [(0.5, E0), (0.5, 1.5 * E1), (0.5, 2 * E0)],
    [(0.5, E0), (0.4, E1)],
    [(float("inf"), E0)],
], ids=["fine", "weights", "nan-weight", "norms", "sum", "inf-weight"])
def test_ensemble_checks_are_the_stacked_oracle_on_one_row(terms):
    """The constructor makes the checks of check_stacked_ensembles, in its order and
    with its messages: the first non-positive weight, then the first non-unit state,
    then the weight sum."""
    def outcome(call):
        try:
            call()
        except StateCompatError as exc:
            return type(exc), str(exc)
        return None

    weights, states = np.array([[w for w, _ in terms]]), np.array([[s for _, s in terms]])
    keep = np.ones(weights.shape, dtype=bool)
    assert (outcome(lambda: Ensemble(2, terms))
            == outcome(lambda: check_stacked_ensembles(weights, states, keep)))


def test_ensemble_keeps_its_weights_as_given():
    """A weight sum off one by less than TRACE_TOL is accepted, and each weight is kept
    as the float it was given, not divided by the sum."""
    e = Ensemble(2, [(0.5 + 3e-9, E0), (np.float32(0.5), E1)])
    assert [w for w, _ in e.terms] == [0.5 + 3e-9, 0.5]
    assert all(type(w) is float for w, _ in e.terms)


# --------------------------------------------------------- ensemble <-> rho


def test_ensemble_to_density_pure():
    rho = ensemble_to_density(Ensemble(2, [(1.0, E0)]))
    np.testing.assert_allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-14)


def test_ensemble_to_density_mixed_orthogonal():
    rho = ensemble_to_density(Ensemble(2, [(0.5, E0), (0.5, E1)]))
    np.testing.assert_allclose(rho.matrix, np.eye(2) / 2, atol=1e-14)


def test_ensemble_to_density_non_orthogonal():
    e = Ensemble(2, [(0.5, E0), (0.25, PLUS), (0.25, MINUS)])
    np.testing.assert_allclose(
        ensemble_to_density(e).matrix, np.diag([0.75, 0.25]), atol=1e-12
    )


def test_eigen_ensemble_diagonal():
    e = eigen_ensemble(validate_density(np.diag([0.75, 0.25])))
    assert [w for w, _ in e.terms] == pytest.approx([0.75, 0.25])
    np.testing.assert_allclose(np.abs(e.terms[0][1]), [1, 0], atol=1e-14)
    np.testing.assert_allclose(np.abs(e.terms[1][1]), [0, 1], atol=1e-14)


def test_eigen_ensemble_pure_state_single_term():
    rng = np.random.default_rng(21)
    phi = random_unit_vector(3, rng)
    e = eigen_ensemble(validate_density(np.outer(phi, phi.conj())))
    assert len(e.terms) == 1
    assert e.terms[0][0] == pytest.approx(1.0, abs=1e-12)


def test_eigen_ensemble_round_trip():
    rng = np.random.default_rng(25)
    for dim, rank in [(2, 2), (4, 2), (5, 5), (6, 3)]:
        rho = validate_density(random_density(dim, rng, rank=rank))
        again = ensemble_to_density(eigen_ensemble(rho))
        assert np.linalg.norm(again.matrix - rho.matrix) <= 1e-10


# ------------------------------------------------------- ensemble_containing


def test_containing_maximally_mixed_gives_uniform_basis():
    e = ensemble_containing(validate_density(np.eye(2) / 2), PLUS)
    assert [w for w, _ in e.terms] == pytest.approx([0.5, 0.5])
    np.testing.assert_allclose(e.terms[0][1], PLUS, atol=1e-12)
    np.testing.assert_allclose(e.terms[1][1], MINUS, atol=1e-12)


def test_containing_pure_state_is_trivial():
    rng = np.random.default_rng(33)
    phi = random_unit_vector(3, rng)
    rho = validate_density(np.outer(phi, phi.conj()))
    e = ensemble_containing(rho, phi)
    assert len(e.terms) == 1
    assert e.terms[0][0] == pytest.approx(1.0, abs=1e-12)
    assert abs(abs(np.vdot(e.terms[0][1], phi)) - 1.0) <= 1e-12


def test_containing_worked_two_level_example():
    rho = validate_density(np.diag([0.75, 0.25]))
    e = ensemble_containing(rho, PLUS)
    # smallest eigenvalue 1/4 carries PLUS and its orthonormal completion,
    # the surplus 1/2 stays on the top eigenvector
    np.testing.assert_allclose(sorted(w for w, _ in e.terms), [0.25, 0.25, 0.5])
    np.testing.assert_allclose(e.terms[0][1], PLUS, atol=1e-12)
    assert e.terms[0][0] == pytest.approx(0.25, abs=1e-12)
    assert np.linalg.norm(reconstruct(e) - rho.matrix) <= 1e-10


def test_containing_weight_equals_least_eigenvalue():
    rng = np.random.default_rng(39)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        rank = int(rng.integers(1, dim + 1))
        rho = validate_density(random_density(dim, rng, rank=rank))
        basis = support(rho).basis
        coeff = crandn(rng, basis.shape[1])
        psi = basis @ coeff
        psi /= np.linalg.norm(psi)
        e = ensemble_containing(rho, psi)
        vals = np.linalg.eigvalsh(rho.matrix)
        r0 = min(v for v in vals if v > 1e-10 * vals.max())
        assert e.terms[0][0] == pytest.approx(r0, abs=1e-10)
        assert abs(abs(np.vdot(e.terms[0][1], psi)) - 1.0) <= 1e-10
        assert np.linalg.norm(reconstruct(e) - rho.matrix) <= 1e-10
        assert sum(w for w, _ in e.terms) == pytest.approx(1.0, abs=1e-9)


def test_containing_rejects_null_component():
    rng = np.random.default_rng(45)
    rho = validate_density(random_density(4, rng, rank=2))
    bad = null_space(rho).basis[:, 0]
    with pytest.raises(StateOutsideSupportError):
        ensemble_containing(rho, bad)


def test_membership_decided_by_support():
    rng = np.random.default_rng(51)
    for _ in range(20):
        dim = int(rng.integers(3, 6))
        rank = int(rng.integers(1, dim))
        rho = validate_density(random_density(dim, rng, rank=rank))
        inside = support(rho).basis @ crandn(rng, rank)
        inside /= np.linalg.norm(inside)
        e = ensemble_containing(rho, inside)
        assert np.linalg.norm(reconstruct(e) - rho.matrix) <= 1e-10

        leak = rng.uniform(1e-3, 1.0)
        mixed = np.sqrt(1 - leak**2) * inside + leak * null_space(rho).basis[:, 0]
        with pytest.raises(StateOutsideSupportError):
            ensemble_containing(rho, mixed)


def test_produced_states_orthogonal_to_null_space():
    rng = np.random.default_rng(57)
    for _ in range(10):
        rho = validate_density(random_density(5, rng, rank=3))
        nul = null_space(rho).basis
        psi = support(rho).basis @ crandn(rng, 3)
        psi /= np.linalg.norm(psi)
        for ensemble in (eigen_ensemble(rho), ensemble_containing(rho, psi)):
            for _, state in ensemble.terms:
                assert np.max(np.abs(nul.conj().T @ state)) <= 1e-8


def test_support_of_reconstruction_matches_state_span():
    rng = np.random.default_rng(63)
    for _ in range(10):
        dim = 4
        k = int(rng.integers(1, 4))
        states = [random_unit_vector(dim, rng) for _ in range(k)]
        weights = rng.dirichlet(np.ones(k)) * 0.9 + 0.1 / k  # bounded below
        e = Ensemble(dim, list(zip(weights / weights.sum(), states)))
        supp = support(ensemble_to_density(e))
        span = span_of(np.column_stack(states))
        assert np.linalg.norm(supp.projector() - span.projector()) <= 1e-8


# ------------------------------------------------------ tolerance boundaries


@pytest.mark.parametrize("factor", [0.99, 1.01])
def test_a_total_probability_is_one_within_trace_tol(factor):
    """The trace of a density matrix and the weight sum of an ensemble share TRACE_TOL = 1e-8."""
    excess = factor * 1e-8
    matrix = np.diag([0.5 + excess, 0.5])
    terms = [(0.5 + excess, E0), (0.5, E1)]
    if factor < 1.0:
        assert validate_density(matrix).matrix.trace().real == pytest.approx(1.0, abs=1e-15)
        assert sum(w for w, _ in Ensemble(2, terms).terms) == pytest.approx(1.0 + excess, abs=1e-15)
    else:
        with pytest.raises(TraceNotOneError):
            validate_density(matrix)
        with pytest.raises(StateCompatError, match="weights sum to"):
            Ensemble(2, terms)


@pytest.mark.parametrize("factor", [0.99, 1.01])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_an_ensemble_state_is_unit_within_unit_tol(factor, sign):
    """UNIT_TOL = 1e-10 on each side of unit norm."""
    state = (1.0 + sign * factor * 1e-10) * E0
    if factor < 1.0:
        Ensemble(2, [(1.0, state)])
    else:
        with pytest.raises(StateCompatError, match="not unit norm"):
            Ensemble(2, [(1.0, state)])


def test_rank_split_cutoffs_are_zero_cutoff_bit_for_bit():
    """_rank_split reads a descending spectrum's leading value where reduced_cutoffs reduces
    the whole spectrum to its maximum: the same cutoffs, stacked or one at a time, the
    floor included."""
    for tol in (DEFAULT_TOL, Tolerances(rank_rel=3e-3)):
        for rhos in invariant_sets():
            values = np.array([r.spectrum.eigenvalues for r in rhos])
            assert same_bits(_rank_split(values, tol)[0], reduced_cutoffs(values, tol))
            for v in values:
                assert same_bits(_rank_split(v, tol)[0], reduced_cutoffs(v, tol))
        zeros = np.zeros((2, 3))
        assert same_bits(_rank_split(zeros, tol)[0], reduced_cutoffs(zeros, tol))


@pytest.mark.parametrize("factor", [0.99, 1.01])
@pytest.mark.parametrize("rank_rel", [1e-10, 1e-6])
def test_negative_eigenvalues_are_clamped_up_to_the_zero_cutoff(factor, rank_rel):
    """validate_density's negativity threshold is the zero cutoff of the spectrum (relative to
    its largest eigenvalue, 0.7 here): accepted and clamped to zero below it, refused above."""
    tol = Tolerances(rank_rel=rank_rel)
    depth = factor * float(reduced_cutoffs(np.array([0.7, 0.3, 0.0]), tol))
    matrix = np.diag([0.7, 0.3 + depth, -depth])
    if factor < 1.0:
        rho = validate_density(matrix, tol)
        assert rho.spectrum.eigenvalues[-1] == 0.0
        np.testing.assert_allclose(rho.matrix, np.diag([0.7, 0.3 + depth, 0.0]) / (1.0 + depth),
                                   rtol=0, atol=1e-16)
    else:
        with pytest.raises(NotPositiveError):
            validate_density(matrix, tol)


# ------------------------------------------------------------ unreadable input


@pytest.mark.parametrize(
    "call",
    [
        lambda: validate_density([[1, 0], [0]]),
        lambda: validate_density("abc"),
        lambda: DensityMatrix([[1, 0], [0]]),
        lambda: Ensemble(2, [("x", E0)]),
        lambda: Ensemble(2, [(None, E0)]),
        lambda: Ensemble(2, [(1.0, "ab")]),
        lambda: Ensemble(2, [(1.0,)]),
        lambda: ensemble_containing(validate_density(np.diag([1.0, 0.0])), "ab"),
        lambda: ensemble_containing(validate_density(np.diag([1.0, 0.0])), [1, [0]]),
        lambda: Subspace(2, [[1, 0], [0]]),
        lambda: CompositeState([2, 2], 2, [[0, 0], [1]], [[1.0, 0.0], [0.0, 0.0]]),
        lambda: Tolerances(rank_rel="1e-3"),
        lambda: Tolerances(match_abs=np.array([1e-3, 1e-3])),
    ],
    ids=["ragged matrix", "string matrix", "ragged DensityMatrix", "string weight",
         "None weight", "string state", "term without state", "string vector",
         "ragged shared state", "ragged basis", "ragged patterns", "string tolerance",
         "array tolerance"],
)
def test_unreadable_input_raises_a_one_line_statecompat_error(call):
    """Input numpy cannot convert raises the package's error class, not a bare
    ValueError or TypeError, with a one-line message."""
    with pytest.raises(StateCompatError) as info:
        call()
    assert str(info.value) and "\n" not in str(info.value)


def test_a_state_of_the_wrong_length_gets_one_error():
    """Ensembles and the decomposition check a state's length in one place."""
    rho = validate_density(np.diag([0.5, 0.5]))
    state = np.ones(3) / np.sqrt(3.0)
    for call in (lambda: Ensemble(2, [(1.0, state)]),
                 lambda: ensemble_containing(rho, state)):
        with pytest.raises(DimensionMismatchError) as info:
            call()
        assert str(info.value) == "vector length 3 != ambient dimension 2"


@pytest.mark.parametrize(
    "call", [support, null_space, lambda rho: ensemble_containing(rho, E0)],
    ids=["support", "null_space", "ensemble_containing"],
)
def test_a_one_matrix_argument_must_be_a_density_matrix(call):
    """The one-matrix functions refuse what is not a validated DensityMatrix, such as
    the array or list it would be validated from, with the set functions' error,
    not an AttributeError."""
    matrix = np.eye(2) / 2
    for rho, name in ((matrix, "ndarray"), (matrix.tolist(), "list")):
        with pytest.raises(StateCompatError) as info:
            call(rho)
        assert str(info.value) == f"element 0 of the set has type {name}, not DensityMatrix"


@pytest.mark.parametrize(
    "call",
    [
        lambda rho, tol: support(rho, tol),
        lambda rho, tol: null_space(rho, tol),
        lambda rho, tol: ensemble_containing(rho, E0, tol),
        lambda rho, tol: support_compatible([rho], tol),
        lambda rho, tol: forbidden_subspace([rho], tol),
        lambda rho, tol: full_report([rho], tol),
        lambda rho, tol: run_scenario([rho], tol),
        lambda rho, tol: compat.commutes(rho, rho, tol),
        lambda rho, tol: compat.product_nonzero(rho, rho, tol),
    ],
    ids=["support", "null_space", "ensemble_containing", "support_compatible",
         "forbidden_subspace", "full_report", "run_scenario", "commutes", "product_nonzero"],
)
def test_tolerances_must_be_a_tolerances(call):
    """A bare number, a mapping or None in place of the Tolerances is refused with
    the package's error, naming its type, not met by an AttributeError."""
    rho = validate_density(np.outer(E0, E0))
    for tol, name in ((1e-3, "float"), ({"rank_rel": 1e-3}, "dict"), (None, "NoneType")):
        with pytest.raises(StateCompatError) as info:
            call(rho, tol)
        assert str(info.value) == f"tolerances must be a Tolerances, got {name}"


def _two_observer_state():
    return CompositeState([2, 2], 2, [[0, 0], [0, 1], [1, 0]], np.array([E0, E1, E1]) / np.sqrt(3.0))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate_density(np.eye(2) / 2, 1e-3), "tolerances must be a Tolerances, got float"),
        (lambda: DensityMatrix("not a matrix", None), "tolerances must be a Tolerances, got NoneType"),
        (lambda: subspace_intersection([1]), "element 0 of the set has type int, not Subspace"),
        (lambda: subspace_intersection([Subspace(2, np.eye(2))] * 2, 0.1),
         "tolerances must be a Tolerances, got float"),
        (lambda: build_joint_state([1, 2]), "element 0 of the set has type int, not Ensemble"),
        (lambda: build_joint_state([Ensemble(2, [(1.0, E0)])] * 2, {"rank_rel": 1e-3}),
         "tolerances must be a Tolerances, got dict"),
        (lambda: observer_conditional_state(1, 0), "element 0 of the set has type int, not CompositeState"),
        (lambda: observer_reduced_density(1, [2], 0), "element 0 of the set has type int, not BlockState"),
        (lambda: observer_reduced_density(observer_conditional_state(_two_observer_state(), 0), [2, 2], 1, 0.1),
         "tolerances must be a Tolerances, got float"),
    ],
    ids=["validate_density-tol", "DensityMatrix-tol-first", "subspace_intersection-element",
         "subspace_intersection-tol", "build_joint_state-element", "build_joint_state-tol",
         "observer_conditional_state-state", "observer_reduced_density-state", "observer_reduced_density-tol"],
)
def test_a_wrong_argument_raises_statecompat_error(call, message):
    """Every public function refuses a tolerance that is not a Tolerances, and an element
    of the wrong type, with the package's error in the set check's words: the constructor
    of a DensityMatrix checks its tolerances before it reads the matrix."""
    with pytest.raises(StateCompatError) as info:
        call()
    assert str(info.value) == message


def test_numpy_scalars_are_still_numbers():
    tol = Tolerances(rank_rel=np.float64(1e-9), match_abs=np.float32(1e-7))
    matrix = np.array([[np.float32(0.5), 0], [0, np.complex64(0.5)]], dtype=object)
    rho = validate_density(matrix, tol)
    assert rho.matrix.dtype == np.complex128
    ensemble = Ensemble(2, [(np.float64(0.5), [np.int64(1), 0]), (np.float32(0.5), E1)])
    assert [w for w, _ in ensemble.terms] == [0.5, 0.5]


# ------------------------------------------------------------ immutability


def caller_arrays():
    """Writeable arrays a caller holds: two states, block patterns and amplitudes, a matrix, a basis."""
    return {"e0": E0.copy(), "e1": E1.copy(), "patterns": np.array([[0, 0], [1, 0]]),
            "amplitudes": np.eye(2, dtype=complex) / np.sqrt(2), "matrix": np.diag([1.0, 0.0]),
            "basis": np.array([[1.0], [1.0j]]) / np.sqrt(2)}


MADE = {
    "DensityMatrix": lambda a: DensityMatrix(a["matrix"]),
    "Ensemble": lambda a: Ensemble(2, [(0.5, a["e0"]), (0.5, a["e1"])]),
    "BlockState": lambda a: BlockState([2, 1], 2, a["patterns"], a["amplitudes"]),
    "CompositeState": lambda a: CompositeState([2, 1], 2, a["patterns"], a["amplitudes"]),
    "Instance": lambda a: Instance(2, ["a"], [a["matrix"]], {"rank_rel": 1e-9}),
    "Subspace": lambda a: Subspace(2, a["basis"]),
}


DIMENSIONS = {
    "Ensemble.dim": (lambda d: Ensemble(d, [(1.0, E0)]), lambda e: [e.dim]),
    "Subspace.ambient_dim": (lambda d: Subspace(d, np.eye(2)[:, :1]), lambda s: [s.ambient_dim]),
    "BlockState.ancilla_dims": (lambda d: BlockState([d, 1], 2, [[0, 0]], [E0]),
                                lambda b: list(b.ancilla_dims)),
    "BlockState.system_dim": (lambda d: BlockState([2, 1], d, [[0, 0]], [E0]),
                              lambda b: [b.system_dim]),
    "CompositeState.ancilla_dims": (lambda d: CompositeState([d, 1], 2, [[0, 0]], [E0]),
                                    lambda c: list(c.ancilla_dims)),
    "CompositeState.system_dim": (lambda d: CompositeState([2, 1], d, [[0, 0]], [E0]),
                                  lambda c: [c.system_dim]),
    "Instance.dim": (lambda d: Instance(d, ["a"], [np.eye(2) / 2]), lambda i: [i.dim]),
}


@pytest.mark.parametrize("where", list(DIMENSIONS))
def test_a_dimension_is_an_int(where):
    """A checked type stores a numpy integer dimension as an int, and refuses a
    float or a bool, also one equal to a valid dimension, as an instance file's
    reader refuses ``"dim": true``; so an Instance writes no file its reader refuses."""
    make, read = DIMENSIONS[where]
    dims = read(make(np.int64(2)))
    assert 2 in dims and all(type(d) is int for d in dims)
    for bad in (2.0, 2.7, np.float64(2.0), True, np.bool_(True)):
        with pytest.raises(StateCompatError, match=re.escape(f"must be an integer, got {bad!r}")):
            make(bad)


def stored_arrays(value):
    """The arrays in a field's value, also inside tuples."""
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, tuple):
        for item in value:
            yield from stored_arrays(item)


@pytest.mark.parametrize("kind", list(MADE))
def test_checked_objects_cannot_change(kind):
    """Every field refuses rebinding, every stored array a write, every tuple or
    mapping an assignment, and no array the caller passed changes its flags."""
    passed = caller_arrays()
    made = MADE[kind](passed)
    arrays = []
    for field in dataclasses.fields(made):
        value = getattr(made, field.name)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(made, field.name, value)
        if isinstance(value, (tuple, Mapping)):
            with pytest.raises(TypeError):
                value[0] = None
        arrays += stored_arrays(value)
    assert arrays
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0
    assert all(array.flags.writeable for array in passed.values())


def same_value(got, want) -> bool:
    """Equal fields: arrays of one dtype and the same entries, tuples item by item."""
    if isinstance(want, np.ndarray):
        return isinstance(got, np.ndarray) and got.dtype == want.dtype and np.array_equal(got, want)
    if isinstance(want, tuple):
        return isinstance(got, tuple) and len(got) == len(want) and all(map(same_value, got, want))
    return got == want


COPIES = {"copy": copy.copy, "deepcopy": copy.deepcopy, "pickle": lambda x: pickle.loads(pickle.dumps(x))}


@pytest.mark.parametrize("how", list(COPIES))
# a DensityMatrix is copied without a second validation, keeping every bit
# (test_density_matrix_arrays_are_read_only)
@pytest.mark.parametrize("kind", [kind for kind in MADE if kind != "DensityMatrix"])
def test_copies_and_pickles_are_made_by_the_constructor(kind, how, monkeypatch):
    """A copy or an unpickled object runs its class's checks once, has the
    original's fields, and cannot change either."""
    made = MADE[kind](caller_arrays())
    cls, checks = type(made), []
    original = cls.__post_init__

    def counted(self):
        checks.append(type(self))
        original(self)

    monkeypatch.setattr(cls, "__post_init__", counted)
    again = COPIES[how](made)
    assert type(again) is cls and checks == [cls]
    arrays = []
    for field in dataclasses.fields(made):
        assert same_value(getattr(again, field.name), getattr(made, field.name)), field.name
        arrays += stored_arrays(getattr(again, field.name))
    assert arrays and not any(array.flags.writeable for array in arrays)


@pytest.mark.parametrize("how", [None, *COPIES])
def test_density_matrix_arrays_are_read_only(how):
    """A validated matrix's ``matrix``, eigenvalues and eigenvectors refuse writes, on
    the unclamped path and the clamped one, and so do those of a copy, a deep copy or
    an unpickled matrix, which keeps every bit of the original."""
    rng = np.random.default_rng(90)
    for m in (random_density(3, rng), random_density(4, rng, rank=2), np.diag([0.6, 0.4, -1e-13])):
        rho = validate_density(m)
        again = rho if how is None else COPIES[how](rho)
        assert type(again) is DensityMatrix
        pairs = [(again.matrix, rho.matrix), (again.spectrum.eigenvalues, rho.spectrum.eigenvalues),
                 (again.spectrum.eigenvectors, rho.spectrum.eigenvectors)]
        for got, want in pairs:
            assert got.dtype == want.dtype and same_bits(got, want)
            with pytest.raises(ValueError, match="read-only"):
                got[...] = 0


def test_copied_ensembles_keep_their_terms_bit_for_bit(monkeypatch):
    """ensemble_containing's ensembles of generated compatible sets (dims 2-5, three
    matrices, seeds 0-99): a copy, a deep copy and an unpickled ensemble each pass
    through the constructor's checks once and keep every weight and state bit for bit,
    as the constructor keeps the weights it is given."""
    checks = []
    original = Ensemble.__post_init__

    def counted(self):
        checks.append(self)
        original(self)

    ensembles = []
    for seed in range(100):
        for dim in (2, 3, 4, 5):
            rhos = [validate_density(m) for m in generate_instance(dim, 3, seed, "compatible")]
            phi = support_compatible(rhos)[1].basis[:, 0]
            ensembles += [ensemble_containing(rho, phi) for rho in rhos]
    monkeypatch.setattr(Ensemble, "__post_init__", counted)
    for how in COPIES.values():
        for ensemble in ensembles:
            again = how(ensemble)
            assert checks.pop() is again and not checks
            assert again.dim == ensemble.dim and len(again.terms) == len(ensemble.terms)
            for (w, s), (w_ref, s_ref) in zip(again.terms, ensemble.terms):
                assert type(w) is float and same_bits(w, w_ref)
                assert same_bits(s, s_ref) and not s.flags.writeable


def test_density_matrix_direct_construction_checks_shape():
    with pytest.raises(StateCompatError):
        DensityMatrix(np.ones((2, 3)))
