import numpy as np
import pytest

from statecompat.density import (
    DensityMatrix,
    Ensemble,
    ensemble_containing,
    null_space,
    support,
    validate_density,
)
from statecompat.errors import (
    NotHermitianError,
    NotPositiveError,
    StateCompatError,
    StateOutsideSupportError,
    TraceNotOneError,
)
from statecompat.generate import (
    compatible_instance,
    crandn,
    incompatible_instance,
    pairwise_only_instance,
    random_density,
    random_unit_vector,
    random_unitary,
)
from statecompat.linalg import DEFAULT_TOL, hermitian_eig

from conftest import eigen_ensemble, ensemble_to_density, reference_validate_density, span_of

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
        assert same_bits(got.matrix, want.matrix)
        assert same_bits(got.spectrum.eigenvalues, want.spectrum.eigenvalues)
        assert same_bits(got.spectrum.eigenvectors, want.spectrum.eigenvectors)
        count += 1
        clamped += bool(np.linalg.eigvalsh((m + m.conj().T) / 2)[0] < -1e-13)
    assert count == 165 and clamped == 15  # the planted eigenvalues of about -1e-12


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
    ],
    ids=["non-finite", "3-d", "non-square", "non-hermitian", "trace", "negative", "just-negative"],
)
def test_validate_raises_what_the_reference_raises(bad):
    with pytest.raises(StateCompatError) as want:
        reference_validate_density(bad)
    with pytest.raises(StateCompatError) as got:
        validate_density(bad)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("entry", [validate_density, hermitian_eig])
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


def test_ensemble_renormalizes_tiny_defect():
    e = Ensemble(2, [(0.5 + 3e-9, E0), (0.5, E1)])
    assert sum(w for w, _ in e.terms) == pytest.approx(1.0, abs=1e-15)


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


def test_density_matrix_direct_construction_checks_shape():
    with pytest.raises(StateCompatError):
        DensityMatrix(np.ones((2, 3)))
