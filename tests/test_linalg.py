import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statecompat.errors import (
    DimensionMismatchError,
    NotHermitianError,
    NotSquareError,
    StateCompatError,
    VectorOutsideSubspaceError,
)
from statecompat.generate import crandn, random_subspace, random_unit_vector, random_unitary
from statecompat.compat import forbidden_subspace, support_compatible
from statecompat.density import null_space, support, validate_density
from statecompat.generate import generate_instance
from statecompat.linalg import (
    DEFAULT_TOL,
    ORTHO_TOL,
    Subspace,
    Tolerances,
    fix_phase,
    hermitian_eig,
    orthonormal_basis_containing,
    subspace_intersection,
)

from conftest import (
    loop_fix_phase,
    loop_partial_trace,
    orthogonal_complement,
    partial_trace,
    proj,
    rank_formula_intersection_dim,
    reference_fix_phase,
    span_of,
    subspace_span_union,
    svd_completion,
    tensor_product_vec,
)

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2)


def rand_hermitian(rng, d):
    m = crandn(rng, d, d)
    return m + m.conj().T


# ---------------------------------------------------------------- tolerances


@pytest.mark.parametrize("bad", [0.0, -1e-10, 1e-2, 0.5])
def test_tolerances_rejects_out_of_range(bad):
    with pytest.raises(StateCompatError):
        Tolerances(rank_rel=bad)
    with pytest.raises(StateCompatError):
        Tolerances(match_abs=bad)


def test_tolerances_defaults():
    assert DEFAULT_TOL.rank_rel == 1e-10
    assert DEFAULT_TOL.match_abs == 1e-8


# ------------------------------------------------------------- hermitian_eig


def test_eig_identity():
    res = hermitian_eig(np.eye(2))
    np.testing.assert_allclose(res.eigenvalues, [1.0, 1.0])


def test_eig_diagonal():
    res = hermitian_eig(np.diag([0.75, 0.25]))
    np.testing.assert_allclose(res.eigenvalues, [0.75, 0.25])
    np.testing.assert_allclose(res.eigenvectors[:, 0], E0, atol=1e-14)
    np.testing.assert_allclose(res.eigenvectors[:, 1], E1, atol=1e-14)


def test_eig_reconstruction_random_6x6():
    rng = np.random.default_rng(42)
    h = rand_hermitian(rng, 6)
    res = hermitian_eig(h)
    rebuilt = (res.eigenvectors * res.eigenvalues) @ res.eigenvectors.conj().T
    assert np.linalg.norm(rebuilt - h) <= 1e-10
    gram = res.eigenvectors.conj().T @ res.eigenvectors
    assert np.max(np.abs(gram - np.eye(6))) <= 1e-10


def test_eig_descending_and_phase_fixed():
    rng = np.random.default_rng(3)
    for _ in range(10):
        res = hermitian_eig(rand_hermitian(rng, 5))
        assert np.all(np.diff(res.eigenvalues) <= 1e-12)
        for j in range(5):
            v = res.eigenvectors[:, j]
            lead = v[np.argmax(np.abs(v) > 1e-8)]
            assert lead.real > 0 and abs(lead.imag) <= 1e-12 * abs(lead)


def test_eig_rejects_non_square():
    with pytest.raises(NotSquareError):
        hermitian_eig(np.ones((2, 3)))


def test_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eig_symmetrizes_small_defect():
    h = np.diag([0.75, 0.25]).astype(complex)
    h[0, 1] += 1e-9  # below match_abs, symmetrized away
    res = hermitian_eig(h)
    np.testing.assert_allclose(res.eigenvalues, [0.75, 0.25], atol=1e-9)


# -------------------------------------------------------- tensor_product_vec


def test_tensor_basis_bookkeeping():
    np.testing.assert_allclose(tensor_product_vec([E0, E0]), [1, 0, 0, 0])
    np.testing.assert_allclose(tensor_product_vec([E1, E0]), [0, 0, 1, 0])


def test_tensor_norm_multiplies_random():
    rng = np.random.default_rng(7)
    for _ in range(20):
        u, v, w = crandn(rng, 3), crandn(rng, 4), crandn(rng, 2)
        got = np.linalg.norm(tensor_product_vec([u, v, w]))
        want = np.linalg.norm(u) * np.linalg.norm(v) * np.linalg.norm(w)
        assert got == pytest.approx(want, rel=1e-12)


component = st.floats(min_value=-5, max_value=5, allow_nan=False, allow_infinity=False)
complex_vec = st.lists(st.tuples(component, component), min_size=1, max_size=5).map(
    lambda pairs: np.array([complex(r, i) for r, i in pairs])
)


@settings(max_examples=60, deadline=None)
@given(u=complex_vec, v=complex_vec)
def test_tensor_norm_multiplies_hypothesis(u, v):
    got = np.linalg.norm(tensor_product_vec([u, v]))
    want = np.linalg.norm(u) * np.linalg.norm(v)
    assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


# --------------------------------------------------------------- partial_trace


def test_ptrace_product_basis_state():
    psi = tensor_product_vec([E0, E0])
    rho = np.outer(psi, psi.conj())
    np.testing.assert_allclose(
        partial_trace(rho, [2, 2], {0}), np.outer(E0, E0.conj()), atol=1e-14
    )


def test_ptrace_bell_state():
    bell = (tensor_product_vec([E0, E0]) + tensor_product_vec([E1, E1])) / np.sqrt(2)
    rho = np.outer(bell, bell.conj())
    np.testing.assert_allclose(partial_trace(rho, [2, 2], {0}), np.eye(2) / 2, atol=1e-14)


def test_ptrace_factorizes_on_products():
    rng = np.random.default_rng(11)
    for da, db in [(2, 3), (3, 2), (4, 2)]:
        a = crandn(rng, da, da)
        b = crandn(rng, db, db)
        m = np.kron(a, b)
        got = partial_trace(m, [da, db], {0})
        np.testing.assert_allclose(got, a * np.trace(b), atol=1e-12)
        np.testing.assert_allclose(got, loop_partial_trace(m, [da, db], {0}), atol=1e-12)


def test_ptrace_matches_loop_oracle_three_factors():
    rng = np.random.default_rng(13)
    dims = [2, 3, 2]
    m = crandn(rng, 12, 12)
    for keep in [{0}, {1}, {2}, {0, 2}, {1, 2}, {0, 1, 2}]:
        np.testing.assert_allclose(
            partial_trace(m, dims, keep), loop_partial_trace(m, dims, keep), atol=1e-12
        )


def test_ptrace_preserves_trace():
    rng = np.random.default_rng(17)
    m = crandn(rng, 12, 12)
    for keep in [{0}, {1}, {2}, {0, 1}]:
        reduced = partial_trace(m, [2, 3, 2], keep)
        assert abs(np.trace(reduced) - np.trace(m)) <= 1e-12


def test_ptrace_is_linear():
    rng = np.random.default_rng(19)
    a, b = crandn(rng, 6, 6), crandn(rng, 6, 6)
    alpha, beta = 0.7 - 0.2j, -1.3 + 0.5j
    lhs = partial_trace(alpha * a + beta * b, [2, 3], {1})
    rhs = alpha * partial_trace(a, [2, 3], {1}) + beta * partial_trace(b, [2, 3], {1})
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


# -------------------------------------------------------------------- Subspace


def test_subspace_rejects_non_orthonormal():
    with pytest.raises(StateCompatError):
        Subspace(2, np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))
    with pytest.raises(StateCompatError, match="non-finite"):
        Subspace(2, np.array([[np.nan], [0.0]], dtype=complex))


def orthonormality_defect(basis: np.ndarray) -> float:
    return float(np.max(np.abs(basis.conj().T @ basis - np.eye(basis.shape[1])), initial=0.0))


def test_internally_built_subspaces_are_orthonormal():
    """Bases from eigh, the intersection SVD and the Householder completion skip
    the constructor's Gram check; each is orthonormal within ORTHO_TOL."""
    cases = [(d, c, "compatible") for d in (2, 3, 5, 16) for c in (2, 3, 4)]
    cases += [(d, c, "incompatible") for d in (2, 4, 7) for c in (2, 3)]
    cases += [(d, 3, "pairwise-only") for d in (3, 6)]
    for seed, (dim, count, mode) in enumerate(cases):
        rhos = [validate_density(m) for m in generate_instance(dim, count, seed, mode)]
        built = [f(r) for r in rhos for f in (support, null_space)]
        compatible, intersection = support_compatible(rhos)
        built += [intersection, forbidden_subspace(rhos)]
        if compatible:
            witness = intersection.basis[:, 0]
            built += [orthonormal_basis_containing(witness, support(r)) for r in rhos]
        for sub in built:
            assert orthonormality_defect(sub.basis) <= ORTHO_TOL, (dim, count, mode)


def test_subspace_rejects_too_many_columns():
    with pytest.raises(StateCompatError):
        Subspace(2, np.eye(3)[:2, :])  # 2x3: "basis" larger than ambient space


def test_subspace_empty_and_full():
    assert Subspace(3, np.zeros((3, 0))).dim == 0
    assert Subspace(3, np.eye(3)).dim == 3
    np.testing.assert_allclose(Subspace(3, np.eye(3)).projector(), np.eye(3))


def test_subspace_from_span_deduplicates():
    s = span_of(np.column_stack([E0, E0, PLUS]))
    assert s.dim == 2


# ------------------------------------------- orthonormal_basis_containing


def test_basis_containing_e0_full_space():
    got = orthonormal_basis_containing(E0, Subspace(2, np.eye(2)))
    np.testing.assert_allclose(got.basis[:, 0], E0, atol=1e-14)
    np.testing.assert_allclose(np.abs(got.basis[:, 1]), np.abs(E1), atol=1e-14)


def test_basis_containing_plus_gives_minus():
    got = orthonormal_basis_containing(PLUS, Subspace(2, np.eye(2)))
    np.testing.assert_allclose(got.basis[:, 0], PLUS, atol=1e-14)
    np.testing.assert_allclose(got.basis[:, 1], MINUS, atol=1e-12)


def test_basis_containing_random_spans_same_subspace():
    rng = np.random.default_rng(23)
    for _ in range(15):
        basis = random_subspace(5, 3, rng)
        sub = Subspace(5, basis)
        coeff = crandn(rng, 3)
        psi = basis @ coeff
        psi /= np.linalg.norm(psi)
        got = orthonormal_basis_containing(psi, sub)
        assert got.dim == 3
        assert np.linalg.norm(got.projector() - sub.projector()) <= 1e-10
        assert abs(abs(np.vdot(got.basis[:, 0], psi)) - 1.0) <= 1e-12


def test_householder_completion_matches_svd_oracle():
    """Same span as the SVD completion, orthonormal, and inside the subspace,
    also for a vector 1e-9 off it."""
    rng = np.random.default_rng(29)
    for dim, k in [(2, 1), (2, 2), (3, 2), (5, 3), (8, 8), (16, 5), (32, 31)]:
        for offset in (0.0, 1e-9):
            if offset and k == dim:
                continue
            basis = random_subspace(dim, k, rng)
            psi = basis @ crandn(rng, k)
            psi /= np.linalg.norm(psi)
            if offset:
                away = crandn(rng, dim)
                away -= basis @ (basis.conj().T @ away)
                psi = np.sqrt(1.0 - offset**2) * psi + offset * away / np.linalg.norm(away)
            got = orthonormal_basis_containing(psi, Subspace(dim, basis)).basis
            ref = svd_completion(psi, basis)
            assert np.max(np.abs(proj(got) - proj(ref))) <= 1e-14, (dim, k, offset)
            assert orthonormality_defect(got) <= 1e-14
            outside = got[:, 1:] - basis @ (basis.conj().T @ got[:, 1:])
            assert np.max(np.abs(outside), initial=0.0) <= 1e-14
            assert abs(abs(np.vdot(got[:, 0], psi)) - 1.0) <= 1e-14


def test_basis_containing_rejects_outside_vector():
    sub = Subspace(3, np.eye(3, dtype=complex)[:, :2])
    outside = np.array([0.0, 0.6, 0.8], dtype=complex)
    with pytest.raises(VectorOutsideSubspaceError):
        orthonormal_basis_containing(outside, sub)


def test_basis_containing_rejects_non_unit():
    with pytest.raises(StateCompatError):
        orthonormal_basis_containing(np.array([2.0, 0.0]), Subspace(2, np.eye(2)))


# ------------------------------------------------------ subspace_intersection


def _coord_span(d, idxs):
    return Subspace(d, np.eye(d, dtype=complex)[:, idxs])


def test_intersection_coordinate_planes():
    got = subspace_intersection([_coord_span(3, [0, 1]), _coord_span(3, [1, 2])])
    assert got.dim == 1
    np.testing.assert_allclose(np.abs(got.basis[:, 0]), [0, 1, 0], atol=1e-12)


def test_intersection_idempotent():
    rng = np.random.default_rng(29)
    s = Subspace(4, random_subspace(4, 2, rng))
    got = subspace_intersection([s, s])
    assert np.linalg.norm(got.projector() - s.projector()) <= 1e-10


def test_intersection_three_planes_empty():
    subs = [_coord_span(3, [0, 1]), _coord_span(3, [1, 2]), _coord_span(3, [0, 2])]
    assert subspace_intersection(subs).dim == 0


def test_intersection_single_subspace_passthrough():
    rng = np.random.default_rng(31)
    s = Subspace(4, random_subspace(4, 2, rng))
    got = subspace_intersection([s])
    assert np.linalg.norm(got.projector() - s.projector()) <= 1e-12


def test_intersection_dim_matches_rank_formula_oracle():
    rng = np.random.default_rng(37)
    for _ in range(40):
        d = int(rng.integers(2, 7))
        shared = random_subspace(d, int(rng.integers(0, min(3, d) + 1)), rng)
        bases = []
        for _ in range(2):
            extra = int(rng.integers(0, d - shared.shape[1] + 1))
            pool = np.hstack([shared, crandn(rng, d, extra)])
            q, _ = np.linalg.qr(pool) if pool.shape[1] else (np.zeros((d, 0)), None)
            bases.append(q[:, : pool.shape[1]])
        if any(b.shape[1] == 0 for b in bases):
            continue
        subs = [Subspace(d, b) for b in bases]
        got = subspace_intersection(subs).dim
        assert got == rank_formula_intersection_dim(bases)


def test_intersection_members_lie_in_every_input():
    rng = np.random.default_rng(41)
    for _ in range(20):
        d = 5
        shared = random_subspace(d, 1, rng)
        subs = []
        for _ in range(3):
            pool = np.hstack([shared, crandn(rng, d, 2)])
            q, _ = np.linalg.qr(pool)
            subs.append(Subspace(d, q[:, :3]))
        inter = subspace_intersection(subs)
        assert inter.dim >= 1
        for j in range(inter.dim):
            v = inter.basis[:, j]
            for s in subs:
                assert np.linalg.norm(s.projector() @ v - v) <= 1e-6


def test_intersection_rejects_mixed_ambient_dims():
    with pytest.raises(DimensionMismatchError):
        subspace_intersection([Subspace(2, np.eye(2)), Subspace(3, np.eye(3))])
    with pytest.raises(StateCompatError):
        subspace_intersection([])


# -------------------------------------------------------- subspace_span_union


def test_span_union_fills_space():
    got = subspace_span_union([_coord_span(2, [0]), _coord_span(2, [1])])
    assert got.dim == 2


def test_span_union_idempotent():
    rng = np.random.default_rng(43)
    s = Subspace(4, random_subspace(4, 2, rng))
    got = subspace_span_union([s, s])
    assert np.linalg.norm(got.projector() - s.projector()) <= 1e-10


def test_span_union_dim_matches_rank_oracle():
    rng = np.random.default_rng(47)
    for _ in range(30):
        d = int(rng.integers(2, 7))
        u = random_subspace(d, int(rng.integers(1, d + 1)), rng)
        v = random_subspace(d, int(rng.integers(1, d + 1)), rng)
        got = subspace_span_union([Subspace(d, u), Subspace(d, v)]).dim
        assert got == np.linalg.matrix_rank(np.hstack([u, v]), tol=1e-8)


def test_span_union_of_empties_is_empty():
    got = subspace_span_union([Subspace(3, np.zeros((3, 0))), Subspace(3, np.zeros((3, 0)))])
    assert got.dim == 0


# ----------------------------------------------------- structural invariants


def test_complement_of_intersection_is_union_of_complements():
    rng = np.random.default_rng(53)
    for _ in range(15):
        d = int(rng.integers(2, 7))
        subs = [
            Subspace(d, random_subspace(d, int(rng.integers(1, d + 1)), rng))
            for _ in range(int(rng.integers(2, 5)))
        ]
        inter = subspace_intersection(subs)
        lhs = orthogonal_complement(inter).projector()
        rhs = subspace_span_union([orthogonal_complement(s) for s in subs]).projector()
        assert np.linalg.norm(lhs - rhs) <= 1e-8


def test_intersection_unitary_covariance():
    rng = np.random.default_rng(59)
    for _ in range(10):
        d = 5
        u = random_unitary(d, rng)
        shared = random_subspace(d, 1, rng)
        subs = []
        for _ in range(3):
            pool = np.hstack([shared, crandn(rng, d, 2)])
            q, _ = np.linalg.qr(pool)
            subs.append(Subspace(d, q[:, :3]))
        rotated = [Subspace(d, u @ s.basis) for s in subs]
        p_direct = subspace_intersection(rotated).projector()
        p_conj = u @ subspace_intersection(subs).projector() @ u.conj().T
        assert np.linalg.norm(p_direct - p_conj) <= 1e-8


def test_fix_phase_makes_leading_component_positive():
    rng = np.random.default_rng(61)
    for _ in range(10):
        v = random_unit_vector(4, rng)
        fixed = fix_phase(v)
        lead = fixed[np.argmax(np.abs(fixed) > 1e-8)]
        assert lead.real > 0 and abs(lead.imag) <= 1e-14
        assert np.linalg.norm(np.outer(fixed, fixed.conj()) - np.outer(v, v.conj())) <= 1e-12


def test_fix_phase_columns_match_loop_reference():
    rng = np.random.default_rng(67)
    m = crandn(rng, 5, 7)
    m[:2, 3] = 1e-9  # leading entries below the floor: the third one anchors
    m[:, 5] = 1e-9  # no entry above the floor: the column stays as it is
    got = fix_phase(m)
    want = np.column_stack([loop_fix_phase(m[:, j]) for j in range(m.shape[1])])
    # the vectorised modulus may round differently from the scalar one
    ulps = 4 * np.finfo(float).eps * np.abs(m).max()
    np.testing.assert_allclose(got, want, rtol=0, atol=ulps)
    np.testing.assert_allclose(fix_phase(m[:, 3]), loop_fix_phase(m[:, 3]), rtol=0, atol=ulps)
    assert np.array_equal(got[:, 5], m[:, 5])
    assert fix_phase(np.zeros((3, 0))).shape == (3, 0)


def test_fix_phase_leaves_unanchored_columns_without_warnings():
    rng = np.random.default_rng(71)
    m = crandn(rng, 4, 5)
    m[:, 1] = 0.0  # all zero
    m[:, 2] = 1e-9 * m[:, 2] / np.abs(m[:, 2]).max()  # every entry below PHASE_FLOOR
    ulps = 4 * np.finfo(float).eps * np.abs(m).max()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fix_phase(m)
        columns = [fix_phase(m[:, j]) for j in range(m.shape[1])]  # 1-d vectors
    assert np.array_equal(got[:, 1:3], m[:, 1:3])
    for j, column in enumerate(columns):
        assert np.array_equal(column, got[:, j])
        np.testing.assert_allclose(column, loop_fix_phase(m[:, j]), rtol=0, atol=ulps)
    assert np.array_equal(got.view(np.uint64), reference_fix_phase(m).view(np.uint64))
