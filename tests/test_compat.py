import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from statecompat import compat
from statecompat.compat import (
    commutes,
    forbidden_subspace,
    full_report,
    product_nonzero,
    support_compatible,
)
from statecompat.density import ensemble_containing, support, validate_density
from statecompat.errors import DimensionMismatchError, IncompatibleError, StateCompatError
from statecompat.generate import (
    compatible_instance,
    generate_instance,
    incompatible_instance,
    pairwise_only_instance,
    random_density,
    random_unit_vector,
    random_unitary,
)
from statecompat.linalg import DEFAULT_TOL
from statecompat.scenario import run_scenario

from conftest import count_linalg, loop_pairwise, projection_defect

E0 = np.array([1.0, 0.0], dtype=complex)
E1 = np.array([0.0, 1.0], dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)


def pure(v):
    return validate_density(np.outer(v, v.conj()))


def tilted_up(theta):
    """Spin up rotated by theta rad towards spin down."""
    return pure(np.array([np.cos(theta), np.sin(theta)], dtype=complex))


UP_Z = pure(E0)          # spin up along z
UP_X = pure(PLUS)        # spin up along x
DOWN_Z = pure(E1)
TILTED = validate_density(np.diag([0.75, 0.25]))


# -------------------------------------------------------- support_compatible


def test_distinct_pure_states_incompatible():
    ok, intersection = support_compatible([UP_Z, UP_X])
    assert not ok
    assert intersection.dim == 0


def test_full_rank_always_compatible():
    mixed = validate_density(np.eye(2) / 2)
    ok, _ = support_compatible([mixed, TILTED])
    assert ok
    ok, _ = support_compatible([mixed, UP_X])
    assert ok


def test_mixed_with_pure_intersects_on_the_pure_ray():
    ok, intersection = support_compatible([TILTED, UP_X])
    assert ok and intersection.dim == 1
    np.testing.assert_allclose(intersection.basis[:, 0], PLUS, atol=1e-12)


def test_three_planes_pairwise_but_not_jointly():
    planes = [
        validate_density(np.diag([0.5, 0.5, 0.0])),
        validate_density(np.diag([0.0, 0.5, 0.5])),
        validate_density(np.diag([0.5, 0.0, 0.5])),
    ]
    for i in range(3):
        for j in range(i + 1, 3):
            assert support_compatible([planes[i], planes[j]])[0]
    assert not support_compatible(planes)[0]


def test_rejects_empty_and_mismatched():
    with pytest.raises(StateCompatError):
        support_compatible([])
    with pytest.raises(DimensionMismatchError):
        support_compatible([UP_Z, validate_density(np.eye(3) / 3)])


# ------------------------------------------------------------------ witness


def test_witness_of_identical_pure_states():
    rng = np.random.default_rng(2)
    phi = random_unit_vector(3, rng)
    rho = pure(phi)
    w = full_report([rho, rho]).witness
    assert abs(abs(np.vdot(w, phi)) - 1.0) <= 1e-10


def test_witness_of_unique_intersection():
    w = full_report([TILTED, UP_X]).witness
    np.testing.assert_allclose(w, PLUS, atol=1e-12)


def test_witness_absent_when_incompatible():
    assert full_report([UP_Z, UP_X]).witness is None


def test_witness_sees_every_matrix():
    rng = np.random.default_rng(4)
    for seed in range(5):
        mats = compatible_instance(4, 3, np.random.default_rng(seed))
        rhos = [validate_density(m) for m in mats]
        w = full_report(rhos).witness
        for rho in rhos:
            assert np.vdot(w, rho.matrix @ w).real > 0


# ------------------------------------------------------- forbidden_subspace


def test_forbidden_space_of_orthogonal_knowledge_fills_everything():
    got = forbidden_subspace([UP_Z, UP_X])
    assert got.dim == 2


def test_forbidden_space_of_full_rank_state_is_empty():
    assert forbidden_subspace([validate_density(np.eye(3) / 3)]).dim == 0


def test_forbidden_dim_complements_intersection_dim():
    for seed in range(5):
        mats = compatible_instance(4, 2, np.random.default_rng(100 + seed))
        rhos = [validate_density(m) for m in mats]
        _, intersection = support_compatible(rhos)
        assert forbidden_subspace(rhos).dim == 4 - intersection.dim


# ------------------------------------------------------- pairwise conditions


def test_identity_commutes_with_anything():
    mixed = validate_density(np.eye(2) / 2)
    ok, residual = commutes(mixed, TILTED)
    assert ok and residual <= 1e-15


def test_tilted_and_up_x_do_not_commute():
    ok, residual = commutes(TILTED, UP_X)
    assert not ok
    # [diag(3/4,1/4), |+><+|] has Frobenius norm sqrt(2)/4
    assert residual == pytest.approx(np.sqrt(2) / 4, abs=1e-12)


def test_spin_pair_does_not_commute():
    ok, residual = commutes(UP_Z, UP_X)
    assert not ok and residual > 0.1


def test_product_zero_for_orthogonal_pure_states():
    ok, overlap = product_nonzero(UP_Z, DOWN_Z)
    assert not ok
    assert overlap == pytest.approx(0.0, abs=1e-15)


def test_product_overlap_of_spin_pair():
    ok, overlap = product_nonzero(UP_Z, UP_X)
    assert ok
    assert overlap == pytest.approx(0.5, abs=1e-12)


def test_product_nonzero_with_full_rank():
    ok, _ = product_nonzero(validate_density(np.eye(2) / 2), TILTED)
    assert ok


def mixed_pairwise_set(n, dim, rng):
    """Random matrices of random rank, commuting diagonal ones and a pure state orthogonal to those."""
    rhos = []
    for k in range(n):
        if k % 3 == 0 or dim == 1:
            rhos.append(validate_density(random_density(dim, rng, int(rng.integers(1, dim + 1)))))
        elif k % 3 == 1:
            weights = np.zeros(dim)
            weights[: (dim + 1) // 2] = rng.random((dim + 1) // 2) + 0.1
            rhos.append(validate_density(np.diag(weights / weights.sum())))
        else:
            rhos.append(validate_density(np.diag(np.eye(dim)[-1])))
    return rhos


@pytest.mark.parametrize("n", [1, 2, 10])
@pytest.mark.parametrize("dim", [1, 3, 32])
def test_pairwise_conditions_match_the_per_pair_loop(n, dim):
    rhos = mixed_pairwise_set(n, dim, np.random.default_rng(100 * n + dim))
    report = full_report(rhos)
    commute, residual, product, overlap = loop_pairwise(rhos)
    assert np.array_equal(report.pairwise_commute, commute)
    assert np.array_equal(report.pairwise_product_nonzero, product)
    assert np.max(np.abs(report.commute_residual - residual)) <= 1e-15
    assert np.max(np.abs(report.product_overlap - overlap)) <= 1e-15
    for i, j in combinations(range(n), 2):
        c_ok, c_res = commutes(rhos[i], rhos[j])
        p_ok, p_val = product_nonzero(rhos[i], rhos[j])
        assert (c_ok, p_ok) == (commute[i, j], product[i, j])
        assert abs(c_res - residual[i, j]) <= 1e-15 and abs(p_val - overlap[i, j]) <= 1e-15
    if n == 10 and dim > 1:  # every kind of pair occurs
        assert not commute.all() and commute[1, 4] and not product.all()


def one_block_commutator_norms(matrices: np.ndarray) -> np.ndarray:
    """Commutator norms of every pair a < b from one batched product, with no blocks."""
    a, b = np.triu_indices(len(matrices), 1)
    x = matrices[a] @ matrices[b]
    diff = (x - x.conj().transpose(0, 2, 1)).reshape(len(a), -1).view(np.float64)
    norms = np.zeros((len(matrices),) * 2)
    norms[a, b] = np.sqrt((diff * diff).sum(axis=1))
    return norms + norms.T


@pytest.mark.parametrize("n, dim", [(100, 3), (12, 32)])
def test_commutator_blocks_meet_at_the_seam(n, dim):
    """Pairs that span several row blocks: the same bits as one block, and the per-pair loop."""
    assert n * (n - 1) // 2 * 16 * dim**2 > 2 * compat._PAIR_BLOCK_BYTES  # at least two blocks
    rhos = mixed_pairwise_set(n, dim, np.random.default_rng(n + dim))
    matrices = np.array([r.matrix for r in rhos])
    norms = compat._commutator_norms(matrices)
    assert np.array_equal(norms, one_block_commutator_norms(matrices))
    assert np.max(np.abs(norms - loop_pairwise(rhos)[1])) <= 1e-15
    assert np.array_equal(full_report(rhos).commute_residual, norms)


@pytest.mark.parametrize("budget", [1, 16 * 9 * 9 * 4, 16 * 9 * 9 * 9 - 1])
def test_commutator_norms_do_not_depend_on_the_block_size(monkeypatch, budget):
    """One row per block, blocks of four rows, and all rows but the last in one: the same bits."""
    rhos = mixed_pairwise_set(10, 3, np.random.default_rng(3))
    matrices = np.array([r.matrix for r in rhos])
    monkeypatch.setattr(compat, "_PAIR_BLOCK_BYTES", budget)
    assert np.array_equal(compat._commutator_norms(matrices), one_block_commutator_norms(matrices))


def test_full_report_memory_is_quadratic_in_the_count():
    """400 3x3 matrices: O(n^2 + n d^2) stays under 8 MiB; an (n, n, d, d) product alone is 23 MiB."""
    rng = np.random.default_rng(91)
    rhos = [validate_density(random_density(3, rng, int(rng.integers(1, 4)))) for _ in range(400)]
    tracemalloc.start()
    try:
        full_report(rhos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -------------------------------------------------------------- full_report


def test_report_spin_pair_shows_weaker_condition():
    report = full_report([UP_Z, UP_X])
    assert not report.compatible
    assert report.pairwise_product_nonzero[0, 1]
    assert not report.pairwise_commute[0, 1]
    assert report.intersection_dim == 0
    assert report.forbidden_dim == 2
    assert report.witness is None


def test_report_commutation_not_necessary():
    report = full_report([TILTED, UP_X])
    assert report.compatible
    assert not report.pairwise_commute[0, 1]
    assert report.witness is not None


def test_report_single_matrix_witness_is_top_eigenvector():
    report = full_report([TILTED])
    assert report.compatible
    assert report.intersection_dim == 2
    np.testing.assert_allclose(report.witness, E0, atol=1e-12)


def test_report_invariants_hold():
    cases = [
        [UP_Z, UP_X],
        [TILTED, UP_X],
        [UP_Z, DOWN_Z],
        [validate_density(m) for m in compatible_instance(3, 3, np.random.default_rng(8))],
        [validate_density(m) for m in incompatible_instance(4, 3, np.random.default_rng(9))],
    ]
    for rhos in cases:
        report = full_report(rhos)
        assert report.compatible == (report.intersection_dim >= 1)
        assert report.compatible == (report.witness is not None)
        assert report.forbidden_dim + report.intersection_dim == report.dim
        if report.compatible:
            assert np.all(report.pairwise_product_nonzero)


def test_commutation_is_orthogonal_to_compatibility():
    mixed = validate_density(np.eye(2) / 2)
    quadrants = [
        ([mixed, TILTED], True, True),      # commuting, compatible
        ([UP_Z, DOWN_Z], True, False),      # commuting orthogonal pure, incompatible
        ([TILTED, UP_X], False, True),      # non-commuting, compatible
        ([UP_Z, UP_X], False, False),       # non-commuting pure, incompatible
    ]
    for rhos, commute_expected, compatible_expected in quadrants:
        report = full_report(rhos)
        assert bool(report.pairwise_commute[0, 1]) == commute_expected
        assert report.compatible == compatible_expected


def test_compatible_iff_witness_expands_every_matrix():
    for seed in range(8):
        rng = np.random.default_rng(200 + seed)
        d = int(rng.integers(2, 7))
        n = int(rng.integers(2, 5))
        mats = (
            compatible_instance(d, n, rng)
            if seed % 2 == 0
            else incompatible_instance(d, n, rng)
        )
        rhos = [validate_density(m) for m in mats]
        report = full_report(rhos)
        if report.compatible:
            for rho in rhos:
                e = ensemble_containing(rho, report.witness)
                rebuilt = sum(w * np.outer(s, s.conj()) for w, s in e.terms)
                assert np.linalg.norm(rebuilt - rho.matrix) <= 1e-10
        else:
            assert report.witness is None


def test_pure_pair_compatibility_is_overlap_one():
    rng = np.random.default_rng(66)
    for k in range(30):
        d = int(rng.integers(2, 7))
        a = random_unit_vector(d, rng)
        if k % 3 == 0:
            b = a * np.exp(1j * rng.uniform(0, 2 * np.pi))
        else:
            b = random_unit_vector(d, rng)
        verdict, _ = support_compatible([pure(a), pure(b)])
        assert verdict == (abs(np.vdot(a, b)) >= 1 - 1e-8)


def test_report_unitary_and_permutation_invariance():
    for seed in range(5):
        rng = np.random.default_rng(300 + seed)
        mats = pairwise_only_instance(3, rng) if seed % 2 else compatible_instance(3, 3, rng)
        rhos = [validate_density(m) for m in mats]
        base = full_report(rhos)

        u = random_unitary(3, rng)
        rotated = [validate_density(u @ r.matrix @ u.conj().T) for r in rhos]
        rot = full_report(rotated)
        assert rot.compatible == base.compatible
        assert np.array_equal(rot.pairwise_commute, base.pairwise_commute)
        assert np.array_equal(rot.pairwise_product_nonzero, base.pairwise_product_nonzero)

        perm = rng.permutation(len(rhos))
        shuffled = full_report([rhos[i] for i in perm])
        assert shuffled.compatible == base.compatible
        for a in range(len(rhos)):
            for b in range(len(rhos)):
                assert shuffled.pairwise_commute[a, b] == base.pairwise_commute[perm[a], perm[b]]


def test_marginal_flag_on_near_threshold_instance():
    # A pure pair at angle theta has one support defect sqrt(2) sin(theta/2),
    # about 0.71 theta, and the membership threshold is match_abs/sqrt(2), so
    # the ratio of the two is about theta/match_abs. The verdict flips at
    # theta = match_abs, and the band is ratio in (0.1, 10), checked just
    # inside and outside both of its edges.
    for theta, compatible, marginal in [
        (1.06e-9, True, True),    # ratio 0.106: accepted, in the band
        (9.19e-8, False, True),   # 9.19: rejected, in the band
        (0.92e-9, True, False),   # 0.092: below the band
        (1.06e-7, False, False),  # 10.6: above the band
    ]:
        report = full_report([UP_Z, tilted_up(theta)])
        assert report.compatible == compatible, theta
        assert report.marginal == marginal, theta
        assert any("marginal" in note for note in report.notes) == marginal


@pytest.mark.parametrize("distance", [1e-9, 1e-8, 1e-7, 1e-5, 3e-5, 1e-3])
def test_theta_sweep_keeps_the_invariants(distance):
    """Pure pairs whose matrices lie ``distance`` apart in Frobenius norm.

    The angle is arcsin(distance/sqrt(2)); the verdict flips at angle
    match_abs, i.e. at distance sqrt(2) match_abs, about 1.41e-8, and the
    marginal band spans distances 1.41e-9 to 1.41e-7.
    """
    theta = float(np.arcsin(distance / np.sqrt(2)))
    rhos = [UP_Z, tilted_up(theta)]
    assert np.linalg.norm(rhos[0].matrix - rhos[1].matrix) == pytest.approx(distance, rel=1e-6)
    report = full_report(rhos)
    assert report.intersection_dim + report.forbidden_dim == report.dim
    assert report.compatible == (distance < 1e-7)
    assert report.marginal == (distance in (1e-8, 1e-7))
    if report.compatible:
        for rho in rhos:
            assert projection_defect(support(rho), report.witness) <= DEFAULT_TOL.match_abs
        result = run_scenario(rhos)
        assert result.success
        assert max(result.distances) <= DEFAULT_TOL.match_abs


def repeated_states(angles, seed=0):
    """Pure states at the given angles from the first vector of a seeded 3-d frame, in one plane."""
    frame = random_unitary(3, np.random.default_rng(seed))
    return [pure(np.cos(t) * frame[:, 0] + np.sin(t) * frame[:, 1]) for t in angles]


def test_repeated_state_triple_verdict_and_recovery_agree():
    # [a, a, b] at 1.15e-8 rad: the smallest root-sum-square defect is
    # sqrt(2/3) theta = 9.39e-9, over match_abs/sqrt(2) = 7.07e-9, so the set is
    # incompatible; a witness there would leave b's recovery 1.08e-8 away.
    rhos = repeated_states([0.0, 0.0, 1.15e-8])
    report = full_report(rhos)
    assert not report.compatible
    assert report.intersection_dim + report.forbidden_dim == report.dim
    with pytest.raises(IncompatibleError):
        run_scenario(rhos)
    # just below the flip (theta sqrt(3)/2 match_abs = 8.66e-9) both accept
    rhos = repeated_states([0.0, 0.0, 8.5e-9])
    assert full_report(rhos).compatible
    result = run_scenario(rhos)
    assert result.success
    assert max(result.distances) <= DEFAULT_TOL.match_abs


#: (dim, count) -> numpy.linalg (eigh, svd) calls of validate_density on every
#: matrix, of full_report, and of run_scenario, on generate_instance(dim, count,
#: 7, "compatible"). Validation diagonalises each matrix once and nothing else
#: does; the report takes one SVD, and so does the scenario: its support test.
#: The basis completions are Householder reflectors and the recovered matrices
#: are not diagonalised again.
LINALG_CALLS = {
    (2, 2): ((2, 0), (0, 1), (0, 1)),
    (3, 3): ((3, 0), (0, 1), (0, 1)),
    (5, 4): ((4, 0), (0, 1), (0, 1)),
    (16, 4): ((4, 0), (0, 1), (0, 1)),
}


@pytest.mark.parametrize("dim,count", sorted(LINALG_CALLS))
def test_each_matrix_is_diagonalised_once(dim, count):
    matrices = generate_instance(dim, count, 7, "compatible")
    with count_linalg() as validate:
        rhos = [validate_density(m) for m in matrices]
    with count_linalg() as report:
        full_report(rhos)
    with count_linalg() as scenario:
        run_scenario(rhos)
    found = tuple((c["eigh"], c["svd"]) for c in (validate, report, scenario))
    assert found == LINALG_CALLS[dim, count]


def test_marginal_flag_clear_on_clean_instances():
    assert not full_report([UP_Z, UP_X]).marginal
    assert not full_report([TILTED, UP_X]).marginal
