import numpy as np
import pytest

import freespec.drops
from _oracles import FreeSimplex, simplex_membership
from freespec.drops import level1_hull_membership, project_membership_special, witness_search
from freespec.errors import (ConstructionError, ParameterError,
                             UnsupportedCaseError)
from freespec.extremality import Verdict, classify
from freespec.fixtures import (segment_generator, triangle_edge_generators,
                               triangle_cover_generators,
                               triangle_example_pencil, triangle_example_point)
from freespec.linalg import HermitianTuple, random_hermitian_tuple
from freespec.pencil import Pencil, membership
from freespec.spin import pauli_conj_tuple, pauli_tuple, random_spin_member, spin_tuple

SQRT3 = np.sqrt(3.0)


def test_special_case_pauli_projection():
    X = HermitianTuple(pauli_tuple().mats[:2])
    verdict = project_membership_special(Pencil(pauli_tuple()), X)
    assert verdict.member
    assert abs(verdict.margin) <= 1e-9  # boundary of the disk set


def test_special_case_spin_projection_level4_point():
    from freespec.fixtures import free_extreme_level4

    verdict = project_membership_special(Pencil(spin_tuple(4)), free_extreme_level4())
    assert verdict.member and verdict.boundary


def test_special_case_interval_refutation():
    X = HermitianTuple(np.array([[[1.5]]], dtype=complex))
    verdict = project_membership_special(Pencil(spin_tuple(3)), X)
    assert not verdict.member


def test_special_case_unregistered():
    pencil = Pencil(triangle_example_pencil())
    with pytest.raises(UnsupportedCaseError):
        project_membership_special(pencil, HermitianTuple(np.array([[[0.5]]], complex)))


def test_keeping_every_coordinate_is_plain_membership():
    pencil = Pencil(pauli_tuple())
    for X in (pauli_tuple(), pauli_conj_tuple()):
        assert project_membership_special(pencil, X) == membership(pauli_tuple(), X)
    with pytest.raises(ParameterError):
        witness_search(pencil, pauli_tuple())


def test_witness_search_zero_padding_succeeds(monkeypatch):
    monkeypatch.setattr(freespec.drops, "WITNESS_RESTARTS", 2)
    rng = np.random.default_rng(24)
    pencil = Pencil(spin_tuple(4))
    X = random_spin_member(rng, 3, 2, scale=0.9)
    result = witness_search(pencil, X, seed=0)
    assert result.found
    assert result.verdict.member
    padded = np.concatenate([X.mats, result.witness.mats], axis=0)
    assert membership(spin_tuple(4), HermitianTuple(padded)).member


def test_witness_search_nonmember_inconclusive(monkeypatch):
    monkeypatch.setattr(freespec.drops, "WITNESS_RESTARTS", 3)
    monkeypatch.setattr(freespec.drops, "WITNESS_ITERS", 40)
    pencil = Pencil(spin_tuple(4))
    F = spin_tuple(3)
    X = HermitianTuple(F.mats / SQRT3)
    result = witness_search(pencil, X, seed=0)
    assert not result.found
    assert result.best_infeasibility > 0.0


def test_witness_search_zero_point_immediate():
    pencil = Pencil(spin_tuple(4))
    X = HermitianTuple(np.zeros((3, 2, 2)))
    result = witness_search(pencil, X, seed=0)
    assert result.found and result.restarts_used == 1
    assert np.abs(result.witness.mats).max() == 0.0


def test_free_simplex_construction_validation():
    with pytest.raises(ConstructionError):
        FreeSimplex(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))  # collinear
    with pytest.raises(ConstructionError):
        FreeSimplex(np.array([[1.0, 0.0], [2.0, 0.5], [1.0, 1.0]]))  # 0 outside


def test_free_simplex_pencil_matches_triangle():
    # Same facet functionals as the reference diagonal pencil, up to the
    # order of the diagonal slots.
    simplex = FreeSimplex(np.array([[-2.0, 1.0], [1.0, 1.0], [1.0, -2.0]]))
    mine = np.sort(np.stack([np.real(np.diagonal(M))
                             for M in simplex.pencil.coefficients.mats], axis=1), axis=0)
    reference = np.sort(np.stack([np.real(np.diagonal(M))
                                  for M in triangle_example_pencil().mats], axis=1), axis=0)
    assert np.abs(mine - reference).max() < 1e-12


def test_simplex_membership_remark_point_boundary():
    simplex = FreeSimplex(np.array([[-2.0, 1.0], [1.0, 1.0], [1.0, -2.0]]))
    result = simplex_membership(simplex, triangle_example_point())
    assert result.member and result.boundary
    # Barycentric operator coefficients reconstruct the point and sum to I.
    Q = result.witness
    assert np.abs(Q.sum(axis=0) - np.eye(2)).max() < 1e-10
    rebuilt = np.einsum("ij,iab->jab", simplex.vertices, Q)
    assert np.abs(rebuilt - triangle_example_point().mats).max() < 1e-10


def test_simplex_membership_level1_points():
    simplex = FreeSimplex(np.array([[-2.0, 1.0], [1.0, 1.0], [1.0, -2.0]]))
    inside = HermitianTuple(np.array([[[0.0]], [[-2.0 / 3.0]]], dtype=complex))
    assert simplex_membership(simplex, inside).member
    outside = HermitianTuple(np.array([[[2.0]], [[2.0]]], dtype=complex))
    assert not simplex_membership(simplex, outside).member


def test_simplex_membership_agrees_with_brute_force_on_scalars():
    # Independent scalar oracle: plain barycentric coordinates from the
    # vertex system, compared over 1000 random points.
    rng = np.random.default_rng(25)
    vertices = np.array([[-2.0, 1.0], [1.0, 1.0], [1.0, -2.0]])
    simplex = FreeSimplex(vertices)
    W = np.vstack([vertices.T, np.ones(3)])
    disagreements = 0
    for _ in range(1000):
        x = rng.uniform(-3.0, 2.0, size=2)
        bary = np.linalg.solve(W, np.concatenate([x, [1.0]]))
        expected = bool(bary.min() >= -1e-9)
        point = HermitianTuple(x.reshape(2, 1, 1).astype(complex))
        result = simplex_membership(simplex, point)
        if abs(result.margin) > 1e-10 and result.member != expected:
            disagreements += 1
    assert disagreements == 0


def test_simplex_membership_matrix_level_agrees_with_pencil():
    rng = np.random.default_rng(26)
    simplex = FreeSimplex(np.array([[-2.0, 1.0], [1.0, 1.0], [1.0, -2.0]]))
    for _ in range(50):
        X = random_hermitian_tuple(rng, 2, 2).scaled(0.8)
        a = simplex_membership(simplex, X)
        b = membership(simplex.pencil, X)
        if abs(b.margin) > 1e-10:
            assert a.member == b.member


def test_projected_combinations_stay_in_projected_simplex():
    # Matrix convex combinations of vertex scalars, projected to the first
    # coordinate, must pass the projected-interval membership exactly.
    rng = np.random.default_rng(27)
    vertices = np.array([[-2.0, 1.0], [1.0, 1.0], [1.0, -2.0]])
    interval = FreeSimplex(np.array([[-2.0], [1.0]]))
    for _ in range(50):
        n = int(rng.integers(1, 4))
        Vs = [rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n)) for _ in range(3)]
        gram = sum(V.conj().T @ V for V in Vs)
        w, U = np.linalg.eigh(gram)
        half_inv = U @ np.diag(1.0 / np.sqrt(w)) @ U.conj().T
        Vs = [V @ half_inv for V in Vs]
        X = np.zeros((2, n, n), dtype=complex)
        for vertex, V in zip(vertices, Vs):
            X += vertex[:, None, None] * (V.conj().T @ V)[None]
        projected = HermitianTuple(X[:1])
        assert simplex_membership(interval, projected).member


def test_hull_membership_remark_point(monkeypatch):
    monkeypatch.setattr(freespec.drops, "HULL_GRID", 360)
    y = np.array([0.0, -2.0 / 3.0])
    hull = level1_hull_membership(triangle_edge_generators(), y, seed=0)
    assert hull.member
    for gen in triangle_edge_generators():
        single = level1_hull_membership([gen], y, seed=0)
        assert not single.member
        assert single.witness is not None


def test_hull_membership_vertex_and_outside():
    gens = triangle_edge_generators()
    assert level1_hull_membership(gens, np.array([1.0, 1.0]), seed=0).member
    verdict = level1_hull_membership(gens, np.array([2.0, 2.0]), seed=0)
    assert not verdict.member
    c = verdict.witness
    assert np.abs(c - np.array([1.0, 1.0]) / np.sqrt(2.0)).max() < 1e-3


def test_hull_membership_triangle_generators_cover_simplex(monkeypatch):
    # The three small triangles also generate the full simplex; the point
    # (0, -2/3) lies in their union's hull (in fact inside the third one).
    monkeypatch.setattr(freespec.drops, "HULL_GRID", 360)
    y = np.array([0.0, -2.0 / 3.0])
    hull = level1_hull_membership(triangle_cover_generators(), y, seed=0)
    assert hull.member


def test_each_small_triangle_misses_part_of_the_example_tuple(monkeypatch):
    # The example tuple belongs to none of the three small triangles'
    # matrix convex hulls: each one excludes a first-level compression of
    # it ((0, -2/3) sits outside the first two, (1, 1/2) outside the third).
    monkeypatch.setattr(freespec.drops, "HULL_GRID", 360)
    witnesses = (np.array([0.0, -2.0 / 3.0]), np.array([1.0, 0.5]))
    for gen in triangle_cover_generators():
        excluded = [w for w in witnesses
                    if not level1_hull_membership([gen], w, seed=0).member]
        assert excluded


def test_hull_membership_dimension_cap():
    with pytest.raises(UnsupportedCaseError):
        level1_hull_membership([spin_tuple(4)], np.zeros(4))


def test_hull_membership_interval():
    gen = segment_generator([[-1.0], [2.0]])
    assert level1_hull_membership([gen], np.array([1.5]), seed=0).member
    assert not level1_hull_membership([gen], np.array([2.5]), seed=0).member


def test_hull_membership_refuses_a_direct_sum_above_the_dense_bound(monkeypatch):
    import freespec.linalg

    # The three edge generators are 2 x 2: their direct sum has side 6.
    y = np.array([0.0, -2.0 / 3.0])
    monkeypatch.setattr(freespec.linalg, "MAX_DENSE_SIDE", 6)
    assert level1_hull_membership(triangle_edge_generators(), y, seed=0).member
    monkeypatch.setattr(freespec.linalg, "MAX_DENSE_SIDE", 5)
    with pytest.raises(ParameterError, match="of side 6 exceeds the dense bound 5"):
        level1_hull_membership(triangle_edge_generators(), y, seed=0)


def test_projection_witness_compression_monotone(monkeypatch):
    # If (X, Y) certifies projection membership then compressions (V*XV,
    # V*YV) are certified by the compressed witness.
    monkeypatch.setattr(freespec.drops, "WITNESS_RESTARTS", 2)
    rng = np.random.default_rng(28)
    pencil = Pencil(spin_tuple(4))
    X = random_spin_member(rng, 3, 3, scale=0.9)
    result = witness_search(pencil, X, seed=0)
    assert result.found
    full = np.concatenate([X.mats, result.witness.mats], axis=0)
    for _ in range(10):
        raw = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        Q, _ = np.linalg.qr(raw)
        compressed = np.einsum("pa,iab,bq->ipq", Q.conj().T, full, Q)
        assert membership(spin_tuple(4), HermitianTuple(compressed)).member


def test_projection_extreme_harness_spin_cases():
    # Unit vectors are the level-1 extreme points of a kept spin pencil:
    # each is a boundary point of the registered projection and a free
    # extreme point of the shorter spin pencil.
    rng = np.random.default_rng(0)
    for h, keep, samples in ((3, 2, 12), (4, 3, 8)):
        pencil = Pencil(spin_tuple(h))
        oracle = Pencil(spin_tuple(keep))
        for _ in range(samples):
            c = rng.normal(size=keep)
            point = HermitianTuple((c / np.linalg.norm(c)).reshape(keep, 1, 1).astype(complex))
            verdict = project_membership_special(pencil, point)
            assert verdict.member and verdict.boundary
            assert classify(oracle, point).verdict == Verdict.FREE


def test_projection_extreme_harness_simplex_interval():
    # The triangle's projection onto its first coordinate is the matrix
    # interval [-2, 1], cut out by diag(1, -1/2): both endpoints lift to
    # triangle points and are free extreme points of the interval, and just
    # beyond them the interval pencil and the lift search both fail.
    pencil = Pencil(triangle_example_pencil())
    interval = Pencil(HermitianTuple(np.array([np.diag([1.0, -0.5]).astype(complex)])))
    for endpoint, beyond in ((-2.0, -2.01), (1.0, 1.01)):
        point = HermitianTuple(np.array([[[endpoint]]], dtype=complex))
        result = witness_search(pencil, point, seed=0)
        assert result.found and result.verdict.boundary
        assert classify(interval, point).verdict == Verdict.FREE
        outside = HermitianTuple(np.array([[[beyond]]], dtype=complex))
        assert not membership(interval, outside).member
        assert not witness_search(pencil, outside, seed=0).found


def test_drop_refuses_a_point_longer_than_the_pencil():
    pencil, X = Pencil(spin_tuple(3)), spin_tuple(4)
    with pytest.raises(ParameterError, match="kept coordinates 4 outside 1..3"):
        project_membership_special(pencil, X)
    with pytest.raises(ParameterError, match="kept coordinates 4 outside 1..3"):
        witness_search(pencil, X)
