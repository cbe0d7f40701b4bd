"""Every membership verdict checked with plain numpy, on both sides of each set.

Refutations by a one-sided search must ship a direction that proves them;
its acceptances must be flagged heuristic and carry no witness.  The exact
tests' margins must match an independent numpy recomputation, and the free
simplex's barycentric coefficients must rebuild the point.
"""

import numpy as np
import pytest
from _oracles import FreeSimplex, _kron_pencil_value, simplex_membership

from freespec.ballsets import (matrix_ball_membership, qd_membership,
                               selfdual_ball_membership, wmax_ball_membership)
from freespec.drops import level1_hull_membership, project_membership_special
from freespec.duality import FullSpanBasis, choi_membership
from freespec.fixtures import (free_extreme_level4, triangle_edge_generators,
                               triangle_example_point)
from freespec.linalg import DEFAULT_TOL, HermitianTuple, random_hermitian_tuple
from freespec.pencil import Pencil, membership
from freespec.spin import pauli_tuple, random_spin_member, spin_tuple

PSD_TOL = DEFAULT_TOL.psd_tol
SCALES = (0.3, 0.7, 1.0, 1.3, 2.0)


def _hermitian_points(g, seed):
    """Seeded Hermitian g-tuples of sizes 1-3 at scales on both sides of 1,
    normalized by the largest eigenvalue of their sum of squares."""
    rng = np.random.default_rng(seed)
    points = []
    for k, scale in enumerate(SCALES * 2):
        X = random_hermitian_tuple(rng, 1 + k % 3, g).mats
        top = np.linalg.eigvalsh(np.einsum("iab,ibc->ac", X, X))[-1]
        points.append(X * scale / np.sqrt(top))
    return points


def _one_sided(verdict):
    assert verdict.boundary <= verdict.member
    if verdict.member:
        assert verdict.heuristic and verdict.witness is None
    else:
        assert not verdict.heuristic and verdict.witness is not None
    return verdict


def _top_of_real_combination(c, X):
    assert np.isrealobj(c) and np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
    return np.linalg.eigvalsh(np.einsum("i,iab->ab", c, X))[-1]


@pytest.mark.parametrize("X", _hermitian_points(2, 1) + _hermitian_points(3, 2)
                         + [pauli_tuple().mats, free_extreme_level4().mats])
def test_wmax_refutations_ship_a_real_unit_direction(X):
    verdict = _one_sided(wmax_ball_membership(X, seed=0))
    if not verdict.member:
        assert _top_of_real_combination(verdict.witness, X) > 1.0 + PSD_TOL


@pytest.mark.parametrize("X", _hermitian_points(2, 3)
                         + [scale * spin_tuple(2).mats for scale in (0.9, 1.0, 1.1)])
def test_registered_pauli_drop_refutations_ship_a_real_unit_direction(X):
    pencil = Pencil(pauli_tuple())
    verdict = _one_sided(project_membership_special(pencil, X))
    if not verdict.member:
        assert _top_of_real_combination(verdict.witness, X) > 1.0 + PSD_TOL


def _square_points(seed):
    rng = np.random.default_rng(seed)
    points = []
    for k, scale in enumerate(SCALES * 2):
        n = 1 + k % 3
        T = rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))
        points.append(T * scale / np.linalg.norm(T, ord=2, axis=(1, 2)).max())
    return points


@pytest.mark.parametrize("T", _square_points(4) + [pauli_tuple().mats])
def test_qd_refutations_ship_a_complex_unit_vector(T):
    verdict = _one_sided(qd_membership(T, seed=0))
    if not verdict.member:
        lam = verdict.witness
        assert np.linalg.norm(lam) == pytest.approx(1.0, abs=1e-12)
        top = np.linalg.svd(np.tensordot(lam, T, axes=1), compute_uv=False)[0]
        assert top > 1.0 + PSD_TOL


def test_one_sided_points_cover_both_sides():
    pencil = Pencil(pauli_tuple())
    sides = [{wmax_ball_membership(X, seed=0).member for X in _hermitian_points(2, 1)},
             {project_membership_special(pencil, X).member for X in _hermitian_points(2, 3)},
             {qd_membership(T, seed=0).member for T in _square_points(4)}]
    assert sides == [{True, False}] * 3


HULL_POINTS = [(0.0, -2.0 / 3.0), (0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (-2.5, 1.0),
               (0.5, -1.5), (0.9, 0.9)]


@pytest.mark.parametrize("generators", [triangle_edge_generators()]
                         + [[gen] for gen in triangle_edge_generators()])
@pytest.mark.parametrize("y", HULL_POINTS)
def test_hull_refutations_ship_a_separating_direction(generators, y):
    y = np.array(y)
    verdict = _one_sided(level1_hull_membership(generators, y, seed=0))
    if not verdict.member:
        c = verdict.witness
        support = max(np.linalg.eigvalsh(np.einsum("i,iab->ab", c, G.mats))[-1]
                      for G in generators)
        assert c @ y - support > PSD_TOL


def test_hull_search_sees_both_sides():
    verdicts = [level1_hull_membership([gen], np.array(y), seed=0)
                for gen in triangle_edge_generators() for y in HULL_POINTS]
    assert {v.member for v in verdicts} == {True, False}


SIMPLEX = np.array([[-2.0, 1.0], [1.0, 1.0], [1.0, -2.0]])


def _simplex_points():
    X = triangle_example_point().mats
    points = [scale * X for scale in SCALES]
    rng = np.random.default_rng(5)
    for k, scale in enumerate(SCALES * 2):
        Y = random_hermitian_tuple(rng, 1 + k % 3, 2).mats
        points.append(Y * scale / np.abs(np.linalg.eigvalsh(Y)).max())
    return points


@pytest.mark.parametrize("X", _simplex_points())
def test_simplex_coefficients_rebuild_the_point(X):
    verdict = simplex_membership(FreeSimplex(SIMPLEX), X)
    Q = verdict.witness
    n = X.shape[1]
    assert np.abs(Q.sum(axis=0) - np.eye(n)).max() <= 1e-12
    assert np.abs(np.einsum("kj,kab->jab", SIMPLEX, Q) - X).max() <= 1e-12
    least = min(np.linalg.eigvalsh(Qk)[0] for Qk in Q)
    assert verdict.member == (least >= -PSD_TOL)
    assert verdict.margin == pytest.approx(least, abs=1e-12)
    assert verdict.boundary <= verdict.member and not verdict.heuristic


def test_simplex_points_cover_both_sides():
    verdicts = [simplex_membership(FreeSimplex(SIMPLEX), X) for X in _simplex_points()]
    assert {(v.member, v.boundary) for v in verdicts} == {(True, True), (True, False),
                                                        (False, False)}


def _pencil_cases():
    rng = np.random.default_rng(6)
    cases = [(spin_tuple(3).mats, free_extreme_level4().mats),
             (pauli_tuple().mats, pauli_tuple().conj().mats)]
    for k, scale in enumerate(SCALES):
        g = 2 + k % 2
        cases.append((spin_tuple(g).mats, random_spin_member(rng, g, 2, scale=scale).mats))
    return cases


@pytest.mark.parametrize("A, X", _pencil_cases())
def test_pencil_margin_is_the_least_eigenvalue(A, X):
    verdict = membership(A, X)
    least = np.linalg.eigvalsh(_kron_pencil_value(A, X))[0]
    assert verdict.margin == pytest.approx(least, abs=1e-12)
    assert verdict.member == (least >= -PSD_TOL) and verdict.boundary <= verdict.member
    assert not verdict.heuristic and verdict.witness is None


@pytest.mark.parametrize("X", _hermitian_points(2, 7) + _hermitian_points(3, 8)
                         + [pauli_tuple().mats, free_extreme_level4().mats])
def test_ball_margins_match_numpy(X):
    ball = matrix_ball_membership(X)
    squares = np.einsum("iab,ibc->ac", X, X)
    assert ball.margin == pytest.approx(1.0 - np.linalg.eigvalsh(squares)[-1], abs=1e-12)
    selfdual = selfdual_ball_membership(X)
    pairing = sum(np.kron(Xi, Xi.conj()) for Xi in X)
    assert selfdual.margin == pytest.approx(1.0 - np.linalg.norm(pairing, ord=2), abs=1e-12)
    for verdict in (ball, selfdual):
        assert verdict.member == (verdict.margin >= -PSD_TOL)
        assert verdict.boundary <= verdict.member
        assert not verdict.heuristic and verdict.witness is None


def test_ball_points_cover_both_sides():
    members = {matrix_ball_membership(X).member for X in _hermitian_points(2, 7)}
    assert members == {True, False}


@pytest.mark.parametrize("point", [pauli_tuple(), pauli_tuple().conj(),
                                   HermitianTuple(0.5 * pauli_tuple().mats)])
def test_choi_verdict_obeys_the_band(point):
    verdict = choi_membership(FullSpanBasis(pauli_tuple()), point)
    assert verdict.member == (verdict.margin >= -PSD_TOL)
    assert verdict.boundary == (verdict.member and verdict.margin <= PSD_TOL)
    assert not verdict.heuristic and verdict.witness is None
