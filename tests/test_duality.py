import numpy as np
import pytest

from freespec.duality import (FullSpanBasis, choi_matrix, choi_membership,
                              dual_pencil, polar_membership)
from freespec.errors import ConstructionError, DimensionError
from freespec.linalg import DEFAULT_TOL, HermitianTuple, hermitian_eigen, random_hermitian_tuple
from freespec.pencil import (Pencil, boundary_scale, ensure_bounded_flag,
                             level1_bounded_heuristic, membership)
from freespec.spin import pauli_conj_tuple, pauli_tuple, random_spin_member, spin_tuple

from _oracles import full_svd_nullity, gell_mann_tuple, realify

SQRT3 = np.sqrt(3.0)


def test_full_span_basis_pauli_blocks():
    basis = FullSpanBasis(pauli_tuple())
    P = pauli_tuple().mats
    assert np.abs(basis.G[0] - 0.5 * np.eye(2)).max() < 1e-12
    assert np.abs(basis.G[1] - 0.5 * P[0]).max() < 1e-12
    assert np.abs(basis.G[2] - 0.5 * P[1]).max() < 1e-12
    assert np.abs(basis.G[3] + 0.5 * P[2]).max() < 1e-12
    assert basis.reconstruction_residual() <= 1e-10


@pytest.mark.parametrize("A", [pauli_tuple(), gell_mann_tuple(3), gell_mann_tuple(4)],
                         ids=["pauli", "gell-mann-3", "gell-mann-4"])
def test_full_span_basis_matches_realified_solve(A):
    # Reference: every matrix unit expanded in {I, A_k} by one least-squares
    # solve of the realified system.
    d = A.n
    basis = np.concatenate([np.eye(d, dtype=complex)[None], A.mats], axis=0)
    Breal = realify(basis.reshape(d * d, d * d).T)
    assert np.linalg.matrix_rank(Breal) == 2 * d * d
    units = np.eye(d * d)
    coef, *_ = np.linalg.lstsq(Breal, np.vstack([units, np.zeros_like(units)]), rcond=None)
    G = (coef[:d * d] + 1j * coef[d * d:]).reshape(d * d, d, d)
    assert np.abs(FullSpanBasis(A).G - G).max() <= 1e-12


def test_full_span_basis_length_validation():
    with pytest.raises(DimensionError):
        FullSpanBasis(spin_tuple(3))  # length 3 != 16 - 1


def test_full_span_basis_rejects_dependent_tuple():
    P = pauli_tuple().mats
    dependent = HermitianTuple(np.array([P[0], P[1], P[0]]))
    with pytest.raises(ConstructionError):
        FullSpanBasis(dependent)


def test_choi_matrix_block_structure():
    basis = FullSpanBasis(pauli_tuple())
    rng = np.random.default_rng(16)
    X = random_hermitian_tuple(rng, 2, 3)
    M = choi_matrix(basis, X)
    Xm = X.mats
    expected = 0.5 * np.block(
        [[np.eye(2) + Xm[0], Xm[1] - 1j * Xm[2]],
         [Xm[1] + 1j * Xm[2], np.eye(2) - Xm[0]]])
    assert np.abs(M - expected).max() < 1e-12


def test_choi_membership_identity_point_rank_one():
    basis = FullSpanBasis(pauli_tuple())
    verdict = choi_membership(basis, pauli_tuple())
    assert verdict.member and verdict.boundary
    w, _ = hermitian_eigen(choi_matrix(basis, pauli_tuple()))
    assert np.allclose(w, [0.0, 0.0, 0.0, 2.0], atol=1e-12)  # rank one


def test_choi_kernel_dim_is_the_svd_nullity_at_boundary_points():
    rng = np.random.default_rng(29)
    for A in (pauli_tuple(), gell_mann_tuple(3)):
        basis = FullSpanBasis(A)
        B = dual_pencil(basis)
        # The tuple itself (the identity map), and a random point pushed
        # onto the boundary of the matrix range along its ray.
        X = random_hermitian_tuple(rng, 2, A.g)
        for point in (A, X.scaled(boundary_scale(B, X))):
            verdict = choi_membership(basis, point)
            assert verdict.boundary
            nullity, _ = full_svd_nullity(choi_matrix(basis, point))
            assert verdict.kernel_dim == nullity >= 1


def test_choi_membership_conjugate_point_refuted():
    # The block matrix at the conjugate triple is the transpose map's Choi
    # matrix; at this normalization its minimum eigenvalue is -1 (twice the
    # -1/2 of the trace-normalized convention).
    basis = FullSpanBasis(pauli_tuple())
    verdict = choi_membership(basis, pauli_conj_tuple())
    assert not verdict.member
    assert abs(verdict.margin + 1.0) < 1e-12


def test_choi_membership_zero_point():
    basis = FullSpanBasis(pauli_tuple())
    verdict = choi_membership(basis, HermitianTuple(np.zeros((3, 2, 2))))
    assert verdict.member


def test_choi_linearity():
    basis = FullSpanBasis(pauli_tuple())
    rng = np.random.default_rng(17)
    X = random_hermitian_tuple(rng, 3, 3)
    Y = random_hermitian_tuple(rng, 3, 3)
    for a in (0.0, 0.3, 0.7, 1.0):
        blend = HermitianTuple(a * X.mats + (1 - a) * Y.mats)
        lhs = choi_matrix(basis, blend)
        rhs = a * choi_matrix(basis, X) + (1 - a) * choi_matrix(basis, Y)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_dual_pencil_of_pauli_is_conjugation_of_itself():
    basis = FullSpanBasis(pauli_tuple())
    B = dual_pencil(basis)
    P = pauli_tuple().mats
    assert np.abs(B.mats[0] + P[0]).max() < 1e-12
    assert np.abs(B.mats[1] + P[1]).max() < 1e-12
    assert np.abs(B.mats[2] - P[2]).max() < 1e-12


def test_dual_pencil_of_conjugate_triple():
    # The dual of the conjugate basis is the negated triple, whose set is
    # the negation of the primal one, matching the conjugate set.
    basis = FullSpanBasis(pauli_conj_tuple())
    B = dual_pencil(basis)
    P = pauli_tuple().mats
    assert np.abs(B.mats + P).max() < 1e-12
    rng = np.random.default_rng(30)
    for _ in range(100):
        X = random_hermitian_tuple(rng, 2, 3)
        s = boundary_scale(pauli_conj_tuple(), X)
        if np.isfinite(s):
            X = X.scaled(s * float(rng.choice([0.8, 1.1])))
        a = membership(B, X)
        b = membership(pauli_conj_tuple(), X)
        if abs(a.margin) > 1e-8:
            assert a.member == b.member


def test_dual_pencil_membership_agrees_with_choi():
    rng = np.random.default_rng(18)
    basis = FullSpanBasis(pauli_tuple())
    B = dual_pencil(basis)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        X = random_hermitian_tuple(rng, n, 3)
        s = boundary_scale(pauli_tuple(), X)
        if np.isfinite(s):
            X = X.scaled(s * float(rng.choice([0.7, 0.999, 1.01, 1.4])))
        member_choi = choi_membership(basis, X).member
        member_pencil = membership(B, X).member
        margin = membership(B, X).margin
        if abs(margin) > 1e-8:
            assert member_choi == member_pencil


def test_dual_pencil_requires_positive_identity_block():
    P = pauli_tuple().mats
    shifted = HermitianTuple(np.array([P[0], P[1], P[2] + 1.5 * np.eye(2)]))
    basis = FullSpanBasis(shifted)
    with pytest.raises(ConstructionError):
        dual_pencil(basis)


def test_random_full_span_dual_agreement_d3():
    rng = np.random.default_rng(19)
    A = gell_mann_tuple(3)
    basis = FullSpanBasis(A)
    B = dual_pencil(basis)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        X = random_hermitian_tuple(rng, n, 8)
        s = boundary_scale(A, X)
        if np.isfinite(s):
            X = X.scaled(s * float(rng.choice([0.5, 0.95, 1.1])))
        verdict = membership(B, X)
        if abs(verdict.margin) > 1e-8:
            assert choi_membership(basis, X).member == verdict.member


def test_polar_membership_pauli_self_membership():
    rng = np.random.default_rng(20)
    samples = [random_spin_member(rng, 3, 2, scale=0.999) for _ in range(50)]
    # Members of the 2x2 triple's set never refute the triple itself.
    P = pauli_tuple()
    ok = [s for s in samples if membership(P, s).member]
    verdict = polar_membership(ok, P)
    assert verdict.member and verdict.heuristic


def test_polar_membership_scaled_spin_witness():
    F = spin_tuple(3)
    X = HermitianTuple(F.mats / SQRT3)
    verdict = polar_membership([F], X)
    assert not verdict.member
    assert abs(1.0 - verdict.margin - SQRT3) < 1e-12


def test_polar_membership_zero_never():
    F = spin_tuple(3)
    X = HermitianTuple(np.zeros((3, 4, 4)))
    verdict = polar_membership([F], X)
    assert verdict.member and verdict.heuristic


def test_polar_membership_refutation_ships_the_largest_pairing_sample():
    # Both samples refute; the witness is the one pairing highest, not the first.
    F = spin_tuple(3)
    X = HermitianTuple(F.mats / SQRT3)
    samples = [F.scaled(0.8), F, F.scaled(0.9)]
    verdict = polar_membership(samples, X)
    assert not verdict.member and not verdict.heuristic
    assert verdict.witness is F.mats
    assert verdict.margin == pytest.approx(1.0 - SQRT3, abs=1e-12)
    assert verdict.margin < -DEFAULT_TOL.psd_tol


def test_refuted_points_are_choi_nonmembers():
    # One-sided consistency: refutation against members of the self-dual
    # set implies Choi non-membership.
    rng = np.random.default_rng(21)
    basis = FullSpanBasis(pauli_tuple())
    P = pauli_tuple()
    samples = [random_spin_member(rng, 3, 2, scale=0.999) for _ in range(100)]
    samples = [s for s in samples if membership(P, s).member]
    hits = 0
    for _ in range(50):
        X = random_spin_member(rng, 3, 2, scale=1.3)
        if not polar_membership(samples, X).member:
            hits += 1
            assert not choi_membership(basis, X).member
    assert hits > 0


def _level1_point(c):
    return HermitianTuple(np.asarray(c).reshape(-1, 1, 1).astype(complex))


def test_non_selfdual_check_gell_mann_witness():
    # The Gell-Mann d = 3 set is not self-dual: along some direction its
    # level-1 radius differs from the dual pencil's, and the midpoint lies
    # in exactly one of the two sets.
    A = gell_mann_tuple(3)
    basis = FullSpanBasis(A)
    B = dual_pencil(basis)
    rng = np.random.default_rng(0)
    for _ in range(64):
        c = _level1_point(rng.normal(size=8))
        c = c.scaled(1.0 / np.linalg.norm(c.mats))
        r_primal, r_dual = boundary_scale(A, c), boundary_scale(B, c)
        if abs(r_primal - r_dual) > 1e-3 * (r_primal + r_dual):
            break
    else:
        pytest.fail("no direction separates the primal and dual radii")
    x = c.scaled(0.5 * (r_primal + r_dual))
    in_primal = membership(A, x).member
    in_dual = membership(B, x).member
    assert in_primal == (r_primal > r_dual) and in_dual == (r_dual > r_primal)
    assert choi_membership(basis, x).member == in_dual


def test_non_selfdual_check_parameter_validation():
    # Outside the refutable range there is nothing to find: the 2x2 triple
    # (d = 2) is self-dual, so its level-1 radii match the dual pencil's in
    # every direction, and a Gell-Mann tuple short of full span has no dual
    # pencil at all.
    P = pauli_tuple()
    B = dual_pencil(FullSpanBasis(P))
    rng = np.random.default_rng(1)
    for _ in range(32):
        c = _level1_point(rng.normal(size=3))
        assert boundary_scale(P, c) == pytest.approx(boundary_scale(B, c), rel=1e-10)
    with pytest.raises(DimensionError):
        FullSpanBasis(HermitianTuple(gell_mann_tuple(3).mats[:6]))


def test_non_selfdual_check_requires_bounded_pencil():
    # Shifting one coefficient by -3 I opens an unbounded coordinate ray,
    # which the boundedness heuristic certifies and caches on the pencil.
    GM = gell_mann_tuple(3).mats.copy()
    GM[7] = GM[7] - 3.0 * np.eye(3)
    report = level1_bounded_heuristic(HermitianTuple(GM))
    assert not report.bounded
    assert np.linalg.eigvalsh(np.einsum("i,iab->ab", report.witness_direction, GM))[-1] <= 1e-9
    pencil = Pencil(HermitianTuple(GM))
    assert ensure_bounded_flag(pencil) is False and pencil.bounded[DEFAULT_TOL] is False
    assert ensure_bounded_flag(Pencil(gell_mann_tuple(3)))


def test_non_selfdual_check_partial_span_pair_route():
    # Gell-Mann d = 4 without its last element is short of full span, so no
    # dual pencil exists; two level-1 boundary points pairing above one
    # still show that the first level is not inside its own polar.
    A = HermitianTuple(gell_mann_tuple(4).mats[:14])
    with pytest.raises(DimensionError):
        FullSpanBasis(A)
    rng = np.random.default_rng(0)
    boundary = []
    for _ in range(256):
        c = _level1_point(rng.normal(size=14))
        boundary.append(c.scaled(boundary_scale(A, c)))
    for y in boundary:
        verdict = polar_membership(boundary, y)
        if not verdict.member:
            break
    else:
        pytest.fail("no pair of boundary points pairs above one")
    x = HermitianTuple(verdict.witness)
    assert membership(A, x).boundary and membership(A, y).boundary
    pairing = float(np.real(np.dot(x.mats.ravel(), y.mats.ravel())))
    assert 1.0 - verdict.margin == pytest.approx(pairing, abs=1e-12)
    assert pairing > 1.0
