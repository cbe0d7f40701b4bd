import time

import numpy as np
import pytest

from _oracles import direct_sum, nullspace, orthogonal_transform
from freespec.errors import ParameterError
from freespec.linalg import HermitianTuple, hermitian_eigen, random_orthogonal
from freespec.pencil import linear_part, membership
from freespec.spin import (anticommutation_residual, pauli_conj_tuple, pauli_tuple,
                           random_spin_member, spin_tuple)

SQRT3 = np.sqrt(3.0)


def test_spin_pair_entries_exact():
    F = spin_tuple(2)
    assert np.array_equal(F.mats[0], np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(F.mats[1], np.array([[0, 1], [1, 0]], complex))


def test_spin_invariants_up_to_length_six():
    for g in (2, 3, 4, 5, 6):
        F = spin_tuple(g)
        assert F.n == 2 ** (g - 1)
        assert anticommutation_residual(F) <= 1e-12


def test_spin_length_and_cap_validation():
    with pytest.raises(ParameterError):
        spin_tuple(1)
    with pytest.raises(ParameterError):
        spin_tuple(20)
    # 13 matrices of side 4096 hold more than 8192^2 entries (3.5 GB complex):
    # refused before anything is built.
    start = time.perf_counter()
    with pytest.raises(ParameterError, match=r"more than 8192\^2 entries"):
        spin_tuple(13)
    assert time.perf_counter() - start < 1.0


def test_pauli_entries_exact():
    P = pauli_tuple()
    assert np.array_equal(P.mats[0], np.diag([1.0, -1.0]).astype(complex))
    assert np.array_equal(P.mats[1], np.array([[0, 1], [1, 0]], complex))
    assert np.array_equal(P.mats[2], np.array([[0, 1j], [-1j, 0]]))
    conj = pauli_conj_tuple()
    assert np.array_equal(conj.mats[0], P.mats[0])
    assert np.array_equal(conj.mats[1], P.mats[1])
    assert np.array_equal(conj.mats[2], -P.mats[2])


def test_length3_spin_is_the_pauli_pair_direct_sum_up_to_unitary():
    # Solve the intertwiner system; an invertible solution's polar part is a
    # unitary carrying one presentation onto the other.
    F = spin_tuple(3)
    G = direct_sum([pauli_tuple(), pauli_conj_tuple()])
    n = 4
    rows = []
    for Fi, Gi in zip(F.mats, G.mats):
        rows.append(np.kron(Fi.T, np.eye(n)) - np.kron(np.eye(n), Gi))
    sol = nullspace(np.vstack(rows))
    assert sol.shape[1] == 2  # two inequivalent 2x2 blocks
    U = sol[:, 0].reshape(n, n, order="F")
    for k in range(1, sol.shape[1]):
        if abs(np.linalg.det(U)) > 1e-6:
            break
        U = U + sol[:, k].reshape(n, n, order="F")
    W, _, Vh = np.linalg.svd(U)
    Q = W @ Vh
    worst = max(np.abs(Q @ Fi @ Q.conj().T - Gi).max()
                for Fi, Gi in zip(F.mats, G.mats))
    assert worst < 1e-10


def test_orthogonal_transform_identity_and_sign_flip():
    F = spin_tuple(3)
    assert np.abs(orthogonal_transform(np.eye(3), F).mats - F.mats).max() == 0.0
    U = np.diag([-1.0, 1.0, 1.0])
    flipped = orthogonal_transform(U, F)
    assert np.array_equal(flipped.mats[0], -F.mats[0])
    assert np.array_equal(flipped.mats[1], F.mats[1])


def test_orthogonal_transform_preserves_spin_relations():
    rng = np.random.default_rng(8)
    for g in (2, 3, 4):
        F = spin_tuple(g)
        for _ in range(10):
            U = random_orthogonal(rng, g)
            assert anticommutation_residual(orthogonal_transform(U, F)) <= 1e-12


def test_orthogonal_transform_rejects_non_orthogonal():
    with pytest.raises(ParameterError):
        orthogonal_transform(np.array([[1.0, 0.1], [0.0, 1.0]]), spin_tuple(2))
    with pytest.raises(ParameterError):
        orthogonal_transform(np.eye(3), spin_tuple(2))


def test_membership_invariant_under_orthogonal_transform():
    rng = np.random.default_rng(9)
    for g in (2, 3):
        F = spin_tuple(g)
        for _ in range(25):
            X = random_spin_member(rng, g, 2, scale=float(rng.choice([0.6, 1.0, 1.3])))
            U = random_orthogonal(rng, g)
            a = membership(F, X)
            b = membership(F, orthogonal_transform(U, X))
            assert a.member == b.member
            assert abs(a.margin - b.margin) <= 1e-9


def test_membership_invariant_under_coordinate_sign_flips():
    rng = np.random.default_rng(10)
    F = spin_tuple(3)
    X = random_spin_member(rng, 3, 2)
    base = membership(F, X)
    for mask in range(1, 8):
        signs = np.array([(-1.0 if mask & (1 << i) else 1.0) for i in range(3)])
        flipped = HermitianTuple(X.mats * signs[:, None, None])
        verdict = membership(F, flipped)
        assert verdict.member == base.member
        assert abs(verdict.margin - base.margin) <= 1e-9


def test_conjugate_set_is_the_negated_set():
    rng = np.random.default_rng(11)
    P = pauli_tuple()
    Pc = pauli_conj_tuple()
    for _ in range(50):
        X = random_spin_member(rng, 3, 2, scale=float(rng.choice([0.8, 1.05])))
        in_p = membership(P, X).member
        in_conj_negated = membership(Pc, HermitianTuple(-X.mats)).member
        assert in_p == in_conj_negated


def test_pauli_tuple_sits_on_its_own_boundary():
    P = pauli_tuple()
    w, _ = hermitian_eigen(linear_part(P, P))
    assert abs(w[-1] - 1.0) <= 1e-12


def _extend_by_zero(h, X):
    """Spin memberships of X and of X padded with zero matrices to length h."""
    padded = np.concatenate([X.mats, np.zeros((h - X.g, X.n, X.n))])
    return (membership(spin_tuple(X.g), X),
            membership(spin_tuple(h), HermitianTuple(padded)))


def test_extend_by_zero_random_member():
    rng = np.random.default_rng(12)
    X = random_spin_member(rng, 3, 2, scale=0.9)
    v3, v4 = _extend_by_zero(4, X)
    assert v3.member and v4.member


def test_extend_by_zero_nonmember():
    F = spin_tuple(3)
    X = HermitianTuple(F.mats / SQRT3)
    v3, v4 = _extend_by_zero(4, X)
    assert not v3.member and not v4.member


def test_extend_by_zero_zero_point():
    X = HermitianTuple(np.zeros((3, 2, 2)))
    v3, v5 = _extend_by_zero(5, X)
    assert v3.member and v5.member


def test_spin_membership_delegates():
    X = HermitianTuple(np.zeros((4, 1, 1)))
    assert membership(spin_tuple(4), X).member
