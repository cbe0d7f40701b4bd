import itertools

import numpy as np
import pytest

from freespec.errors import DimensionError, ParameterError
from freespec.fixtures import free_extreme_level4, load_fixture
from freespec.linalg import HermitianTuple, ToleranceProfile, hermitian_eigen, random_hermitian_tuple
from freespec.pencil import (Pencil, boundary_scale, level1_bounded_heuristic,
                             linear_part, membership, pencil_value, psd_members)
from freespec.spin import pauli_tuple, random_spin_member, spin_tuple

from _oracles import charpoly_coefficients, direct_sum, random_unitary

SQRT3 = np.sqrt(3.0)


def test_linear_part_zero_point():
    F = spin_tuple(3)
    X = HermitianTuple(np.zeros((3, 2, 2)))
    assert np.abs(linear_part(F, X)).max() == 0.0


def test_linear_part_spin_pair_on_itself():
    # Frozen: the g=2 self-pairing has characteristic polynomial
    # t^4 - 4 t^2 = t^2 (t-2)(t+2), eigenvalues {-2, 0, 0, 2}.
    F = spin_tuple(2)
    M = linear_part(F, F)
    coeffs = charpoly_coefficients(M)
    assert np.allclose(coeffs.real, [1.0, 0.0, -4.0, 0.0, 0.0], atol=1e-12)
    w, _ = hermitian_eigen(M)
    assert np.allclose(w, [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


def test_linear_part_pauli_on_itself_top_eigenvalue():
    P = pauli_tuple()
    w, _ = hermitian_eigen(linear_part(P, P))
    assert abs(w[-1] - 1.0) < 1e-12
    assert abs(w[0] + 3.0) < 1e-12


def test_linear_part_length_mismatch():
    with pytest.raises(DimensionError):
        linear_part(spin_tuple(3), spin_tuple(2))


def test_pencil_value_zero_point_is_identity():
    F = spin_tuple(2)
    X = HermitianTuple(np.zeros((2, 3, 3)))
    assert np.abs(pencil_value(F, X) - np.eye(6)).max() == 0.0


def test_pencil_value_at_level4_point_is_psd_with_kernel():
    L = pencil_value(spin_tuple(3), free_extreme_level4())
    w, _ = hermitian_eigen(L)
    assert w[0] > -1e-12
    assert np.sum(np.abs(w) < 1e-9) == 6


def test_pencil_value_at_conjugate_triple_has_negative_eigenvalue():
    P = pauli_tuple()
    w, _ = hermitian_eigen(pencil_value(P, P.conj()))
    assert abs(w[0] + 2.0) < 1e-12  # frozen from the eigensolve oracle


def test_membership_interior_at_zero():
    verdict = membership(spin_tuple(3), HermitianTuple(np.zeros((3, 1, 1))))
    assert verdict.member and not verdict.boundary
    assert abs(verdict.margin - 1.0) < 1e-15
    assert verdict.kernel_dim is None


def test_membership_scaled_spin_tuple_refuted():
    F = spin_tuple(3)
    verdict = membership(F, HermitianTuple(F.mats / SQRT3))
    assert not verdict.member
    assert abs(verdict.margin - (1.0 - SQRT3)) < 1e-12


def test_membership_negated_triple_refuted():
    P = pauli_tuple()
    verdict = membership(P, HermitianTuple(-P.mats))
    assert not verdict.member
    assert verdict.margin < -0.2


def test_membership_boundary_kernel_dim():
    verdict = membership(spin_tuple(3), free_extreme_level4())
    assert verdict.member and verdict.boundary
    assert verdict.kernel_dim == 6


def test_membership_scaling_monotone():
    rng = np.random.default_rng(4)
    F = spin_tuple(2)
    for _ in range(20):
        X = random_spin_member(rng, 2, 2)
        for s in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert membership(F, HermitianTuple(X.mats * s)).member


def test_membership_unitary_invariance():
    rng = np.random.default_rng(5)
    F = spin_tuple(3)
    for _ in range(20):
        X = random_spin_member(rng, 3, 3, scale=float(rng.choice([0.7, 1.0, 1.2])))
        U = random_unitary(rng, 3)
        rotated = HermitianTuple(np.array([U.conj().T @ M @ U for M in X.mats]))
        a = membership(F, X)
        b = membership(F, rotated)
        assert a.member == b.member
        assert abs(a.margin - b.margin) < 1e-10


def test_membership_direct_sums():
    rng = np.random.default_rng(6)
    F = spin_tuple(2)
    for _ in range(20):
        X = random_spin_member(rng, 2, 2, scale=float(rng.choice([0.8, 1.1])))
        Y = random_spin_member(rng, 2, 3, scale=float(rng.choice([0.8, 1.1])))
        both = membership(F, X).member and membership(F, Y).member
        assert membership(F, direct_sum([X, Y])).member == both


def test_boundary_scale_matches_membership():
    rng = np.random.default_rng(7)
    F = spin_tuple(2)
    X = random_hermitian_tuple(rng, 2, 2)
    s = boundary_scale(F, X)
    assert membership(F, HermitianTuple(X.mats * s)).boundary


def test_bounded_heuristic_spin_pair():
    report = level1_bounded_heuristic(spin_tuple(2))
    assert report.bounded and report.heuristic


def test_bounded_heuristic_simplex_pencil():
    A = HermitianTuple(np.array([np.diag([1.0, 0.0, -1.0]).astype(complex),
                                 np.diag([0.0, 1.0, -1.0]).astype(complex)]))
    assert level1_bounded_heuristic(A).bounded


def test_bounded_heuristic_unbounded_direction():
    E11 = np.zeros((2, 2), complex)
    E11[0, 0] = 1.0
    report = level1_bounded_heuristic(HermitianTuple([E11]))
    assert not report.bounded
    assert report.witness_direction is not None
    # The certified ray has a negative-semidefinite linear part.
    c = report.witness_direction
    assert float(c[0]) < 0.0


@pytest.mark.parametrize("k", range(-12, 10))
def test_bounded_heuristic_does_not_move_with_the_scale_of_the_pencil(k):
    c = 10.0 ** k
    report = level1_bounded_heuristic(HermitianTuple(c * spin_tuple(3).mats))
    assert report.bounded


@pytest.mark.parametrize("k", range(-12, 10))
def test_bounded_heuristic_finds_an_unbounded_ray_at_every_scale(k):
    # (A1, -A1, A2) vanishes along (1, 1, 0): a certified unbounded ray.
    A1, A2 = spin_tuple(2).mats
    A = 10.0 ** k * np.array([A1, -A1, A2])
    report = level1_bounded_heuristic(HermitianTuple(A))
    assert not report.bounded
    ray = np.einsum("i,iab->ab", report.witness_direction, A)
    assert np.linalg.eigvalsh(ray)[-1] <= 1e-9 * np.abs(A).max()


@pytest.mark.parametrize("t", [0.1, 0.31, 0.5, 1.0, 2.0, 3.0])
def test_bounded_heuristic_finds_a_ray_off_its_grid(t):
    # (A_1, -t A_1, A_2) from spin-g2 vanishes along (t, 1, 0), spin-g3 with a
    # fourth coordinate -t A_1 along (t, 0, 0, 1): both off the search's grid.
    A1, A2 = spin_tuple(2).mats
    F = spin_tuple(3).mats
    for A in (np.array([A1, -t * A1, A2]), np.array([*F, -t * F[0]])):
        report = level1_bounded_heuristic(HermitianTuple(A))
        assert not report.bounded and not report.heuristic
        c = report.witness_direction
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-12
        assert np.linalg.eigvalsh(np.einsum("i,iab->ab", c, A))[-1] <= 1e-9


@pytest.mark.parametrize("name", ["pauli", "pauli-conj", "simplex-remark-pencil",
                                  *(f"spin-g{g}" for g in range(2, 9))])
def test_bounded_heuristic_reads_every_bundled_pencil_bounded(name):
    report = level1_bounded_heuristic(load_fixture(name)[0])
    assert report.bounded and report.witness_direction is None


def test_membership_kernel_is_a_read_only_array():
    verdict = membership(spin_tuple(3), free_extreme_level4())
    assert type(verdict.kernel) is np.ndarray and verdict.kernel.shape == (16, 6)
    assert verdict.kernel_dim == 6 and not verdict.kernel.flags.writeable
    with pytest.raises(ValueError):
        verdict.kernel[0, 0] = 0.0


def test_pencil_wrapper_roundtrip():
    pencil = Pencil(pauli_tuple())
    assert pencil.d == 2 and pencil.g == 3 and pencil.bounded == {}
    again = Pencil(pencil)
    assert again.coefficients is pencil.coefficients


def _stack_with_least(least, d=12, seed=0):
    """Unitary conjugates of diagonal matrices with the given least eigenvalues."""
    rng = np.random.default_rng(seed)
    mats = []
    for lam in least:
        U = random_unitary(rng, d)
        mats.append((U * np.concatenate([[lam], rng.uniform(0.1, 2.0, d - 1)])) @ U.conj().T)
    return np.array(mats)


@pytest.mark.parametrize("psd_tol", [1e-9, 1e-6])
def test_psd_members_decides_like_the_least_eigenvalue(psd_tol):
    tol = ToleranceProfile(psd_tol=psd_tol)
    least = psd_tol * np.array([-1.5, -0.5, -10.0, 10.0])
    stack = _stack_with_least(least)
    expected = np.linalg.eigvalsh(stack)[:, 0] >= -psd_tol
    assert list(expected) == [False, True, False, True]
    member, computed = psd_members(stack, tol)
    assert np.array_equal(member, expected)
    assert np.allclose(computed, least, rtol=0.0, atol=1e-13)
    # Each matrix alone and each pair: the Cholesky test accepts a stack
    # exactly when every member passes, and then reports no eigenvalues.
    for i, j in itertools.combinations_with_replacement(range(len(least)), 2):
        member, computed = psd_members(stack[[i, j]], tol)
        assert np.array_equal(member, expected[[i, j]])
        assert (computed is None) == bool(expected[i] and expected[j])
    if psd_tol > ToleranceProfile().psd_tol:
        # The enforced tolerance is the profile's, not the default one.
        assert not psd_members(stack[[1]])[0][0]


def test_psd_members_rejects_a_non_hermitian_stack():
    stack = _stack_with_least([1.0, 1.0])
    stack[1, 0, 1] += 1e-6
    with pytest.raises(ParameterError):
        psd_members(stack)
