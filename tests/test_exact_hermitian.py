"""Exact Hermitian-ness of the matrices the package builds, and the
``linalg.hermitian_part`` check that returns such a matrix unchanged.

``hermitian_part`` tests ``M == M*`` entry for entry before it forms
``M - M*`` or ``(M + M*)/2``.  The pencil values, linear-part stacks, sums
of squares and built tuples below are all equal to their conjugate
transposes bit for bit, so every check of them takes that path."""

import numpy as np
import pytest

import freespec.extremality
from _oracles import haar_conjugated_sum
from freespec.ballsets import squares_sum
from freespec.errors import ParameterError
from freespec.fixtures import load_fixture
from freespec.linalg import (DEFAULT_TOL, HermitianTuple, hermitian_eigen, hermitian_eigvals,
                             hermitian_part, irreducible_blocks, random_hermitian,
                             random_hermitian_tuple)
from freespec.pencil import Pencil, batched_linear_part, pencil_split, pencil_value, psd_members
from freespec.spin import random_spin_member, spin_tuple


def _exactly_hermitian(M):
    M = np.asarray(M)
    return np.array_equal(M, M.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("g", (2, 3, 4, 5))
def test_built_matrices_equal_their_adjoints_bit_for_bit(g):
    A = spin_tuple(g)
    for n in range(1, 15):
        rng = np.random.default_rng([g, n])
        X = random_spin_member(rng, g, n)
        beta = random_hermitian_tuple(rng, n, g)
        alpha = rng.uniform(0.01, 1.0)
        u = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert _exactly_hermitian(beta.mats)
        assert _exactly_hermitian(pencil_value(A, X))
        sides = X.mats + np.multiply.outer([alpha, -alpha], beta.mats)
        assert _exactly_hermitian(batched_linear_part(A.mats, sides))
        assert _exactly_hermitian(squares_sum(X.mats))
        assert _exactly_hermitian(X.scaled(alpha).mats)
        assert _exactly_hermitian(X.conj().mats)
        assert _exactly_hermitian(freespec.extremality._rank_one(u, g))


def test_a_haar_conjugated_reducible_sum_builds_exactly_hermitian_matrices():
    rng = np.random.default_rng(5)
    x4, x6 = load_fixture("freeex4")[0], load_fixture("freeex6")[0]
    X = haar_conjugated_sum(rng, [x4, x6])
    assert _exactly_hermitian(X.mats)
    assert _exactly_hermitian(pencil_value(spin_tuple(3), X))
    assert _exactly_hermitian(squares_sum(X.mats))
    B, C = random_hermitian_tuple(rng, 3, 3), random_hermitian_tuple(rng, 2, 3)
    split = pencil_split(Pencil(haar_conjugated_sum(rng, [B, B, C])))
    assert split.multiplicities == (1, 2)
    Y = random_hermitian_tuple(rng, 4, 3)
    assert _exactly_hermitian(split.reduced.mats)
    assert _exactly_hermitian(pencil_value(split.reduced, Y))
    sides = Y.mats + np.multiply.outer([0.3, -0.3], random_hermitian_tuple(rng, 4, 3).mats)
    assert _exactly_hermitian(batched_linear_part(split.reduced.mats, sides))


def test_hermitian_part_returns_an_exact_input_as_it_is():
    rng = np.random.default_rng(0)
    for M in (random_hermitian(rng, 7), np.array([random_hermitian(rng, 5) for _ in range(3)]),
              np.eye(4), np.zeros((0, 3, 3), dtype=complex)):
        assert _exactly_hermitian(M)
        before = M.copy()
        sym, deviation = hermitian_part(M, DEFAULT_TOL.hermitian_tol)
        assert sym is M and deviation == 0.0
        assert np.array_equal(M, before)


def test_hermitian_part_symmetrizes_an_input_within_the_tolerance():
    M = random_hermitian(np.random.default_rng(1), 6)
    M[1, 4] += 3e-13
    sym, deviation = hermitian_part(M, DEFAULT_TOL.hermitian_tol)
    assert deviation == pytest.approx(3e-13, rel=1e-3)
    assert _exactly_hermitian(sym)
    assert np.array_equal(sym, 0.5 * (M + M.conj().T))


def test_hermitian_part_rejects_an_input_beyond_the_tolerance():
    stack = np.array([random_hermitian(np.random.default_rng(2), 6) for _ in range(2)])
    stack[1, 0, 5] += 1e-9
    with pytest.raises(ParameterError, match="deviates from Hermitian by 1.0"):
        hermitian_part(stack, DEFAULT_TOL.hermitian_tol)


def _read_only(M):
    M = np.array(M)
    M.setflags(write=False)
    return M


def test_no_caller_of_hermitian_part_writes_an_exact_input():
    # The five callers in linalg and pencil, each given a read-only, exactly
    # Hermitian input, which any write into the unchanged return would hit.
    rng = np.random.default_rng(3)
    M = _read_only(random_hermitian(rng, 6))
    stack = _read_only([random_hermitian(rng, 6) + 20.0 * np.eye(6) for _ in range(3)])
    A = _read_only(spin_tuple(3).mats)
    kept = [array.copy() for array in (M, stack, A)]
    assert np.array_equal(HermitianTuple(stack).mats, stack)
    w, V = hermitian_eigen(M)
    assert np.abs(V @ np.diag(w) @ V.conj().T - M).max() < 1e-12
    assert np.array_equal(hermitian_eigvals(stack), np.linalg.eigvalsh(stack))
    assert psd_members(stack)[0].all()
    assert irreducible_blocks(A) is not None
    for array, before in zip((M, stack, A), kept):
        assert np.array_equal(array, before)
