"""Verdicts that respect the symmetries of a free spectrahedron.

L(X) = I - sum_i A_i (x) X_i changes only by a unitary similarity under

* X -> U* X U, U unitary (n x n): L(X) -> (I (x) U)* L(X) (I (x) U);
* A -> V* A V, V unitary (d x d): L(X) -> (V (x) I)* L(X) (V (x) I);
* (A, X) -> (O A, O X), O real orthogonal on the coordinate index:
  sum_i (O A)_i (x) (O X)_i = sum_i A_i (x) X_i.

So the verdict, the kernel dimension, both nullities and the commutant
dimension of ``classify`` must not move.  The certification systems are
normalized by the largest entry of A, so their smallest retained singular
values move covariantly with it.
"""

import numpy as np
import pytest

from _oracles import direct_sum, orthogonal_transform, random_unitary
from freespec.extremality import classify
from freespec.fixtures import load_fixture
from freespec.linalg import HermitianTuple
from freespec.pencil import Pencil
from freespec.spin import random_spin_member, spin_tuple

_SIZES = [(3, 6), (3, 10), (3, 14), (4, 6), (4, 10)]
_FIXTURE_SUMS = [("freeex4",), ("freeex6",), ("freeex4", "freeex6"),
                 ("freeex4", "freeex6", "freeex4")]
POINTS = [("spin", g, n, seed) for g, n in _SIZES for seed in range(2)] + \
    [("fixture",) + parts for parts in _FIXTURE_SUMS]


def _point(case):
    if case[0] == "spin":
        g, n, seed = case[1:]
        return spin_tuple(g), random_spin_member(np.random.default_rng([g, n, seed]), g, n)
    return spin_tuple(3), direct_sum([load_fixture(name)[0] for name in case[1:]])


def _orthogonal(rng, g):
    Q, R = np.linalg.qr(rng.normal(size=(g, g)))
    return Q * np.sign(np.diag(R))


def _transform(kind, A, X, rng):
    if kind == "point unitary":
        U = random_unitary(rng, X.n)
        return A, HermitianTuple(U.conj().T @ X.mats @ U)
    if kind == "pencil unitary":
        V = random_unitary(rng, A.n)
        return HermitianTuple(V.conj().T @ A.mats @ V), X
    O = _orthogonal(rng, A.g)
    return orthogonal_transform(O, A), orthogonal_transform(O, X)


def _invariants(cert):
    return (cert.verdict, cert.kernel_dim, cert.beta_nullity_column, cert.beta_nullity_hermitian,
            cert.commutant_dim, cert.witness.kind if cert.witness else None)


def _scaled_margins(cert, A):
    """The smallest retained singular values, times the largest entry of A."""
    scale = np.abs(A.mats).max()
    return {key: value * scale for key, value in cert.residuals.items()
            if key.endswith("smallest_retained")}


@pytest.mark.parametrize("kind", ["point unitary", "pencil unitary", "coordinate orthogonal"])
@pytest.mark.parametrize("index", range(len(POINTS)), ids=lambda i: "-".join(map(str, POINTS[i])))
def test_classify_is_invariant_under_the_sets_symmetries(index, kind):
    A, X = _point(POINTS[index])
    moved_A, moved_X = _transform(kind, A, X, np.random.default_rng(index))
    reference = classify(Pencil(A), X)
    cert = classify(Pencil(moved_A), moved_X)
    assert _invariants(cert) == _invariants(reference)
    expected = _scaled_margins(reference, A)
    assert _scaled_margins(cert, moved_A) == pytest.approx(expected, rel=1e-10)
    if kind != "coordinate orthogonal":
        # The generic element's weights are fixed per coordinate, so only a
        # change of coordinates moves the cluster gap.
        assert cert.residuals["commutant_cluster_gap"] == pytest.approx(
            reference.residuals["commutant_cluster_gap"], rel=1e-10)
