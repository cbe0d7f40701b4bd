"""Verdicts that respect the symmetries of a free spectrahedron.

L(X) = I - sum_i A_i (x) X_i changes only by a unitary similarity under

* X -> U* X U, U unitary (n x n): L(X) -> (I (x) U)* L(X) (I (x) U);
* A -> V* A V, V unitary (d x d): L(X) -> (V (x) I)* L(X) (V (x) I);
* (A, X) -> (O A, O X), O real orthogonal on the coordinate index:
  sum_i (O A)_i (x) (O X)_i = sum_i A_i (x) X_i.

So the verdict, the kernel dimension, both nullities and the commutant
dimension of ``classify`` must not move, and each witness must stay valid.
The certification systems are normalized by the largest entry of A, so
their smallest retained singular values move covariantly with it.

(A, X) -> (c A, X / c), c > 0, leaves L(X) as it is and maps the set D_A to
D_{cA} = D_A / c, so the same holds there, and a step alpha becomes
alpha / c.
"""

import dataclasses

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


def _least_eigenvalue(A, X):
    """Least eigenvalue of I - sum_i A_i (x) X_i, in plain numpy."""
    L = sum(np.kron(Ai, Xi) for Ai, Xi in zip(A.mats, X))
    return np.linalg.eigvalsh(np.eye(len(L)) - L)[0]


def _check_witness(A, X, witness):
    """A boundary certificate's step is certified and maximal: X +/- alpha
    beta are members and X +/- 1.01 alpha beta are not both; an Arveson
    certificate's commutant element commutes with X and is not scalar."""
    Xm = X.mats
    if witness is not None and witness.kind == "hermitian":
        step = witness.alpha * witness.direction
        assert min(_least_eigenvalue(A, Xm + s * step) for s in (1, -1)) >= -1e-9 - 1e-12
        assert min(_least_eigenvalue(A, Xm + s * 1.01 * step) for s in (1, -1)) < -1e-9
    if witness is not None and witness.kind == "commutant":
        C = witness.direction
        assert max(np.abs(C @ Xi - Xi @ C).max() for Xi in Xm) < 1e-8
        assert np.linalg.norm(C - np.trace(C) / len(C) * np.eye(len(C))) >= 0.5


@pytest.mark.parametrize("kind", ["point unitary", "pencil unitary", "coordinate orthogonal"])
@pytest.mark.parametrize("index", range(len(POINTS)), ids=lambda i: "-".join(map(str, POINTS[i])))
def test_classify_is_invariant_under_the_sets_symmetries(index, kind):
    A, X = _point(POINTS[index])
    moved_A, moved_X = _transform(kind, A, X, np.random.default_rng(index))
    reference = classify(Pencil(A), X)
    cert = classify(Pencil(moved_A), moved_X)
    assert _invariants(cert) == _invariants(reference)
    _check_witness(A, X, reference.witness)
    _check_witness(moved_A, moved_X, cert.witness)
    expected = _scaled_margins(reference, A)
    assert _scaled_margins(cert, moved_A) == pytest.approx(expected, rel=1e-10)
    if kind != "coordinate orthogonal":
        # The generic element's weights are fixed per coordinate, so only a
        # change of coordinates moves the cluster gap.
        assert cert.residuals["commutant_cluster_gap"] == pytest.approx(
            reference.residuals["commutant_cluster_gap"], rel=1e-10)


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e6, 1e9])
@pytest.mark.parametrize("index", range(len(POINTS)), ids=lambda i: "-".join(map(str, POINTS[i])))
def test_classify_is_invariant_under_rescaling_the_pencil(index, c):
    A, X = _point(POINTS[index])
    reference = classify(Pencil(A), X)
    cert = classify(Pencil(HermitianTuple(c * A.mats)), HermitianTuple(X.mats / c))
    assert _invariants(cert) == _invariants(reference)
    witness = cert.witness
    if witness is not None and witness.kind == "hermitian":
        assert witness.alpha * c == pytest.approx(reference.witness.alpha, rel=1e-9)
        witness = dataclasses.replace(witness, alpha=witness.alpha * c)
    # The witness, read back at (A, X), where a commutant element commutes
    # with X exactly when it commutes with X / c.
    _check_witness(A, X, witness)
    expected = {key: value * c for key, value in _scaled_margins(reference, A).items()}
    assert _scaled_margins(cert, HermitianTuple(c * A.mats)) == pytest.approx(expected, rel=1e-10)
    assert cert.residuals["commutant_cluster_gap"] * c == pytest.approx(
        reference.residuals["commutant_cluster_gap"], rel=1e-10)
