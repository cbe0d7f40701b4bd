"""Certificates and pencils survive a pickle round trip: every deferred
field reads the same after unpickling, and a pencil keeps its cached split."""

import pickle

import numpy as np
import pytest

import freespec.pencil
from _oracles import direct_sum, random_unitary
from freespec.extremality import Verdict, classify
from freespec.fixtures import (free_extreme_level4, free_extreme_level6, triangle_example_pencil,
                               triangle_example_point)
from freespec.linalg import DEFAULT_TOL, HermitianTuple
from freespec.pencil import Pencil, pencil_split
from freespec.spin import random_spin_member, spin_tuple


def _case(kind):
    if kind == "boundary":
        return Pencil(spin_tuple(4)), random_spin_member(np.random.default_rng(4), 4, 6)
    if kind == "euclidean":
        return Pencil(triangle_example_pencil()), triangle_example_point()
    Y = direct_sum([free_extreme_level4(), free_extreme_level6()][:2 if kind == "arveson" else 1])
    U = random_unitary(np.random.default_rng(8), Y.n)
    return Pencil(spin_tuple(3)), HermitianTuple(U.conj().T @ Y.mats @ U)


def _deferred(cert):
    """Every field, the deferred ones included, and each system's solution."""
    systems = cert._systems
    solutions = [None if report is None else report.solution
                 for report in (systems.column, systems.column and systems.hermitian)]
    witness = cert.witness
    return (cert.verdict, cert.min_eigenvalue, cert.kernel_dim, cert.beta_nullity_column,
            cert.beta_nullity_hermitian, cert.commutant_dim, cert.residuals, cert.caveats,
            None if witness is None else (witness.kind, witness.alpha, witness.direction),
            solutions)


def _equal(a, b):
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("kind, verdict", [("boundary", Verdict.BOUNDARY),
                                           ("euclidean", Verdict.EUCLIDEAN),
                                           ("arveson", Verdict.ARVESON), ("free", Verdict.FREE)])
def test_certificates_pickle_with_their_deferred_fields_unread(kind, verdict):
    pencil, X = _case(kind)
    cert = classify(pencil, X)
    assert cert.verdict == verdict
    # Pickled before any deferred field is read, so the pending solves travel.
    copy = pickle.loads(pickle.dumps(cert))
    assert _equal(_deferred(copy), _deferred(cert))
    # And after: the cached values travel too.
    assert _equal(_deferred(pickle.loads(pickle.dumps(cert))), _deferred(cert))


def test_a_pencil_pickles_with_its_split_and_a_copy_shares_it(monkeypatch):
    pencil = Pencil(spin_tuple(4))
    X = random_spin_member(np.random.default_rng(1), 4, 5)
    cert = classify(pencil, X)
    split = pencil_split(pencil)
    assert split.multiplicities == (2,)
    copy = pickle.loads(pickle.dumps(pencil))
    monkeypatch.setattr(freespec.pencil, "irreducible_blocks", None)  # no split may run now
    restored = copy.splits[DEFAULT_TOL]
    assert restored.multiplicities == split.multiplicities and restored.scale == split.scale
    assert np.array_equal(restored.unitary, split.unitary)
    assert all(np.array_equal(a.mats, b.mats) for a, b in zip(restored.blocks, split.blocks))
    assert _equal(_deferred(classify(copy, X)), _deferred(cert))
    assert Pencil(pencil).splits[DEFAULT_TOL] is split
    assert _equal(_deferred(classify(Pencil(pencil), X)), _deferred(cert))
