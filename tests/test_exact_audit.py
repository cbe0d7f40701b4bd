"""Exact audit of the level-4 certificate over Q(sqrt3, i).

The free extreme point ``freeex4`` of the length-3 spin set has entries in
Q(sqrt3, i) and the spin coefficients are integers, so every claim of its
certificate can be checked in exact arithmetic with sympy's
``DomainMatrix``: the pencil value L has rank 10 (a kernel of 6), its
characteristic polynomial is x^6 q(x) with the coefficients of q strictly
alternating in sign (L is Hermitian, so q has real roots, and the
alternation rules out roots <= 0: L is positive semidefinite exactly), the
commutant is the scalars, and the one-column dilation system has full
column rank.
"""

import numpy as np
import pytest

from freespec.fixtures import free_extreme_level4
from freespec.spin import spin_tuple

sp = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

S3, I = sp.sqrt(3), sp.I
FIELD = sp.QQ.algebraic_field(S3, I)


def _exact_level4_point():
    """freeex4 as exact matrices, from the blocks in its docstring."""
    half = sp.Rational(1, 2)
    blocks = [sp.diag(half * (1 + 1 / S3), half * (S3 - 1)),
              sp.Matrix([[0, half], [half, 0]]),
              sp.diag(I * half * (2 / S3 - 1), -I * half)]
    return [sp.Matrix(sp.BlockMatrix([[sp.zeros(2), C], [C.conjugate(), sp.zeros(2)]]))
            for C in blocks]


def _exact(rows):
    """DomainMatrix over Q(sqrt3, i) from a list of lists of field elements."""
    return DomainMatrix(rows, (len(rows), len(rows[0])), FIELD)


def _sign(c):
    value = FIELD.to_sympy(c)
    assert value.is_real
    return 1 if value.is_positive else -1 if value.is_negative else 0


def test_level4_certificate_holds_exactly():
    coefficients = spin_tuple(3).mats
    assert np.array_equal(coefficients, np.rint(coefficients.real))
    A = [[[FIELD(int(v)) for v in row] for row in M.real] for M in coefficients]
    X = _exact_level4_point()
    floats = np.array([np.array(Xi.evalf(30), dtype=complex) for Xi in X])
    assert np.abs(floats - free_extreme_level4().mats).max() < 1e-15
    X = [[[FIELD.from_sympy(v) for v in Xi.row(r)] for r in range(4)] for Xi in X]
    one, zero, span = FIELD.one, FIELD.zero, range(4)

    # L = I - sum_i A_i (x) X_i, row (a, c) and column (b, e).
    L = _exact([[(one if (a, c) == (b, e) else zero)
                 - sum((A[i][a][b] * X[i][c][e] for i in range(3)), zero)
                 for b in span for e in span] for a in span for c in span])
    assert L.rank() == 10
    charpoly = L.charpoly()
    assert all(c == zero for c in charpoly[11:])
    assert [_sign(c) for c in charpoly[:11]] == [(-1) ** k for k in range(11)]

    # Commutant: rows (i, p, q) of C X_i - X_i C, columns the entries C[a, b].
    commutant = _exact([[(X[i][b][q] if a == p else zero) - (X[i][p][a] if b == q else zero)
                         for a in span for b in span]
                        for i in range(3) for p in span for q in span])
    assert 16 - commutant.rank() == 1

    # Column dilation system: rows (kernel vector k, a), columns (i, q),
    # entry (A_i kappa_k)[a, q] with kappa_k a kernel vector as a 4 x 4 matrix.
    kernel = L.nullspace().to_list()
    assert len(kernel) == 6
    columns = _exact([[sum((A[i][a][b] * kappa[4 * b + q] for b in span), zero)
                       for i in range(3) for q in span]
                      for kappa in kernel for a in span])
    assert columns.rank() == 12
