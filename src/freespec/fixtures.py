"""Named fixtures: the explicit matrix tuples exercised throughout.

Surd-valued entries (1/sqrt(3), sqrt(2)-1, sqrt(5/6), ...) are evaluated in
double precision at import; the symbolic expressions are recorded in the
per-fixture comments so serialized files stay auditable.
"""

import numpy as np

from .errors import ParameterError
from .linalg import HermitianTuple
from .spin import pauli_conj_tuple, pauli_tuple, spin_tuple

SQRT3 = np.sqrt(3.0)
SQRT2 = np.sqrt(2.0)


def _bowtie(C):
    """Hermitian matrix [[0, C], [conj(C), 0]] from a symmetric block C."""
    Z = np.zeros_like(C)
    return np.block([[Z, C], [C.conj(), Z]])


def free_extreme_level4():
    """The 4x4 free extreme point of the length-3 spin set.

    Off-diagonal-block form with symmetric 2x2 blocks
    ``(1/2) diag(1 + 1/sqrt(3), sqrt(3) - 1)``, ``(1/2) offdiag(1, 1)``,
    ``(i/2) diag(2/sqrt(3) - 1, -1)``.
    """
    C = [0.5 * np.diag([1.0 + 1.0 / SQRT3, SQRT3 - 1.0]).astype(complex),
         0.5 * np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
         0.5j * np.diag([2.0 / SQRT3 - 1.0, -1.0]).astype(complex)]
    return HermitianTuple(np.array([_bowtie(c) for c in C]))


def free_extreme_level6():
    """The 6x6 free extreme point of the length-3 spin set (built from
    ``alpha = sqrt(2) - 1``)."""
    a = SQRT2 - 1.0
    r = np.sqrt(2.0 * a)
    C1 = 0.25 * np.array([[a + 1, 0, -a], [0, a + 1, -a], [-a, -a, a + 1]],
                         dtype=complex)
    C2 = 0.25 * np.array([[-4 * r, 0, 0], [0, 4 * r, 0], [0, 0, 0]], dtype=complex)
    C3 = 0.25j * np.array([[0, 3 * a - 1, a], [3 * a - 1, 0, a], [a, a, 3 - a]],
                          dtype=complex)
    return HermitianTuple(np.array([_bowtie(C) for C in (C1, C2, C3)]))


def real_form_level4():
    """Real presentation of the level-4 free extreme point: conjugation by
    ``(sqrt(2)/2) [[I, -iI], [I, iI]]`` sends each bowtie block to
    ``[[Re C, -Im C], [-Im C, -Re C]]``."""
    mats = []
    for X in free_extreme_level4().mats:
        C = X[:2, 2:]
        re, im = C.real, C.imag
        mats.append(np.block([[re, -im], [-im, -re]]).astype(complex))
    return HermitianTuple(np.array(mats))


def rotation_to_real_form():
    """The unitary that carries the level-4 point onto its real form."""
    eye = np.eye(2)
    return (SQRT2 / 2.0) * np.block([[eye, -1j * eye], [eye, 1j * eye]])


def triangle_example_pencil():
    """Diagonal pencil of the triangle with vertices (-2,1), (1,1), (1,-2)."""
    return HermitianTuple(np.array([np.diag([1.0, 0.0, -1.0]).astype(complex),
                                    np.diag([0.0, 1.0, -1.0]).astype(complex)]))


def triangle_example_point():
    """The 2x2 Euclidean extreme point of the triangle pencil, with the
    sqrt(5/6) off-diagonal entry."""
    r = np.sqrt(5.0 / 6.0)
    return HermitianTuple(np.array([
        np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        np.array([[0.5, r], [r, -2.0 / 3.0]], dtype=complex)]))


def segment_generator(points):
    """Diagonal tuple whose matrix convex hull has first level equal to the
    convex hull of the given scalar points."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ParameterError("expected an array of scalar points (rows)")
    return HermitianTuple(np.array([np.diag(P[:, j]).astype(complex)
                                    for j in range(P.shape[1])]))


def triangle_edge_generators():
    """Diagonal generators of the three edges of the triangle, whose union
    generates the full simplex as a matrix convex hull."""
    return (segment_generator([[-2.0, 1.0], [1.0, 1.0]]),
            segment_generator([[1.0, 1.0], [1.0, -2.0]]),
            segment_generator([[-2.0, 1.0], [1.0, -2.0]]))


def triangle_cover_generators():
    """Diagonal generators of the three small triangles (free simplices
    containing 0) whose union also generates the full simplex."""
    return (segment_generator([[-2.0, 1.0], [1.0, 1.0], [0.1, 0.1]]),
            segment_generator([[1.0, 1.0], [1.0, -2.0], [-0.1, 0.0]]),
            segment_generator([[-2.0, 1.0], [1.0, -2.0], [0.0, -0.1]]))


_FIXTURES = {
    "pauli": (pauli_tuple, "anticommuting self-adjoint unitary 2x2 triple"),
    "pauli-conj": (pauli_conj_tuple, "entrywise conjugate of the 2x2 triple"),
    "freeex4": (free_extreme_level4,
                "level-4 free extreme point; entries use 1/sqrt(3)"),
    "freeex6": (free_extreme_level6,
                "level-6 free extreme point; entries use alpha = sqrt(2)-1 "
                "and sqrt(2*alpha)"),
    "realform4": (real_form_level4,
                  "real presentation of freeex4; entries use alpha = 1 + 1/sqrt(3)"),
    "simplex-remark-pencil": (triangle_example_pencil,
                              "diagonal pencil of the (-2,1),(1,1),(1,-2) triangle"),
    "simplex-remark-point": (triangle_example_point,
                             "Euclidean extreme 2x2 point; off-diagonal sqrt(5/6)"),
}
for _g in range(2, 9):
    _FIXTURES[f"spin-g{_g}"] = (
        (lambda g: (lambda: spin_tuple(g)))(_g),
        f"universal anticommuting tuple of length {_g}, size {2 ** (_g - 1)}")


def fixture_names():
    return sorted(_FIXTURES)


def load_fixture(name):
    """Build a named fixture tuple; returns (HermitianTuple, comment)."""
    try:
        builder, comment = _FIXTURES[name]
    except KeyError:
        raise ParameterError(
            f"unknown fixture {name!r}; available: {', '.join(fixture_names())}")
    return builder(), comment
