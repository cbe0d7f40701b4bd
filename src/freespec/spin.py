"""Universal anticommuting tuples and the Pauli tuple.

The length-g spin tuple is the tuple of pairwise anticommuting self-adjoint
unitaries of size 2**(g-1) obtained from the classical tensor recursion:
starting from ``(diag(1,-1), offdiag(1,1))``, each step tensors
``diag(1,-1)`` onto every existing entry and appends ``I (x) offdiag(1,1)``.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .linalg import DEFAULT_TOL, MAX_DENSE_SIDE, HermitianTuple, random_hermitian_tuple
from .pencil import boundary_scale

_DIAG = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
_OFFDIAG = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_IMDIAG = np.array([[0.0, 1.0j], [-1.0j, 0.0]], dtype=complex)


@lru_cache(maxsize=None)
def _spin_mats(g):
    mats = [_DIAG, _OFFDIAG]
    for _ in range(g - 2):
        eye = np.eye(mats[0].shape[0], dtype=complex)
        mats = [np.kron(M, _DIAG) for M in mats] + [np.kron(eye, _OFFDIAG)]
    arr = np.array(mats)
    arr.setflags(write=False)
    return arr


def spin_tuple(g):
    """Universal g-tuple of pairwise anticommuting self-adjoint unitaries,
    of size 2**(g-1), for 2 <= g <= 12.  A longer tuple holds more than
    ``MAX_DENSE_SIDE``**2 entries and is refused before it is built."""
    if g < 2:
        raise ParameterError(f"spin tuples need g >= 2, got {g}")
    # Compared in logarithms, so that no huge g builds a huge integer.
    if math.log2(g) + 2 * (g - 1) > 2 * math.log2(MAX_DENSE_SIDE):
        raise ParameterError(f"spin tuple of length {g} holds {g} matrices of side 2^{g - 1}, "
                             f"more than {MAX_DENSE_SIDE}^2 entries")
    return HermitianTuple(_spin_mats(g))


def pauli_tuple():
    """The three anticommuting self-adjoint unitary 2x2 matrices."""
    return HermitianTuple(np.array([_DIAG, _OFFDIAG, _IMDIAG]))


def pauli_conj_tuple():
    """Entrywise complex conjugate of the Pauli tuple (negates the third entry)."""
    return pauli_tuple().conj()


def anticommutation_residual(tup):
    """Largest violation of the self-adjoint-unitary / anticommutation
    relations, over one tuple or a stack of tuples of shape (..., g, n, n)."""
    mats = np.asarray(tup, complex)
    M = [mats[..., i, :, :] for i in range(mats.shape[-3])]
    eye = np.eye(mats.shape[-1])
    worst = 0.0
    for i, Mi in enumerate(M):
        worst = max(worst, float(np.abs(Mi @ Mi - eye).max()))
        worst = max(worst, float(np.abs(Mi - Mi.conj().swapaxes(-1, -2)).max()))
        for Mj in M[i + 1:]:
            worst = max(worst, float(np.abs(Mi @ Mj + Mj @ Mi).max()))
    return worst


def random_spin_member(rng, g, n, scale=1.0, tol=DEFAULT_TOL):
    """Random member of the spin free spectrahedron.

    Gaussian Hermitian tuples are scaled to the boundary via the largest
    eigenvalue of the linear part (boundary-rich sampling exercises the
    extremality machinery); ``scale`` then pulls inside (< 1) or pushes
    outside (> 1).
    """
    X = random_hermitian_tuple(rng, n, g)
    s = boundary_scale(spin_tuple(g), X, tol)
    return X.scaled(scale * s if np.isfinite(s) else scale)
