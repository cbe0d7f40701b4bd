"""Free polar duality for full-span coefficient tuples via Choi matrices.

When a Hermitian d x d tuple A has length d*d - 1 and, together with the
identity, spans the full matrix algebra, the unital linear map sending A to
a candidate tuple X is unique, and complete positivity of that map (hence
membership of X in the matrix range of A) is decided by positive
semidefiniteness of one block matrix.  Normalizing that block matrix yields
an explicit coefficient tuple B whose free spectrahedron is the free polar
dual of the one cut out by A.  For any other set, sampled members can only
refute polar-dual membership: :func:`polar_membership` is a one-sided
:class:`~freespec.pencil.MembershipVerdict` whose margin is one minus the
largest pairing with a sample.
"""

import numpy as np

from .errors import ConstructionError, DimensionError
from .linalg import (DEFAULT_TOL, HermitianTuple, SingularFactor, hermitian_eigen,
                     hermitian_eigvals, size_groups)
from .pencil import band_verdict, batched_linear_part, eigen_verdict, tuple_mats


class FullSpanBasis:
    """A Hermitian tuple that, with the identity, spans the matrix algebra.

    Stores the expansion tensor of the matrix units in the basis
    ``{I, A_1, ..., A_{d*d-1}}`` as the stack ``G`` of coefficient matrices:
    ``G[k][i, j]`` is the coefficient of the k-th basis element in the
    expansion of the (i, j) matrix unit, so the block matrix of the unique
    unital map sending A to X is ``G[0] (x) I + sum_k G[k] (x) X_k``.
    """

    __slots__ = ("tuple", "G")

    def __init__(self, A, tol=DEFAULT_TOL):
        A = HermitianTuple(A)
        d = A.n
        if A.g != d * d - 1:
            raise DimensionError(
                f"full span needs length {d * d - 1} for size {d}, got {A.g}")
        basis = np.concatenate([np.eye(d, dtype=complex)[None], A.mats], axis=0)
        B = basis.reshape(d * d, d * d).T  # columns = vectorized basis elements
        # The basis elements are Hermitian, so they are independent over the
        # reals exactly when they are over the complex numbers.
        if SingularFactor(B, tol).rank < d * d:
            raise ConstructionError(
                "identity plus tuple is linearly dependent; "
                "the expansion of the matrix units is not unique")
        # Row k of B^-1 holds the coefficients of basis element k in every
        # matrix unit; column (i*d + j) of I is vec of E_ij.
        G = np.linalg.solve(B, np.eye(d * d)).reshape(d * d, d, d)
        self.tuple = A
        G.setflags(write=False)
        self.G = G
        worst = self.reconstruction_residual()
        if worst > 1e-10:
            raise ConstructionError(
                f"matrix-unit reconstruction residual {worst:.3e} exceeds 1e-10")

    @property
    def d(self):
        return self.tuple.n

    @property
    def g(self):
        return self.tuple.g

    def reconstruction_residual(self):
        """Largest entrywise error when the expansion tensor rebuilds the
        matrix units from ``{I, A_k}``."""
        d = self.d
        basis = np.concatenate([np.eye(d, dtype=complex)[None], self.tuple.mats], axis=0)
        built = np.einsum("kij,kab->ijab", self.G, basis).reshape(d * d, d * d)
        return float(np.abs(built - np.eye(d * d)).max())


def _choi_stack(basis, Xb):
    """``G0 (x) I + sum_k Gk (x) X_k`` for each point of a (N, g, n, n) stack."""
    M = batched_linear_part(basis.G[1:], Xb)
    return M + np.kron(basis.G[0], np.eye(Xb.shape[2], dtype=complex))[None]


def choi_matrix(basis, X):
    """The Choi block matrix of the point X, symmetrized."""
    Xm = tuple_mats(X)
    if Xm.shape[0] != basis.g:
        raise DimensionError(
            f"point has length {Xm.shape[0]}, full-span basis needs {basis.g}")
    M = _choi_stack(basis, Xm[None])[0]
    return 0.5 * (M + M.conj().T)


def batched_choi_min_eigenvalues(basis, Xb, tol=DEFAULT_TOL):
    """Minimum Choi eigenvalue for a stack of points of shape (N, g, n, n)."""
    return hermitian_eigvals(_choi_stack(basis, Xb), tol)[:, 0]


def choi_membership(basis, X, tol=DEFAULT_TOL):
    """Membership of X in the matrix range of the full-span tuple.

    The unique unital map sending the basis tuple to X is completely
    positive exactly when the Choi block matrix is positive semidefinite;
    verdict, boundary flag and kernel come from its one eigendecomposition,
    as in :func:`~freespec.pencil.membership`.
    """
    return eigen_verdict(choi_matrix(basis, X), tol)


def dual_pencil(basis, tol=DEFAULT_TOL):
    """Coefficient tuple B with the free spectrahedron of B equal to the
    free polar dual of the one cut out by the basis tuple.

    Requires the identity-coefficient block G0 to be strictly positive
    definite; then ``B_k = -G0^(-1/2) Gk G0^(-1/2)`` turns positivity of
    the Choi block matrix into the monic pencil inequality for B.
    """
    w, V = hermitian_eigen(basis.G[0], tol)
    if w[0] <= tol.psd_tol:
        raise ConstructionError(
            f"identity block of the expansion is not positive definite "
            f"(min eigenvalue {w[0]:.3e})")
    inv_half = V @ np.diag(1.0 / np.sqrt(w)) @ V.conj().T
    B = np.array([-inv_half @ Gk @ inv_half for Gk in basis.G[1:]])
    return HermitianTuple(0.5 * (B + B.conj().transpose(0, 2, 1)))


def polar_membership(samples, X, tol=DEFAULT_TOL):
    """One-sided polar-dual membership of X against sampled set members.

    The margin is ``1 - top``, ``top`` the largest eigenvalue of
    ``sum_i Y_i (x) X_i`` over the samples Y, whose attaining sample is the
    witness: a pairing above ``1 + psd_tol`` refutes, and an acceptance is
    heuristic (evidence only, never a membership proof).  Every sample's
    length is checked before any eigensolve; the samples are then grouped by
    size, and each group's pairings are built with one ``einsum`` and solved
    with one stacked ``hermitian_eigvals``.
    """
    Xm = tuple_mats(X)
    tuples = [HermitianTuple(Y) for Y in samples]
    for idx, Y in enumerate(tuples):
        if Y.g != Xm.shape[0]:
            raise DimensionError(
                f"sample {idx} has length {Y.g}, point has {Xm.shape[0]}")
    tops = np.empty(len(tuples))
    for group, stack in size_groups([Y.mats for Y in tuples]):
        # sum_i X_i (x) Y_i is a permutation similarity of sum_i Y_i (x) X_i.
        tops[group] = hermitian_eigvals(batched_linear_part(Xm, stack), tol)[:, -1]
    witness = tuples[int(tops.argmax())].mats if tuples else None
    return band_verdict(1.0 - float(tops.max(initial=-np.inf)), tol, witness, one_sided=True)
