"""Extreme-point certification for free spectrahedra.

A boundary point is classified by solving two homogeneous linear systems
built from a kernel basis K of the pencil value:

* the Hermitian direction system, whose nonzero solutions are Hermitian
  perturbation directions that stay inside the set in both signs; an empty
  solution space certifies a Euclidean (classical) extreme point;
* the one-column dilation system, whose nonzero solutions are column
  tuples that extend the point by one row and column without leaving the
  set; an empty solution space certifies an Arveson extreme point.

A point is a free extreme point exactly when it passes the Arveson test
and is irreducible (commutant dimension one).
"""

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import DimensionError, NumericalError, PreconditionError
from .linalg import (DEFAULT_TOL, HermitianTuple, KernelBasis, hermitian_basis,
                     hermitian_eigen, hermitian_from_coordinates, kernel_mask,
                     min_eigenvalue, nullspace, real_nullspace, realify)
from .pencil import (Pencil, coefficient_mats, ensure_bounded_flag, linear_part,
                     membership, pencil_value, point_mats)


class Verdict(str, Enum):
    NON_MEMBER = "non-member"
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EUCLIDEAN = "euclidean"
    ARVESON = "arveson"
    FREE = "free"


_STRENGTH = {Verdict.NON_MEMBER: -1, Verdict.INTERIOR: 0, Verdict.BOUNDARY: 1,
             Verdict.EUCLIDEAN: 2, Verdict.ARVESON: 3, Verdict.FREE: 4}


def verdict_at_least(verdict, floor):
    return _STRENGTH[verdict] >= _STRENGTH[floor]


@dataclass(frozen=True)
class Witness:
    """Evidence for why the next-stronger verdict fails.

    ``kind`` is ``"hermitian"`` for a two-sided perturbation direction
    (tuple of n x n Hermitian matrices; the point stays inside the set when
    moved by ``+/- alpha`` times it), ``"column"`` for a one-column
    dilation direction (g column vectors stacked as a (g, n) array), or
    ``"commutant"`` for a non-scalar Hermitian matrix commuting with every
    coordinate (exhibiting reducibility of an Arveson extreme point).
    """

    kind: str
    direction: np.ndarray
    alpha: float | None = None

    def __post_init__(self):
        self.direction.setflags(write=False)


@dataclass(frozen=True)
class SystemReport:
    """Nullity of a certification system plus audit data.

    ``basis`` stacks the solutions along the first axis, ordered with the
    numerically most-null direction first.
    """

    nullity: int
    smallest_retained: float
    basis: np.ndarray


@dataclass(frozen=True)
class ExtremeCertificate:
    verdict: Verdict
    min_eigenvalue: float
    kernel_dim: int | None
    commutant_dim: int
    beta_nullity_column: int | None
    beta_nullity_hermitian: int | None
    smallest_nonzero_singular: float | None
    witness: Witness | None
    bounded_flag: bool | None
    residuals: dict = field(default_factory=dict)
    caveats: tuple = ()


def _commutant_basis(X, tol):
    """Complex basis of {C : C X_i = X_i C}, as a (dim, n, n) stack."""
    Xm = point_mats(X)
    g, n, _ = Xm.shape
    eye = np.eye(n)
    # Row-major vectorization: vec(C Xi - Xi C) = (I kron Xi^T - Xi kron I) vec(C).
    system = np.einsum("pr,isq->ipqrs", eye, Xm) - np.einsum("ipr,qs->ipqrs", Xm, eye)
    basis = nullspace(system.reshape(g * n * n, n * n), tol).matrix
    return basis.T.reshape(-1, n, n)


def _nonscalar_element(basis):
    """The largest unit-norm Hermitian part, orthogonal to the identity, of
    a commutant basis element, or None when every element is scalar."""
    n = basis.shape[1]
    best = None
    best_norm = 0.0
    for C in basis:
        C = C - (np.trace(C) / n) * np.eye(n)
        for part in (0.5 * (C + C.conj().T), 0.5j * (C - C.conj().T)):
            norm = float(np.linalg.norm(part))
            if norm > best_norm:
                best, best_norm = part / norm, norm
    if best is None or best_norm < 1e-8:
        return None
    return best


def commutant_dimension(X, tol=DEFAULT_TOL):
    """Complex dimension of {C : C X_i = X_i C for every i}.

    The tuple is irreducible exactly when the result is 1 (only multiples
    of the identity commute with every entry).
    """
    return len(_commutant_basis(X, tol))


def nonscalar_commutant_element(X, tol=DEFAULT_TOL):
    """A unit-norm Hermitian commutant element orthogonal to the identity,
    or None when the tuple is irreducible.  Such an element exhibits a
    reducing decomposition."""
    return _nonscalar_element(_commutant_basis(X, tol))


def _kernel_products(Am, Xm, K):
    """The products A_i kappa_c for every coordinate i and kernel column
    kappa_c of K (reshaped to d x n), as a (g, k, d, n) array."""
    Km = K.matrix if isinstance(K, KernelBasis) else np.asarray(K)
    if Km.shape[1] == 0:
        raise PreconditionError("interior point: the pencil value has no kernel")
    d, n = Am.shape[1], Xm.shape[1]
    if Km.shape[0] != d * n:
        raise DimensionError("kernel basis size does not match the pencil value")
    return np.einsum("iab,bqc->icaq", Am, Km.reshape(d, n, -1))


def column_dilation_system(A, X, K, tol=DEFAULT_TOL):
    """Solve the one-column dilation system at a boundary point.

    Nullity zero certifies an Arveson extreme point (given membership and a
    bounded pencil).  The returned basis stacks solutions as (g, n) column
    tuples; the smallest retained singular value of the realified system
    makes borderline rank calls auditable.
    """
    Am = coefficient_mats(A)
    Xm = point_mats(X)
    g, n = Am.shape[0], Xm.shape[1]
    # Unknowns are the conjugated entries of the column tuple beta, ordered
    # (coordinate, vector index); equations by (kernel column, block row).
    M = _kernel_products(Am, Xm, K).transpose(1, 2, 0, 3).reshape(-1, g * n)
    basis_real, smallest = real_nullspace(realify(M), tol)
    nullity = basis_real.shape[1] // 2
    columns = []
    # real_nullspace orders basis columns by decreasing singular value;
    # reverse so the most-null direction comes first.
    for idx in reversed(range(basis_real.shape[1])):
        if len(columns) == nullity:
            break
        vec = basis_real[:n * g, idx] + 1j * basis_real[n * g:, idx]
        beta = vec.conj().reshape(g, n)  # unknowns were the conjugated entries
        norm = np.linalg.norm(beta)
        if norm < 1e-14:
            continue
        columns.append(beta / norm)
    basis = np.array(columns) if columns else np.zeros((0, g, n), complex)
    return SystemReport(nullity, smallest, basis)


def hermitian_direction_system(A, X, K, tol=DEFAULT_TOL):
    """Solve for Hermitian tuples whose linear part kills the pencil kernel.

    Nullity zero certifies a Euclidean extreme point.  Solutions are
    two-sided perturbation directions; the nullity is a real dimension
    (the Hermitian constraint is only real-linear).
    """
    Am = coefficient_mats(A)
    Xm = point_mats(X)
    g, n = Am.shape[0], Xm.shape[1]
    HB = hermitian_basis(n)
    # Column (i, s) holds (A_i kron H_s) K; with kappa_c the kernel column c
    # as a d x n matrix, (A_i kron H_s) vec(kappa_c) = vec(A_i kappa_c H_s^T).
    cols = np.einsum("icaq,spq->capis", _kernel_products(Am, Xm, K), HB, optimize=True)
    cols = cols.reshape(-1, g * len(HB))
    basis_real, smallest = real_nullspace(np.vstack([cols.real, cols.imag]), tol)
    # Most-null direction first.  The coordinates are orthonormal, so each
    # unit null vector is a unit-norm tuple.
    coords = basis_real[:, ::-1].T.reshape(-1, g, len(HB))
    return SystemReport(basis_real.shape[1], smallest, hermitian_from_coordinates(coords))


def perturbation_range(A, X, beta, tol=DEFAULT_TOL, cap=1e6):
    """Largest alpha with both ``X + alpha beta`` and ``X - alpha beta``
    members, capped at ``cap``.

    ``beta`` must be a solution of the Hermitian direction system at the
    member X: then ``B = sum_i A_i (x) beta_i`` vanishes on the kernel of
    ``L = L(X)`` and ``L(X +/- alpha beta) = L -/+ alpha B`` only changes
    on the range.  With ``V D V*`` the range part of the eigendecomposition
    of L, the answer is exactly ``1 / max |eig(D^-1/2 V* B V D^-1/2)|``.
    One membership check at each of ``+/- alpha`` guards it; a failed check
    raises ``NumericalError``.
    """
    Xm = point_mats(X)
    beta = point_mats(beta)
    w, V = hermitian_eigen(pencil_value(A, Xm), tol)
    keep = ~kernel_mask(w, tol)
    if w[0] < -tol.psd_tol or w[keep].min(initial=np.inf) <= 0.0:
        raise PreconditionError("perturbation range needs a member of the free spectrahedron")
    W = V[:, keep] / np.sqrt(w[keep])
    top = np.abs(np.linalg.eigvalsh(W.conj().T @ linear_part(A, beta) @ W)).max(initial=0.0)
    alpha = cap if top * cap <= 1.0 else 1.0 / top
    for sign in (1.0, -1.0):
        if not membership(A, HermitianTuple(Xm + sign * alpha * beta), tol).member:
            raise NumericalError(
                f"X {'+-'[sign < 0]} {alpha:.6e} beta leaves the free spectrahedron: "
                "the direction does not vanish on the pencil kernel")
    return float(alpha)


def classify(A, X, tol=DEFAULT_TOL):
    """Full extreme-point certificate for a point of a free spectrahedron.

    Runs membership, kernel extraction, the Hermitian direction system, the
    one-column dilation system, and the commutant computation, and reports
    the strongest verdict that holds along with every residual.  Verdicts
    are cumulative: free implies Arveson implies Euclidean implies
    boundary.
    """
    pencil = A if isinstance(A, Pencil) else Pencil(A)
    verdict = membership(pencil, X, tol)
    commutant_basis = _commutant_basis(X, tol)
    commutant = len(commutant_basis)
    bounded = pencil.bounded
    caveats = ()
    if not verdict.member:
        return ExtremeCertificate(Verdict.NON_MEMBER, verdict.min_eigenvalue, None,
                                  commutant, None, None, None, None, bounded)
    if not verdict.boundary:
        return ExtremeCertificate(Verdict.INTERIOR, verdict.min_eigenvalue, None,
                                  commutant, None, None, None, None, bounded)
    K = verdict.kernel
    if K.dim == 0:
        # psd_tol flagged the boundary band but rank_tol saw no kernel.
        return ExtremeCertificate(Verdict.INTERIOR, verdict.min_eigenvalue, 0,
                                  commutant, None, None, None, None, bounded,
                                  caveats=("boundary band hit but kernel empty at rank_tol",))
    L = pencil_value(pencil, X)
    residuals = {"kernel_residual": float(np.abs(L @ K.matrix).max())}
    herm = hermitian_direction_system(pencil, X, K, tol)
    col = column_dilation_system(pencil, X, K, tol)
    residuals["hermitian_smallest_retained"] = herm.smallest_retained
    residuals["column_smallest_retained"] = col.smallest_retained
    if bounded is None:
        caveats += ("pencil boundedness flag unset: Arveson/free verdicts rely on "
                    "a bounded free spectrahedron",)
    elif bounded is False:
        caveats += ("pencil flagged unbounded: Arveson/free verdicts unreliable",)
    if herm.nullity > 0:
        beta = herm.basis[0]
        alpha = perturbation_range(pencil, X, beta, tol)
        witness = Witness("hermitian", beta, alpha)
        return ExtremeCertificate(Verdict.BOUNDARY, verdict.min_eigenvalue, K.dim,
                                  commutant, col.nullity, herm.nullity,
                                  col.smallest_retained, witness, bounded,
                                  residuals, caveats)
    if col.nullity > 0:
        witness = Witness("column", col.basis[0])
        return ExtremeCertificate(Verdict.EUCLIDEAN, verdict.min_eigenvalue, K.dim,
                                  commutant, col.nullity, herm.nullity,
                                  col.smallest_retained, witness, bounded,
                                  residuals, caveats)
    if commutant == 1:
        return ExtremeCertificate(Verdict.FREE, verdict.min_eigenvalue, K.dim,
                                  commutant, col.nullity, herm.nullity,
                                  col.smallest_retained, None, bounded,
                                  residuals, caveats)
    # Arveson but reducible: ship a non-scalar commutant element as the
    # witness that the point fails irreducibility.
    reducer = _nonscalar_element(commutant_basis)
    witness = None if reducer is None else Witness("commutant", reducer)
    return ExtremeCertificate(Verdict.ARVESON, verdict.min_eigenvalue, K.dim,
                              commutant, col.nullity, herm.nullity,
                              col.smallest_retained, witness, bounded,
                              residuals, caveats)


@dataclass(frozen=True)
class DilationStep:
    alpha: float
    kernel_before: int
    kernel_after: int


@dataclass(frozen=True)
class DilationResult:
    success: bool
    point: HermitianTuple
    steps: tuple
    failure_step: int | None = None
    failure_reason: str | None = None

    @property
    def size(self):
        return self.point.n


def _dilated(Xm, beta, alpha):
    g, n = beta.shape
    out = np.zeros((g, n + 1, n + 1), dtype=complex)
    for i in range(g):
        out[i, :n, :n] = Xm[i]
        out[i, :n, n] = alpha * beta[i]
        out[i, n, :n] = alpha * beta[i].conj()
    return out


def arveson_dilate(A, X, max_steps=64, tol=DEFAULT_TOL):
    """Greedily dilate a member up to an Arveson extreme point.

    Each step appends one row and column: the direction is a column tuple
    solving the dilation system (the most-null singular direction, ties
    broken by first index), the new diagonal entries are zero, and the
    scale is maximized by bisection subject to membership, which forces
    the pencil kernel to grow at every accepted step.  The input point is
    the leading corner of the output exactly, by construction.
    """
    pencil = A if isinstance(A, Pencil) else Pencil(A)
    if not membership(pencil, X, tol).member:
        raise PreconditionError("dilation requires a member of the free spectrahedron")
    if pencil.bounded is None:
        ensure_bounded_flag(pencil, tol)
    if pencil.bounded is False:
        raise PreconditionError("pencil failed the level-1 boundedness heuristic")
    Am = coefficient_mats(pencil)
    g = Am.shape[0]
    Xm = point_mats(X).copy()
    steps = []
    for step in range(max_steps):
        n = Xm.shape[1]
        L = pencil_value(pencil, HermitianTuple(Xm))
        K = nullspace(L, tol)
        if K.dim == 0:
            candidates = np.zeros((1, g, n), dtype=complex)
            candidates[0, 0, 0] = 1.0  # interior point: any column works
        else:
            report = column_dilation_system(pencil, Xm, K, tol)
            if report.nullity == 0:
                return DilationResult(True, HermitianTuple(Xm), tuple(steps))
            candidates = report.basis
        accepted = False
        for beta in candidates:
            alpha = _max_dilation_scale(pencil, Xm, beta, tol)
            if alpha <= 1e-10:
                continue
            Xn = _dilated(Xm, beta, alpha)
            Kn = nullspace(pencil_value(pencil, HermitianTuple(Xn)), tol)
            if Kn.dim <= K.dim:
                continue
            steps.append(DilationStep(alpha, K.dim, Kn.dim))
            Xm = Xn
            accepted = True
            break
        if not accepted:
            return DilationResult(False, HermitianTuple(Xm), tuple(steps), step,
                                  "no admissible one-column dilation found")
    # Step cap exhausted: succeed only if the endpoint already certifies.
    L = pencil_value(pencil, HermitianTuple(Xm))
    K = nullspace(L, tol)
    if K.dim > 0 and column_dilation_system(pencil, Xm, K, tol).nullity == 0:
        return DilationResult(True, HermitianTuple(Xm), tuple(steps))
    return DilationResult(False, HermitianTuple(Xm), tuple(steps), max_steps,
                          "step cap reached before the dilation system closed")


def _max_dilation_scale(pencil, Xm, beta, tol, cap=1e6):
    def feasible(alpha):
        value = pencil_value(pencil, HermitianTuple(_dilated(Xm, beta, alpha)))
        return min_eigenvalue(value, tol) >= -tol.psd_tol

    lo, hi = 0.0, 1.0
    while feasible(hi) and hi < cap:
        lo, hi = hi, 2.0 * hi
    if hi >= cap:
        raise NumericalError("dilation scale grew without bound; pencil looks unbounded")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo
