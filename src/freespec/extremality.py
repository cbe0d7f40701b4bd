"""Extreme-point certification for free spectrahedra.

A boundary point X is classified by two homogeneous linear systems built
from a kernel basis K of the pencil value: the Hermitian direction system,
whose solutions are two-sided perturbation directions (none certifies a
Euclidean extreme point), and the one-column dilation system, whose
solutions extend X by one row and column inside the set (none certifies
an Arveson extreme point).  A free extreme point is an Arveson extreme
point with commutant dimension one; the commutant is solved through a
generic element (Murota, Kanno, Kojima & Kojima, "A numerical algorithm
for block-diagonal decomposition of matrix *-algebras", 2010).

``classify`` checks its inputs once, then evaluates and eigendecomposes L(X)
once, for the verdict, the kernel, its residual, the step length and its
guard, and solves only what decides the verdict; its certificate solves the
rest when first read.  Rank decisions use data normalized to the input's scale.

Both tests depend only on the set, so ``classify`` runs on the direct sum
of the distinct irreducible blocks B_k (multiplicities m_k) of the
pencil's :func:`~freespec.pencil.pencil_split`, the L_k(X) of each side's
blocks as one stack: the direct sum's L(X) is never formed.  In the column
system the rows of block k are weighted by sqrt(m_k) and the whole is
normalized by the given pencil's largest entry, so that it has the given
pencil's singular values; ``kernel_dim`` = sum_k m_k dim ker_k is the
m-weighted trace of K K*, the projection onto (+)_k ker_k.  A pencil
stays whole when the split's off-block residual exceeds the rank cutoff or
its side is outside ``SPLIT_SIDES``.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial
from itertools import accumulate

import numpy as np

from .errors import DimensionError, NumericalError, PreconditionError
from .linalg import (DEFAULT_TOL, HermitianTuple, SingularFactor, _commutant_basis, _eigensolve,
                     hermitian_coordinates, hermitian_from_coordinates, hermitian_parts,
                     kernel_mask)
from .pencil import (Pencil, as_split, batched_linear_part, check_pencil_value, eigen_verdict,
                     ensure_bounded_flag, membership, pencil_split, psd_members, tuple_mats)


class Verdict(str, Enum):
    NON_MEMBER = "non-member"
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EUCLIDEAN = "euclidean"
    ARVESON = "arveson"
    FREE = "free"


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
    """Nullity of a certification system, its smallest retained singular
    value (auditing borderline rank calls) and its most-null ``solution``,
    formed when first read (None at nullity zero).  The column system's
    ``retained_rows`` S_r V_r* (r, g, n; r = 0 without equations) build the
    Hermitian system (None for that system)."""

    nullity: int
    smallest_retained: float
    retained_rows: np.ndarray | None
    _solve: object

    @cached_property
    def solution(self):
        return self._solve() if self.nullity else None


@dataclass(frozen=True)
class _Systems:
    """X and its column report (None off the boundary); the commutant and
    the Hermitian report are each solved on first read."""

    point: HermitianTuple
    column: SystemReport | None
    tol: object

    @cached_property
    def commutant(self):
        return _commutant_basis(self.point, self.tol)

    @cached_property
    def hermitian(self):
        return hermitian_direction_system(self.column, self.tol)


@dataclass(frozen=True)
class ExtremeCertificate:
    """The verdict of :func:`classify` and its evidence: ``min_eigenvalue``
    and ``kernel_dim`` of L(X) (in the given pencil's terms, whatever blocks
    classify ran on), ``beta_nullity_column`` of the column
    system, the ``witness`` that the next-stronger verdict fails, the
    level-1 ``bounded_flag`` and ``caveats``.  ``commutant_dim``,
    ``beta_nullity_hermitian`` (0 at column nullity 0) and ``residuals``
    (the kernel residual, ``commutant_cluster_gap`` and each solved system's
    ``*_smallest_retained``) are formed from X and the column report on
    first read, unless the verdict needed them; L(X) is not kept.  Off the
    boundary the nullities, kernel and flag are None and the residuals
    empty.  Deferred values are deterministic, so two threads that read one
    first at once only repeat the work."""

    verdict: Verdict
    min_eigenvalue: float
    kernel_dim: int | None
    beta_nullity_column: int | None
    witness: Witness | None
    bounded_flag: bool | None
    caveats: tuple
    _kernel_residual: float | None
    _systems: _Systems

    @property
    def commutant_dim(self):
        return len(self._systems.commutant[0])

    @property
    def beta_nullity_hermitian(self):
        column = self.beta_nullity_column
        return self._systems.hermitian.nullity if column else column

    @cached_property
    def residuals(self):
        systems = self._systems
        if systems.column is None:
            return {}
        out = {"kernel_residual": self._kernel_residual,
               "commutant_cluster_gap": systems.commutant[1]}
        if systems.column.nullity:
            out["hermitian_smallest_retained"] = systems.hermitian.smallest_retained
        return out | {"column_smallest_retained": systems.column.smallest_retained}


def _nonscalar_element(basis):
    """The largest unit-norm Hermitian part, orthogonal to the identity, of
    a commutant basis element, or None when every element is scalar."""
    n = basis.shape[1]
    parts = hermitian_parts(basis - np.einsum("kaa->k", basis)[:, None, None] / n * np.eye(n))
    norms = np.linalg.norm(parts, axis=(1, 2))
    if norms.max(initial=0.0) < 1e-8:
        return None
    return parts[np.argmax(norms)] / norms.max()


def _kernel_products(Am, Xm, K):
    """The products A_i kappa_c, kappa_c the kernel column c of K as a d x n
    matrix, arranged as the k d x g n matrix of the one-column dilation
    system: unknowns are the conjugated entries of the column tuple, ordered
    (coordinate, vector index); equations by (kernel column, block row)."""
    K = np.asarray(K)
    d, n = Am.shape[1], Xm.shape[1]
    if K.shape[0] != d * n:
        raise DimensionError("kernel basis size does not match the pencil value")
    return np.einsum("iab,bqc->caiq", Am, K.reshape(d, n, -1)).reshape(-1, len(Am) * n)


def column_dilation_system(A, X, K, tol=DEFAULT_TOL):
    """Factor the one-column dilation system at a member once.

    Nullity zero certifies an Arveson extreme point (given membership and a
    bounded pencil).  The solution is the most-null (g, n) column tuple; on
    a wide system it takes a complete QR, so it is formed only when read.  An
    empty kernel gives no equations: nullity g n.  The system is complex-linear
    in the conjugated entries of the column tuple and is solved in complex
    arithmetic.  ``A`` may be classify's :class:`~freespec.pencil.Split`, with
    K a kernel of its distinct blocks' L(X): the rows of block k are weighted
    by sqrt(m_k), so that the system has the Gram matrix, hence the singular
    values, of the given pencil's.
    """
    split, Xm = as_split(A), tuple_mats(X)
    g, n = split.reduced.g, Xm.shape[1]
    # K is orthonormal, so the products of A / max |A_ij| are O(1) at any scale of A.
    factor = SingularFactor(_kernel_products(split.column_coefficients, Xm, K), tol)
    r = max(factor.rank, 1)
    rows = (factor.singular[:r, None] * factor.rows[:, :r].conj().T).reshape(-1, g, n)
    return SystemReport(factor.nullity, factor.smallest_retained, rows,
                        partial(_most_null_column, factor, g, n))


def _most_null_column(factor, g, n):
    return factor.null_vector().conj().reshape(g, n)


def _rank_one(V):
    """``(u, beta)`` for the retained rows V, shaped (r, g, n) with r < n:
    u = Q_0 e_r, Q_0 of a complete QR of V_0 (n x r), is a unit vector
    orthogonal to V_0's columns, so beta = u u* in coordinate 0 and zero
    elsewhere (exactly Hermitian) solves the Hermitian system."""
    r, g, _ = V.shape
    u = np.linalg.qr(V[:, 0].T, mode="complete")[0][:, r]
    out = np.multiply.outer(np.eye(g)[0], np.outer(u, u.conj()))
    return u, 0.5 * (out + out.conj().swapaxes(-1, -2))


def _rank_one_direction(V):
    return _rank_one(V)[1]


def _hermitian_adjoint(V):
    """``(psi, Q)`` for the retained rows V, shaped (r, g, n): the
    g (2 n s - s^2) x 2 r n copy of the adjoint and the complete QR factors
    Q_i of the V_i; see :func:`hermitian_direction_system`."""
    r, g, n = V.shape
    Q, R = np.linalg.qr(V.transpose(1, 2, 0), mode="complete")
    s = min(n, r)
    m = (n - s) * s
    # W[i, p, q] = Q_i* E_pq R_i* (n x s).  Each coordinate of psi Y is
    # Re(c . Y) for a complex row c, whose real row is (Re c, -Im c).
    W = np.einsum("ipa,ibq->ipqab", Q.conj(), R[:, :s].conj())
    low = W[..., s:, :].reshape(g, n, r, m) / np.sqrt(2.0)
    c = np.concatenate([hermitian_coordinates(W[..., :s, :]), low, -1j * low], axis=-1)
    c = c.transpose(1, 2, 0, 3).reshape(n * r, -1)
    return np.concatenate([c.real, -c.imag]).T, Q


def _hermitian_solution(factor, Q):
    """The most-null Hermitian direction at s = n: the null vector of the
    copy's factor holds the coordinates of the Hermitian M_i = Q_i* Y_i Q_i
    of the solution, mapped back through Q."""
    M = hermitian_from_coordinates(factor.null_vector().reshape(len(Q), -1))
    out = Q @ M @ Q.conj().swapaxes(-1, -2)
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def hermitian_direction_system(column, tol=DEFAULT_TOL):
    """Solve for Hermitian tuples whose linear part kills the pencil kernel,
    from the :func:`column_dilation_system` report at the same point.

    Nullity zero certifies a Euclidean extreme point.  Solutions are
    two-sided perturbation directions; the nullity is a real dimension
    (the Hermitian constraint is only real-linear).  The system is
    beta -> sum_i beta_i V_i, V_i (n x r) the column report's retained rows
    at coordinate i.  With complete QRs
    V_i = Q_i [R_i; 0] and s = min(n, r), the adjoint's Q_i* herm(Y V_i*) Q_i
    vanishes where row and column are >= s; its other g (2 n s - s^2)
    coordinates, a tall isometric copy, give the singular values.  At s = n
    one :class:`~freespec.linalg.SingularFactor` of the copy gives them and
    the null vector to map back; at s < n the values alone (half the cost)
    give the count, and the solution is the u u* of :func:`_rank_one`.
    """
    V = column.retained_rows
    if not len(V):
        raise PreconditionError("interior point: the pencil value has no kernel")
    r, g, n = V.shape
    psi, Q = _hermitian_adjoint(V)
    if r >= n:
        factor = SingularFactor(psi.T, tol)
        return SystemReport(factor.nullity, factor.smallest_retained, None,
                            partial(_hermitian_solution, factor, Q))
    singular = np.linalg.svd(np.linalg.qr(psi if len(psi) >= psi.shape[1] else psi.T,
                                          mode="r"), compute_uv=False)
    rank = int(np.count_nonzero(~kernel_mask(singular, tol)))
    return SystemReport(g * n * n - rank, float(singular[rank - 1]) if rank else np.inf, None,
                        partial(_rank_one_direction, V))


MAX_STEP = 1e6  # longer steps read as an unbounded free spectrahedron


def _stack_rows(M, values):
    """The rows of M that each (k, m, m) stack of ``values`` covers in their direct sum."""
    rows = [len(L) * L.shape[-1] for L in values]
    return [M[e - r:e].reshape(L.shape[:2] + (-1,))
            for L, r, e in zip(values, rows, accumulate(rows))]


def perturbation_range(A, values, beta, W, tol=DEFAULT_TOL, u=None):
    """Largest alpha with both ``X + alpha beta`` and ``X - alpha beta``
    members, for the member X with pencil value L, capped at ``MAX_STEP``
    over A's largest |entry| (the set scales as D_{cA} = D_A / c).  ``A`` is
    a pencil with ``values`` [L[None]], or a :class:`~freespec.pencil.Split`
    with the (k, m, m) stack of its blocks' L_k(X) for each of its
    ``stacks``, L their direct sum (:func:`~freespec.pencil.eigen_verdict`).

    ``beta`` must be a solution of the Hermitian direction system at X: then
    ``B = sum_i A_i (x) beta_i`` vanishes on the kernel of ``L = L(X)`` and
    ``L(X +/- alpha beta) = L -/+ alpha B`` only changes on the range.  With
    ``W`` the whitened range of L, the answer is exactly ``1 / max |eig(W* B W)|``,
    over each block's W_k* B_k W_k.  For beta = u u* in coordinate 0 (``u``
    and beta from :func:`_rank_one`), W* B W has the nonzero eigenvalues of
    the d x d R A_0 R*, R of a QR of W* (I_d (x) u).  One einsum forms a
    stack's B_k, for that and for the Cholesky test of its 2k sides
    ``L_k -/+ alpha B_k`` (:func:`~freespec.pencil.psd_members`), which guards
    alpha; a side below ``-psd_tol`` raises ``NumericalError`` with its margin.
    """
    split = as_split(A)
    if W is None:
        raise PreconditionError("step length needs a member of the free spectrahedron")
    side = sum(len(L) * L.shape[-1] for L in values)
    shapes = [(len(S),) + (S.shape[-1] * beta.shape[-1],) * 2 for S in split.stacks]
    if [L.shape for L in values] != shapes or side != len(W):
        raise DimensionError(f"pencil value of side {side}, whitened range of {len(W)}")
    used = len(beta) if u is None else 1  # u u* is zero off coordinate 0
    Bs = [batched_linear_part(S[:, :used], beta[:used]) for S in split.stacks]
    if u is None:  # block k's rows of W, and its own columns: the others' are 0 there
        ranges = [(Wb[:, Wb.any(0)], Bb) for Wk, B in zip(_stack_rows(W, values), Bs)
                  for Wb, Bb in zip(Wk, B)]
        tops = [_eigensolve(Wb.conj().T @ Bb @ Wb, False) for Wb, Bb in ranges]
    else:
        R = np.linalg.qr((u @ W.reshape(-1, len(u), W.shape[1]).conj()).T, mode="r")
        tops = [_eigensolve(R @ split.reduced[0] @ R.conj().T, False)]
    # W* B W is Hermitian only up to roundoff growing like 1/lambda of the least range
    # eigenvalue: a Hermitian check could reject a valid point, the Cholesky guard decides.
    top, scale = max(float(np.abs(t).max(initial=0.0)) for t in tops), split.reduced_scale
    alpha = MAX_STEP / scale if top * MAX_STEP <= scale else 1.0 / top
    signs = np.array([alpha, -alpha])[:, None, None]
    for L, B in zip(values, Bs):
        ok, least = psd_members((L[:, None] - signs * B[:, None]).reshape((-1,) + L.shape[1:]), tol)
        for k in np.flatnonzero(~ok):
            raise NumericalError(
                f"X {'+-'[k % 2]} {alpha:.6e} beta leaves the free spectrahedron "
                f"(least eigenvalue {least[k]:.3e}, {-tol.psd_tol - least[k]:.3e} below "
                "-psd_tol): the direction does not vanish on the pencil kernel")
    return float(alpha)


def classify(A, X, tol=DEFAULT_TOL):
    """Extreme-point certificate for a point of a free spectrahedron, with
    the strongest verdict that holds: free implies Arveson implies Euclidean
    implies boundary.  On the boundary the column system, of rank r, is
    solved.  At column nullity > 0 and r < n the Hermitian system's exact
    rank-one solution (see :func:`hermitian_direction_system`), built from
    a QR of the coordinate-0 rows alone, and its :func:`perturbation_range`
    step decide boundary; at r >= n that system is solved.  At column
    nullity 0 the commutant decides Arveson against free.  After the size
    checks, all of this runs on the direct sum of the distinct blocks of the
    pencil's :func:`~freespec.pencil.pencil_split`, each side's blocks
    evaluated, eigendecomposed and guarded as one stack; ``kernel_dim`` is the
    m-weighted trace of K K*, each block's kernel once per copy.  A raw tuple
    ``A`` is wrapped in a fresh :class:`~freespec.pencil.Pencil` that pays the
    split and the boundedness heuristic on every call: build the Pencil once
    for repeated calls."""
    pencil = Pencil(A)
    X = HermitianTuple(X)
    check_pencil_value(pencil.coefficients.mats, X.mats)
    split = pencil_split(pencil, tol)
    values = [np.eye(S.shape[-1] * X.n) - batched_linear_part(S, X.mats) for S in split.stacks]
    verdict = eigen_verdict(values, tol)
    if not verdict.boundary:
        # The boundedness flag only qualifies the Arveson and free verdicts.
        return ExtremeCertificate(Verdict.INTERIOR if verdict.member else Verdict.NON_MEMBER,
                                  verdict.margin, None, None, None, None, (), None,
                                  _Systems(X, None, tol))
    # The Arveson and free verdicts presume a bounded free spectrahedron.
    bounded = ensure_bounded_flag(pencil, tol)
    caveats = () if bounded else ("pencil flagged unbounded: Arveson/free verdicts unreliable",)
    K = verdict.kernel
    if K.shape[1] == 0:
        # psd_tol flagged the boundary band but rank_tol saw no kernel.
        return ExtremeCertificate(Verdict.INTERIOR, verdict.margin, 0, None, None, bounded,
                                  ("boundary band hit but kernel empty at rank_tol",), None,
                                  _Systems(X, None, tol))
    residual = max(float(np.abs(L @ Kk).max()) for L, Kk in zip(values, _stack_rows(K, values)))
    if residual > tol.rank_tol * max(verdict.norm, 1.0):
        raise NumericalError(f"kernel residual {residual:.3e} exceeds rank_tol * max(|L|, 1)")
    column = column_dilation_system(split, X, K, tol)
    systems = _Systems(X, column, tol)
    r, _, n = column.retained_rows.shape
    if column.nullity and (r < n or systems.hermitian.nullity):
        u, beta = _rank_one(column.retained_rows) if r < n else (None, systems.hermitian.solution)
        alpha = perturbation_range(split, values, beta, verdict.range, tol, u)
        strongest, witness = Verdict.BOUNDARY, Witness("hermitian", beta, alpha)
    elif column.nullity:
        strongest, witness = Verdict.EUCLIDEAN, Witness("column", column.solution)
    elif len(systems.commutant[0]) == 1:
        strongest, witness = Verdict.FREE, None
    else:
        # Arveson but reducible: ship a non-scalar commutant element as the
        # witness that the point fails irreducibility.
        reducer = _nonscalar_element(systems.commutant[0])
        strongest = Verdict.ARVESON
        witness = None if reducer is None else Witness("commutant", reducer)
    kernel_dim = round(np.repeat(split.multiplicities, [B.n * n for B in split.blocks])
                       @ (np.abs(K)**2).sum(1))
    return ExtremeCertificate(strongest, verdict.margin, kernel_dim, column.nullity, witness,
                              bounded, caveats, residual, systems)


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


def dilation_step(A, X, W, beta, tol=DEFAULT_TOL):
    """The one-row dilation ``[[X_i, alpha beta_i], [alpha beta_i*, 0]]`` of
    the member X at the largest alpha that keeps it in the free spectrahedron.

    ``W`` is the whitened range of X's membership verdict; ``beta`` must
    solve the column dilation system on that verdict's kernel (any beta
    will do on an empty kernel), so that ``C = sum_i A_i (x) beta_i``
    vanishes on the kernel of L(X).  Up to a permutation the dilation's
    pencil value is ``[[L(X), -alpha C], [-alpha C*, I]]``; by its Schur
    complement the largest alpha is exactly ``1 / |W* C|_2``.  The
    dilation's own membership verdict guards it and is returned as
    ``(alpha, dilation, verdict)``; a non-member (or a range eigenvalue
    that is not positive), or an alpha above ``MAX_STEP`` over the pencil's
    largest |entry| (the pencil looks unbounded), raises ``NumericalError``.
    """
    Am = tuple_mats(A)
    Xm = tuple_mats(X)
    C = np.einsum("iab,ic->acb", Am, beta).reshape(-1, Am.shape[1])
    top = float(np.linalg.norm(W.conj().T @ C, 2))
    if top * MAX_STEP <= np.abs(Am).max():
        raise NumericalError("dilation scale grew without bound; pencil looks unbounded")
    alpha = 1.0 / top
    g, n = beta.shape
    out = np.zeros((g, n + 1, n + 1), dtype=complex)
    out[:, :n, :n] = Xm
    out[:, :n, n] = alpha * beta
    out[:, n, :n] = alpha * beta.conj()
    dilation = HermitianTuple(out)
    verdict = membership(A, dilation, tol)
    if verdict.range is None:
        raise NumericalError(f"the one-row dilation at scale {alpha:.6e} leaves the free "
                             "spectrahedron: the column does not vanish on the pencil kernel")
    return alpha, dilation, verdict


MAX_DILATION_STEPS = 64


def arveson_dilate(A, X, tol=DEFAULT_TOL):
    """Greedily dilate a member up to an Arveson extreme point.

    Each step is one :func:`dilation_step` along the most-null solution of
    the column dilation system (a unit column when the kernel is empty), so
    the pencil kernel grows at every accepted step.  Each point's
    kernel and whitened range come from one membership verdict, the next
    point's from the step's guard.  The input point is the leading corner
    of the output exactly, by construction.  A dilation still open after
    ``MAX_DILATION_STEPS`` steps fails, which certifies nothing.
    """
    pencil = Pencil(A)
    point = HermitianTuple(X)
    verdict = membership(pencil, point, tol)
    if verdict.range is None:
        raise PreconditionError("dilation requires a member of the free spectrahedron")
    if not ensure_bounded_flag(pencil, tol):
        raise PreconditionError("pencil failed the level-1 boundedness heuristic")
    steps = []
    for step in range(MAX_DILATION_STEPS + 1):
        kernel = verdict.kernel
        beta = column_dilation_system(pencil, point, kernel, tol).solution
        if beta is None:
            return DilationResult(True, point, tuple(steps))
        if step == MAX_DILATION_STEPS:
            return DilationResult(False, point, tuple(steps), step,
                                  "step cap reached before the dilation system closed")
        alpha, point_after, after = dilation_step(pencil, point, verdict.range, beta, tol)
        if alpha <= 1e-10 or after.kernel.shape[1] <= kernel.shape[1]:
            return DilationResult(False, point, tuple(steps), step,
                                  "no admissible one-column dilation found")
        steps.append(DilationStep(alpha, kernel.shape[1], after.kernel.shape[1]))
        point, verdict = point_after, after
