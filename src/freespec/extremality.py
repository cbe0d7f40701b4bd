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
pencil's :func:`~freespec.pencil.pencil_split`, as on any pencil.  In the
column system the rows of block k are weighted by sqrt(m_k) and the whole
is normalized by the given pencil's largest entry, so that it has the
given pencil's singular values; ``kernel_dim`` = sum_k m_k dim ker_k is
the m-weighted trace of K K*, the projection onto (+)_k ker_k.  A pencil
stays whole when the split's off-block residual exceeds the rank cutoff or
its side is outside ``SPLIT_SIDES``.
"""

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial

import numpy as np

from .errors import DimensionError, NumericalError, PreconditionError
from .linalg import (DEFAULT_TOL, HermitianTuple, SingularFactor, _commutant_basis, _eigensolve,
                     hermitian_coordinates, hermitian_from_coordinates, hermitian_parts,
                     kernel_mask)
from .pencil import (Pencil, as_split, check_pencil_value, eigen_verdict, ensure_bounded_flag,
                     linear_part, membership, pencil_split, pencil_value, psd_members, tuple_mats)


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
    ``retained_rows`` S_r V_r* (r, g, n) build the Hermitian system, whose
    ``rank_one`` u gives its solution u u* in coordinate 0 (else None)."""

    nullity: int
    smallest_retained: float
    retained_rows: np.ndarray | None
    rank_one: np.ndarray | None
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
    if K.shape[1] == 0:
        raise PreconditionError("interior point: the pencil value has no kernel")
    d, n = Am.shape[1], Xm.shape[1]
    if K.shape[0] != d * n:
        raise DimensionError("kernel basis size does not match the pencil value")
    return np.einsum("iab,bqc->caiq", Am, K.reshape(d, n, -1)).reshape(-1, len(Am) * n)


def column_dilation_system(A, X, K, tol=DEFAULT_TOL):
    """Factor the one-column dilation system at a boundary point once.

    Nullity zero certifies an Arveson extreme point (given membership and a
    bounded pencil).  The solution is the most-null (g, n) column tuple; on
    a wide system it takes a complete QR, so it is formed only when read.
    The system is complex-linear in the conjugated entries of the column
    tuple and is solved in complex arithmetic.  ``A`` may be classify's
    :class:`~freespec.pencil.Split`, with K a kernel of its distinct blocks'
    L(X): the rows of block k are weighted by sqrt(m_k), so that the system
    has the Gram matrix, hence the singular values, of the given pencil's.
    """
    split, Xm = as_split(A), tuple_mats(X)
    g, n = split.reduced.g, Xm.shape[1]
    # K is orthonormal, so the products of A / max |A_ij| are O(1) at any scale of A.
    factor = SingularFactor(_kernel_products(split.column_coefficients, Xm, K), tol)
    r = max(factor.rank, 1)
    rows = (factor.singular[:r, None] * factor.rows[:, :r].conj().T).reshape(r, g, n)
    return SystemReport(factor.nullity, factor.smallest_retained, rows, None,
                        partial(_most_null_column, factor, g, n))


def _most_null_column(factor, g, n):
    # Kernel columns come by decreasing singular value: the last is most null.
    return factor.kernel()[:, -1].conj().reshape(g, n)


def _next_column(A, X, kernel, tol):
    """``(nullity, smallest_retained, beta)`` of the column dilation system on
    ``kernel``: ``beta`` is its most-null solution (None at nullity zero), or
    the first unit column when the kernel is empty and every column solves it."""
    if kernel.shape[1] == 0:
        beta = np.zeros((len(tuple_mats(A)), tuple_mats(X).shape[1]), dtype=complex)
        beta[0, 0] = 1.0
        return beta.size, np.inf, beta
    report = column_dilation_system(A, X, kernel, tol)
    return report.nullity, report.smallest_retained, report.solution


def _rank_one(u, g):
    """The g-tuple u u* in coordinate 0 and zero elsewhere, exactly Hermitian."""
    out = np.multiply.outer(np.eye(g)[0], np.outer(u, u.conj()))
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def _hermitian_adjoint(V, tol):
    """``(psi, solve, u)`` for the retained rows V, shaped (r, g, n): the
    g (2 n s - s^2) x 2 r n copy of the adjoint, the most-null Hermitian
    direction, and u (None when s = n); see :func:`hermitian_direction_system`.
    Only at s = n does ``solve`` map a null vector of the copy back: there its
    coordinates are those of the Hermitian M_i = Q_i* Y_i Q_i of the solution."""
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
    psi = np.concatenate([c.real, -c.imag]).T
    u = Q[0, :, s] if s < n else None
    return psi, partial(_hermitian_solution, psi, Q, u, tol), u


def _hermitian_solution(psi, Q, u, tol):
    """The most-null Hermitian direction: u u* in coordinate 0, else a null
    vector of the copy psi mapped back through the QR factors Q."""
    if u is not None:
        return _rank_one(u, len(Q))
    M = hermitian_from_coordinates(SingularFactor(psi.T, tol).null_vector().reshape(len(Q), -1))
    out = Q @ M @ Q.conj().swapaxes(-1, -2)
    return 0.5 * (out + out.conj().swapaxes(-1, -2))


def hermitian_direction_system(column, tol=DEFAULT_TOL):
    """Solve for Hermitian tuples whose linear part kills the pencil kernel,
    from the :func:`column_dilation_system` report at the same point.

    Nullity zero certifies a Euclidean extreme point.  Solutions are
    two-sided perturbation directions; the nullity is a real dimension
    (the Hermitian constraint is only real-linear).  The system is
    beta -> sum_i beta_i V_i, V_i (n x r) the column report's retained rows
    at coordinate i (at r = 0 the largest).  With complete QRs
    V_i = Q_i [R_i; 0] and s = min(n, r), the adjoint's Q_i* herm(Y V_i*) Q_i
    vanishes where row and column are >= s; its other g (2 n s - s^2)
    coordinates, a tall isometric copy, give the singular values.  For s < n
    the solution is u u* in coordinate 0, u = Q_0 e_s (the report's
    ``rank_one``); else a left null vector of the copy is mapped back.
    """
    _, g, n = column.retained_rows.shape
    psi, solve, u = _hermitian_adjoint(column.retained_rows, tol)
    tall = psi if len(psi) >= psi.shape[1] else psi.T
    singular = np.linalg.svd(np.linalg.qr(tall, mode="r"), compute_uv=False)
    rank = int(np.count_nonzero(~kernel_mask(singular, tol)))
    smallest = float(singular[rank - 1]) if rank else np.inf
    return SystemReport(g * n * n - rank, smallest, None, u, solve)


MAX_STEP = 1e6  # longer steps read as an unbounded free spectrahedron


def perturbation_range(A, L, beta, W, tol=DEFAULT_TOL, u=None):
    """Largest alpha with both ``X + alpha beta`` and ``X - alpha beta``
    members, capped at ``MAX_STEP``, for the member X with pencil value L.

    ``beta`` must be a solution of the Hermitian direction system at X: then
    ``B = sum_i A_i (x) beta_i`` vanishes on the kernel of ``L = L(X)`` and
    ``L(X +/- alpha beta) = L -/+ alpha B`` only changes on the range.  With
    ``W`` the whitened range of L (see
    :class:`~freespec.pencil.MembershipVerdict`), the answer is exactly
    ``1 / max |eig(W* B W)|``.  For beta = u u* in coordinate 0 (u a
    Hermitian report's ``rank_one``, passed as ``u`` or as beta itself),
    ``B = A_0 (x) u u*`` is one einsum and W* B W has the nonzero eigenvalues
    of the d x d R A_0 R*, R of a QR of W* (I_d (x) u).  B is formed once,
    for that and for one Cholesky test of the stacked sides ``L -/+ alpha B``
    (:func:`~freespec.pencil.psd_members`), which guards alpha; a side below
    ``-psd_tol`` raises ``NumericalError`` with its margin.
    """
    Am = tuple_mats(A)
    if W is None:
        raise PreconditionError("step length needs a member of the free spectrahedron")
    if L.shape[0] != W.shape[0]:
        raise DimensionError(f"pencil value of side {L.shape[0]}, whitened range of {W.shape[0]}")
    if np.ndim(beta) == 1:
        beta, u = _rank_one(beta, 1), beta
    if u is None:
        B = linear_part(A, beta)
        M = W.conj().T @ B @ W
    else:
        R = np.linalg.qr((u @ W.reshape(-1, len(u), W.shape[1]).conj()).T, mode="r")
        B, M = np.einsum("ab,cd->acbd", Am[0], beta[0]).reshape(L.shape), R @ Am[0] @ R.conj().T
    # M is Hermitian up to roundoff that grows like 1/lambda of the least range
    # eigenvalue, so an absolute Hermitian check could reject a valid point;
    # the Cholesky guard below decides instead.
    top = np.abs(_eigensolve(M, False)).max(initial=0.0)
    alpha = MAX_STEP if top * MAX_STEP <= 1.0 else 1.0 / top
    ok, least = psd_members(L - np.multiply.outer([alpha, -alpha], B), tol)
    for k in np.flatnonzero(~ok):
        raise NumericalError(
            f"X {'+-'[k]} {alpha:.6e} beta leaves the free spectrahedron "
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
    pencil's :func:`~freespec.pencil.pencil_split`, evaluated and
    eigendecomposed as any pencil; ``kernel_dim`` is the m-weighted trace of
    K K*, each block's kernel once per copy.  A raw tuple ``A`` is wrapped in
    a fresh :class:`~freespec.pencil.Pencil` that pays the split and the
    boundedness heuristic on every call: build the Pencil once for repeated
    calls."""
    pencil = A if isinstance(A, Pencil) else Pencil(A)
    X = HermitianTuple(X)
    check_pencil_value(pencil.coefficients.mats, X.mats)
    split = pencil_split(pencil, tol)
    L = pencil_value(split.reduced, X)
    verdict = eigen_verdict(L, tol)
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
    residual = float(np.abs(L @ K).max())
    if residual > tol.residual_tol * max(verdict.norm, 1.0):
        raise NumericalError(f"kernel residual {residual:.3e} exceeds residual_tol * max(|L|, 1)")
    column = column_dilation_system(split, X, K, tol)
    systems = _Systems(X, column, tol)
    r, g, n = column.retained_rows.shape
    if column.nullity and (r < n or systems.hermitian.nullity):
        u = np.linalg.qr(column.retained_rows[:, 0].T, mode="complete")[0][:, r] if r < n else None
        beta = systems.hermitian.solution if u is None else _rank_one(u, g)
        alpha = perturbation_range(split.reduced, L, beta, verdict.range, tol, u)
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
    that is not positive), or an alpha above ``MAX_STEP`` (the pencil
    looks unbounded), raises ``NumericalError``.
    """
    Am = tuple_mats(A)
    Xm = tuple_mats(X)
    C = np.einsum("iab,ic->acb", Am, beta).reshape(-1, Am.shape[1])
    top = float(np.linalg.norm(W.conj().T @ C, 2))
    if top * MAX_STEP <= 1.0:
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
    the column dilation system (the first unit column when the kernel is
    empty), so the pencil kernel grows at every accepted step.  Each point's
    kernel and whitened range come from one membership verdict, the next
    point's from the step's guard.  The input point is the leading corner
    of the output exactly, by construction.  A dilation still open after
    ``MAX_DILATION_STEPS`` steps fails, which certifies nothing.
    """
    pencil = A if isinstance(A, Pencil) else Pencil(A)
    point = HermitianTuple(X)
    verdict = membership(pencil, point, tol)
    if verdict.range is None:
        raise PreconditionError("dilation requires a member of the free spectrahedron")
    if not ensure_bounded_flag(pencil, tol):
        raise PreconditionError("pencil failed the level-1 boundedness heuristic")
    steps = []
    for step in range(MAX_DILATION_STEPS + 1):
        kernel = verdict.kernel
        beta = _next_column(pencil, point, kernel, tol)[2]
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
