"""Coordinate projections of free spectrahedra, free simplices, and hulls.

General projection membership is one-sided: a verified witness for the
hidden coordinates proves membership, while failure of the search proves
nothing.  A small registry of exact special cases (spin pencils project to
smaller spin pencils; the anticommuting 2x2 triple projects onto the
largest matrix convex set over the disk) covers the identities that hold
exactly.  Free simplices get an exact membership test through their unique
barycentric operator coefficients, and level-1 hulls a one-sided support
function search.  Every membership test returns a
:class:`~freespec.pencil.MembershipVerdict`: the simplex ships its
coefficients as the ``witness``, the hull search its separating direction.
"""

from dataclasses import dataclass

import numpy as np

from .ballsets import wmax_ball_membership
from .errors import ConstructionError, DimensionError, ParameterError, UnsupportedCaseError
from .extremality import Verdict, classify
from .linalg import DEFAULT_TOL, HermitianTuple, min_eigenvalue, random_hermitian
from .pencil import (MembershipVerdict, Pencil, band_verdict, batched_linear_part,
                     coefficient_mats, membership, point_mats)
from .spin import pauli_conj_tuple, pauli_tuple, spin_membership, spin_tuple
from .sphere import sup_over_sphere, top_eigenvalue_gradient, top_eigenvalues, unit_sphere_grid


@dataclass(frozen=True)
class DropDescriptor:
    """A pencil in h variables together with the number of kept coordinates."""

    pencil: Pencil
    keep: int

    def __post_init__(self):
        if not isinstance(self.pencil, Pencil):
            object.__setattr__(self, "pencil", Pencil(self.pencil))
        if not 1 <= self.keep <= self.pencil.g:
            raise ParameterError(
                f"kept coordinates {self.keep} outside 1..{self.pencil.g}")


def _matches(mats, reference):
    ref = reference.mats
    return mats.shape == ref.shape and bool(np.abs(mats - ref).max() <= 1e-12)


def project_membership_special(drop, X, tol=DEFAULT_TOL, seed=0):
    """Exact membership for registered coordinate projections.

    Registered cases: keeping every coordinate, which is the pencil's own
    membership; the 2x2 anticommuting triple (or its conjugate) projected
    to its first two coordinates, which equals the largest matrix convex
    set over the disk (its acceptances are heuristic); and spin pencils
    projected to any shorter length, which equal the shorter spin free
    spectrahedron.  Anything else raises, pointing at the witness search.
    """
    Am = coefficient_mats(drop.pencil)
    Xm = point_mats(X)
    if Xm.shape[0] != drop.keep:
        raise DimensionError(f"point has length {Xm.shape[0]}, drop keeps {drop.keep}")
    if drop.keep == drop.pencil.g:
        return membership(drop.pencil, X, tol)
    if drop.keep == 2 and (_matches(Am, pauli_tuple()) or _matches(Am, pauli_conj_tuple())):
        return wmax_ball_membership(X, grid=128, refine_steps=30, seed=seed, tol=tol)
    h = drop.pencil.g
    if Am.shape[1] == 2 ** (h - 1) and _matches(Am, spin_tuple(h)):
        if drop.keep == 1:
            # The one-coordinate projection degenerates to the matrix
            # interval -I <= X <= I.
            interval = HermitianTuple(np.array([np.diag([1.0, -1.0]).astype(complex)]))
            return membership(interval, X, tol)
        return spin_membership(drop.keep, X, tol)
    raise UnsupportedCaseError(
        "no registered exact identity for this drop; use witness_search")


@dataclass(frozen=True)
class WitnessSearchResult:
    """Outcome of the hidden-coordinate search for drop membership."""

    found: bool
    witness: HermitianTuple | None
    verdict: MembershipVerdict | None
    best_infeasibility: float
    restarts_used: int


# Backtracking line search of the witness search: trial steps 0.5, 0.25,
# ... (30 halvings), tried in blocks of 1, 2, 4, 8 and 15 consecutive steps
# with one stacked eigvalsh per block, so at most five eigensolver calls per
# iteration and never more than about twice the trials of one-at-a-time.
_TRIAL_STEPS = 0.5 ** np.arange(1, 31)
_TRIAL_BLOCKS = ((0, 1), (1, 3), (3, 7), (7, 15), (15, 30))


def _first_improving_step(L, D, value):
    """The first trial step s whose pencil value ``L - s D`` has its bottom
    eigenvalue above ``value``, or None."""
    for lo, hi in _TRIAL_BLOCKS:
        steps = _TRIAL_STEPS[lo:hi]
        bottoms = np.linalg.eigvalsh(L - steps[:, None, None] * D)[:, 0]
        better = np.flatnonzero(bottoms > value)
        if better.size:
            return steps[better[0]]
    return None


def witness_search(drop, X, restarts=8, iters=60, seed=0, tol=DEFAULT_TOL):
    """Search for hidden coordinates Y with (X, Y) in the free spectrahedron.

    Alternating ascent on the minimum eigenvalue of the pencil value: the
    gradient with respect to each hidden Hermitian coordinate is the
    compression of the corresponding coefficient by the bottom eigenvector
    (averaged over the bottom eigenspace when degenerate).  The zero tuple
    is always tried first.  Each iteration backtracks from step 0.5 by
    halving and accepts the first step that raises the minimum eigenvalue.
    The pencil is linear, so ``L(Y + sG) = L(Y) - s sum_j A_(g+j) (x) G_j``
    and the trial steps are evaluated as stacks, one ``eigvalsh`` per block
    of 1, 2, 4, 8 and 15 steps; one ``eigh`` at the accepted step gives the
    next gradient.  Success is certified by a membership check; failure is
    inconclusive and reports the best infeasibility reached.
    """
    Am = coefficient_mats(drop.pencil)
    Xm = point_mats(X)
    g = drop.keep
    h = Am.shape[0]
    if Xm.shape[0] != g:
        raise DimensionError(f"point has length {Xm.shape[0]}, drop keeps {g}")
    if g == h:
        raise ParameterError("the drop keeps every coordinate: nothing to search for")
    n = Xm.shape[1]
    rng = np.random.default_rng(seed)
    d = Am.shape[1]
    hidden = Am[g:]

    def kron_sum(mats, Y):
        return batched_linear_part(mats, Y[None])[0]

    fixed = np.eye(d * n) - kron_sum(Am[:g], Xm)

    def bottom_eig_and_grad(L):
        w, V = np.linalg.eigh(L)
        bottom = w[0]
        mult = int(np.sum(w <= bottom + 1e-10 * max(abs(bottom), 1.0)))
        # Rayleigh derivative of the bottom eigenvalue with respect to each
        # hidden Hermitian coordinate, averaged over the bottom eigenspace.
        Vb = V[:, :mult].T.reshape(mult, d, n)
        grads = -np.einsum("rac,jab,rbd->jcd", Vb.conj(), hidden, Vb).conj() / mult
        return bottom, 0.5 * (grads + grads.conj().transpose(0, 2, 1))

    best = -np.inf
    used = 0
    for restart in range(max(restarts, 1)):
        used = restart + 1
        if restart == 0:
            Ym = np.zeros((h - g, n, n), dtype=complex)
        else:
            scale = 0.5 * restart / max(restarts - 1, 1)
            Ym = np.array([random_hermitian(rng, n, scale) for _ in range(h - g)])
        L = fixed - kron_sum(hidden, Ym)
        value, grads = bottom_eig_and_grad(L)
        best = max(best, value)
        for _ in range(iters):
            if value >= -tol.psd_tol:
                break
            step = _first_improving_step(L, kron_sum(hidden, grads), value)
            if step is None:
                break
            Ym = Ym + step * grads
            L = fixed - kron_sum(hidden, Ym)
            value, grads = bottom_eig_and_grad(L)
            best = max(best, value)
        if value >= -tol.psd_tol:
            verdict = membership(drop.pencil, HermitianTuple(np.concatenate([Xm, Ym])), tol)
            if verdict.member:
                return WitnessSearchResult(True, HermitianTuple(Ym), verdict, 0.0, used)
    return WitnessSearchResult(False, None, None, float(-best), used)


class FreeSimplex:
    """A full-dimensional simplex with 0 strictly inside, as a diagonal pencil.

    Vertices are the rows of a (g+1) x g array.  The facet description
    yields the diagonal coefficient tuple whose free spectrahedron has the
    simplex as its first level; the barycentric system gives the unique
    Hermitian operator coefficients of any candidate point.
    """

    __slots__ = ("vertices", "pencil", "_inverse")

    def __init__(self, vertices):
        V = np.asarray(vertices, dtype=float)
        g = V.shape[1] if V.ndim == 2 else 0
        if V.ndim != 2 or V.shape[0] != g + 1:
            raise ConstructionError(
                f"a simplex in {g} variables needs {g + 1} vertex rows, got {V.shape}")
        W = np.vstack([V.T, np.ones(g + 1)])  # columns: [v_i; 1]
        if abs(np.linalg.det(W)) < 1e-12:
            raise ConstructionError("vertices are affinely dependent")
        bary0 = np.linalg.solve(W, np.concatenate([np.zeros(g), [1.0]]))
        if bary0.min() <= 1e-12:
            raise ConstructionError("0 is not strictly inside the simplex")
        self.vertices = V
        self._inverse = np.linalg.inv(W)
        # Facet k omits vertex k; normalize the facet functional to value 1.
        coeffs = np.zeros((g, g + 1))
        for k in range(g + 1):
            others = np.delete(V, k, axis=0)
            a = np.linalg.solve(others, np.ones(g))
            coeffs[:, k] = a
        self.pencil = Pencil(HermitianTuple(
            np.array([np.diag(coeffs[j]).astype(complex) for j in range(g)])))

    @property
    def g(self):
        return self.vertices.shape[1]


def simplex_membership(simplex, X, tol=DEFAULT_TOL):
    """Exact free-simplex membership via barycentric operator coefficients.

    Affine independence of the vertices makes the Hermitian solution of
    ``X_j = sum_i v_i(j) Q_i``, ``sum_i Q_i = I`` unique; membership holds
    exactly when every coefficient is positive semidefinite (within
    psd_tol).  The coefficients, a read-only (g+1, n, n) array, are the
    verdict's ``witness`` either way.
    """
    Xm = point_mats(X)
    g = simplex.g
    if Xm.shape[0] != g:
        raise DimensionError(f"point has length {Xm.shape[0]}, simplex lives in {g}")
    n = Xm.shape[1]
    stacked = np.concatenate([Xm, np.eye(n, dtype=complex)[None]], axis=0)
    Q = np.einsum("ij,jab->iab", simplex._inverse, stacked)
    Q = 0.5 * (Q + Q.conj().transpose(0, 2, 1))
    Q.setflags(write=False)
    return band_verdict(float(min(min_eigenvalue(Qk, tol) for Qk in Q)), tol, Q)


def level1_hull_membership(generators, y, grid=720, refine_steps=30, seed=0,
                           tol=DEFAULT_TOL):
    """Decide whether a real vector lies in the convex hull of the first
    levels generated by the given tuples.

    The point is a member exactly when, for every unit direction c, the
    pairing with c stays below the largest top eigenvalue of
    ``sum_i c_i X_i`` over the generators.  Directions are scanned on a
    grid and refined by ascent; the margin is minus the largest violation
    found.  A violation above ``psd_tol`` refutes, with the separating
    direction as witness; an acceptance is heuristic.  Only lengths up to 3
    are supported by the direction scan.
    """
    y = np.asarray(y, dtype=float)
    g = y.size
    if g > 3:
        raise UnsupportedCaseError("direction scan only covers up to 3 variables")
    gens = [point_mats(G) for G in generators]
    if not gens:
        raise ParameterError("need at least one generator tuple")
    for G in gens:
        if G.shape[0] != g:
            raise DimensionError(f"generator length {G.shape[0]} != point length {g}")

    def violation(c):
        tops = [top_eigenvalue_gradient(G, c) for G in gens]
        support = max(float(top) for top, _ in tops)
        # The gradient of the first generator attaining the support.
        grad_support = next(grad for top, grad in tops if top >= support - 1e-12)
        return float(np.dot(c, y)) - support, y - grad_support

    if g == 1:
        dirs = np.array([[1.0], [-1.0]])
    elif g == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, max(grid, 8), endpoint=False)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:
        dirs = unit_sphere_grid(np.random.default_rng(seed), g, max(grid, 12))
    support = np.max([top_eigenvalues(G, dirs) for G in gens], axis=0)
    best_value, best_dir = sup_over_sphere(violation, dirs, dirs @ y - support, refine_steps)
    return band_verdict(-best_value, tol, best_dir, one_sided=True)


def segment_generator(points):
    """Diagonal tuple whose matrix convex hull has first level equal to the
    convex hull of the given scalar points."""
    P = np.asarray(points, dtype=float)
    if P.ndim != 2:
        raise ParameterError("expected an array of scalar points (rows)")
    return HermitianTuple(np.array([np.diag(P[:, j]).astype(complex)
                                    for j in range(P.shape[1])]))


@dataclass(frozen=True)
class HarnessSample:
    point: np.ndarray
    verdict: Verdict


@dataclass(frozen=True)
class HarnessReport:
    """Per-sample certification results for the projection harness."""

    samples: tuple
    all_free: bool
    oracle: str


def projection_extreme_harness(A, keep, samples=20, seed=0, tol=DEFAULT_TOL):
    """Certify sampled level-1 Euclidean extreme points of a projection as
    free extreme points of the projected set.

    Works for the registered oracles only: spin pencils (the projection is
    the shorter spin free spectrahedron; the level-1 set is the Euclidean
    ball whose extreme points are sampled as unit support directions) and
    diagonal simplex pencils projected to one coordinate (the projection is
    the matrix interval; its extreme points are the endpoints).  Support
    points whose maximizer is not unique within 1e-8 are filtered out.
    """
    pencil = A if isinstance(A, Pencil) else Pencil(A)
    Am = coefficient_mats(pencil)
    h = pencil.g
    rng = np.random.default_rng(seed)
    if Am.shape[1] == 2 ** (h - 1) and _matches(Am, spin_tuple(h)) and 2 <= keep < h:
        oracle = Pencil(spin_tuple(keep))
        out = []
        for _ in range(samples):
            c = rng.normal(size=keep)
            c /= np.linalg.norm(c)
            point = HermitianTuple(c.reshape(keep, 1, 1).astype(complex))
            cert = classify(oracle, point, tol)
            out.append(HarnessSample(c, cert.verdict))
        return HarnessReport(tuple(out), all(s.verdict == Verdict.FREE for s in out),
                             "spin")
    diag = all(np.abs(Am[i] - np.diag(np.diagonal(Am[i]))).max() < 1e-12
               for i in range(h))
    if diag and keep == 1:
        # Level-1 projection of the polyhedron onto the first coordinate:
        # the extrema over the vertex set (projection, not axis slice).
        vertices = _polyhedron_vertices(Am, tol)
        if vertices.size == 0:
            raise UnsupportedCaseError("could not enumerate polyhedron vertices")
        left = float(vertices[:, 0].min())
        right = float(vertices[:, 0].max())
        if not left < 0 < right:
            raise UnsupportedCaseError("projected interval must contain 0 inside")
        interval = Pencil(HermitianTuple(np.array(
            [np.diag([1.0 / right, 1.0 / left]).astype(complex)])))
        out = []
        for endpoint in (left, right):
            point = HermitianTuple(np.array([[[endpoint]]], dtype=complex))
            cert = classify(interval, point, tol)
            out.append(HarnessSample(np.array([endpoint]), cert.verdict))
        return HarnessReport(tuple(out), all(s.verdict == Verdict.FREE for s in out),
                             "interval")
    raise UnsupportedCaseError("no registered projection oracle for this pencil")


def _polyhedron_vertices(Am, tol):
    """Vertices of the bounded level-1 polyhedron of a diagonal pencil.

    Diagonal coefficients turn the pencil inequality into facet rows
    ``<row_k, x> <= 1``; vertices are the feasible intersections of
    h-subsets of facets.  Exponential in principle; fine for the small
    polyhedra this package handles.
    """
    from itertools import combinations

    h = Am.shape[0]
    rows = np.array([np.real(np.diagonal(Am[i])) for i in range(h)]).T
    out = []
    for subset in combinations(range(rows.shape[0]), h):
        sub = rows[list(subset)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, np.ones(h))
        if np.max(rows @ x) <= 1.0 + 1e-9:
            out.append(x)
    return np.array(out) if out else np.zeros((0, h))
