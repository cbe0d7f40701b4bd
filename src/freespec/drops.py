"""Coordinate projections of free spectrahedra, and level-1 hulls.

General projection membership is one-sided: a verified witness for the
hidden coordinates proves membership, while failure of the search proves
nothing.  A small registry of exact special cases (spin pencils project to
smaller spin pencils; the anticommuting 2x2 triple projects onto the
largest matrix convex set over the disk) covers the identities that hold
exactly.  Level-1 hulls get a one-sided support function search, whose
:class:`~freespec.pencil.MembershipVerdict` ships its separating direction
as the ``witness``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParameterError, UnsupportedCaseError
from .linalg import (DEFAULT_TOL, HermitianTuple, _eigensolve, block_diagonal,
                     check_dense_side, random_hermitian)
from .pencil import MembershipVerdict, band_verdict, batched_linear_part, membership, tuple_mats
from .spin import pauli_conj_tuple, pauli_tuple, spin_tuple
from .sphere import _first_improving_steps, top_eigenvalue_extremum, unit_sphere_grid


def _kept(pencil, X):
    """The (h, d, d) coefficients and the (g, n, n) point of the projection of
    the pencil onto its first g = len(X) coordinates."""
    Am, Xm = tuple_mats(pencil), tuple_mats(X)
    if len(Xm) > len(Am):
        raise ParameterError(f"kept coordinates {len(Xm)} outside 1..{len(Am)}")
    return Am, Xm


def _matches(mats, reference):
    ref = reference.mats
    return mats.shape == ref.shape and bool(np.abs(mats - ref).max() <= 1e-12)


def project_membership_special(pencil, X, tol=DEFAULT_TOL, seed=0):
    """Exact membership of X in the projection of the pencil onto its first
    ``len(X)`` coordinates, for registered projections.

    Registered cases: keeping every coordinate, which is the pencil's own
    membership; the 2x2 anticommuting triple (or its conjugate) projected
    to its first two coordinates, which equals the largest matrix convex
    set over the disk (its acceptances are heuristic); and spin pencils
    projected to any shorter length, which equal the shorter spin free
    spectrahedron.  Anything else raises, pointing at the witness search.
    """
    Am, Xm = _kept(pencil, X)
    keep, h = len(Xm), len(Am)
    if keep == h:
        return membership(pencil, X, tol)
    if keep == 2 and (_matches(Am, pauli_tuple()) or _matches(Am, pauli_conj_tuple())):
        from .ballsets import wmax_ball_membership  # only the Pauli drop reads the ball
        return wmax_ball_membership(X, grid=128, refine_steps=30, seed=seed, tol=tol)
    if Am.shape[1] == 2 ** (h - 1) and _matches(Am, spin_tuple(h)):
        if keep == 1:
            # The one-coordinate projection degenerates to the matrix
            # interval -I <= X <= I.
            return membership([np.diag([1.0, -1.0])], X, tol)
        return membership(spin_tuple(keep), X, tol)
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


def _first_improving_step(L, D, value):
    """For each ``L[r]``, ``D[r]`` of two stacks, the first of 30 halvings s
    of 0.5 at which ``L[r] - s D[r]`` has its bottom eigenvalue above
    ``value[r]``, or NaN.  Hermitian by construction: the solves go unchecked."""
    def bottoms(rows, steps):
        return _eigensolve(L[rows, None] - steps[:, None, None] * D[rows, None], False)[..., 0]

    return _first_improving_steps(bottoms, value, 30)


WITNESS_RESTARTS, WITNESS_ITERS = 8, 60


def witness_search(pencil, X, seed=0, tol=DEFAULT_TOL):
    """Search for hidden coordinates Y with (X, Y) in the free spectrahedron
    of the pencil, X its first ``len(X)`` coordinates.

    Ascent on the minimum eigenvalue of the pencil value: the gradient with
    respect to each hidden Hermitian coordinate is the compression of the
    corresponding coefficient by the bottom eigenvector (averaged over the
    bottom eigenspace when degenerate).  The zero tuple and
    ``WITNESS_RESTARTS - 1`` random tuples, drawn up front, start ascents of
    at most ``WITNESS_ITERS`` iterations, which backtrack from step 0.5 by
    halving and accept the first step that raises the minimum eigenvalue.
    As ``L(Y + sG) = L(Y) - s sum_j A_(g+j) (x) G_j``, the restarts advance in
    lockstep: one eigenvalue solve per block of trial steps, one with
    eigenvectors per iteration.  A restart that reaches ``-psd_tol`` gets the
    membership check; the first one certified is the result and later ones
    stop.  Failure is inconclusive and reports the best infeasibility reached.
    """
    Am, Xm = _kept(pencil, X)
    g, h = len(Xm), len(Am)
    if g == h:
        raise ParameterError("the drop keeps every coordinate: nothing to search for")
    n, d = Xm.shape[1], Am.shape[1]
    rng = np.random.default_rng(seed)
    hidden = Am[g:]
    Y = np.zeros((WITNESS_RESTARTS, h - g, n, n), dtype=complex)
    for restart in range(1, WITNESS_RESTARTS):
        scale = 0.5 * restart / (WITNESS_RESTARTS - 1)
        Y[restart] = [random_hermitian(rng, n, scale) for _ in range(h - g)]
    fixed = np.eye(d * n) - batched_linear_part(Am[:g], Xm[None])[0]

    def bottom_eigs_and_grads(L):
        w, V = _eigensolve(L, True)  # unchecked, as in _first_improving_step
        bottom = w[:, 0]
        band = w <= (bottom + 1e-10 * np.maximum(np.abs(bottom), 1.0))[:, None]
        mult = band.sum(axis=1)
        # Rayleigh derivative of the bottom eigenvalue with respect to each
        # hidden Hermitian coordinate, averaged over the bottom eigenspace.
        p = mult.max(initial=0)
        Vb = (V[:, :, :p] * band[:, None, :p]).transpose(0, 2, 1).reshape(len(L), p, d, n)
        grads = -np.einsum("Rrac,jab,Rrbd->Rjcd", Vb.conj(), hidden, Vb).conj()
        grads /= mult[:, None, None, None]
        return bottom, 0.5 * (grads + grads.conj().transpose(0, 1, 3, 2))

    L = fixed - batched_linear_part(hidden, Y)
    value, grads = bottom_eigs_and_grads(L)
    best = value.max()
    searching, certified, verdict = np.arange(WITNESS_RESTARTS), WITNESS_RESTARTS, None
    for iteration in range(WITNESS_ITERS + 1):
        done = value[searching] >= -tol.psd_tol
        for r in searching[done]:
            check = membership(pencil, HermitianTuple(np.concatenate([Xm, Y[r]])), tol)
            if check.member:
                certified, verdict = r, check
                break
        searching = searching[~done & (searching < certified)]
        if iteration == WITNESS_ITERS or not searching.size:
            break
        steps = _first_improving_step(L[searching], batched_linear_part(hidden, grads[searching]),
                                      value[searching])
        searching, steps = searching[steps > 0], steps[steps > 0]
        Y[searching] += steps[:, None, None, None] * grads[searching]
        L[searching] = fixed - batched_linear_part(hidden, Y[searching])
        value[searching], grads[searching] = bottom_eigs_and_grads(L[searching])
        best = max(best, value[searching].max(initial=best))
    if verdict is not None:
        return WitnessSearchResult(True, HermitianTuple(Y[certified]), verdict, 0.0,
                                   certified + 1)
    return WitnessSearchResult(False, None, None, float(-best), WITNESS_RESTARTS)


HULL_GRID, HULL_REFINE_STEPS = 720, 30


def level1_hull_membership(generators, y, seed=0, tol=DEFAULT_TOL):
    """Decide whether a real vector lies in the convex hull of the first
    levels generated by the given tuples.

    The point is a member exactly when, for every unit direction c, the pairing
    with c stays below the largest top eigenvalue of ``sum_i c_i G_ji`` over
    the generators G_j.  The violation c.y minus that is minus the top
    eigenvalue of ``sum_i c_i H_i``, ``H_i = (+)_j G_ji - y_i I``, so the margin
    is the sphere search's infimum (sign -1) on H, from ``HULL_GRID`` directions
    and ``HULL_REFINE_STEPS`` ascent steps.  A margin below ``-psd_tol`` refutes,
    with the separating direction as witness; an acceptance is heuristic.  Only
    lengths up to 3 are supported by the direction scan.
    """
    y = np.asarray(y, dtype=float)
    g = y.size
    if g > 3:
        raise UnsupportedCaseError("direction scan only covers up to 3 variables")
    gens = [tuple_mats(G) for G in generators]
    if not gens:
        raise ParameterError("need at least one generator tuple")
    for G in gens:
        if G.shape[0] != g:
            raise DimensionError(f"generator length {G.shape[0]} != point length {g}")
    side = sum(G.shape[1] for G in gens)
    check_dense_side(side, "direct sum of the generators")
    H = block_diagonal(gens) - y[:, None, None] * np.eye(side)
    if g == 2:
        angles = np.linspace(0.0, 2.0 * np.pi, HULL_GRID, endpoint=False)
        dirs = np.column_stack([np.cos(angles), np.sin(angles)])
    else:  # at g = 1 the two axes are the whole sphere
        dirs = unit_sphere_grid(np.random.default_rng(seed), g, HULL_GRID if g > 1 else 2)
    margin, direction = top_eigenvalue_extremum(H, dirs, HULL_REFINE_STEPS, -1)
    return band_verdict(margin, tol, direction, one_sided=True)
