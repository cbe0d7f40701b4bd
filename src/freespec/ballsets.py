"""Matrix convex sets over the Euclidean ball.

Four families are covered:

* the matrix ball (sum of squares bounded by the identity), with an exact
  Arveson extreme-point criterion: the ball is the free spectrahedron of
  the (g+1) x (g+1) pencil with coefficients ``E_0i + E_i0``, so the
  pencil code decides it: one membership verdict (margin, kernel and
  whitened range), the dilation column rule of ``arveson_dilate`` and the
  exact dilation step;
* the self-dual ball (norm of ``sum X_i (x) conj(X_i)`` at most one);
* the largest matrix convex set over the ball, decided one-sidedly by
  estimating the supremum of the top eigenvalue of real unit combinations;
* the non-self-adjoint analogue, decided one-sidedly through the largest
  singular value of complex unit combinations, the top eigenvalue of their
  Hermitian dilation.

Every test returns a :class:`~freespec.pencil.MembershipVerdict` whose
``margin`` is one minus the set's norm: the largest eigenvalue of the sum of
squares, the norm of the self-dual sum, or the estimated supremum.  The
one-sided estimators certify refutations (the exhibited direction, the
verdict's ``witness``, is a proof) while acceptances remain heuristic and
are flagged as such.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, PreconditionError
from .linalg import (DEFAULT_TOL, HermitianTuple, as_matrix_tuple, check_dense_side,
                     hermitian_eigen, hermitian_eigvals, random_hermitian_tuple, size_groups)
from .pencil import (Pencil, band_verdict, least_pencil_eigenvalues, linear_part, membership,
                     tuple_mats)
from .spin import random_spin_member, spin_tuple
from .sphere import top_eigenvalue_extremum, unit_sphere_grid


@dataclass(frozen=True)
class BallExtremeCertificate:
    """Arveson extremality report for a matrix-ball member: its ball
    ``margin`` and, when it is not extreme, a dilation inside the ball."""

    margin: float
    arveson_extreme: bool
    flat_branch: bool
    nullity: int
    smallest_retained: float
    dilation: np.ndarray | None
    dilation_margin: float | None


def squares_sum(Xm):
    """``sum_i X_i^2`` for a point or a stack of points."""
    return np.einsum("...iab,...ibc->...ac", Xm, Xm)


def _selfdual_sum(Xm):
    """``sum_i X_i (x) conj(X_i)`` for a point or a stack of points."""
    n = Xm.shape[-1]
    return np.einsum("...iab,...icd->...acbd", Xm, Xm.conj()).reshape(*Xm.shape[:-3], n * n, n * n)


def matrix_ball_membership(X, tol=DEFAULT_TOL):
    """Membership in the matrix ball: sum of squares at most the identity."""
    return band_verdict(1.0 - float(hermitian_eigvals(squares_sum(tuple_mats(X)), tol)[-1]), tol)


def ball_margins(points, tol=DEFAULT_TOL):
    """``(ball, selfdual)``: the margins of :func:`matrix_ball_membership` and
    :func:`selfdual_ball_membership` at each (g, n, n) point, one eigensolve per size."""
    ball, selfdual = np.empty(len(points)), np.empty(len(points))
    for group, X in size_groups(points):
        ball[group] = 1.0 - hermitian_eigvals(squares_sum(X), tol)[:, -1]
        selfdual[group] = 1.0 - np.abs(hermitian_eigvals(_selfdual_sum(X), tol)).max(axis=1)
    return ball, selfdual


def _ball_pencil(g):
    """The pencil of the (g+1) x (g+1) coefficients ``E_0i + E_i0``.  Its
    value at X is ``[[I, -X_1, ..., -X_g], [-X_1, I, 0, ...], ...]``, whose
    Schur complement is ``I - sum_i X_i^2``: its free spectrahedron is the
    matrix ball."""
    B = np.zeros((g, g + 1, g + 1))
    for i in range(g):
        B[i, 0, i + 1] = B[i, i + 1, 0] = 1.0
    return Pencil(B)


def matrix_ball_arveson(X, tol=DEFAULT_TOL):
    """Exact Arveson extreme-point test inside the matrix ball.

    The test runs on the pencil whose free spectrahedron is the matrix
    ball.  With V the eigenspace where the sum of squares acts as the
    identity, its kernel at X is ``{(u, X_1 u, ..., X_g u) : u in V}``, and
    its column dilation system asks for tuples beta with every ``beta_i``
    orthogonal to V and ``P_V sum_i X_i beta_i = 0``.  One membership
    verdict of the pencil gives the kernel, the whitened range of the step
    and the margin: the pencil value's least eigenvalue is m = 1 - s, s the
    norm of the row ``(X_1, ..., X_g)``, so ``1 - |sum_i X_i^2| = m (2 - m)``.
    A system of nullity zero certifies an Arveson extreme point, the flat
    branch (a kernel of dimension n: V is everything, so every beta_i
    vanishes) included; the certificate carries the system's smallest
    retained singular value.  Otherwise the next column of
    :func:`~freespec.extremality.arveson_dilate` becomes the one-row
    dilation at the largest scale that stays in the ball, whose margin comes
    from the step's own membership verdict.
    """
    from .extremality import column_dilation_system, dilation_step  # not on `ball`'s path
    X = HermitianTuple(X)
    pencil = _ball_pencil(X.g)
    ball = membership(pencil, X, tol)
    margin = ball.margin * (2.0 - ball.margin)
    if ball.range is None or margin < -tol.psd_tol:
        raise PreconditionError("Arveson test requires a matrix-ball member")
    flat = ball.kernel.shape[1] == X.n
    column = column_dilation_system(pencil, X, ball.kernel, tol)
    if column.solution is None:
        return BallExtremeCertificate(margin, True, flat, 0, column.smallest_retained, None, None)
    _, dilation, after = dilation_step(pencil, X, ball.range, column.solution, tol)
    m = after.margin
    return BallExtremeCertificate(margin, False, flat, column.nullity, column.smallest_retained,
                                  dilation.mats, m * (2.0 - m))


def selfdual_ball_membership(X, tol=DEFAULT_TOL):
    """Membership in the self-dual ball: operator norm of
    ``sum_i X_i (x) conj(X_i)`` at most one (the sum is Hermitian because
    the conjugate of a Hermitian matrix is its transpose)."""
    Xm = tuple_mats(X)
    n = Xm.shape[1]
    check_dense_side(n * n, f"self-dual sum ({n}^2)")
    w = hermitian_eigvals(_selfdual_sum(Xm), tol)
    return band_verdict(1.0 - float(max(abs(w[0]), abs(w[-1]))), tol)


BALL_GRID, BALL_REFINE_STEPS = 64, 25


def wmax_ball_membership(X, grid=BALL_GRID, refine_steps=BALL_REFINE_STEPS, seed=0,
                         tol=DEFAULT_TOL):
    """One-sided membership in the largest matrix convex set over the ball.

    Estimates ``m(X)``, the supremum over real unit directions c of the top
    eigenvalue of ``sum c_i X_i``, by the sphere search on the stack X
    (sign +1).  ``m > 1`` refutes membership with the exhibited c; an
    acceptance is heuristic.
    """
    Xm = tuple_mats(X)
    dirs = unit_sphere_grid(np.random.default_rng(seed), Xm.shape[0], grid)
    estimate, direction = top_eigenvalue_extremum(Xm, dirs, refine_steps, 1)
    return band_verdict(1.0 - estimate, tol, direction, one_sided=True)


def qd_membership(T, seed=0, tol=DEFAULT_TOL):
    """One-sided membership for tuples of general square matrices.

    Estimates the supremum over complex unit vectors lambda of the largest
    singular value of ``sum lambda_i T_i``, the top eigenvalue of its
    Hermitian dilation: the sphere search (sign +1) on the dilations of the
    ``T_i`` and ``i T_i`` over the real grid in 2g coordinates c, with the
    witness ``c[:g] + i c[g:]``.  Wmax's default effort and one-sided semantics apply.
    """
    Tm = as_matrix_tuple(T)
    g, n = Tm.shape[:2]
    check_dense_side(2 * n, f"Hermitian dilation (2 x {n})")
    both = np.concatenate([Tm, 1j * Tm])
    dilations = np.zeros((2 * g, 2 * n, 2 * n), dtype=complex)
    dilations[:, :n, n:] = both
    dilations[:, n:, :n] = both.conj().transpose(0, 2, 1)
    dirs = unit_sphere_grid(np.random.default_rng(seed), 2 * g, BALL_GRID)
    estimate, c = top_eigenvalue_extremum(dilations, dirs, BALL_REFINE_STEPS, 1)
    return band_verdict(1.0 - estimate, tol, c[:g] + 1j * c[g:], one_sided=True)


def wmin_ball_element(rng, g, n):
    """Random element of the smallest matrix convex set over the unit ball:
    a matrix convex combination of level-1 ball points.

    Membership in that set has no oracle here; this generator only produces
    elements guaranteed to lie in it, for inclusion testing against the
    larger sets of the chain.
    """
    points = 6
    scalars = rng.normal(size=(points, g))
    norms = np.linalg.norm(scalars, axis=1)
    scalars = scalars / np.maximum(norms, 1.0)[:, None] \
        * rng.uniform(0.2, 1.0, size=points)[:, None]
    Vs = [rng.normal(size=(1, n)) + 1j * rng.normal(size=(1, n))
          for _ in range(points)]
    gram = sum(V.conj().T @ V for V in Vs)
    w, U = hermitian_eigen(gram)
    half_inv = U @ np.diag(1.0 / np.sqrt(np.maximum(w, 1e-12))) @ U.conj().T
    X = np.zeros((g, n, n), dtype=complex)
    for x, V in zip(scalars, Vs):
        Vn = V @ half_inv
        X += x[:, None, None] * (Vn.conj().T @ Vn)[None]
    return HermitianTuple(0.5 * (X + X.conj().transpose(0, 2, 1)))


@dataclass(frozen=True)
class ChainReport:
    """Tabulated membership sweep along the containment chain."""

    g: int
    samples: int
    violations: tuple
    witness_in_matrix_ball: bool
    witness_pencil_top_eigenvalue: float
    notes: tuple


def containment_chain_experiment(g, samples=200, seed=0, tol=DEFAULT_TOL):
    """Sample-based check of the containment chain over the ball.

    Generated elements of the smallest matrix convex set over the ball must
    pass every membership along the chain; boundary-rich members of the
    spin free spectrahedron must lie in the matrix ball and the self-dual
    ball; matrix-ball members must lie in the self-dual ball; self-dual
    members must never be refuted (pairing above one) against sampled
    members of the matrix ball or of the spin set.  The scaled spin tuple
    itself witnesses that the first containment is proper.  Membership in
    the smallest set has no oracle here (only the generator above), which
    is recorded as a note.

    Many samples sit exactly on a boundary, where a margin is an extreme
    eigenvalue of an m x m Hermitian matrix of norm about one (or one minus
    it).  A margin records a violation only below -max(psd_tol, 16 m eps),
    eps the unit roundoff: the roundoff bound of that eigensolve, with room
    for forming the matrix.
    """
    from .duality import polar_membership  # only the chain pairs with the self-dual ball

    def refuted(margin, side):
        return margin < -max(tol.psd_tol, 16 * side * np.finfo(float).eps)

    if g < 2:
        raise ParameterError(f"chain experiment needs g >= 2, got {g}")
    rng = np.random.default_rng(seed)
    F = spin_tuple(g)
    violations = []
    sizes = [1, 2, 3]
    wmin = [wmin_ball_element(rng, g, sizes[s % len(sizes)]).mats
            for s in range(min(samples, 60))]
    spin = np.empty(len(wmin))
    for group, X in size_groups(wmin):
        spin[group] = least_pencil_eigenvalues(F.mats, X, tol)
    ball, selfdual = ball_margins(wmin, tol)
    for s in range(len(wmin)):
        n = sizes[s % len(sizes)]
        checks = (("wmin-not-in-spin", spin[s], F.n * n), ("wmin-not-in-matrix-ball", ball[s], n),
                  ("wmin-not-in-selfdual-ball", selfdual[s], n * n))
        violations += [(kind, s) for kind, margin, side in checks if refuted(margin, side)]
    scales = np.array([0.3, 0.7, 1.0])[np.arange(samples) // len(sizes) % 3]
    spin_samples, ball_samples = [], []
    for s in range(samples):
        n = sizes[s % len(sizes)]
        spin_samples.append(random_spin_member(rng, g, n, scale=scales[s], tol=tol))
        ball_samples.append(random_hermitian_tuple(rng, n, g))
    # Each matrix-ball sample is scaled to its factor times the ball's boundary.
    for group, Y in size_groups([Y.mats for Y in ball_samples]):
        top = hermitian_eigvals(squares_sum(Y), tol)[:, -1]
        for i, factor in zip(group, scales[group] / np.sqrt(top)):
            ball_samples[i] = ball_samples[i].scaled(factor)
    ball, selfdual = ball_margins([X.mats for X in spin_samples + ball_samples], tol)
    for s in range(samples):
        n = sizes[s % len(sizes)]
        checks = (("spin-not-in-matrix-ball", ball[s], n),
                  ("spin-not-in-selfdual-ball", selfdual[s], n * n),
                  ("matrix-ball-not-in-selfdual-ball", selfdual[samples + s], n * n))
        violations += [(kind, s) for kind, margin, side in checks if refuted(margin, side)]
    # Self-dual members should never pair above one with matrix-ball members.
    Zs = [random_hermitian_tuple(rng, sizes[s % len(sizes)], g) for s in range(min(samples, 50))]
    norms = 1.0 - ball_margins([Z.mats for Z in Zs], tol)[1]
    for s, Z in enumerate(Z.scaled(0.99 / np.sqrt(norm)) for Z, norm in zip(Zs, norms)):
        for kind, members in (("matrix-ball", ball_samples), ("spin", spin_samples)):
            if not polar_membership(members[:40], Z, tol).member:
                violations.append((f"selfdual-refuted-against-{kind}", s))
    # The scaled spin tuple separates the spin set from the matrix ball.
    W = HermitianTuple(F.mats / np.sqrt(g))
    wit_ball = matrix_ball_membership(W, tol)
    top_eig = float(hermitian_eigvals(linear_part(F, W), tol)[-1])
    notes = ("membership in the smallest matrix convex set over the ball is not "
             "implemented; that end of the chain is exercised only through "
             "generated matrix convex combinations of level-1 points",)
    return ChainReport(g, samples, tuple(violations), wit_ball.member
                       and abs(wit_ball.margin) <= 1e-10, top_eig, notes)
