"""The one level-1 direction search, :func:`top_eigenvalue_extremum`: the
supremum or infimum over unit c of the top eigenvalue of ``sum_i c_i M_i``.

Each one-sided search hands it a Hermitian stack M and a sign: ``wmax`` the
point (+1); ``qd`` the dilations ``[[0, T_i], [T_i*, 0]]`` and
``[[0, i T_i], [-i T_i*, 0]]`` on the real sphere in 2g coordinates (+1);
the level-1 hull of generators G_j at y, ``(+)_j G_ji - y_i I`` (-1); the
boundedness heuristic the pencil's coefficients (-1).  A grid is scored by
one stacked eigensolve, then its best few directions ascend in lockstep, one
stacked solve per block of backtracking trials of every start.  Only
refutations produced by these searches are treated as certificates; an
ascent that fails to escape a value proves nothing.
"""

import numpy as np

from .linalg import _eigensolve, check_dense_side

BACKTRACK_CAP = 40


def _row_dots(a, b):
    """``a_k . b_k`` over the last axis of two real stacks of vectors, one
    ``dot`` per row, bit for bit what ``np.vdot`` and ``np.linalg.norm`` use."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _first_improving_steps(score, value, halvings):
    """For each row r, the first of the trial steps 0.5, 0.25, ... (``halvings``
    of them) whose score exceeds ``value[r]``, or NaN.  ``score(rows, steps)``
    is a (rows, steps) array, asked once per block of 1, 2, 4, 8, ... steps
    for the rows still without an improvement."""
    steps = 0.5 ** np.arange(1, halvings + 1)
    found = np.full(len(value), np.nan)
    pending = np.arange(len(value))
    lo = 0
    while lo < halvings and pending.size:
        block = steps[lo:2 * lo + 1]
        better = score(pending, block) > value[pending, None]
        hit = np.flatnonzero(better.any(axis=1))
        found[pending[hit]] = block[better[hit].argmax(axis=1)]
        pending = np.delete(pending, hit)
        lo = 2 * lo + 1
    return found


def unit_sphere_grid(rng, dim, count):
    """Every +/- coordinate axis plus antipodally paired Gaussian draws up to
    ``count``: shape (max(count, 2 dim), dim), refused if 2 dim exceeds the dense bound.
    The draws come as one (pairs, dim) block; only rows of norm below 1e-12 are
    redrawn, so the grid is the one a row-at-a-time rejection loop draws."""
    check_dense_side(2 * dim, f"direction grid ({dim} coordinates)")
    pairs = max(count - 2 * dim + 1, 0) // 2
    draws = np.empty((0, dim))
    while len(draws) < pairs:
        more = rng.normal(size=(pairs - len(draws), dim))
        norms = np.sqrt(_row_dots(more, more))
        keep = norms >= 1e-12
        draws = np.concatenate([draws, more[keep] / norms[keep, None]])
    units = np.concatenate([np.eye(dim), draws])
    return np.stack([units, -units], axis=1).reshape(-1, dim)[:max(count, 2 * dim)]


def _combinations(C, mats):
    """``sum_i c_i mats_i`` for each row c of a real stack C, bit for bit
    ``np.tensordot(c, mats, axes=1)``.  Hermitian by construction, so their
    solves go unchecked (a check adds 50-130 % to a 9 x 9 solve)."""
    m = mats.shape[-1]
    return (C[..., None, :] @ mats.reshape(len(mats), -1)).reshape(C.shape[:-1] + (m, m))


def _tops_and_gradients(mats, C, sign):
    """Signed top eigenvalue of ``sum_i c_i mats_i`` at each row c of C, with
    its gradient in c: the Rayleigh quotient of each ``mats_i``, averaged over
    the top eigenspace (the eigenvalues within ``1e-8 * max(|top|, 1)`` of the
    top) when it is degenerate.  One stacked ``eigh``."""
    w, V = _eigensolve(_combinations(C, mats), True)
    top = w[:, -1]
    band = w >= (top - 1e-8 * np.maximum(np.abs(top), 1.0))[:, None]
    width = band.sum(axis=1)
    vecs, band = V[:, :, -width.max():], band[:, None, -width.max():]
    # tr(mats_i P), P = sum_s v_s v_s* over the band: the flattened P^T times each mats_i.
    transposed = (vecs.conj() * band) @ vecs.transpose(0, 2, 1)
    grad = (transposed.reshape(len(C), -1) @ mats.reshape(len(mats), -1).T).real
    return sign * top, sign * grad / width[:, None]


def top_eigenvalue_extremum(mats, dirs, refine_steps, sign, starts=4):
    """``(value, c)``: the supremum (``sign`` +1) or the infimum (``sign`` -1)
    over unit c of the top eigenvalue of ``sum_i c_i mats_i``, for a (g, m, m)
    Hermitian stack, as far as a projected-gradient ascent finds it from the
    ``starts`` best directions of the grid ``dirs`` in ``refine_steps`` steps;
    c attains the value.

    Each start moves along the tangential part of its gradient by a step
    halved from 0.5 at most ``BACKTRACK_CAP`` times, accepts only a strict
    improvement (so the value is monotone in ``refine_steps``) and stops once
    none improves or its tangent vanishes.  The starts move in lockstep: one
    stacked ``eigvalsh`` per block of trials, one stacked ``eigh`` per step."""
    values = sign * _eigensolve(_combinations(dirs, mats), False)[:, -1]
    order = np.argsort(values)[::-1]
    best_value, best_dir = values[order[0]], dirs[order[0]]
    C = dirs[order[:starts]] / np.sqrt(_row_dots(dirs, dirs))[order[:starts], None]
    value, grad = _tops_and_gradients(mats, C, sign)
    moving = np.arange(len(C))
    for _ in range(max(refine_steps, 0)):
        tangent = grad[moving] - _row_dots(C[moving], grad[moving])[:, None] * C[moving]
        tnorm = np.sqrt(_row_dots(tangent, tangent))
        live = tnorm >= 1e-14
        moving, tangent, tnorm = moving[live], tangent[live], tnorm[live, None, None]

        def trials(rows, steps):
            points = C[moving[rows], None] + steps[..., None] * tangent[rows, None] / tnorm[rows]
            return points / np.sqrt(_row_dots(points, points))[..., None]

        step = _first_improving_steps(
            lambda rows, steps: sign * _eigensolve(
                _combinations(trials(rows, steps), mats), False)[..., -1],
            value[moving], BACKTRACK_CAP)
        accepted = np.flatnonzero(step > 0)
        if not accepted.size:
            break
        C[moving[accepted]] = trials(accepted, step[accepted, None])[:, 0]
        moving = moving[accepted]
        value[moving], grad[moving] = _tops_and_gradients(mats, C[moving], sign)
    k = int(np.argmax(value))
    if value[k] > best_value:
        best_value, best_dir = value[k], C[k]
    return sign * float(best_value), best_dir
