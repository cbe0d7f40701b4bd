"""The one level-1 direction search, :func:`top_eigenvalue_extremum`: the
supremum or infimum over unit c of the top eigenvalue of ``sum_i c_i M_i``.

Each one-sided search hands it a Hermitian stack M and a sign: ``wmax`` the
point (+1); ``qd`` the dilations ``[[0, T_i], [T_i*, 0]]`` and
``[[0, i T_i], [-i T_i*, 0]]`` on the real sphere in 2g coordinates (+1);
the level-1 hull of generators G_j at y, ``(+)_j G_ji - y_i I`` (-1); the
boundedness heuristic the pencil's coefficients (-1).  A grid is scored by
one stacked eigensolve, then ascended from its best few directions.  Only
refutations produced by these searches are treated as certificates; an
ascent that fails to escape a value proves nothing.
"""

import numpy as np

from .linalg import _eigensolve, check_dense_side

BACKTRACK_CAP = 40


def unit_sphere_grid(rng, dim, count):
    """Every +/- coordinate axis plus antipodally paired Gaussian draws up to
    ``count``: shape (max(count, 2 dim), dim), refused if 2 dim exceeds the dense bound."""
    check_dense_side(2 * dim, f"direction grid ({dim} coordinates)")
    eye = np.eye(dim)
    dirs = [axis for i in range(dim) for axis in (eye[i], -eye[i])]
    while len(dirs) < count:
        c = rng.normal(size=dim)
        nrm = np.linalg.norm(c)
        if nrm < 1e-12:
            continue
        c = c / nrm
        dirs.append(c)
        if len(dirs) < count:
            dirs.append(-c)
    return np.array(dirs)


def top_eigenvalues(mats, dirs):
    """Top eigenvalue of ``sum_i c_i mats_i`` for each row c of ``dirs``,
    from one stacked eigensolve.  Real combinations of a Hermitian stack are
    Hermitian by construction, so the solve is not checked."""
    return _eigensolve(np.einsum("ki,iab->kab", dirs, mats), False)[:, -1]


def top_eigenvalue_gradient(mats, c):
    """Top eigenvalue of ``sum_i c_i mats_i`` for a real c and a (g, m, m)
    Hermitian stack, with its gradient in c: the Rayleigh quotient of each
    ``mats_i``, averaged over the top eigenspace (the eigenvalues within
    ``1e-8 * max(|top|, 1)`` of the top) when it is degenerate.  The solve is
    unchecked, as in :func:`top_eigenvalues`: on the 9 x 9 and smaller sums
    of the 8016 calls a ``verify-paper`` makes, a check adds 50-130 % to a solve."""
    w, V = _eigensolve(np.tensordot(c, mats, axes=1), True)
    top = w[-1]
    vecs = V[:, w >= top - 1e-8 * max(abs(top), 1.0)]
    grad = np.einsum("as,iab,bs->i", vecs.conj(), mats, vecs).real / vecs.shape[1]
    return top, grad


def ascend_on_sphere(value_and_grad, start, steps):
    """Maximize ``value(c)`` over unit vectors by projected gradient ascent.

    ``value_and_grad(c)`` must return ``(value, gradient)`` with the
    gradient taken in the ambient space; the tangential component is used.
    Backtracking halves the step from 0.5 at most ``BACKTRACK_CAP`` times
    per iteration; only strict improvements are accepted, so the returned
    value is monotone in ``steps``.
    """
    c = np.asarray(start)
    c = c / np.linalg.norm(c)
    value, grad = value_and_grad(c)
    for _ in range(max(steps, 0)):
        tangent = grad - np.real(np.vdot(c, grad)) * c
        tnorm = np.linalg.norm(tangent)
        if tnorm < 1e-14:
            break
        step = 0.5
        for _ in range(BACKTRACK_CAP):
            cand = c + step * tangent / tnorm
            cand = cand / np.linalg.norm(cand)
            cand_value, cand_grad = value_and_grad(cand)
            if cand_value > value:
                c, value, grad = cand, cand_value, cand_grad
                break
            step *= 0.5
        else:
            break
    return value, c


def sup_over_sphere(value_and_grad, dirs, values, refine_steps, starts=4):
    """Local ascent from the ``starts`` best of the scored directions
    (``values[k]`` is the objective at ``dirs[k]``).

    Returns ``(best_value, best_direction)``.
    """
    order = np.argsort(values)[::-1]
    best_value, best_dir = values[order[0]], dirs[order[0]]
    for idx in order[:starts]:
        value, c = ascend_on_sphere(value_and_grad, dirs[idx], refine_steps)
        if value > best_value:
            best_value, best_dir = value, c
    return float(best_value), best_dir


def top_eigenvalue_extremum(mats, dirs, refine_steps, sign, starts=4):
    """``(value, c)``: the supremum (``sign`` +1) or the infimum (``sign`` -1)
    over unit c of the top eigenvalue of ``sum_i c_i mats_i``, for a (g, m, m)
    Hermitian stack, as far as :func:`sup_over_sphere` finds it from the grid
    ``dirs`` and ``refine_steps`` ascent steps; c attains the value."""

    def value_and_grad(c):
        top, grad = top_eigenvalue_gradient(mats, c)
        return sign * top, sign * grad

    value, c = sup_over_sphere(value_and_grad, dirs, sign * top_eigenvalues(mats, dirs),
                               refine_steps, starts)
    return sign * value, c
