"""Projected-gradient ascent over the unit sphere, and the top-eigenvalue
objective most of its callers maximize.

Shared by the one-sided membership estimators (largest matrix convex set
over the ball, non-self-adjoint sets, level-1 hulls) and by the level-1
boundedness heuristic.  Only refutations produced by these searches are
treated as certificates; an ascent that fails to escape a value proves
nothing.
"""

import numpy as np

BACKTRACK_CAP = 40


def unit_sphere_grid(rng, dim, count, include_axes=True, complex_sphere=False):
    """Sampled unit directions: coordinate axes plus antipodally paired
    Gaussian draws.  Returns an array of shape (m, dim)."""
    dirs = []
    if include_axes:
        eye = np.eye(dim)
        for i in range(dim):
            dirs.append(eye[i])
            dirs.append(-eye[i])
    while len(dirs) < count:
        c = rng.normal(size=dim)
        if complex_sphere:
            c = c + 1j * rng.normal(size=dim)
        nrm = np.linalg.norm(c)
        if nrm < 1e-12:
            continue
        c = c / nrm
        dirs.append(c)
        if len(dirs) < count:
            dirs.append(-c)
    out = np.array(dirs[:max(count, len(dirs))])
    if complex_sphere:
        return out.astype(complex)
    return out


def top_eigenvalue_gradient(mats, c):
    """Top eigenvalue of ``sum_i c_i mats_i`` for a real c and a (g, m, m)
    Hermitian stack, with its gradient in c: the Rayleigh quotient of each
    ``mats_i``, averaged over the top eigenspace (the eigenvalues within
    ``1e-8 * max(|top|, 1)`` of the top) when it is degenerate."""
    w, V = np.linalg.eigh(np.tensordot(c, mats, axes=1))
    top = w[-1]
    vecs = V[:, w >= top - 1e-8 * max(abs(top), 1.0)]
    grad = np.einsum("as,iab,bs->i", vecs.conj(), mats, vecs).real / vecs.shape[1]
    return top, grad


def ascend_on_sphere(value_and_grad, start, steps, initial_step=0.5):
    """Maximize ``value(c)`` over unit vectors by projected gradient ascent.

    ``value_and_grad(c)`` must return ``(value, gradient)`` with the
    gradient taken in the ambient space; the tangential component is used.
    Backtracking halves the step at most ``BACKTRACK_CAP`` times per
    iteration; only strict improvements are accepted, so the returned value
    is monotone in ``steps``.
    """
    c = np.asarray(start)
    c = c / np.linalg.norm(c)
    value, grad = value_and_grad(c)
    for _ in range(max(steps, 0)):
        tangent = grad - np.real(np.vdot(c, grad)) * c
        tnorm = np.linalg.norm(tangent)
        if tnorm < 1e-14:
            break
        step = initial_step
        improved = False
        for _ in range(BACKTRACK_CAP):
            cand = c + step * tangent / tnorm
            cand = cand / np.linalg.norm(cand)
            cand_value, cand_grad = value_and_grad(cand)
            if cand_value > value:
                c, value, grad = cand, cand_value, cand_grad
                improved = True
                break
            step *= 0.5
        if not improved:
            break
    return value, c


def sup_over_sphere(value_and_grad, rng, dim, grid, refine_steps,
                    complex_sphere=False, top_starts=4):
    """Grid scan plus local ascent from the best starting points.

    Returns ``(best_value, best_direction)``.
    """
    dirs = unit_sphere_grid(rng, dim, grid, complex_sphere=complex_sphere)
    values = np.array([value_and_grad(c)[0] for c in dirs])
    order = np.argsort(values)[::-1]
    best_value = values[order[0]]
    best_dir = dirs[order[0]]
    for idx in order[:max(top_starts, 1)]:
        value, c = ascend_on_sphere(value_and_grad, dirs[idx], refine_steps)
        if value > best_value:
            best_value, best_dir = value, c
    return float(best_value), best_dir
