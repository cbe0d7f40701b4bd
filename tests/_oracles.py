"""Independent oracles used to freeze expected values.

These deliberately avoid the library's Hermitian eigensolver path:
characteristic polynomials come from trace arithmetic (Faddeev-LeVerrier),
roots from the companion matrix of the polynomial, and small homogeneous
systems from explicit elimination-free reasoning coded as dense SVD of
hand-assembled matrices.  The ``loop_criterion_*`` references are the
acceptance criteria as they ran before their samples were stacked, library
calls included.
"""

import numpy as np

from freespec.acceptance import AGREEMENT_BAND, _boundary_rich_scales, _random_hermitian_batch
from freespec.ballsets import matrix_ball_membership, selfdual_ball_membership
from freespec.duality import FullSpanBasis, batched_choi_min_eigenvalues, dual_pencil
from freespec.errors import ConstructionError, DimensionError, ParameterError
from freespec.linalg import (DEFAULT_TOL, HermitianTuple, SingularFactor,
                             hermitian_eigen, random_orthogonal)
from freespec.pencil import (Pencil, band_verdict, batched_linear_part, linear_part, membership,
                             tuple_mats)
from freespec.spin import anticommutation_residual, pauli_tuple, spin_tuple


def charpoly_coefficients(M):
    """Monic characteristic polynomial coefficients (descending powers) via
    Faddeev-LeVerrier trace recursion; pure matrix arithmetic."""
    n = M.shape[0]
    coeffs = np.zeros(n + 1, dtype=complex)
    coeffs[0] = 1.0
    Mk = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        Mk = M @ Mk
        coeffs[k] = -np.trace(Mk) / k
        if k < n:
            Mk = Mk + coeffs[k] * np.eye(n)
    return coeffs


def eigenvalues_by_charpoly(M):
    """Eigenvalues as roots of the characteristic polynomial (companion
    matrix path, not the Hermitian QR path).  Accurate to ~1e-4 at
    multiple roots; use for coarse cross-checks only."""
    return np.sort(np.roots(charpoly_coefficients(M)).real)


def charpoly_values_at(M, points):
    """Evaluate the characteristic polynomial at given points."""
    coeffs = charpoly_coefficients(M)
    return np.array([np.polyval(coeffs, t) for t in points])


def singular_values_2x2(M):
    """Closed-form singular values of a 2x2 matrix."""
    a = M.conj().T @ M
    tr = a[0, 0].real + a[1, 1].real
    det = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]).real
    disc = max(tr * tr / 4.0 - det, 0.0)
    lo = max(tr / 2.0 - np.sqrt(disc), 0.0)
    hi = tr / 2.0 + np.sqrt(disc)
    return np.sqrt(lo), np.sqrt(hi)


def pauli_commutant_system():
    """The 12 x 4 homogeneous system for matrices commuting with the
    anticommuting 2x2 triple, assembled entry by entry (unknowns a, b, c, d
    of C = [[a, b], [c, d]])."""
    P1 = np.array([[1, 0], [0, -1]], complex)
    P2 = np.array([[0, 1], [1, 0]], complex)
    P3 = np.array([[0, 1j], [-1j, 0]], complex)
    rows = []
    for P in (P1, P2, P3):
        # C P - P C = 0, flattened row-major in (a, b, c, d).
        for r in range(2):
            for c in range(2):
                row = np.zeros(4, complex)
                for k in range(2):
                    row[r * 2 + k] += P[k, c]       # (C P)[r, c]
                    row[k * 2 + c] -= P[r, k]       # (P C)[r, c]
                rows.append(row)
    return np.array(rows)


# --- Reference implementations of the certification layer ------------------
# The library assembles these systems without Kronecker products, solves the
# commutant in complex arithmetic and computes the step length in closed
# form; the versions below do it the slow, explicit way and serve as the
# references the tests compare against.

def full_svd_nullity(M, rank_tol=1e-8):
    """Nullity and smallest retained singular value from one full SVD,
    with the library's relative cutoff (reference scale floored at 1)."""
    m, n = M.shape
    s = np.linalg.svd(M, compute_uv=False)
    cutoff = rank_tol * max(s[0], 1.0)
    nullity = int(n - min(m, n) + np.sum(s <= cutoff))
    retained = s[s > cutoff]
    return nullity, (float(retained.min()) if retained.size else np.inf)


def nullspace(M, tol=DEFAULT_TOL):
    """Orthonormal basis of the numerical nullspace of ``M``, the tests'
    reference kernel: :class:`~freespec.linalg.SingularFactor`'s kernel with
    its rank cutoff, plus the empty shapes (no unknowns: the empty basis; no
    equations: every unknown is free)."""
    arr = np.asarray(M)
    if arr.ndim != 2:
        raise DimensionError(f"expected a matrix, got ndim {arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ParameterError("matrix contains NaN or Inf entries")
    m, n = arr.shape
    if n == 0:
        return np.zeros((0, 0), dtype=arr.dtype)
    if m == 0:
        return np.eye(n, dtype=arr.dtype)
    return SingularFactor(arr, tol).kernel()


def direct_sum(tuples):
    """Coordinatewise block-diagonal direct sum of Hermitian tuples."""
    parts = [t if isinstance(t, HermitianTuple) else HermitianTuple(t) for t in tuples]
    if not parts:
        raise DimensionError("direct_sum of an empty collection")
    g = parts[0].g
    for t in parts:
        if t.g != g:
            raise DimensionError(f"tuple lengths differ: {t.g} vs {g}")
    n = sum(t.n for t in parts)
    out = np.zeros((g, n, n), dtype=complex)
    offset = 0
    for t in parts:
        out[:, offset:offset + t.n, offset:offset + t.n] = t.mats
        offset += t.n
    return HermitianTuple(out)


def hermitian_basis_loops(n):
    out = np.zeros((n * n, n, n), dtype=complex)
    idx = 0
    for j in range(n):
        out[idx, j, j] = 1.0
        idx += 1
    r = 1.0 / np.sqrt(2.0)
    for j in range(n):
        for k in range(j + 1, n):
            out[idx, j, k] = out[idx, k, j] = r
            out[idx + 1, j, k], out[idx + 1, k, j] = 1j * r, -1j * r
            idx += 2
    return out


def hermitian_product_system(P):
    """Real matrix of the real-linear map ``beta -> sum_i P_i beta_i^T``,
    assembled at full size: the reference for the library's projected copy
    of the Hermitian-direction system's adjoint, which has the same singular
    values.

    ``P`` is a (g, m, n) stack and ``beta`` a g-tuple of Hermitian n x n
    matrices in the coordinates of ``freespec.linalg.hermitian_from_coordinates``.
    Rows are the real parts of the m x n image in row-major order, then its
    imaginary parts; columns are ordered (i, coordinate).  Every basis
    matrix has at most two nonzero entries, so the columns are scattered
    copies of columns of P, with no product formed.
    """
    P = np.asarray(P)
    g, m, n = P.shape
    Pq = P.transpose(2, 1, 0)  # Pq[q] is column q of every P_i, as (m, g)
    diag = np.arange(n)
    j, k = np.triu_indices(n, 1)
    re = n + 2 * np.arange(len(j))
    half = np.sqrt(0.5)
    out = np.zeros((2, m, n, g, n * n))
    # Column p of P_i H^T is sum_q H[p, q] P_i[:, q]: E_jj gives column j
    # at p = j; (E_jk + E_kj)/sqrt2 and i(E_jk - E_kj)/sqrt2 give columns
    # j and k, at p = k and p = j.
    for p, s, values in ((diag, diag, Pq),
                         (k, re, half * Pq[j]), (j, re, half * Pq[k]),
                         (k, re + 1, -1j * half * Pq[j]), (j, re + 1, 1j * half * Pq[k])):
        out[0][:, p, :, s] = values.real
        out[1][:, p, :, s] = values.imag
    return out.reshape(2 * m * n, g * n * n)


def kron_hermitian_system(A, X, K, rank_tol=1e-8):
    """(nullity, smallest retained) of the Hermitian direction system: one
    column per coordinate i and Hermitian basis matrix H, holding the real
    and imaginary parts of (A_i kron H) K, built with explicit np.kron."""
    n = X.shape[1]
    cols = []
    for Ai in A:
        for H in hermitian_basis_loops(n):
            v = (np.kron(Ai, H) @ K).ravel()
            cols.append(np.concatenate([v.real, v.imag]))
    return full_svd_nullity(np.array(cols).T, rank_tol)


def realified_commutant_dimension(X, rank_tol=1e-8):
    """Complex dimension of {C : C X_i = X_i C} from the realified
    column-major Kronecker system (half the real nullity)."""
    n = X.shape[1]
    eye = np.eye(n)
    system = np.vstack([np.kron(Xi.T, eye) - np.kron(eye, Xi) for Xi in X])
    realified = np.block([[system.real, -system.imag], [system.imag, system.real]])
    return full_svd_nullity(realified, rank_tol)[0] // 2


def range_step(A, beta, W, cap=1e6):
    """The two-sided step length 1 / max |eig(W* B W)|, B = sum_i A_i kron
    beta_i, capped at ``cap``: the full range problem that the library solves
    as a d x d one for a rank-one direction."""
    B = sum(np.kron(Ai, bi) for Ai, bi in zip(A, beta))
    top = np.abs(np.linalg.eigvalsh(W.conj().T @ B @ W)).max()
    return cap if top * cap <= 1.0 else 1.0 / top


def bisection_perturbation_range(A, X, beta, psd_tol=1e-9, cap=1e6):
    """Largest alpha with X +/- alpha beta both inside the free spectrahedron
    of A (minimum eigenvalue of I - sum A_i kron X_i at least -psd_tol),
    by doubling and then 60 bisection steps."""
    d, n = A.shape[1], X.shape[1]

    def feasible(alpha):
        for sign in (1.0, -1.0):
            Y = X + sign * alpha * beta
            L = np.eye(d * n) - sum(np.kron(Ai, Yi) for Ai, Yi in zip(A, Y))
            if np.linalg.eigvalsh(L)[0] < -psd_tol:
                return False
        return True

    lo, hi = 0.0, 1e-3
    while feasible(hi) and hi < cap:
        lo, hi = hi, 2.0 * hi
    if hi >= cap:
        return cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _kron_pencil_value(A, X):
    return np.eye(A.shape[1] * X.shape[1]) - sum(np.kron(Ai, Xi) for Ai, Xi in zip(A, X))


def _one_row_dilation(X, beta, alpha):
    g, n = beta.shape
    Y = np.zeros((g, n + 1, n + 1), dtype=complex)
    Y[:, :n, :n] = X
    Y[:, :n, n] = alpha * beta
    Y[:, n, :n] = alpha * beta.conj()
    return Y


def bisection_dilation_scale(A, X, beta, psd_tol=1e-9, cap=1e6):
    """Largest alpha with the one-row dilation [[X_i, alpha beta_i],
    [alpha beta_i*, 0]] inside the free spectrahedron of A, by doubling from
    1 and then 80 bisection steps on the minimum eigenvalue."""
    def feasible(alpha):
        L = _kron_pencil_value(A, _one_row_dilation(X, beta, alpha))
        return np.linalg.eigvalsh(L)[0] >= -psd_tol

    lo, hi = 0.0, 1.0
    while feasible(hi) and hi < cap:
        lo, hi = hi, 2.0 * hi
    if hi >= cap:
        return cap
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo


def realify(M):
    return np.block([[M.real, -M.imag], [M.imag, M.real]])


def realified_column_system(A, K, n, rank_tol=1e-8):
    """(complex nullity, smallest retained) of the one-column dilation
    system K* (sum_i A_i kron beta_i) = 0, which is complex-linear in
    conj(beta): one column per unknown beta_i[q], assembled with np.kron
    and solved as a real system of twice the size (half its nullity)."""
    cols = []
    for Ai in A:
        for q in range(n):
            unit = np.zeros((n, 1))
            unit[q] = 1.0
            cols.append((K.conj().T @ np.kron(Ai, unit)).conj().ravel())
    nullity, smallest = full_svd_nullity(realify(np.array(cols).T), rank_tol)
    return nullity // 2, smallest


def complement_space_ball_arveson(X, rank_tol=1e-8, psd_tol=1e-9):
    """Arveson test inside the matrix ball {sum_i X_i^2 <= I} on the
    complement of V, the eigenspace where S = sum_i X_i^2 acts as the
    identity: the point is extreme when V is everything (the flat branch)
    or when no nonzero tuple w_j of vectors orthogonal to V solves
    P_V sum_j X_j w_j = 0 (a realified system).  Otherwise a solution is
    scaled by halving until the one-row dilation is in the ball.  Returns
    (arveson_extreme, flat_branch, nullity, dilation or None)."""
    g, n, _ = X.shape
    w, vecs = np.linalg.eigh(np.einsum("iab,ibc->ac", X, X))
    gap = 1.0 - w
    flat = gap <= rank_tol * max(float(np.abs(gap).max()), 1.0)
    if flat.all():
        return True, True, 0, None
    V, W = vecs[:, flat], vecs[:, ~flat]
    m = W.shape[1]
    if not flat.any():
        coords = np.zeros((g, m), dtype=complex)
        coords[0, 0] = 1.0
        nullity = g * m
    else:
        real = realify(np.hstack([V.conj().T @ Xj @ W for Xj in X]))
        s, vh = np.linalg.svd(real)[1:]
        cutoff = rank_tol * max(s[0], 1.0)
        nullity = (real.shape[1] - int(np.sum(s > cutoff))) // 2
        if nullity == 0:
            return True, False, 0, None
        vec = vh[-1, :g * m] + 1j * vh[-1, g * m:]
        coords = vec.reshape(g, m)
    cols = np.einsum("ns,is->in", W, coords)
    cols = cols / np.linalg.norm(cols)
    eps = 1.0
    for _ in range(80):
        Y = _one_row_dilation(X, cols, eps)
        if np.linalg.eigvalsh(np.einsum("iab,ibc->ac", Y, Y))[-1] <= 1.0 + psd_tol:
            return False, False, nullity, Y
        eps *= 0.5
    raise AssertionError("no halving scaled the dilation into the matrix ball")


def _random_hermitian(rng, n, scale):
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (G + G.conj().T)


def loop_witness_search(A, keep, X, restarts=8, iters=60, seed=0, psd_tol=1e-9):
    """Hidden-coordinate search for drop membership, one trial at a time:
    each backtracking halving of the step (from 0.5, at most 30) rebuilds
    the np.kron pencil value and takes its eigh, and the gradient is a
    double loop over the bottom eigenvectors and hidden coordinates.
    Returns (found, restarts_used, best_infeasibility, hidden tuple or
    None); found means the final minimum eigenvalue is at least -psd_tol."""
    g, n = keep, X.shape[1]
    h, d = A.shape[0], A.shape[1]
    rng = np.random.default_rng(seed)

    def bottom_eig_and_grad(Y):
        w, V = np.linalg.eigh(_kron_pencil_value(A, np.concatenate([X, Y])))
        bottom = w[0]
        mult = int(np.sum(w <= bottom + 1e-10 * max(abs(bottom), 1.0)))
        grads = np.zeros((h - g, n, n), dtype=complex)
        for r in range(mult):
            Vm = V[:, r].reshape(d, n)
            for j in range(h - g):
                grads[j] -= (Vm.conj().T @ A[g + j] @ Vm).conj() / mult
        return bottom, 0.5 * (grads + grads.conj().transpose(0, 2, 1))

    best = -np.inf
    used = 0
    for restart in range(max(restarts, 1)):
        used = restart + 1
        if restart == 0:
            Y = np.zeros((h - g, n, n), dtype=complex)
        else:
            scale = 0.5 * restart / max(restarts - 1, 1)
            Y = np.array([_random_hermitian(rng, n, scale) for _ in range(h - g)])
        value, grads = bottom_eig_and_grad(Y)
        best = max(best, value)
        for _ in range(iters):
            if value >= -psd_tol:
                break
            improved = False
            trial_step = 0.5
            for _ in range(30):
                Yt = Y + trial_step * grads
                cand, cand_grads = bottom_eig_and_grad(Yt)
                if cand > value:
                    Y, value, grads = Yt, cand, cand_grads
                    improved = True
                    break
                trial_step *= 0.5
            best = max(best, value)
            if not improved:
                break
        if value >= -psd_tol:
            final = np.linalg.eigvalsh(_kron_pencil_value(A, np.concatenate([X, Y])))[0]
            if final >= -psd_tol:
                return True, used, 0.0, Y
    return False, used, float(-best), None


def loop_polar_refute(samples, X, psd_tol=1e-9):
    """First (index, largest eigenvalue) of sum_i Y_i kron X_i above
    1 + psd_tol over the samples Y, one np.kron pairing and eigh at a time;
    None when no sample exceeds it."""
    for idx, Y in enumerate(samples):
        pairing = sum(np.kron(Yi, Xi) for Yi, Xi in zip(Y, X))
        top = np.linalg.eigh(pairing)[0][-1]
        if top > 1.0 + psd_tol:
            return idx, float(top)
    return None


def loop_unit_sphere_grid(rng, dim, count):
    """The direction grid one Gaussian row at a time: every +/- axis, then
    each draw of norm at least 1e-12, normalised, and its antipode, up to
    ``count`` rows."""
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


BACKTRACK_CAP = 40


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


def ascend_on_sphere(value_and_grad, start, steps):
    """Maximize ``value(c)`` over unit vectors by projected gradient ascent,
    one start and one objective call per trial: the tangential part of the
    ambient gradient, a step halved from 0.5 at most ``BACKTRACK_CAP`` times
    per iteration, and only strict improvements accepted."""
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


def loop_sup_over_sphere(value_and_grad, dirs, refine_steps, starts=4, values=None):
    """The sphere search one start at a time: the grid scored by ``values``
    (by default one objective call per direction), then an ascent from each
    of the ``starts`` best directions in turn."""
    if values is None:
        values = np.array([value_and_grad(c)[0] for c in dirs])
    order = np.argsort(values)[::-1]
    best_value, best_dir = values[order[0]], dirs[order[0]]
    for idx in order[:starts]:
        value, c = ascend_on_sphere(value_and_grad, dirs[idx], refine_steps)
        if value > best_value:
            best_value, best_dir = value, c
    return float(best_value), best_dir


def loop_top_eigenvalue_extremum(mats, dirs, refine_steps, sign, starts=4):
    """``sphere.top_eigenvalue_extremum`` before its starts moved in lockstep:
    the grid scored by one stacked eigvalsh, then each start's ascent alone,
    with one eigh per trial."""
    def value_and_grad(c):
        top, grad = top_eigenvalue_gradient(mats, c)
        return sign * top, sign * grad

    scores = sign * np.linalg.eigvalsh(np.einsum("ki,iab->kab", dirs, mats))[:, -1]
    value, c = loop_sup_over_sphere(value_and_grad, dirs, refine_steps, starts, scores)
    return sign * value, c


def loop_non_selfdual_check(A, B, psd_tol=1e-9, directions=512, seed=0):
    """The level-1 self-duality search one draw, one eigvalsh and one pair
    at a time.  With the dual pencil B of a full-span A: the first trial
    whose primal and dual radii differ, as (trial, witness), or None.
    Without it (B None): the first best pairing of primal boundary points,
    as (value, x, y), or None when there are none."""
    rng = np.random.default_rng(seed)
    boundary = []
    for trial in range(directions):
        c = rng.normal(size=A.shape[0])
        c /= np.linalg.norm(c)
        top_a = float(np.linalg.eigvalsh(np.einsum("i,iab->ab", c, A))[-1])
        if B is None:
            if top_a > psd_tol:
                boundary.append(c / top_a)
            continue
        top_b = float(np.linalg.eigvalsh(np.einsum("i,iab->ab", c, B))[-1])
        if top_a <= psd_tol or top_b <= psd_tol:
            continue
        r_primal, r_dual = 1.0 / top_a, 1.0 / top_b
        if abs(r_primal - r_dual) > 1e-6 * (r_primal + r_dual):
            return trial, c * 0.5 * (r_primal + r_dual)
    best = None
    for i, x in enumerate(boundary):
        for y in boundary[i:]:
            if best is None or float(np.dot(x, y)) > best[0]:
                best = (float(np.dot(x, y)), x, y)
    return best


def nested_list_payload(mats, hermitian=True, comment=None):
    """The tuple-file JSON object built entry by entry, each entry an
    [re, im] pair of Python floats with signed zeros canonicalized."""
    g, n, _ = mats.shape
    payload = {"format_version": "1", "size": int(n), "length": int(g),
               "hermitian": bool(hermitian)}
    if comment is not None:
        payload["comment"] = str(comment)
    payload["matrices"] = [
        [[[float(mats[i, r, c].real) + 0.0, float(mats[i, r, c].imag) + 0.0]
          for c in range(n)]
         for r in range(n)]
        for i in range(g)
    ]
    return payload


# --- Test-only constructions ------------------------------------------------
# Seeded inputs and one exact reference that no command of the package runs.

def random_unitary(rng, n):
    """Haar-ish unitary via QR of a complex Gaussian matrix."""
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def gell_mann_tuple(d):
    """Standard traceless Hermitian basis of the d x d matrices
    (a full-span tuple of length d*d - 1)."""
    if d < 2:
        raise ParameterError(f"need size d >= 2, got {d}")
    mats = []
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = 1.0
            E[j, i] = 1.0
            mats.append(E)
            E = np.zeros((d, d), dtype=complex)
            E[i, j] = -1.0j
            E[j, i] = 1.0j
            mats.append(E)
    for k in range(1, d):
        E = np.zeros((d, d), dtype=complex)
        for i in range(k):
            E[i, i] = 1.0
        E[k, k] = -float(k)
        mats.append(E * np.sqrt(2.0 / (k * (k + 1))))
    return HermitianTuple(np.array(mats))


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
    verdict's ``witness`` either way.  This is the reference the diagonal
    pencil's ``membership`` is checked against.
    """
    Xm = tuple_mats(X)
    g = simplex.g
    if Xm.shape[0] != g:
        raise DimensionError(f"point has length {Xm.shape[0]}, simplex lives in {g}")
    n = Xm.shape[1]
    stacked = np.concatenate([Xm, np.eye(n, dtype=complex)[None]], axis=0)
    Q = np.einsum("ij,jab->iab", simplex._inverse, stacked)
    Q = 0.5 * (Q + Q.conj().transpose(0, 2, 1))
    Q.setflags(write=False)
    return band_verdict(float(np.linalg.eigvalsh(Q)[:, 0].min()), tol, Q)


def orthogonal_transform(U, X):
    """Rotate a tuple by a real orthogonal matrix: entry j becomes
    ``sum_k U[j, k] X_k``."""
    U = np.asarray(U, dtype=float)
    Xm = X.mats if isinstance(X, HermitianTuple) else HermitianTuple(X).mats
    g = Xm.shape[0]
    if U.shape != (g, g):
        raise ParameterError(f"expected a {g}x{g} orthogonal matrix, got {U.shape}")
    if np.abs(U @ U.T - np.eye(g)).max() > 1e-10:
        raise ParameterError("matrix is not orthogonal within 1e-10")
    return HermitianTuple(np.einsum("jk,kab->jab", U, Xm))


def loop_criterion_4(tol=DEFAULT_TOL, seed=0):
    """``(details, samples)`` of acceptance criterion 4 with its conjugation
    identity checked one np.kron product at a time; ``samples`` are its
    five boundary-scaled stacks."""
    rng = np.random.default_rng(seed + 4)
    P = pauli_tuple()
    Pm = P.mats
    basis = FullSpanBasis(P, tol)
    disagreements = 0
    compared = 0
    per_size = 2500
    samples = []
    for n in (1, 2, 3, 4):
        X = _random_hermitian_batch(rng, per_size, 3, n)
        lam = batched_linear_part(Pm, X)
        top = np.linalg.eigvalsh(lam)[:, -1]
        scale = np.where(top > tol.psd_tol, 1.0 / np.maximum(top, tol.psd_tol), 1.0)
        X = X * (scale * _boundary_rich_scales(rng, per_size))[:, None, None, None]
        samples.append(X)
        pencil_min = np.linalg.eigvalsh(np.eye(2 * n)[None] - batched_linear_part(Pm, X))[:, 0]
        choi_min = batched_choi_min_eigenvalues(basis, X)
        outside = np.abs(pencil_min) > AGREEMENT_BAND
        member_p = pencil_min >= -tol.psd_tol
        member_c = choi_min >= -tol.psd_tol
        disagreements += int(np.sum(member_p[outside] != member_c[outside]))
        compared += int(np.sum(outside))
    conj_worst = 0.0
    for _ in range(1000):
        n = 2
        X = _random_hermitian_batch(rng, 1, 3, n)[0]
        twisted = (np.kron(np.eye(2), np.eye(n))
                   + np.kron(Pm[0], X[0]) + np.kron(Pm[1], X[1])
                   - np.kron(Pm[2], X[2]))
        swap_n = np.kron(Pm[2], np.eye(n))
        lhs = swap_n @ twisted @ swap_n
        rhs = np.eye(2 * n) - linear_part(P, HermitianTuple(X))
        conj_worst = max(conj_worst, float(np.abs(lhs - rhs).max()))
    B = dual_pencil(basis, tol)
    X = _random_hermitian_batch(rng, 1000, 3, 2)
    lam = batched_linear_part(Pm, X)
    top = np.linalg.eigvalsh(lam)[:, -1]
    scale = np.where(top > tol.psd_tol, 1.0 / np.maximum(top, tol.psd_tol), 1.0)
    X = X * (scale * _boundary_rich_scales(rng, 1000))[:, None, None, None]
    samples.append(X)
    min_p = np.linalg.eigvalsh(np.eye(4)[None] - batched_linear_part(Pm, X))[:, 0]
    min_b = np.linalg.eigvalsh(np.eye(4)[None] - batched_linear_part(B.mats, X))[:, 0]
    dual_disagreements = int(np.sum((min_p >= -tol.psd_tol) != (min_b >= -tol.psd_tol)))
    return {"samples": 4 * per_size, "compared_outside_band": compared,
            "disagreements": disagreements,
            "conjugation_identity_worst": conj_worst,
            "dual_pencil_disagreements": dual_disagreements}, samples


def loop_criterion_6(tol=DEFAULT_TOL, seed=0):
    """``(details, samples)`` of acceptance criterion 6, one rotation,
    residual and pair of membership verdicts per sample; ``samples`` are the
    scaled points."""
    rng = np.random.default_rng(seed + 6)
    samples = []
    worst_residual = 0.0
    worst_drift = 0.0
    verdict_flips = 0
    for g in (2, 3, 4, 5):
        F = spin_tuple(g)
        pencil = Pencil(F)
        for _ in range(100):
            U = random_orthogonal(rng, g)
            UF = orthogonal_transform(U, F)
            worst_residual = max(worst_residual, anticommutation_residual(UF))
            n = int(rng.integers(1, 4))
            X = _random_hermitian_batch(rng, 1, g, n)[0]
            lam_top = float(hermitian_eigen(linear_part(F, HermitianTuple(X)), tol)[0][-1])
            if lam_top > tol.psd_tol:
                X = X / lam_top * float(rng.choice([0.5, 0.95, 1.0, 1.05]))
            samples.append(X)
            point = HermitianTuple(X)
            rotated = orthogonal_transform(U, point)
            before = membership(pencil, point, tol)
            after = membership(pencil, rotated, tol)
            if before.member != after.member:
                verdict_flips += 1
            worst_drift = max(worst_drift,
                              abs(before.margin - after.margin))
    return {"worst_anticommutation_residual": worst_residual,
            "worst_margin_drift": worst_drift,
            "verdict_flips": verdict_flips}, samples


def loop_criterion_7(tol=DEFAULT_TOL, seed=0):
    """``(details, samples)`` of acceptance criterion 7, two ball
    memberships per sample; ``samples`` are the scaled points."""
    rng = np.random.default_rng(seed + 7)
    samples = []
    failures = 0
    details = {}
    for g in (2, 3, 4):
        F = spin_tuple(g)
        Fm = F.mats
        for _ in range(1000):
            n = int(rng.integers(1, 4))
            X = _random_hermitian_batch(rng, 1, g, n)[0]
            top = float(np.linalg.eigvalsh(
                batched_linear_part(Fm, X[None])[0])[-1])
            if top > tol.psd_tol:
                X = X / top * float(rng.choice([0.3, 0.8, 1.0]))
            samples.append(X)
            point = HermitianTuple(X)
            if not matrix_ball_membership(point, tol).member:
                failures += 1
            if not selfdual_ball_membership(point, tol).member:
                failures += 1
        witness = HermitianTuple(Fm / np.sqrt(g))
        ball = matrix_ball_membership(witness, tol)
        top = float(hermitian_eigen(linear_part(F, witness), tol)[0][-1])
        details[f"g{g}_witness_ball_margin"] = ball.margin
        details[f"g{g}_witness_pencil_top"] = top
        if not (ball.member and abs(ball.margin) <= 1e-10):
            failures += 1
        if abs(top - np.sqrt(g)) > 1e-9:
            failures += 1
    details["violations"] = failures
    return details, samples


def haar_conjugated_sum(rng, parts):
    """U* (P_1 (+) ... (+) P_k) U for a seeded Haar unitary U: a tuple that is
    reducible only up to a unitary no code knows."""
    X = direct_sum(parts).mats
    U = random_unitary(rng, X.shape[1])
    return HermitianTuple(np.einsum("ba,ibc,cd->iad", U.conj(), X, U))


def equivalent_blocks(B, C, rank_tol=1e-8):
    """Whether the irreducible tuples B and C are unitarily equivalent: by
    Schur's lemma the dense realified commutant of B (+) C is then a 2 x 2
    matrix algebra (dimension 4), else the diagonal scalars (dimension 2)."""
    return realified_commutant_dimension(direct_sum([B, C]).mats, rank_tol) == 4


def tilting_eigh(side, eigh=np.linalg.eigh):
    """A broken ``np.linalg.eigh``: on a matrix of the given side, or on
    each of a stack of them, the first eigenvector (a kernel column at a
    boundary point) is tilted by 1e-3 radians toward the last (the top of
    the range)."""
    def tilted(a, *args, **kwargs):
        w, V = eigh(a, *args, **kwargs)
        if np.shape(a)[-1] == side:
            V = V.copy()
            V[..., :, 0] = np.cos(1e-3) * V[..., :, 0] + np.sin(1e-3) * V[..., :, -1]
        return w, V
    return tilted
