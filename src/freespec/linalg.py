"""Dense complex linear algebra substrate with explicit tolerance handling.

Everything downstream (pencil evaluation, certification systems, duality)
funnels through the handful of primitives in this module.  It is the only
module that calls a Hermitian eigensolver: :func:`hermitian_eigen` (one
matrix, with eigenvectors) and :func:`hermitian_eigvals` (a matrix or a
stack, eigenvalues only) check the input Hermitian by :func:`hermitian_part`
(by equality first: an exact input is used as it is) and share
``_eigensolve``, its retry on a shifted copy and its refusal of non-finite
eigenvalues.  Kernels come from :class:`SingularFactor`, with one relative
rank cutoff (:func:`kernel_mask`) read off the eigenvalues of a Hermitian
matrix or the singular values of any other.  The commutant of a Hermitian
tuple (:func:`_commutant_basis`) serves both the commutant of a point and
:func:`irreducible_blocks`, the split of a coefficient tuple into its
distinct irreducible blocks.  All values are immutable after construction
and all operations are pure, so they are safe to share across threads.
"""

import math
from dataclasses import dataclass, fields
from itertools import accumulate

import numpy as np

from .errors import DimensionError, NumericalError, ParameterError


@dataclass(frozen=True)
class ToleranceProfile:
    """Numerical tolerances threaded through every verdict.

    Attributes
    ----------
    hermitian_tol : float
        Maximum entrywise deviation ``||M - M*||_max`` accepted before a
        matrix is rejected as non-Hermitian.  Inputs within the tolerance
        are symmetrized.
    psd_tol : float
        Half-width of the positive-semidefiniteness boundary band: a point
        is a member when the minimum eigenvalue is >= -psd_tol and sits on
        the boundary when it is also <= psd_tol.
    rank_tol : float
        Relative singular-value cutoff (relative to the largest singular
        value) used for every rank/nullity decision.  It also bounds the
        residual ``||M K||_max`` of a computed kernel basis K, relative to
        ``max(||M||, 1)``.
    """

    hermitian_tol: float = 1e-12
    psd_tol: float = 1e-9
    rank_tol: float = 1e-8

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (value > 0.0 and np.isfinite(value)):
                raise ParameterError(f"{field.name} must be strictly positive, got {value!r}")


DEFAULT_TOL = ToleranceProfile()
# Largest side of a dense matrix the package builds: a complex matrix of this
# side takes 1 GB, one of twice the side 4 GB.
MAX_DENSE_SIDE = 8192
# Sides of the pencils that classify splits (pencil.pencil_split).  The split
# solves A's commutant, g d^2 equations: 25 ms at d = 16 (spin g = 5), 0.8 s at
# d = 32, beyond memory at d = 64.  At d = 4 it costs 0.4-0.8 ms once per Pencil
# and splits spin g = 3 into 2 + 2: a boundary classify then decides on two
# 2n-sided blocks, 0.3 ms faster at n = 14 and 5.3 against 11.2 ms at n = 48.
# At d <= 3 the blocks are 1 x 1 and L(X) at most 3n square: they stay whole.
SPLIT_SIDES = range(4, 17)


def check_dense_side(side, what):
    """Refuse, before it is built, a dense matrix whose side exceeds MAX_DENSE_SIDE."""
    if side > MAX_DENSE_SIDE:
        raise ParameterError(f"{what} of side {side} exceeds the dense bound {MAX_DENSE_SIDE}")


def as_matrix_tuple(matrices):
    """Validate a tuple of same-size square matrices (a list of matrices, a
    stack, a HermitianTuple); returns a read-only (g, n, n) complex copy.
    Entries need not be Hermitian (used for the non-self-adjoint sets)."""
    try:
        out = np.array(matrices, dtype=complex)
    except (TypeError, ValueError):  # ragged
        raise DimensionError("tuple members must be matrices of one shape") from None
    if out.shape[:1] == (0,):
        raise DimensionError("empty matrix tuple")
    if out.ndim != 3 or out.shape[1] != out.shape[2]:
        raise DimensionError(f"expected square matrices of one size, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ParameterError("matrix contains NaN or Inf entries")
    out.setflags(write=False)
    return out


def hermitian_part(M, hermitian_tol, what="matrix"):
    """``((M + M*)/2, |M - M*|_max)`` for a matrix or a stack of matrices; a
    deviation above ``hermitian_tol`` raises ``ParameterError``.  An M equal
    to M* (checked first, by equality) is returned as it is, at deviation 0."""
    adj = M.conj().swapaxes(-1, -2)
    if np.array_equal(M, adj):
        return M, 0.0
    deviation = float(np.abs(M - adj).max())
    if deviation > hermitian_tol:
        raise ParameterError(f"{what} deviates from Hermitian by {deviation:.3e} "
                             f"(tolerance {hermitian_tol:.3e})")
    return 0.5 * (M + adj), deviation


class HermitianTuple:
    """A g-tuple of n x n complex Hermitian matrices.

    Doubles as a pencil coefficient tuple and as an evaluation point.
    Inputs are symmetrized via ``(M + M*)/2``; the pre-symmetrization
    deviation is recorded and must not exceed ``hermitian_tol``.  A
    HermitianTuple input shares its matrices, at deviation 0.
    """

    __slots__ = ("mats", "hermitian_deviation")

    def __init__(self, matrices, hermitian_tol=DEFAULT_TOL.hermitian_tol):
        if isinstance(matrices, HermitianTuple):  # checked, exactly Hermitian and read-only
            self.mats, self.hermitian_deviation = matrices.mats, 0.0
            return
        self.mats, self.hermitian_deviation = hermitian_part(
            as_matrix_tuple(matrices), hermitian_tol, "tuple member")
        self.mats.setflags(write=False)

    def __array__(self, *args, **kwargs):
        """The (g, n, n) array, for ``np.array`` and ``np.asarray``."""
        return np.asarray(self.mats, *args, **kwargs)

    @property
    def g(self):
        return self.mats.shape[0]

    @property
    def n(self):
        return self.mats.shape[1]

    def __len__(self):
        return self.g

    def __getitem__(self, i):
        return self.mats[i]

    def __iter__(self):
        return iter(self.mats)

    def conj(self):
        """Entrywise complex conjugate (Hermitian-ness is preserved)."""
        return HermitianTuple(self.mats.conj())

    def scaled(self, s):
        return HermitianTuple(self.mats * float(s))

    def __repr__(self):
        return f"HermitianTuple(g={self.g}, n={self.n})"


def _eigensolve(sym, vectors):
    """``eigh`` (eigenvalues and eigenvectors) or ``eigvalsh`` (eigenvalues
    only, when ``vectors`` is false) of a Hermitian matrix or (N, m, m) stack,
    unchecked.  A LAPACK failure is retried once on each matrix M + tau I,
    tau = 1e-15 * max(|M|_F, 1), unless an entry is not finite (an overflow);
    a second one, or an eigenvalue that is not finite, raises
    ``NumericalError``.  The solver is looked up on ``np.linalg`` at each call."""
    solve = np.linalg.eigh if vectors else np.linalg.eigvalsh
    try:
        out, shift = solve(sym), 0.0
    except np.linalg.LinAlgError:
        if not np.isfinite(sym).all():
            raise NumericalError("Hermitian eigensolve of a matrix with non-finite entries")
        # eigh can fail on exactly Hermitian, tightly clustered matrices.
        shift = 1e-15 * np.maximum(np.linalg.norm(sym, axis=(-2, -1)), 1.0)[..., None]
        try:
            out = solve(sym + shift[..., None] * np.eye(sym.shape[-1]))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Hermitian eigensolve did not converge: {exc}") from exc
    w = (out[0] if vectors else out) - shift
    if not np.isfinite(w).all():
        raise NumericalError("Hermitian eigensolve returned non-finite eigenvalues")
    return (w, out[1]) if vectors else w


def hermitian_eigen(M, tol=DEFAULT_TOL):
    """``(eigenvalues, eigenvectors)`` of a square matrix M that is Hermitian
    within ``tol.hermitian_tol``: eigenvalues ascending, eigenvector columns
    unitary, with the retry and the ``NumericalError`` of :func:`_eigensolve`.
    """
    return _eigensolve(hermitian_part(as_matrix_tuple([M])[0], tol.hermitian_tol)[0], True)


def hermitian_eigvals(M, tol=DEFAULT_TOL):
    """Ascending eigenvalues of a matrix, or of each matrix of an (N, m, m)
    stack by one ``eigvalsh``, with the Hermitian check of
    :func:`hermitian_eigen` and the retry of :func:`_eigensolve`."""
    return _eigensolve(hermitian_part(M, tol.hermitian_tol)[0], False)


def size_groups(points):
    """``(indices, stack)`` for each size, ascending, among the arrays ``points``:
    where that size's points sit in the list, and their stack."""
    sizes = [X.shape[-1] for X in points]
    # sorted(set()) and not np.unique, whose first call imports numpy.ma.
    for n in sorted(set(sizes)):
        group = [i for i, size in enumerate(sizes) if size == n]
        yield group, np.array([points[i] for i in group])


def kernel_mask(s, tol=DEFAULT_TOL):
    """Which of the singular values ``s`` belong to the numerical kernel.

    A singular value is in the kernel when it is at most ``tol.rank_tol``
    times the largest one; the reference scale is floored at 1 so that
    numerically vanishing matrices (every entry at roundoff level) report
    a full kernel instead of an empty one.  All certification systems here
    are built from O(1)-normalized data, which makes that floor the correct
    reading of "numerical rank".  For a Hermitian matrix pass ``|w|`` of
    its eigenvalues ``w``: they are its singular values.
    """
    s = np.abs(s)
    return s <= tol.rank_tol * max(s.max(initial=0.0), 1.0)


class SingularFactor:
    """One factorization of a nonempty m x n matrix that answers every rank
    question about it.

    ``singular`` holds the singular values, descending; the columns of
    ``rows`` (n x min(m, n), orthonormal) are the matching right singular
    vectors; ``rank`` counts the singular values outside the cutoff of
    :func:`kernel_mask`.  The SVD is taken of a square min(m, n) factor: R
    of a QR of the matrix when it is tall, R of a QR of its adjoint when it
    is wide (then ``rows`` is Q times R's left singular vectors).  So no
    n x n unitary is formed for a wide matrix unless :meth:`kernel` is
    asked for.  Where LAPACK's gesdd fails on a finite factor (a 165 x 165
    column system of a dilation did), the SVD of its adjoint is read instead.
    """

    __slots__ = ("singular", "rows", "rank")

    def __init__(self, arr, tol=DEFAULT_TOL):
        m, n = arr.shape
        # Every SVD here is of a square matrix, so its factors are thin.
        if m < n:
            Q, square = np.linalg.qr(arr.conj().T)
        else:
            Q, square = None, np.linalg.qr(arr, mode="r") if m > n else arr
        try:
            u, s, vh = np.linalg.svd(square, full_matrices=False)
        except np.linalg.LinAlgError:
            a, s, b = np.linalg.svd(square.conj().T, full_matrices=False)
            u, vh = b.conj().T, a.conj().T
        self.singular, self.rows = s, vh.conj().T if Q is None else Q @ u
        self.rank = int(np.count_nonzero(~kernel_mask(s, tol)))

    @property
    def nullity(self):
        return self.rows.shape[0] - self.rank

    @property
    def smallest_retained(self):
        """Smallest singular value above the cutoff (``inf`` when none is)."""
        return float(self.singular[self.rank - 1]) if self.rank else np.inf

    def kernel(self):
        """Orthonormal kernel basis as columns, ordered by decreasing
        singular value: the discarded right singular vectors, then (wide
        matrices only) the complement of all of them."""
        n, r = self.rows.shape
        discarded = self.rows[:, self.rank:]
        if r == n:
            return discarded
        complement = np.linalg.qr(self.rows, mode="complete")[0][:, r:]
        return np.hstack([discarded, complement])

    def null_vector(self):
        """The last column of :meth:`kernel` (the most null one), or None at
        full column rank."""
        return self.kernel()[:, -1] if self.nullity else None


def hermitian_from_coordinates(coords):
    """Hermitian matrices with the given real coordinates (last axis, of
    length n*n); shape (..., n, n).  The coordinates are those of the
    Frobenius-orthonormal basis of the n x n Hermitian matrices: the n
    diagonal units, then for each j < k in row-major order the real pair
    (E_jk + E_kj)/sqrt2 and the imaginary pair i(E_jk - E_kj)/sqrt2."""
    coords = np.asarray(coords, dtype=float)
    n = math.isqrt(coords.shape[-1])
    out = np.zeros(coords.shape[:-1] + (n, n), dtype=complex)
    diag = np.arange(n)
    out[..., diag, diag] = coords[..., :n]
    upper = (coords[..., n::2] + 1j * coords[..., n + 1::2]) / np.sqrt(2.0)
    rows, cols = np.triu_indices(n, 1)
    out[..., rows, cols] = upper
    out[..., cols, rows] = upper.conj()
    return out


def hermitian_coordinates(M):
    """Coordinates of the n x n matrices M (last two axes) in the basis of
    :func:`hermitian_from_coordinates`, read as a complex basis of all n x n
    matrices, inverting that function; their real parts are the coordinates
    of M's Hermitian part."""
    rows, cols = np.triu_indices(M.shape[-1], 1)
    upper, lower = M[..., rows, cols] / np.sqrt(2.0), M[..., cols, rows] / np.sqrt(2.0)
    pairs = np.stack([upper + lower, 1j * (lower - upper)], axis=-1).reshape(M.shape[:-2] + (-1,))
    return np.concatenate([np.diagonal(M, axis1=-2, axis2=-1), pairs], axis=-1)


def block_diagonal(mats):
    """The direct sum of square matrices, or of tuples of them (last two axes
    square, leading axes shared): block k holds mats[k], zero elsewhere."""
    sides = [M.shape[-1] for M in mats]
    out = np.zeros(mats[0].shape[:-2] + (sum(sides),) * 2, dtype=complex)
    for M, end in zip(mats, accumulate(sides)):
        out[..., end - M.shape[-1]:end, end - M.shape[-1]:end] = M
    return out


def hermitian_parts(C):
    """The Hermitian parts (C + C*)/2 and i(C - C*)/2 of each matrix of the
    stack C, interleaved: every Hermitian element of a *-closed span."""
    Ch = C.conj().swapaxes(1, 2)
    return np.stack([0.5 * (C + Ch), 0.5j * (C - Ch)], 1).reshape((-1,) + C.shape[1:])


# Fixed weights of the generic elements below; any weights in general
# position work, seeding them keeps every verdict reproducible.
_GENERIC_SEED = 20100517


def _eigen_clusters(mats, tol):
    """``(w, U, cluster, gap)`` of the generic element Y = sum_k r_k M_k of a
    Hermitian stack: its eigenvalues and eigenvectors, the cluster label of
    each (eigenvalues closer than sqrt(rank_tol) |Y| share one, so a
    splitting that a rank cutoff would still call zero never separates two),
    and the least gap between clusters (``inf`` for a single cluster)."""
    weights = np.random.default_rng(_GENERIC_SEED).uniform(1.0, 2.0, len(mats))
    w, U = hermitian_eigen(np.tensordot(weights, mats, axes=1), tol)
    gaps = np.diff(w)
    split = gaps > np.sqrt(tol.rank_tol) * (np.abs(w).max() or 1.0)
    return w, U, np.concatenate([[0], np.cumsum(split)]), float(gaps[split].min(initial=np.inf))


def _commutant_basis(X, tol):
    """Complex basis of {C : C X_i = X_i C}, as a (dim, n, n) stack orthonormal
    in the Frobenius product, plus the smallest gap between the eigenvalue
    clusters of the generic element, in X's units (``inf`` for a single
    cluster).  The system is built from X over its largest |entry|, so its
    rank cutoff reads the same at every scale of X.

    Every C commuting with the X_i commutes with Y = sum_i r_i X_i, so in an
    eigenbasis U of Y it is block diagonal over Y's eigenvalue clusters
    (Murota, Kanno, Kojima & Kojima, "A numerical algorithm for
    block-diagonal decomposition of matrix *-algebras", 2010).  Only those
    blocks are unknowns; the equations are all of U*(C X_i - X_i C)U / |Y| = 0.
    Near a reducible point the solve is stricter than a dense one: a
    near-commutant element with residual e reaches outside the blocks by up
    to e sum_i r_i / gap, so a perturbation a few times smaller than the rank
    cutoff can already read as irreducible.
    """
    Xm = np.ascontiguousarray(HermitianTuple(X).mats)
    g, n, _ = Xm.shape
    scale = np.abs(Xm).max() or 1.0
    # Real divisions: a complex one forms 1 / scale, which overflows at a subnormal scale.
    Xm = (Xm.view(float) / scale).view(complex)
    w, U, cluster, gap = _eigen_clusters(Xm, tol)
    a, b = np.nonzero(cluster[:, None] == cluster[None, :])
    Xr = U.conj().T @ Xm @ U / (np.abs(w).max() or 1.0)
    # Column k is the unknown C[a_k, b_k]: (E_ab X)[p, q] = [p = a] X[b, q]
    # and (X E_ab)[p, q] = X[p, a] [q = b].
    k = np.arange(len(a))
    system = np.zeros((g, n, n, len(a)), dtype=complex)
    system[:, a, :, k] = Xr.transpose(1, 0, 2)[b]
    system[:, :, b, k] -= Xr[:, :, a]
    blocks = SingularFactor(system.reshape(g * n * n, -1), tol).kernel()
    rotated = np.zeros((blocks.shape[1], n, n), dtype=complex)
    rotated[:, a, b] = blocks.T
    return U @ rotated @ U.conj().T, gap * scale


def irreducible_blocks(A, tol=DEFAULT_TOL):
    """``(U, blocks, multiplicities)`` of a Hermitian tuple A (the blocks as
    HermitianTuples), or None when A is irreducible or the split fails its
    guard.

    The eigenspaces of a generic Hermitian element of A's commutant are
    invariant under A and, generically, irreducible.  Two of them carry
    unitarily equivalent blocks iff an intertwiner maps one to the other;
    the commutant's orthonormal basis reaches each such pair with norm 1
    (|P_k* C_j P_l| over j) and every other pair with norm 0.  ``U`` holds
    the eigenspaces class by class, classes ordered by block side; the
    block of each class's first eigenspace is its ``blocks`` entry, and
    ``multiplicities`` counts the eigenspaces of each class.  Guard: every
    entry of U* A_i U off the diagonal blocks is within the rank cutoff of
    A's largest entry, else A stays whole.
    """
    Am = HermitianTuple(A).mats
    scale = np.abs(Am).max() or 1.0
    basis = _commutant_basis(Am, tol)[0]
    _, V, labels, _ = _eigen_clusters(hermitian_parts(basis), tol)
    if labels[-1] == 0:
        return None
    spaces = [V[:, labels == c] for c in range(labels[-1] + 1)]
    classes = []
    for k, P in enumerate(spaces):
        match = [c for c in classes if spaces[c[0]].shape == P.shape
                 and np.linalg.norm(spaces[c[0]].conj().T @ basis @ P) > 0.5]
        if match:
            match[0].append(k)
        else:
            classes.append([k])
    classes.sort(key=lambda c: spaces[c[0]].shape[1])
    order = [k for c in classes for k in c]
    U = np.hstack([spaces[k] for k in order])
    rotated = U.conj().T @ Am @ U
    ends = np.cumsum([spaces[k].shape[1] for k in order])
    diagonal = [rotated[:, e - s:e, e - s:e] for e, s in zip(ends, np.diff(ends, prepend=0))]
    if np.abs(rotated - block_diagonal(diagonal)).max() > tol.rank_tol * scale:
        return None
    firsts = np.cumsum([0] + [len(c) for c in classes[:-1]])
    blocks = tuple(HermitianTuple(hermitian_part(diagonal[k], np.inf)[0]) for k in firsts)
    return U, blocks, tuple(len(c) for c in classes)


def random_hermitian(rng, n, scale=1.0):
    """Gaussian Hermitian matrix (GUE-type normalization is not needed here)."""
    G = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return scale * 0.5 * (G + G.conj().T)


def random_hermitian_tuple(rng, n, g):
    """Tuple of independent Gaussian Hermitian matrices."""
    return HermitianTuple(np.array([random_hermitian(rng, n) for _ in range(g)]))


def random_orthogonal(rng, n):
    """Random real orthogonal matrix via QR of a Gaussian matrix."""
    G = rng.normal(size=(n, n))
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))

