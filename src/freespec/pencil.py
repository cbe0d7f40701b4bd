"""Monic linear pencils, their evaluation, and free spectrahedron membership.

A coefficient tuple ``A`` of Hermitian d x d matrices determines the pencil
value ``I - sum_i A_i (x) X_i`` at a Hermitian tuple ``X`` (``(x)`` denotes
the Kronecker product).  The free spectrahedron is the set of tuples, of
every matrix size, at which the pencil value is positive semidefinite.

A tuple unitarily equal to a direct sum defines the intersection of the
summands' sets, and a repeated summand defines its set once:
D_{U*(B (+) B (+) C)U} = D_B (intersected with) D_C.  :func:`pencil_split`
finds the distinct irreducible blocks B_k of a pencil and their
multiplicities m_k once (:func:`~freespec.linalg.irreducible_blocks`), so
that :func:`~freespec.extremality.classify` runs their direct sum, the
repeats dropped, as an ordinary pencil.  Two guards keep a pencil whole: an
off-block residual above the rank cutoff, and a side outside
:data:`~freespec.linalg.SPLIT_SIDES` (A's commutant system grows as g d^4).
:func:`membership` and :func:`pencil_value` always work on the whole pencil.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionError
from .linalg import (DEFAULT_TOL, SPLIT_SIDES, HermitianTuple, SingularFactor, _eigensolve,
                     block_diagonal, check_dense_side, hermitian_eigvals, hermitian_part,
                     irreducible_blocks, kernel_mask)
from .sphere import top_eigenvalue_extremum, unit_sphere_grid


class Pencil:
    """A coefficient tuple interpreted as a monic linear pencil.

    ``bounded`` caches the outcome of the level-1 boundedness heuristic and
    ``splits`` the :class:`Split` of :func:`pencil_split`, each per
    :class:`~freespec.linalg.ToleranceProfile`; they start empty and are only
    ever filled from an actual run, never assumed.  ``Pencil(pencil)`` shares
    what the given pencil has cached.
    """

    __slots__ = ("coefficients", "bounded", "splits")

    def __init__(self, coefficients):
        if isinstance(coefficients, Pencil):
            self.coefficients = coefficients.coefficients
            self.bounded = dict(coefficients.bounded)
            self.splits = dict(coefficients.splits)
            return
        self.coefficients = HermitianTuple(coefficients)
        self.bounded = {}
        self.splits = {}

    @property
    def d(self):
        return self.coefficients.n

    @property
    def g(self):
        return self.coefficients.g

    def __repr__(self):
        return f"Pencil(d={self.d}, g={self.g}, bounded={self.bounded})"


@dataclass(frozen=True)
class MembershipVerdict:
    """Outcome of a membership test, for every set the package decides.

    ``margin`` is the set's distance-like quantity: for a pencil, the least
    eigenvalue of the pencil value.  :func:`band_verdict` and
    :func:`eigen_verdict` read ``member`` (``margin >= -psd_tol``) and
    ``boundary`` (also ``margin <= psd_tol``) off it by one rule.  ``heuristic`` marks an acceptance
    by a one-sided search.  ``witness`` is a one-sided search's refuting
    direction (the refuting sample, for
    :func:`~freespec.duality.polar_membership`).

    A pencil member's ``L = V D V*`` is split by one rank cutoff into the
    ``kernel``, a read-only array of orthonormal columns, and the whitened
    ``range`` ``W = V D^-1/2`` (None when a range eigenvalue is not
    positive): ``L >= M`` for a Hermitian M vanishing on the kernel iff
    ``W* M W <= I``.  ``norm`` is ``|L|_2``.
    """

    member: bool
    margin: float
    boundary: bool
    kernel: np.ndarray | None = field(default=None, compare=False, repr=False)
    norm: float | None = field(default=None, compare=False, repr=False)
    range: np.ndarray | None = field(default=None, compare=False, repr=False)
    heuristic: bool = False
    witness: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def kernel_dim(self):
        """Dimension of the pencil kernel, on the boundary only."""
        return self.kernel.shape[1] if self.boundary and self.kernel is not None else None


def _psd_band(margin, tol):
    """``(member, boundary)``: ``margin >= -psd_tol``, and also ``margin <= psd_tol``."""
    return margin >= -tol.psd_tol, -tol.psd_tol <= margin <= tol.psd_tol


def band_verdict(margin, tol=DEFAULT_TOL, witness=None, one_sided=False):
    """The verdict at ``margin`` under the psd band (:func:`_psd_band`).  A
    one-sided search (``one_sided``) certifies refutations only: its
    acceptance is heuristic and drops the witness."""
    member, boundary = _psd_band(margin, tol)
    heuristic = one_sided and member
    return MembershipVerdict(member, margin, boundary, heuristic=heuristic,
                             witness=None if heuristic else witness)


@dataclass(frozen=True)
class BoundednessReport:
    """Outcome of the level-1 boundedness heuristic.

    A ``False`` verdict is certified by ``witness_direction`` (a ray that
    stays inside the first level).  A ``True`` verdict only means that the
    search found no such ray, so it is ``heuristic``.
    """

    bounded: bool
    witness_direction: np.ndarray | None

    @property
    def heuristic(self):
        return self.bounded


def tuple_mats(T):
    """The (g, n, n) array of a Pencil's coefficients, of a HermitianTuple, or
    of an array-like of Hermitian matrices (checked as a HermitianTuple)."""
    return HermitianTuple(T.coefficients if isinstance(T, Pencil) else T).mats


def check_pencil_value(Am, Xm):
    """Refuse a point whose length is not the pencil's, or whose pencil value
    would exceed the dense bound; returns the value's side d n."""
    if Am.shape[0] != Xm.shape[0]:
        raise DimensionError(
            f"coefficient tuple has length {Am.shape[0]} but point has length {Xm.shape[0]}")
    d, n = Am.shape[1], Xm.shape[1]
    check_dense_side(d * n, f"pencil value ({d} x {n})")
    return d * n


def linear_part(A, X):
    """Strictly linear part ``sum_i A_i (x) X_i`` of the pencil at X."""
    Am, Xm = tuple_mats(A), tuple_mats(X)
    side = check_pencil_value(Am, Xm)
    return np.einsum("iab,icd->acbd", Am, Xm).reshape(side, side)


def pencil_value(A, X):
    """Monic pencil value ``I - sum_i A_i (x) X_i``."""
    lam = linear_part(A, X)
    return np.eye(lam.shape[0]) - lam


def batched_linear_part(Am, Xb):
    """Linear part for a stack of points: (N, g, n, n) -> (N, d*n, d*n)."""
    N, _, n, _ = Xb.shape
    d = Am.shape[1]
    return np.einsum("iab,Nicd->Nacbd", Am, Xb).reshape(N, d * n, d * n)


def least_pencil_eigenvalues(Am, Xb, tol=DEFAULT_TOL):
    """Least eigenvalue of the pencil value ``I - sum_i A_i (x) X_i`` at each
    point of the (N, g, n, n) stack Xb, from one stacked eigensolve."""
    lam = batched_linear_part(Am, Xb)
    return hermitian_eigvals(np.eye(lam.shape[-1]) - lam, tol)[:, 0]


def membership(A, X, tol=DEFAULT_TOL):
    """Free spectrahedron membership of X with boundary detection, from one
    eigendecomposition of the pencil value (see :func:`eigen_verdict`)."""
    return eigen_verdict(pencil_value(A, X), tol)


def eigen_verdict(M, tol=DEFAULT_TOL):
    """Membership verdict read off one eigendecomposition of a Hermitian
    matrix M that must be positive semidefinite: the verdict, the boundary
    flag and, for members, the kernel (the eigenvectors whose eigenvalues
    pass :func:`~freespec.linalg.kernel_mask`) and the range.  An M equal to
    M* is not copied (:func:`~freespec.linalg.hermitian_part`)."""
    w, V = _eigensolve(hermitian_part(M, tol.hermitian_tol)[0], True)
    margin = float(w[0])
    member, boundary = _psd_band(margin, tol)
    kernel = W = None
    if member:
        keep = ~kernel_mask(w, tol)
        W = V[:, keep] / np.sqrt(w[keep]) if w[keep].min(initial=np.inf) > 0.0 else None
        kernel = V[:, ~keep]
        kernel.setflags(write=False)
    return MembershipVerdict(member, margin, boundary, kernel, float(max(-w[0], w[-1])), W)


def psd_members(stack, tol=DEFAULT_TOL):
    """``(member, least)``: whether each m x m matrix M of a Hermitian stack has
    least eigenvalue at least ``-psd_tol``, decided by one Cholesky factorization
    of the stack shifted by ``psd_tol`` (exact up to about m eps |M|).  Only when
    it fails are the least eigenvalues computed; they decide then and are
    returned as ``least``, which is None otherwise."""
    sym = hermitian_part(stack, tol.hermitian_tol)[0]
    try:
        np.linalg.cholesky(sym + tol.psd_tol * np.eye(sym.shape[-1]))
        return np.ones(len(sym), dtype=bool), None
    except np.linalg.LinAlgError:
        # The stack was checked Hermitian above.
        least = _eigensolve(sym, False)[:, 0]
        return least >= -tol.psd_tol, least


@dataclass(frozen=True)
class Split:
    """A coefficient tuple as its distinct irreducible blocks.

    ``U* A_i U`` is block diagonal, and its diagonal blocks are, in order,
    ``multiplicities[k]`` blocks unitarily equivalent to ``blocks[k]`` (a
    HermitianTuple; blocks ordered by side); ``unitary`` is U, and None when
    the tuple is kept whole as its one block.  ``scale`` is the given
    tuple's largest |entry|, which normalizes the column system.
    """

    unitary: np.ndarray | None = field(repr=False)
    blocks: tuple = field(repr=False)
    multiplicities: tuple
    scale: float

    @cached_property
    def reduced(self):
        """The direct sum of the distinct blocks, a HermitianTuple."""
        return HermitianTuple(block_diagonal([B.mats for B in self.blocks]))

    @cached_property
    def column_coefficients(self):
        """:attr:`reduced` over ``scale``, block k's rows weighted by sqrt(m_k)."""
        weights = np.repeat(np.sqrt(self.multiplicities), [B.n for B in self.blocks])
        return self.reduced.mats / self.scale * weights[:, None]


def as_split(A):
    """A :class:`Split` as it is; a coefficient tuple or a Pencil whole."""
    if isinstance(A, Split):
        return A
    whole = A.coefficients if isinstance(A, Pencil) else HermitianTuple(A)
    return Split(None, (whole,), (1,), float(np.abs(whole.mats).max() or 1.0))


def pencil_split(pencil, tol=DEFAULT_TOL):
    """The :class:`Split` that classify works on, computed on first use and
    cached on the pencil per tolerance profile: the blocks of
    :func:`~freespec.linalg.irreducible_blocks` when the side is in
    ``SPLIT_SIDES``, else (or when it finds none, or its guard fails) the
    whole tuple."""
    if tol not in pencil.splits:
        whole = as_split(pencil)
        found = irreducible_blocks(pencil.coefficients, tol) if pencil.d in SPLIT_SIDES else None
        pencil.splits[tol] = whole if found is None else Split(*found, whole.scale)
    return pencil.splits[tol]


def boundary_scale(A, X, tol=DEFAULT_TOL):
    """Largest s >= 0 with ``s X`` in the free spectrahedron of A.

    Returns ``inf`` when the ray never leaves the set (the direction has no
    positive part in the pencil).
    """
    top = float(hermitian_eigvals(linear_part(A, X), tol)[-1])
    if top <= tol.psd_tol:
        return np.inf
    return 1.0 / top


def level1_bounded_heuristic(A, tol=DEFAULT_TOL):
    """Search for unbounded rays of the first level of the free spectrahedron.

    A unit c with ``sum_i c_i A_i`` negative semidefinite up to ``psd_tol``
    is a certified unbounded ray.  The sphere search (sign -1) on A hunts for
    one from 4 g unit directions (all +/- coordinate axes plus antipodally
    paired Gaussian draws of seed 0) and, when the real coordinates of the
    A_i have a null vector under the rank cutoff, from that vector too:
    there ``sum_i c_i A_i`` vanishes, so a ray off the grid is not missed.
    Not finding one is only heuristic evidence of boundedness.  It runs on A
    over its largest entry, so its verdict does not move with the scale of A.
    """
    Am = tuple_mats(A)
    Am = Am / (np.abs(Am).max() or 1.0)
    g = Am.shape[0]
    dirs = unit_sphere_grid(np.random.default_rng(0), g, 4 * g)
    coords = np.concatenate([Am.real, Am.imag], axis=1).reshape(g, -1)
    null = SingularFactor(coords.T, tol).null_vector()
    if null is not None:
        dirs = np.vstack([dirs, null])
    top, ray = top_eigenvalue_extremum(Am, dirs, 20, -1, starts=1)
    if top > tol.psd_tol:
        return BoundednessReport(True, None)
    return BoundednessReport(False, ray)


def ensure_bounded_flag(pencil, tol=DEFAULT_TOL):
    """Run the boundedness heuristic once per tolerance profile, cache the
    outcome on the pencil and return it.  A raw tuple gets a fresh Pencil,
    so it pays the heuristic on every call."""
    if not isinstance(pencil, Pencil):
        pencil = Pencil(pencil)
    if tol not in pencil.bounded:
        pencil.bounded[tol] = level1_bounded_heuristic(pencil, tol).bounded
    return pencil.bounded[tol]
