"""The reduced pencil: classify on the distinct irreducible blocks of A.

The split of ``linalg.irreducible_blocks`` against the dense realified
commutant of ``_oracles``, classify on a split pencil against classify on
its distinct blocks and against the given pencil's own systems, and the
two guards that keep a pencil whole."""

import numpy as np
import pytest

import freespec.extremality
import freespec.linalg
import freespec.pencil
from _oracles import (direct_sum, equivalent_blocks, gell_mann_tuple, haar_conjugated_sum,
                      realified_commutant_dimension)
from freespec.ballsets import _ball_pencil
from freespec.extremality import (Verdict, classify, column_dilation_system,
                                  hermitian_direction_system)
from freespec.fixtures import triangle_example_pencil
from freespec.linalg import (DEFAULT_TOL, HermitianTuple, irreducible_blocks, random_hermitian,
                             random_hermitian_tuple)
from freespec.pencil import Pencil, boundary_scale, membership, pencil_split
from freespec.spin import pauli_tuple, random_spin_member, spin_tuple


def _check_split(A, found):
    """U is unitary, U* A U is block diagonal, and its diagonal blocks are,
    class by class, copies of the kept blocks."""
    U, multiplicities = found[0], found[2]
    blocks = [B.mats for B in found[1]]
    Am = np.asarray(A)
    assert np.abs(U.conj().T @ U - np.eye(len(U))).max() < 1e-12
    rotated = U.conj().T @ Am @ U
    copies = [B for B, m in zip(blocks, multiplicities) for _ in range(m)]
    ends = np.cumsum([B.shape[-1] for B in copies])
    assert ends[-1] == Am.shape[-1]
    assert np.abs(rotated - direct_sum(
        [rotated[:, e - B.shape[-1]:e, e - B.shape[-1]:e] for e, B in zip(ends, copies)]).mats
    ).max() < 1e-10 * np.abs(Am).max()
    start = 0
    for B, m in zip(blocks, multiplicities):
        for _ in range(m):
            stop = start + B.shape[-1]
            copy = rotated[:, start:stop, start:stop]
            assert equivalent_blocks(B, copy)
            start = stop
    for k, B in enumerate(blocks):
        assert realified_commutant_dimension(B) == 1
        assert not any(equivalent_blocks(B, C) for C in blocks[k + 1:] if C.shape == B.shape)


@pytest.mark.parametrize("g, sides, multiplicities", [(3, (2, 2), (1, 1)), (4, (4,), (2,)),
                                                      (5, (4, 4), (2, 2))])
def test_spin_pencils_split_into_their_distinct_irreducible_blocks(g, sides, multiplicities):
    A = spin_tuple(g)
    found = irreducible_blocks(A)
    assert tuple(B.n for B in found[1]) == sides and found[2] == multiplicities
    _check_split(A, found)
    # Every kept block has commutant dimension 1 by the dense oracle (in
    # _check_split); the tuple's own commutant is sum_k m_k^2.
    assert realified_commutant_dimension(A.mats) == sum(m * m for m in multiplicities)


def _random_sum(seed):
    """A seeded Haar conjugate of B (+) B (+) C, with its parts: B is 3 x 3
    and C 2 x 2, both Gaussian (irreducible), g = 3."""
    rng = np.random.default_rng(seed)
    B, C = random_hermitian_tuple(rng, 3, 3), random_hermitian_tuple(rng, 2, 3)
    return haar_conjugated_sum(rng, [B, B, C]), B, C


@pytest.mark.parametrize("seed", range(4))
def test_haar_conjugated_sums_split_into_their_summands(seed):
    A, B, C = _random_sum(seed)
    found = irreducible_blocks(A)
    assert tuple(b.n for b in found[1]) == (2, 3) and found[2] == (1, 2)
    _check_split(A, found)
    assert equivalent_blocks(found[1][0], C) and equivalent_blocks(found[1][1], B)


@pytest.mark.parametrize("name, A", [("pauli", pauli_tuple()), ("gell-mann 3", gell_mann_tuple(3)),
                                     ("gell-mann 5", gell_mann_tuple(5)),
                                     ("ball 4", _ball_pencil(4).coefficients),
                                     ("ball 7", _ball_pencil(7).coefficients)])
def test_irreducible_pencils_stay_one_block(name, A):
    assert irreducible_blocks(A) is None
    split = pencil_split(Pencil(A))
    assert split.unitary is None and split.multiplicities == (1,)
    assert np.array_equal(split.blocks[0].mats, np.asarray(A))


def test_small_pencils_stay_whole_even_when_reducible():
    # The triangle pencil is diagonal: three inequivalent 1 x 1 blocks.  Its
    # side 3 is below SPLIT_SIDES, so classify works on it whole, as does
    # every pencil of side at most 4 (spin g = 3 among them).
    A = triangle_example_pencil()
    assert irreducible_blocks(A)[2] == (1, 1, 1)
    for tup in (A, spin_tuple(3)):
        assert tup.n not in freespec.linalg.SPLIT_SIDES
        split = pencil_split(Pencil(tup))
        assert split.unitary is None and split.blocks[0].mats is tup.mats


def _boundary_points(pencil, parts, sizes, seed):
    """Gaussian points of each size scaled to the boundary of D_parts."""
    rng = np.random.default_rng([seed, 17])
    for n in sizes:
        X = random_hermitian_tuple(rng, n, pencil.g)
        yield X.scaled(boundary_scale(parts, X))


def _point_on_both_blocks(B, C, seed):
    """Y (+) Z with Y on the boundary of D_B and inside D_C, Z on the boundary
    of D_C and inside D_B: L(X) has a kernel in both inequivalent blocks.
    Each is the first seeded 2 x 2 Gaussian draw that fits."""
    rng = np.random.default_rng([seed, 29])

    def on_edge(edge, inner):
        while True:
            Y = random_hermitian_tuple(rng, 2, B.g)
            s = boundary_scale(edge, Y)
            if s < 0.9 * boundary_scale(inner, Y):
                return Y.scaled(s)

    return direct_sum([on_edge(B, C), on_edge(C, B)])


@pytest.mark.parametrize("seed", range(4))
def test_classify_on_a_conjugated_sum_equals_classify_on_its_distinct_blocks(seed):
    A, B, C = _random_sum(seed)
    pencil, parts = Pencil(A), Pencil(direct_sum([B, C]))
    verdicts = set()
    for X in [*_boundary_points(pencil, parts, (1, 2, 3, 5, 8), seed),
              _point_on_both_blocks(B, C, seed)]:
        cert, reference = classify(pencil, X), classify(parts, X)
        verdicts.add(cert.verdict)
        assert cert.verdict == reference.verdict
        assert cert.beta_nullity_column == reference.beta_nullity_column
        assert cert.beta_nullity_hermitian == reference.beta_nullity_hermitian
        assert cert.commutant_dim == reference.commutant_dim
        # kernel_dim in the given pencil's terms: its whole L(X)'s kernel.
        whole = membership(pencil, X)
        assert cert.kernel_dim == whole.kernel_dim
        # The weighted column system has the given pencil's singular values.
        column = column_dilation_system(pencil, X, whole.kernel)
        assert cert.residuals["column_smallest_retained"] == pytest.approx(
            column.smallest_retained, rel=1e-10)
        if column.nullity:
            assert cert.residuals["hermitian_smallest_retained"] == pytest.approx(
                hermitian_direction_system(column).smallest_retained, rel=1e-10)
    # The last point's kernel: one vector in each copy of B, one in C.
    assert cert.kernel_dim == 2 * 1 + 1 * 1
    assert len(pencil_split(pencil).blocks) == 2
    assert Verdict.BOUNDARY in verdicts


@pytest.mark.parametrize("g, n", [(4, 6), (4, 10), (5, 6)])
def test_split_spin_classify_keeps_the_whole_pencils_counts(g, n):
    pencil = Pencil(spin_tuple(g))
    for seed in range(3):
        X = random_spin_member(np.random.default_rng([g, n, seed]), g, n)
        cert = classify(pencil, X)
        whole = membership(pencil, X)
        column = column_dilation_system(pencil, X, whole.kernel)
        hermitian = hermitian_direction_system(column)
        # Each block's kernel counts once per copy.
        assert cert.kernel_dim == whole.kernel_dim and whole.kernel_dim % 2 == 0
        assert (cert.beta_nullity_column, cert.beta_nullity_hermitian) == (column.nullity,
                                                                          hermitian.nullity)
        assert cert.residuals["column_smallest_retained"] == pytest.approx(
            column.smallest_retained, rel=1e-10)
        assert cert.residuals["hermitian_smallest_retained"] == pytest.approx(
            hermitian.smallest_retained, rel=1e-10)
        beta, alpha = cert.witness.direction, cert.witness.alpha
        for sign in (1.0, -1.0):
            assert membership(pencil, HermitianTuple(X.mats + sign * alpha * beta)).member
        assert not all(membership(pencil, HermitianTuple(X.mats + s * 1.01 * alpha * beta)).member
                       for s in (1.0, -1.0))
    assert len(pencil_split(pencil).blocks) == {4: 1, 5: 2}[g]


def _whole_certificate(pencil, X, monkeypatch):
    """classify on a copy of the pencil with the split switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(freespec.pencil, "SPLIT_SIDES", range(0))
        return classify(Pencil(pencil.coefficients), X)


def _fields(cert):
    witness = cert.witness
    return (cert.verdict, cert.min_eigenvalue, cert.kernel_dim, cert.beta_nullity_column,
            cert.beta_nullity_hermitian, cert.commutant_dim, cert.residuals,
            None if witness is None else (witness.kind, witness.alpha, witness.direction.tobytes()))


def test_a_pencil_reducible_only_up_to_a_perturbation_stays_whole(monkeypatch):
    A = _random_sum(0)[0].mats
    rng = np.random.default_rng(5)
    E = np.array([random_hermitian(rng, A.shape[1]) for _ in A])
    pencil = Pencil(A + 1e-6 * np.abs(A).max() * E / np.abs(E).max())
    split = pencil_split(pencil)
    assert split.unitary is None and split.blocks[0] is pencil.coefficients
    X = next(_boundary_points(pencil, pencil, (3,), 0))
    assert _fields(classify(pencil, X)) == _fields(_whole_certificate(pencil, X, monkeypatch))


def test_a_split_that_does_not_reduce_a_is_refused(monkeypatch):
    # A fake commutant, the identity and a random rank-3 projection, splits
    # an irreducible pencil into two subspaces that A does not leave
    # invariant: the off-block residual is O(1), and the pencil stays whole.
    rng = np.random.default_rng(2)
    A = random_hermitian_tuple(rng, 6, 3)
    Q = np.linalg.qr(rng.normal(size=(6, 3)) + 1j * rng.normal(size=(6, 3)))[0]
    fake = np.array([np.eye(6), Q @ Q.conj().T]) / np.sqrt([[[6.0]], [[3.0]]])
    monkeypatch.setattr(freespec.linalg, "_commutant_basis", lambda X, tol: (fake, np.inf))
    assert irreducible_blocks(A) is None
    assert pencil_split(Pencil(A)).unitary is None


def test_a_spin_pencil_above_the_split_bound_never_builds_its_commutant_system(monkeypatch):
    shapes = []
    factor = freespec.linalg.SingularFactor

    def recording(arr, *args, **kwargs):
        shapes.append(np.shape(arr))
        return factor(arr, *args, **kwargs)

    monkeypatch.setattr(freespec.linalg, "SingularFactor", recording)
    monkeypatch.setattr(freespec.extremality, "SingularFactor", recording)
    for g, builds in ((5, True), (6, False)):
        shapes.clear()
        pencil = Pencil(spin_tuple(g))
        d = pencil.d
        assert (d in freespec.linalg.SPLIT_SIDES) == builds
        X = random_spin_member(np.random.default_rng(g), g, 2)
        assert classify(pencil, X).verdict != Verdict.NON_MEMBER
        assert any(shape[0] == g * d * d for shape in shapes) == builds
        assert (pencil_split(pencil).unitary is not None) == builds


def test_the_split_is_computed_once_per_pencil_and_tolerance(monkeypatch):
    pencil = Pencil(spin_tuple(4))
    calls = []
    split = freespec.pencil.irreducible_blocks

    def counting(A, tol):
        calls.append(tol)
        return split(A, tol)

    monkeypatch.setattr(freespec.pencil, "irreducible_blocks", counting)
    for seed in range(3):
        classify(pencil, random_spin_member(np.random.default_rng(seed), 4, 3))
    assert calls == [DEFAULT_TOL]
    assert Pencil(pencil).splits[DEFAULT_TOL] is pencil.splits[DEFAULT_TOL]
    classify(Pencil(pencil), random_spin_member(np.random.default_rng(9), 4, 3))
    assert calls == [DEFAULT_TOL]
