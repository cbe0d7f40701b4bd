import numpy as np
import pytest

import freespec.extremality
from freespec.errors import NumericalError, PreconditionError
from freespec.extremality import (MAX_STEP, Verdict, arveson_dilate, classify,
                                  column_dilation_system, hermitian_direction_system)
from freespec.fixtures import (free_extreme_level4, free_extreme_level6,
                               triangle_example_pencil, triangle_example_point)
from freespec.linalg import DEFAULT_TOL, HermitianTuple, ToleranceProfile
from freespec.pencil import Pencil, membership, pencil_value
from freespec.spin import pauli_tuple, random_spin_member, spin_tuple

from _oracles import direct_sum, nullspace, random_unitary


def spin_pencil(g):
    from freespec.pencil import ensure_bounded_flag

    pencil = Pencil(spin_tuple(g))
    ensure_bounded_flag(pencil)
    return pencil


def kernel_of(A, X):
    return nullspace(pencil_value(A, X), DEFAULT_TOL)


def test_commutant_dimension_examples():
    for X, dim in ((pauli_tuple(), 1), (spin_tuple(3), 2), (HermitianTuple([np.eye(2)]), 4)):
        assert len(freespec.extremality._commutant_basis(X, DEFAULT_TOL)[0]) == dim


def test_column_system_level4_certifies():
    A = spin_pencil(3)
    X = free_extreme_level4()
    report = column_dilation_system(A, X, kernel_of(A, X))
    assert report.nullity == 0
    assert report.smallest_retained > 1e-6


def test_column_system_level6_certifies():
    A = spin_pencil(3)
    X = free_extreme_level6()
    report = column_dilation_system(A, X, kernel_of(A, X))
    assert report.nullity == 0
    assert report.smallest_retained > 1e-6


def test_column_system_scalar_circle_point():
    A = spin_pencil(2)
    X = HermitianTuple(np.array([[[1.0]], [[0.0]]], dtype=complex))
    report = column_dilation_system(A, X, kernel_of(A, X))
    assert report.nullity == 0


def test_column_system_interior_precondition():
    A = spin_pencil(2)
    X = HermitianTuple(np.zeros((2, 1, 1)))
    with pytest.raises(PreconditionError):
        column_dilation_system(A, X, kernel_of(A, X))


def test_hermitian_system_triangle_point_euclidean():
    A = Pencil(triangle_example_pencil())
    X = triangle_example_point()
    report = hermitian_direction_system(column_dilation_system(A, X, kernel_of(A, X)))
    assert report.nullity == 0


def test_hermitian_system_triangle_vertex():
    A = Pencil(triangle_example_pencil())
    X = HermitianTuple(np.array([[[1.0]], [[1.0]]], dtype=complex))
    report = hermitian_direction_system(column_dilation_system(A, X, kernel_of(A, X)))
    assert report.nullity == 0


def test_hermitian_system_interior_precondition():
    A = Pencil(triangle_example_pencil())
    X = HermitianTuple(np.zeros((2, 1, 1)))
    with pytest.raises(PreconditionError):
        hermitian_direction_system(column_dilation_system(A, X, kernel_of(A, X)))


def _counted(monkeypatch, names):
    """A dict counting the calls of the named ``freespec.extremality``
    functions from here on."""
    calls = dict.fromkeys(names, 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(freespec.extremality, name,
                            counting(name, getattr(freespec.extremality, name)))
    return calls


def _read_deferred(cert):
    return cert.commutant_dim, cert.beta_nullity_hermitian, cert.residuals


def test_classify_runs_each_public_system_once_on_the_boundary(monkeypatch):
    calls = _counted(monkeypatch, ["column_dilation_system", "hermitian_direction_system",
                                   "_commutant_basis"])
    pencil = spin_pencil(3)
    X = random_spin_member(np.random.default_rng(3), 3, 4)
    # At the boundary point the column rank is 2 < n = 4, so the rank-one
    # witness decides the verdict: the Hermitian system and the commutant run
    # only when read.  At the free point the column system has full column
    # rank, so the Hermitian system, whose nullity is then 0, is not solved,
    # and the commutant decides free against Arveson.
    cases = ((X, Verdict.BOUNDARY, (1, 0, 0), (1, 1, 1)),
             (free_extreme_level4(), Verdict.FREE, (1, 0, 1), (1, 0, 1)),
             (X.scaled(0.5), Verdict.INTERIOR, (0, 0, 0), (0, 0, 1)))
    for point, verdict, before, after in cases:
        calls.update(dict.fromkeys(calls, 0))
        cert = classify(pencil, point)
        assert cert.verdict == verdict
        assert calls == dict(zip(calls, before))
        _read_deferred(cert)
        _read_deferred(cert)
        assert calls == dict(zip(calls, after))


def _deferred_point(kind):
    """A seeded point of each verdict: the boundary point has column rank
    2 < n = 6, the Euclidean one (criterion 9's) column rank n."""
    rng = np.random.default_rng(11)
    X = random_spin_member(rng, 3, 6)
    if kind == "euclidean":
        return Pencil(triangle_example_pencil()), triangle_example_point()
    if kind in ("arveson", "free"):
        parts = [free_extreme_level4(), free_extreme_level6()][:2 if kind == "arveson" else 1]
        Y = direct_sum(parts).mats
        U = random_unitary(rng, Y.shape[1])
        X = HermitianTuple(U.conj().T @ Y @ U)
    scale = {"interior": 0.5, "non-member": 1.5}.get(kind, 1.0)
    return spin_pencil(3), X.scaled(scale)


def _eager_reference(pencil, X):
    """``(commutant_dim, beta_nullity_hermitian, residuals)`` of classify at
    X, from the public systems and the commutant called directly."""
    basis, gap = freespec.extremality._commutant_basis(X, DEFAULT_TOL)
    verdict = membership(pencil, X)
    if not verdict.boundary:
        return len(basis), None, {}
    K = verdict.kernel
    column = column_dilation_system(pencil, X, K)
    residuals = {"kernel_residual": float(np.abs(pencil_value(pencil, X) @ K).max()),
                 "commutant_cluster_gap": gap}
    nullity = 0
    if column.nullity:
        hermitian = hermitian_direction_system(column)
        nullity = hermitian.nullity
        residuals["hermitian_smallest_retained"] = hermitian.smallest_retained
    residuals["column_smallest_retained"] = column.smallest_retained
    return len(basis), nullity, residuals


@pytest.mark.parametrize("order", ["commutant first", "residuals first"])
@pytest.mark.parametrize("kind, verdict", [
    ("boundary", Verdict.BOUNDARY), ("euclidean", Verdict.EUCLIDEAN),
    ("interior", Verdict.INTERIOR), ("non-member", Verdict.NON_MEMBER),
    ("arveson", Verdict.ARVESON), ("free", Verdict.FREE)])
def test_deferred_fields_equal_the_eager_reference(kind, verdict, order, monkeypatch):
    pencil, X = _deferred_point(kind)
    commutant_dim, nullity, residuals = _eager_reference(pencil, X)
    calls = _counted(monkeypatch, ["hermitian_direction_system", "_commutant_basis"])
    cert = classify(pencil, X)
    assert cert.verdict == verdict
    if cert.beta_nullity_column:
        # The column rank decides whether the rank-one witness is at hand.
        assert (X.g * X.n - cert.beta_nullity_column < X.n) == (kind == "boundary")
    for _ in range(2):
        if order == "commutant first":
            read = (cert.commutant_dim, cert.beta_nullity_hermitian, cert.residuals)
        else:
            read = tuple(reversed((cert.residuals, cert.beta_nullity_hermitian,
                                   cert.commutant_dim)))
        assert read == (commutant_dim, nullity, residuals)
        assert list(read[2]) == list(residuals)
        assert calls == {"hermitian_direction_system": int(bool(cert.beta_nullity_column)),
                         "_commutant_basis": 1}


def test_classify_level4_free():
    cert = classify(spin_pencil(3), free_extreme_level4())
    assert cert.verdict == Verdict.FREE
    assert cert.kernel_dim == 6
    assert cert.commutant_dim == 1
    assert cert.beta_nullity_column == 0
    assert cert.beta_nullity_hermitian == 0
    assert cert.witness is None


def test_classify_one_by_one_point_is_free_with_a_scalar_commutant():
    # A unit vector of R^3 as a 1 x 1 point: one eigenvalue cluster, so every
    # equation of the commutant system vanishes and its kernel is the scalars.
    cert = classify(spin_pencil(3), HermitianTuple(np.array([0.6, 0.0, 0.8]).reshape(3, 1, 1)))
    assert cert.verdict == Verdict.FREE
    assert cert.commutant_dim == 1
    assert cert.residuals["commutant_cluster_gap"] == np.inf


def test_classify_direct_sum_is_arveson_not_free():
    # Two copies of one irreducible point: the commutant is the full 2x2
    # intertwiner algebra (dimension 4), so the verdict stops at Arveson.
    X = free_extreme_level4()
    XX = direct_sum([X, X])
    cert = classify(spin_pencil(3), XX)
    assert cert.verdict == Verdict.ARVESON
    assert cert.commutant_dim == 4
    assert cert.beta_nullity_column == 0
    # The witness is a non-scalar Hermitian matrix commuting with the point.
    assert cert.witness is not None and cert.witness.kind == "commutant"
    C = cert.witness.direction
    assert max(np.abs(C @ M - M @ C).max() for M in XX.mats) < 1e-8
    assert np.abs(C - (np.trace(C) / 8) * np.eye(8)).max() > 1e-3


def test_classify_interior_and_nonmember():
    P = Pencil(pauli_tuple())
    P.bounded[DEFAULT_TOL] = True
    zero = HermitianTuple(np.zeros((3, 1, 1)))
    assert classify(P, zero).verdict == Verdict.INTERIOR
    outside = HermitianTuple(-pauli_tuple().mats)
    assert classify(P, outside).verdict == Verdict.NON_MEMBER


def test_classify_boundary_witness_is_valid():
    # A reducible boundary point with a flat face: the triangle's edge
    # midpoint at level 1 is on the boundary but not Euclidean extreme.
    A = Pencil(triangle_example_pencil())
    A.bounded[DEFAULT_TOL] = True
    X = HermitianTuple(np.array([[[1.0]], [[0.0]]], dtype=complex))  # edge interior
    cert = classify(A, X)
    assert cert.verdict == Verdict.BOUNDARY
    assert cert.witness is not None and cert.witness.kind == "hermitian"
    alpha, beta = cert.witness.alpha, cert.witness.direction
    assert alpha > 1e-6
    for sign in (+1, -1):
        shifted = HermitianTuple(X.mats + sign * alpha * beta)
        assert membership(A, shifted).member


def test_classify_euclidean_witness_is_a_dilation_direction():
    A = Pencil(triangle_example_pencil())
    cert = classify(A, triangle_example_point())
    assert cert.verdict == Verdict.EUCLIDEAN
    assert cert.witness is not None and cert.witness.kind == "column"


def test_certificate_chain_on_random_boundary_points():
    rng = np.random.default_rng(13)
    for g, n in ((2, 2), (3, 2), (3, 3)):
        A = spin_pencil(g)
        for _ in range(15):
            X = random_spin_member(rng, g, n)
            cert = classify(A, X)
            if cert.verdict == Verdict.FREE:
                assert cert.commutant_dim == 1
            if cert.verdict in (Verdict.ARVESON, Verdict.FREE):
                assert cert.beta_nullity_column == 0
            if cert.verdict in (Verdict.EUCLIDEAN, Verdict.ARVESON, Verdict.FREE):
                assert cert.beta_nullity_hermitian == 0
            if cert.verdict == Verdict.BOUNDARY:
                assert cert.beta_nullity_hermitian > 0
                w = cert.witness
                for sign in (+1, -1):
                    shifted = HermitianTuple(X.mats + sign * w.alpha * w.direction)
                    assert membership(A, shifted).member


def test_classify_verdict_unitary_invariance():
    rng = np.random.default_rng(14)
    A = spin_pencil(2)
    for _ in range(10):
        X = random_spin_member(rng, 2, 2)
        U = random_unitary(rng, 2)
        rotated = HermitianTuple(np.array([U.conj().T @ M @ U for M in X.mats]))
        assert classify(A, X).verdict == classify(A, rotated).verdict


def test_column_verdict_agrees_with_brute_force_dilation_search():
    # Soundness cross-check on 2x2 boundary points of the g=2 spin set:
    # when the system says Arveson extreme, no lattice direction admits a
    # one-column dilation at any probe scale; when it does not, the
    # system's own witness direction must admit one.
    rng = np.random.default_rng(15)
    A = spin_pencil(2)
    lattice = rng.normal(size=(400, 2, 2)) + 1j * rng.normal(size=(400, 2, 2))
    lattice /= np.linalg.norm(lattice.reshape(400, -1), axis=1)[:, None, None]

    def admits_dilation(Xm, beta, alphas=(1e-3, 1e-2, 1e-1)):
        for alpha in alphas:
            Y = np.zeros((2, 3, 3), dtype=complex)
            for i in range(2):
                Y[i, :2, :2] = Xm[i]
                Y[i, :2, 2] = alpha * beta[i]
                Y[i, 2, :2] = alpha * beta[i].conj()
            if membership(A, HermitianTuple(Y)).member:
                return True
        return False

    checked_extreme = checked_dilatable = 0
    for _ in range(12):
        X = random_spin_member(rng, 2, 2)
        K = kernel_of(A, X)
        if K.shape[1] == 0:
            continue
        report = column_dilation_system(A, X, K)
        if report.nullity == 0:
            checked_extreme += 1
            assert not any(admits_dilation(X.mats, beta) for beta in lattice[:200])
        else:
            checked_dilatable += 1
            assert admits_dilation(X.mats, report.solution)
    assert checked_extreme + checked_dilatable >= 8


def test_arveson_dilate_from_scalar_zero(monkeypatch):
    monkeypatch.setattr(freespec.extremality, "MAX_DILATION_STEPS", 16)
    A = spin_pencil(2)
    X = HermitianTuple(np.zeros((2, 1, 1)))
    result = arveson_dilate(A, X)
    assert result.success
    assert all(s.kernel_after > s.kernel_before for s in result.steps)
    assert np.abs(result.point.mats[:, 0, 0]).max() <= 1e-9  # corner recovers 0
    cert = classify(A, result.point)
    assert cert.beta_nullity_column == 0
    assert cert.verdict in (Verdict.ARVESON, Verdict.FREE)


@pytest.mark.parametrize("g", [2, 3])
def test_arveson_dilate_runs_several_steps_from_interior_starts(g, monkeypatch):
    # Each exact step lands on the boundary, so the kernel grows by one per
    # step until the step cap.
    monkeypatch.setattr(freespec.extremality, "MAX_DILATION_STEPS", 8)
    A = spin_pencil(g)
    rng = np.random.default_rng(300)
    for _ in range(3):
        X = random_spin_member(rng, g, 2, scale=0.6)
        result = arveson_dilate(A, X)
        assert not result.success and len(result.steps) == 8
        assert result.failure_step == 8
        assert result.failure_reason == "step cap reached before the dilation system closed"
        assert all(s.kernel_after > s.kernel_before for s in result.steps)
        Y = result.point.mats
        assert Y.shape == (g, 10, 10) and np.abs(Y[:, :2, :2] - X.mats).max() == 0.0
        for m in range(3, 11):
            assert membership(A, HermitianTuple(Y[:, :m, :m])).member


def test_arveson_dilate_kernel_inside_rank_cutoff(monkeypatch):
    # L(X) has the eigenvalue 3e-9: above psd_tol but inside the rank
    # cutoff, so it is kernel for the column system and for the scale.
    A = spin_pencil(2)
    x = 1.0 - 3e-9
    result = arveson_dilate(A, HermitianTuple(np.array([[[x]], [[0.0]]])))
    assert result.success and len(result.steps) == 0
    X = HermitianTuple(np.array([[[x, 0.0], [0.0, 0.3]], [[0.0, 0.0], [0.0, 0.2]]]))
    monkeypatch.setattr(freespec.extremality, "MAX_DILATION_STEPS", 4)
    result = arveson_dilate(A, X)
    assert len(result.steps) == 4 and result.steps[0].kernel_before == 1
    assert all(s.kernel_after > s.kernel_before for s in result.steps)
    assert membership(A, result.point).member


def test_arveson_dilate_fixed_point(monkeypatch):
    monkeypatch.setattr(freespec.extremality, "MAX_DILATION_STEPS", 4)
    A = spin_pencil(3)
    X = free_extreme_level4()
    result = arveson_dilate(A, X)
    assert result.success and len(result.steps) == 0
    assert result.point.n == 4
    assert np.abs(result.point.mats - X.mats).max() == 0.0


def test_arveson_dilate_rejects_nonmember():
    A = spin_pencil(3)
    F = spin_tuple(3)
    with pytest.raises(PreconditionError):
        arveson_dilate(A, HermitianTuple(F.mats / np.sqrt(3.0)))


def test_arveson_dilate_rejects_unbounded_pencil():
    E11 = np.zeros((2, 2), complex)
    E11[0, 0] = 1.0
    A = Pencil(HermitianTuple([E11]))
    with pytest.raises(PreconditionError):
        arveson_dilate(A, HermitianTuple(np.zeros((1, 1, 1))))


def test_classify_enforces_residual_tol():
    # Pulled in by 1e-6 from the boundary: inside the psd band and the rank
    # cutoff of this profile, but the kernel residual is ~1e-6.
    tol = ToleranceProfile(psd_tol=1e-5, rank_tol=1e-4, residual_tol=1e-10)
    A = spin_pencil(3)
    X = free_extreme_level4().scaled(1.0 - 1e-6)
    verdict = membership(A, X, tol)
    assert verdict.boundary and verdict.kernel_dim > 0
    with pytest.raises(NumericalError, match="residual_tol"):
        classify(A, X, tol)
    loose = ToleranceProfile(psd_tol=1e-5, rank_tol=1e-4, residual_tol=1e-4)
    assert classify(A, X, loose).residuals["kernel_residual"] > 1e-10


@pytest.mark.parametrize("k", range(-9, 10))
def test_classify_is_invariant_under_rescaling_the_pencil(k):
    # (A, X) -> (c A, X / c) keeps L(X), so no rank decision may move with c.
    c = 10.0 ** k
    A = spin_tuple(3).mats
    free = classify(Pencil(c * A), free_extreme_level4().mats / c)
    assert free.verdict == Verdict.FREE and free.commutant_dim == 1
    X = random_spin_member(np.random.default_rng(0), 3, 4).mats
    reference = classify(spin_pencil(3), X)
    pencil = Pencil(c * A)
    cert = classify(pencil, X / c)
    assert cert.verdict == reference.verdict == Verdict.BOUNDARY
    assert ((cert.kernel_dim, cert.beta_nullity_column, cert.beta_nullity_hermitian)
            == (reference.kernel_dim, reference.beta_nullity_column, reference.beta_nullity_hermitian))
    beta, alpha = cert.witness.direction, cert.witness.alpha
    for sign in (1.0, -1.0):
        assert membership(pencil, HermitianTuple(X / c + sign * alpha * beta)).member
    expected = reference.witness.alpha / c
    assert alpha == (pytest.approx(expected, rel=1e-9) if expected <= MAX_STEP else MAX_STEP)


def test_classify_on_a_pencil_with_a_line_carries_the_unbounded_caveat():
    # (A_1, -2 A_1, A_2) contains the line through (2, 1, 0); (Y_1, 0, Y_2)
    # is a boundary point of it for a boundary point Y of spin-g2.
    A1, A2 = spin_tuple(2).mats
    Y = random_spin_member(np.random.default_rng(0), 2, 3).mats
    X = HermitianTuple(np.array([Y[0], np.zeros_like(Y[0]), Y[1]]))
    cert = classify(Pencil(HermitianTuple(np.array([A1, -2.0 * A1, A2]))), X)
    assert cert.verdict not in (Verdict.NON_MEMBER, Verdict.INTERIOR)
    assert cert.bounded_flag is False
    assert any("flagged unbounded" in caveat for caveat in cert.caveats)


def test_boundedness_memo_is_kept_per_tolerance_profile():
    # diag(1, -0.05) cuts out [-20, 1] at level 1: bounded at the default band,
    # while at psd_tol = 0.1 the ray c = -1 (top eigenvalue 0.05) reads unbounded.
    from freespec.pencil import ensure_bounded_flag

    P = Pencil(HermitianTuple(np.array([np.diag([1.0, -0.05])])))
    assert ensure_bounded_flag(P, ToleranceProfile(psd_tol=0.1)) is False
    cert = classify(P, HermitianTuple(np.ones((1, 1, 1))))
    assert cert.verdict != Verdict.INTERIOR
    assert cert.bounded_flag is True and cert.caveats == ()


def test_classify_off_the_boundary_reports_no_boundedness_flag():
    P = Pencil(spin_tuple(3))
    X4 = free_extreme_level4()
    inside, outside = X4.scaled(0.5), X4.scaled(2.0)
    assert classify(P, inside).bounded_flag is None
    assert classify(P, X4).bounded_flag is True
    assert classify(P, inside).bounded_flag is None
    assert classify(P, outside).bounded_flag is None


def test_classify_of_a_rescaled_pencil_carries_no_unbounded_caveat():
    # (c A, X / c) has the same pencil value for every c; the boundedness
    # heuristic must not flag c A as unbounded when c is small.
    A, X = spin_tuple(3).mats, free_extreme_level4().mats
    for k in range(-10, 10):
        c = 10.0 ** k
        cert = classify(Pencil(HermitianTuple(c * A)), HermitianTuple(X / c))
        assert cert.verdict == Verdict.FREE, k
        assert cert.bounded_flag and cert.caveats == (), k
