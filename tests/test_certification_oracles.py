"""The certification layer against the explicit reference implementations in
``_oracles``: Kronecker-built Hermitian system, bisection step lengths,
realified commutant and column systems, full-SVD kernels and the
complement-space matrix-ball test."""

import numpy as np
import pytest

import freespec.extremality
import freespec.pencil
from _oracles import (bisection_dilation_scale, bisection_perturbation_range,
                      complement_space_ball_arveson, direct_sum, full_svd_nullity,
                      hermitian_basis_loops, hermitian_product_system, kron_hermitian_system,
                      nullspace, random_unitary, range_step, realified_column_system,
                      realified_commutant_dimension)
from freespec.ballsets import matrix_ball_arveson, matrix_ball_membership
from freespec.errors import NumericalError, PreconditionError
from freespec.extremality import (Verdict, arveson_dilate, classify, column_dilation_system,
                                  hermitian_direction_system, perturbation_range)
from freespec.fixtures import load_fixture
from freespec.linalg import (DEFAULT_TOL, HermitianTuple, SingularFactor, ToleranceProfile,
                             hermitian_from_coordinates, random_hermitian)
from freespec.pencil import (Pencil, batched_linear_part, ensure_bounded_flag, membership,
                            pencil_split, pencil_value)
from freespec.spin import pauli_tuple, random_spin_member, spin_tuple

CASES = [(g, n) for g in (2, 3, 4) for n in range(2, 7)]


def _boundary_point(g, n):
    pencil = Pencil(spin_tuple(g))
    ensure_bounded_flag(pencil)
    X = random_spin_member(np.random.default_rng([g, n]), g, n)
    verdict = membership(pencil, X)
    assert verdict.boundary
    return pencil, X, verdict.kernel


def test_hermitian_basis_layout_matches_loops():
    for n in range(1, 6):
        assert np.array_equal(hermitian_from_coordinates(np.eye(n * n)), hermitian_basis_loops(n))


@pytest.mark.parametrize("g, n", CASES)
def test_eigen_kernel_spans_the_svd_kernel(g, n):
    pencil, X, K = _boundary_point(g, n)
    reference = nullspace(pencil_value(pencil, X))
    assert K.shape[1] == reference.shape[1] >= 1
    P, Q = K @ K.conj().T, reference @ reference.conj().T
    assert np.abs(P - Q).max() < 1e-8


@pytest.mark.parametrize("g, n", CASES)
def test_hermitian_system_matches_kron_oracle(g, n):
    pencil, X, K = _boundary_point(g, n)
    report = hermitian_direction_system(column_dilation_system(pencil, X, K))
    A = pencil.coefficients.mats
    nullity, smallest = kron_hermitian_system(A, X.mats, K)
    assert report.nullity == nullity
    assert report.smallest_retained == pytest.approx(smallest, rel=1e-10)
    beta = report.solution
    if nullity == 0:
        assert beta is None
        return
    assert beta.shape == (g, n, n)
    assert np.abs(beta - beta.conj().transpose(0, 2, 1)).max() == 0.0
    assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
    B = sum(np.kron(Ai, bi) for Ai, bi in zip(A, beta))
    assert np.abs(B @ K).max() < 1e-8


@pytest.mark.parametrize("g, n", CASES)
def test_step_length_matches_bisection(g, n):
    pencil, X, K = _boundary_point(g, n)
    report = hermitian_direction_system(column_dilation_system(pencil, X, K))
    if report.nullity == 0:
        pytest.skip("Euclidean extreme point: no perturbation direction")
    beta = report.solution
    alpha = perturbation_range(pencil, pencil_value(pencil, X), beta, membership(pencil, X).range)
    reference = bisection_perturbation_range(pencil.coefficients.mats, X.mats, beta)
    assert alpha == pytest.approx(reference, rel=1e-7)
    for sign in (1.0, -1.0):
        assert membership(pencil, HermitianTuple(X.mats + sign * alpha * beta)).member
    beyond = [membership(pencil, HermitianTuple(X.mats + s * 1.01 * alpha * beta)).member
              for s in (1.0, -1.0)]
    assert not all(beyond)


def test_step_length_guard_and_precondition():
    pencil, X, _ = _boundary_point(3, 4)
    W = membership(pencil, X).range
    # X itself does not vanish on the kernel: L(X) = I - B(X) gives B(X) K = K.
    with pytest.raises(NumericalError):
        perturbation_range(pencil, pencil_value(pencil, X), X.mats / np.linalg.norm(X.mats), W)
    outside = X.scaled(1.5)
    with pytest.raises(PreconditionError):
        perturbation_range(pencil, pencil_value(pencil, outside), X.mats,
                           membership(pencil, outside).range)


def test_step_length_guard_fallback_keeps_alpha_and_names_the_side(monkeypatch):
    pencil, X, K = _boundary_point(3, 4)
    report = hermitian_direction_system(column_dilation_system(pencil, X, K))
    assert report.nullity > 0
    beta = report.solution
    W = membership(pencil, X).range
    alpha = perturbation_range(pencil, pencil_value(pencil, X), beta, W)

    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing)
    assert perturbation_range(pencil, pencil_value(pencil, X), beta, W) == alpha
    # B(X) K = K, so X + alpha X / |X| leaves the set and X - alpha X / |X|
    # does not; the message names the side and its margin below -psd_tol.
    with pytest.raises(NumericalError, match=r"^X \+ \S+ beta .*least eigenvalue -\S+, \S+ below"):
        perturbation_range(pencil, pencil_value(pencil, X), X.mats / np.linalg.norm(X.mats), W)


def test_commutant_dimensions_match_realified_oracle():
    x4 = load_fixture("freeex4")[0]
    x6 = load_fixture("freeex6")[0]
    cases = [(direct_sum([x4, x6]), 2), (direct_sum([x4, x6, x4]), 5),
             (direct_sum([x4, x4]), 4), (pauli_tuple(), 1), (spin_tuple(3), 2)]
    for X, dim in cases:
        basis = freespec.extremality._commutant_basis(X, DEFAULT_TOL)[0]
        assert len(basis) == dim
        assert realified_commutant_dimension(X.mats) == dim
        C = freespec.extremality._nonscalar_element(basis)
        if dim == 1:
            assert C is None
            continue
        assert np.abs(C - C.conj().T).max() == 0.0
        assert max(np.abs(C @ Xi - Xi @ C).max() for Xi in X.mats) < 1e-8
        assert abs(np.trace(C)) < 1e-8 and np.linalg.norm(C) == pytest.approx(1.0)


def test_tall_and_wide_kernels_match_full_svd():
    rng = np.random.default_rng(11)
    for m, n, rank in ((40, 12, 9), (12, 40, 9), (30, 30, 30), (25, 10, 10)):
        real = rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n))
        factor = SingularFactor(real)
        basis, smallest = factor.kernel(), factor.smallest_retained
        nullity, reference = full_svd_nullity(real)
        assert basis.shape == (n, nullity) and smallest == pytest.approx(reference, rel=1e-10)
        assert np.abs(real @ basis).max(initial=0.0) < 1e-10
        cplx = ((rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank)))
                @ (rng.normal(size=(rank, n)) + 1j * rng.normal(size=(rank, n))))
        solution = SingularFactor(cplx)
        realified = np.block([[cplx.real, -cplx.imag], [cplx.imag, cplx.real]])
        nullity, reference = full_svd_nullity(realified)
        assert 2 * solution.nullity == nullity
        assert solution.smallest_retained == pytest.approx(reference, rel=1e-10)
        assert np.abs(cplx @ solution.kernel()).max(initial=0.0) < 1e-10
        assert nullspace(cplx).shape[1] == solution.nullity


def test_classify_makes_no_search_probes(monkeypatch):
    pencil, X, _ = _boundary_point(3, 6)
    counts = {"membership": 0, "svd": 0}

    def counting(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    counted = counting("membership", freespec.pencil.membership)
    monkeypatch.setattr(freespec.pencil, "membership", counted)
    monkeypatch.setattr(freespec.extremality, "membership", counted)
    monkeypatch.setattr(np.linalg, "svd", counting("svd", np.linalg.svd))
    cert = classify(pencil, X)
    assert cert.verdict == Verdict.BOUNDARY and cert.witness.alpha > 0.0
    # One verdict plus one guard at each of +/- alpha; one SVD per system
    # (Hermitian directions, column dilation, commutant).
    assert counts["membership"] <= 3
    assert counts["svd"] <= 3


def _near_reducible(seed, eps):
    """A Haar conjugate of freeex4 + freeex6 + freeex4 (commutant dimension 5)
    plus a Hermitian perturbation of relative Frobenius size eps."""
    x4 = load_fixture("freeex4")[0]
    x6 = load_fixture("freeex6")[0]
    X = direct_sum([x4, x6, x4]).mats
    rng = np.random.default_rng(seed)
    U = random_unitary(rng, X.shape[1])
    Y = np.einsum("ab,ibc,dc->iad", U, X, U.conj())
    E = np.array([random_hermitian(rng, X.shape[1]) for _ in X])
    E *= np.linalg.norm(Y) / np.linalg.norm(E)
    return HermitianTuple(Y + eps * E)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("eps, dim", [(0.0, 5), (1e-12, 5), (1e-9, 5), (1e-7, 1), (1e-5, 1)])
def test_generic_element_commutant_near_reducible(seed, eps, dim):
    X = _near_reducible(seed, eps)
    basis = freespec.extremality._commutant_basis(X, DEFAULT_TOL)[0]
    assert len(basis) == realified_commutant_dimension(X.mats) == dim
    C = freespec.extremality._nonscalar_element(basis)
    if dim == 1:
        assert C is None
    else:
        assert max(np.abs(C @ Xi - Xi @ C).max() for Xi in X.mats) < 1e-8


@pytest.mark.parametrize("g, n", [(2, 3), (2, 8), (3, 6), (3, 11), (4, 9), (4, 14)])
def test_generic_element_commutant_irreducible(g, n):
    X = random_spin_member(np.random.default_rng([g, n, 7]), g, n)
    basis = freespec.extremality._commutant_basis(X, DEFAULT_TOL)[0]
    assert len(basis) == realified_commutant_dimension(X.mats) == 1
    assert freespec.extremality._nonscalar_element(basis) is None


@pytest.mark.parametrize("g, n", [(3, 14), (4, 10)])
def test_classify_hermitian_witness_matches_full_system(g, n):
    pencil, X, K = _boundary_point(g, n)
    A = pencil.coefficients.mats
    nullity, smallest = kron_hermitian_system(A, X.mats, K)
    cert = classify(pencil, X)
    assert cert.verdict == Verdict.BOUNDARY
    assert cert.beta_nullity_hermitian == nullity > 0
    assert cert.residuals["hermitian_smallest_retained"] == pytest.approx(smallest, rel=1e-10)
    assert np.sqrt(DEFAULT_TOL.rank_tol) < cert.residuals["commutant_cluster_gap"] < np.inf
    beta, alpha = cert.witness.direction, cert.witness.alpha
    assert np.abs(beta - beta.conj().transpose(0, 2, 1)).max() == 0.0
    assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
    B = sum(np.kron(Ai, bi) for Ai, bi in zip(A, beta))
    assert np.abs(B @ K).max() < 1e-8
    assert alpha == pytest.approx(bisection_perturbation_range(A, X.mats, beta), rel=1e-7)


def test_singular_factor_null_vector_and_kernel():
    rng = np.random.default_rng(5)
    for m, n, rank in ((12, 40, 9), (40, 12, 9), (30, 30, 22), (25, 10, 10)):
        for M in (rng.normal(size=(m, rank)) @ rng.normal(size=(rank, n)),
                  (rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank)))
                  @ rng.normal(size=(rank, n))):
            factor = SingularFactor(M)
            nullity, smallest = full_svd_nullity(M)
            assert factor.nullity == nullity
            assert factor.smallest_retained == pytest.approx(smallest, rel=1e-10)
            kernel = factor.kernel()
            assert kernel.shape == (n, nullity)
            assert np.abs(kernel.conj().T @ kernel - np.eye(nullity)).max(initial=0.0) < 1e-12
            v = factor.null_vector()
            if nullity == 0:
                assert v is None
                continue
            assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
            assert np.abs(M @ v).max() < 1e-10 * np.abs(M).max()


def test_hermitian_product_system_matches_basis_products():
    rng = np.random.default_rng(3)
    for g, m, n in ((1, 1, 1), (2, 3, 4), (3, 8, 5)):
        P = rng.normal(size=(g, m, n)) + 1j * rng.normal(size=(g, m, n))
        cols = [(Pi @ H.T).ravel() for Pi in P for H in hermitian_basis_loops(n)]
        reference = np.vstack([np.array(cols).T.real, np.array(cols).T.imag])
        assert np.abs(hermitian_product_system(P) - reference).max() < 1e-14


def test_boundary_classify_decomposes_only_square_factors(monkeypatch):
    # The copy of the Hermitian system's adjoint at (3, 14) is 156 x 56; its
    # SVD must be taken of the 56 x 56 QR factor, never of a 588-row matrix.
    # At column rank 2 < 14 the verdict takes only the column system's SVD;
    # the Hermitian system's and the commutant's come with their reads.
    pencil, X, _ = _boundary_point(3, 14)
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    cert = classify(pencil, X)
    assert cert.verdict == Verdict.BOUNDARY and len(shapes) == 1
    assert cert.beta_nullity_hermitian > 0 and cert.commutant_dim == 1
    assert len(shapes) == 3 and all(m == n < 3 * 14 * 14 for m, n in shapes)


def test_boundary_classify_eigendecomposes_the_pencil_value_once(monkeypatch):
    # One evaluation and one eigh of L(X) give the verdict, the kernel, its
    # residual and the whitened range of the step length, and one Cholesky
    # factorization of the stacked L(X +/- alpha beta) guards the step.  The
    # other eigh, of the generic commutant element, comes with the first read
    # of the commutant.
    pencil, X, _ = _boundary_point(3, 6)
    L = pencil_value(pencil, X)
    on_pencil_value, cholesky_shapes, points = [], [], []
    eigh, cholesky, linear_part = np.linalg.eigh, np.linalg.cholesky, freespec.pencil.linear_part

    def recording_eigh(a, *args, **kwargs):
        on_pencil_value.append(np.shape(a) == L.shape and np.abs(a - L).max() <= 1e-12)
        return eigh(a, *args, **kwargs)

    def recording_cholesky(a, *args, **kwargs):
        cholesky_shapes.append(np.shape(a))
        return cholesky(a, *args, **kwargs)

    def recording_linear_part(A, Y):
        Ym = freespec.pencil.tuple_mats(Y)
        points.append(Ym.shape == X.mats.shape and np.abs(Ym - X.mats).max() == 0.0)
        return linear_part(A, Y)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    monkeypatch.setattr(np.linalg, "cholesky", recording_cholesky)
    monkeypatch.setattr(freespec.pencil, "linear_part", recording_linear_part)
    monkeypatch.setattr(freespec.extremality, "linear_part", recording_linear_part)
    cert = classify(pencil, X)
    assert cert.verdict == Verdict.BOUNDARY and cert.witness.alpha > 0.0
    assert on_pencil_value == [True]
    assert cert.commutant_dim == 1
    assert len(on_pencil_value) == 2 and on_pencil_value[0] and not on_pencil_value[1]
    assert cholesky_shapes == [(2, L.shape[0], L.shape[0])]
    assert sum(points) == 1
    assert not hasattr(freespec.extremality, "range_split")


def _arveson_point(n):
    """A direct sum of the level-4 and level-6 free extreme points of the
    length-3 spin set: Arveson extreme, reducible, size n = 10 or 14."""
    x4 = load_fixture("freeex4")[0]
    x6 = load_fixture("freeex6")[0]
    pencil = Pencil(spin_tuple(3))
    X = direct_sum([x4, x6] if n == 10 else [x4, x6, x4])
    return pencil, X, membership(pencil, X).kernel


@pytest.mark.parametrize("case", CASES + [(3, 14), (4, 10), ("arveson", 10), ("arveson", 14)])
def test_column_system_matches_realified_oracle(case):
    g, n = case
    pencil, X, K = _arveson_point(n) if g == "arveson" else _boundary_point(g, n)
    report = column_dilation_system(pencil, X, K)
    A = pencil.coefficients.mats
    nullity, smallest = realified_column_system(A, K, n)
    assert report.nullity == nullity
    assert report.smallest_retained == pytest.approx(smallest, rel=1e-10)
    beta = report.solution
    if nullity == 0:
        assert g == "arveson" and beta is None
        return
    assert beta.shape == (A.shape[0], n)
    assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
    C = sum(np.kron(Ai, bi[:, None]) for Ai, bi in zip(A, beta))
    assert np.abs(K.conj().T @ C).max() < 1e-8


@pytest.mark.parametrize("g", [2, 3])
def test_dilation_scale_matches_bisection_along_chains(g, monkeypatch):
    monkeypatch.setattr(freespec.extremality, "MAX_DILATION_STEPS", 6)
    pencil = Pencil(spin_tuple(g))
    A = pencil.coefficients.mats
    rng = np.random.default_rng([g, 41])
    checked = 0
    for X in (HermitianTuple(np.zeros((g, 1, 1))), random_spin_member(rng, g, 2, scale=0.6),
              random_spin_member(rng, g, 3)):
        result = arveson_dilate(pencil, X)
        Y = result.point.mats
        for k, step in enumerate(result.steps):
            m = X.n + k
            beta = Y[:, :m, m] / step.alpha
            reference = bisection_dilation_scale(A, Y[:, :m, :m], beta)
            assert step.alpha == pytest.approx(reference, rel=1e-7)
            checked += 1
    assert checked >= 10


def test_matrix_ball_test_matches_complement_space_oracle():
    # Seeded draws scaled into the ball, each followed by its own dilation
    # when it has one: the dilations are where non-flat extreme points turn up.
    rng = np.random.default_rng(2024)
    counts = {"flat": 0, "extreme": 0, "dilated": 0}
    for k in range(240):
        g, n = 1 + k % 3, 1 + (k // 3) % 3
        scale = (0.6, 1.0)[(k // 9) % 2]
        X = np.array([random_hermitian(rng, n) for _ in range(g)])
        X *= scale / np.sqrt(np.linalg.eigvalsh(np.einsum("iab,ibc->ac", X, X))[-1])
        while X is not None:
            cert = matrix_ball_arveson(HermitianTuple(X))
            extreme, flat, nullity, _ = complement_space_ball_arveson(X)
            assert cert.arveson_extreme == extreme and cert.flat_branch == flat
            assert cert.nullity == nullity
            counts["flat" if flat else "extreme" if extreme else "dilated"] += 1
            dil, m = cert.dilation, X.shape[1]
            if dil is not None:
                assert matrix_ball_membership(dil).member and cert.dilation_margin >= -1e-9
                assert np.abs(dil[:, :m, :m] - X).max() == 0.0
                assert np.abs(dil[:, m, m]).max() == 0.0
                assert np.linalg.norm(dil[:, :m, m]) > 1e-12
            X = dil if m == n else None
    assert min(counts.values()) >= 10


def _kernel_residual(A, beta, K):
    """max |(sum_i A_i kron beta_i) K| for a (g, n, n) tuple beta."""
    d, n, k = A.shape[1], beta.shape[1], K.shape[1]
    return np.abs(np.einsum("iab,ipq,bqc->apc", A, beta, K.reshape(d, n, k))).max()


@pytest.mark.parametrize("case", [(3, 14), (4, 8), ("arveson", 10), ("arveson", 14)])
def test_compressed_hermitian_system_matches_kron_oracle(case):
    g, n = case
    pencil, X, K = _arveson_point(n) if g == "arveson" else _boundary_point(g, n)
    report = hermitian_direction_system(column_dilation_system(pencil, X, K))
    A = pencil.coefficients.mats
    nullity, smallest = kron_hermitian_system(A, X.mats, K)
    assert report.nullity == nullity
    assert report.smallest_retained == pytest.approx(smallest, rel=1e-10)
    beta = report.solution
    assert (beta is None) == (nullity == 0)
    if beta is not None:
        assert beta.shape == X.mats.shape
        assert np.abs(beta - beta.conj().transpose(0, 2, 1)).max() == 0.0
        assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)
        assert _kernel_residual(A, beta, K) < 1e-8


def test_null_column_system_leaves_every_hermitian_direction(monkeypatch):
    # A rank cutoff above every singular value leaves the column system at
    # rank r = 0: every Hermitian tuple is a direction, and no empty matrix
    # is factored.  Rescaling the coefficients cannot get there: the column
    # system is built from A over its largest entry.
    pencil, X, K = _boundary_point(3, 4)
    tol = ToleranceProfile(rank_tol=2.0)
    A = pencil.coefficients.mats
    nullity, smallest = kron_hermitian_system(A, X.mats, K, rank_tol=2.0)
    assert nullity == 3 * 4 * 4 and smallest == np.inf
    shapes = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    report = hermitian_direction_system(column_dilation_system(pencil, X, K, tol), tol)
    assert (report.nullity, report.smallest_retained) == (nullity, np.inf)
    beta = report.solution
    assert len(shapes) == 2 and all(min(shape) > 0 for shape in shapes)
    assert beta.shape == (3, 4, 4)
    assert np.abs(beta - beta.conj().transpose(0, 2, 1)).max() == 0.0
    assert np.linalg.norm(beta) == pytest.approx(1.0, abs=1e-12)


def test_boundary_classify_builds_the_kernel_products_once(monkeypatch):
    pencil, X, _ = _boundary_point(4, 10)
    calls = []
    products = freespec.extremality._kernel_products

    def counting(*args):
        calls.append(args)
        return products(*args)

    monkeypatch.setattr(freespec.extremality, "_kernel_products", counting)
    assert classify(pencil, X).verdict == Verdict.BOUNDARY
    assert len(calls) == 1


def _seeded_boundary_point(g, n, seed):
    pencil = Pencil(spin_tuple(g))
    ensure_bounded_flag(pencil)
    X = random_spin_member(np.random.default_rng([g, n, seed]), g, n)
    verdict = membership(pencil, X)
    assert verdict.boundary
    return pencil, X, verdict.kernel


def _column_factor(pencil, X, K):
    return SingularFactor(freespec.extremality._kernel_products(pencil.coefficients.mats,
                                                                X.mats, K))


def _retained_rows(column, g, n):
    """(g, n, r) stack of the V_i: coordinate i of the retained rows S_r V_r*."""
    r = max(column.rank, 1)
    N = column.singular[:r, None] * column.rows[:, :r].conj().T
    return N.reshape(r, g, n).transpose(1, 2, 0)


@pytest.mark.parametrize("g, n, seed", [(g, n, seed) for g, sizes in ((3, (6, 10, 14)), (4, (6, 10)))
                                        for n in sizes for seed in range(3)] + [(4, 24, 0)])
def test_projected_adjoint_has_the_scatter_systems_singular_values(g, n, seed):
    pencil, X, K = _seeded_boundary_point(g, n, seed)
    column = _column_factor(pencil, X, K)
    V = _retained_rows(column, g, n)
    reference = SingularFactor(hermitian_product_system(V.transpose(0, 2, 1)))
    psi = freespec.extremality._hermitian_adjoint(V.transpose(2, 0, 1))[0]
    s = min(n, V.shape[2])
    assert psi.shape == (g * (2 * n * s - s * s), 2 * V.shape[2] * n) and len(psi) < g * n * n
    projected = SingularFactor(psi)
    assert projected.rank == reference.rank
    common = min(len(projected.singular), len(reference.singular))
    assert np.abs(projected.singular[:common] - reference.singular[:common]).max() \
        <= 1e-12 * reference.singular[0]
    assert projected.smallest_retained == pytest.approx(reference.smallest_retained, rel=1e-12)


def test_classify_matches_kron_oracle_on_every_case_and_covers_full_column_rank():
    ranks = []
    for g, n in CASES:
        pencil, X, K = _boundary_point(g, n)
        cert = classify(pencil, X)
        A = pencil.coefficients.mats
        nullity, smallest = kron_hermitian_system(A, X.mats, K)
        assert cert.beta_nullity_hermitian == nullity
        assert cert.residuals["hermitian_smallest_retained"] == pytest.approx(smallest, rel=1e-10)
        ranks.append((g * n - cert.beta_nullity_column, n))
        if cert.witness.kind != "hermitian":
            continue
        beta, alpha = cert.witness.direction, cert.witness.alpha
        B = sum(np.kron(Ai, bi) for Ai, bi in zip(A, beta))
        assert np.abs(B @ K).max() < 1e-8
        # The bisection's band is narrowed as in the rank-one witness test below.
        reference = bisection_perturbation_range(A, X.mats, beta, psd_tol=1e-12)
        assert alpha == pytest.approx(reference, rel=1e-7)
    # At column rank r >= n there is no exact witness: it comes from the left
    # null space of the adjoint's copy.
    assert any(r >= size for r, size in ranks)


@pytest.mark.parametrize("g, n, seed", [(3, 14, 0), (3, 14, 1), (4, 10, 0), (4, 10, 1)])
def test_classify_rank_one_witness_is_exact(g, n, seed):
    pencil, X, K = _seeded_boundary_point(g, n, seed)
    cert = classify(pencil, X)
    V = _retained_rows(_column_factor(pencil, X, K), g, n)
    assert cert.verdict == Verdict.BOUNDARY and V.shape[2] < n
    beta, alpha = cert.witness.direction, cert.witness.alpha
    support = [i for i in range(g) if np.abs(beta[i]).max() > 0.0]
    assert support == [0] and np.linalg.matrix_rank(beta[0]) == 1
    assert np.linalg.norm(np.einsum("iab,ibc->ac", beta, V)) <= 1e-13 * np.linalg.norm(V)
    A = pencil.coefficients.mats
    B = sum(np.kron(Ai, bi) for Ai, bi in zip(A, beta))
    assert np.abs(B @ K).max() < 1e-8
    # The bisection accepts a least eigenvalue down to -psd_tol, which
    # lengthens its step by psd_tol / |slope| of that eigenvalue; along a
    # rank-one direction the slope can be small (0.03 at seed 1 of (3, 14),
    # a 1.6e-7 relative excess at psd_tol = 1e-9), so the band is narrowed.
    reference = bisection_perturbation_range(A, X.mats, beta, psd_tol=1e-12)
    assert alpha == pytest.approx(reference, rel=1e-7)


def test_boundary_classify_factors_no_matrix_of_the_full_hermitian_size(monkeypatch):
    g, n = 4, 24
    pencil, X, _ = _seeded_boundary_point(g, n, 0)
    shapes = []

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            shapes.append((np.shape(a), np.iscomplexobj(a)))
            return fn(a, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "qr", recording(np.linalg.qr))
    monkeypatch.setattr(np.linalg, "svd", recording(np.linalg.svd))
    cert = classify(pencil, X)
    assert cert.verdict == Verdict.BOUNDARY
    s = min(n, g * n - cert.beta_nullity_column)
    # The real matrices are the Hermitian-direction system's; the complex
    # g n^2-row one is the commutant's block system.  At s < n the verdict
    # factors neither: both come with the reads of their fields.
    assert s < n and all(complex_ for _, complex_ in shapes)
    assert all(shape[-2] != g * n * n for shape, _ in shapes)
    assert "hermitian_smallest_retained" in cert.residuals
    real = [shape for shape, complex_ in shapes if not complex_]
    assert real and all(shape[-2] != g * n * n for shape in real)
    assert all(shape[-2] <= g * (2 * n * s - s * s) for shape in real)


def _haar_conjugate(parts, seed):
    X = direct_sum(parts).mats
    U = random_unitary(np.random.default_rng(seed), X.shape[1])
    return np.einsum("ab,ibc,dc->iad", U, X, U.conj())


def _commutant_case(case):
    """A seeded spin boundary point of size (g, n), or a Haar conjugate of
    freeex4 + freeex4 (commutant dimension 4) or freeex4 + freeex6 + freeex4
    (dimension 5), whose generic elements have 2 x 2 clusters."""
    if case[0] == "spin":
        return random_spin_member(np.random.default_rng([case[1], case[2], 0]), *case[1:]).mats
    x4, x6 = (load_fixture(name)[0] for name in ("freeex4", "freeex6"))
    return _haar_conjugate([x4, x4] if case == ("sum", 44) else [x4, x6, x4], 13)


@pytest.mark.parametrize("case", [("spin", g, n) for g, sizes in ((3, (6, 10, 14)), (4, (6, 10, 24)))
                                  for n in sizes] + [("sum", 44), ("sum", 464)])
def test_commutant_basis_commutes_and_matches_the_realified_dimension(case):
    X = _commutant_case(case)
    basis, gap = freespec.extremality._commutant_basis(X, DEFAULT_TOL)
    assert len(basis) == realified_commutant_dimension(X) == {("sum", 44): 4,
                                                              ("sum", 464): 5}.get(case, 1)
    assert np.abs(np.einsum("kab,ibc->kiac", basis, X)
                  - np.einsum("iab,kbc->kiac", X, basis)).max() < 1e-10
    # The generic element of the sums repeats each eigenvalue of freeex4
    # (and of freeex6) once per copy; the gap is the least between the others.
    w = np.linalg.eigvalsh(np.tensordot(
        np.random.default_rng(20100517).uniform(1.0, 2.0, len(X)), X, axes=1))
    gaps = np.diff(w)
    assert gap == pytest.approx(gaps[gaps > 1e-4 * np.abs(w).max()].min(), rel=1e-12)


@pytest.mark.parametrize("g, n", [(3, 6), (3, 10), (3, 14), (4, 6), (4, 10), (4, 24), (4, 48)])
def test_rank_one_step_length_matches_the_range_problem(g, n):
    pencil, X, K = _seeded_boundary_point(g, n, 0)
    W = membership(pencil, X).range
    column = column_dilation_system(pencil, X, K)
    report = hermitian_direction_system(column)
    u, rank_one = freespec.extremality._rank_one(column.retained_rows)
    assert u is not None
    beta = report.solution
    alpha = perturbation_range(pencil, pencil_value(pencil, X), rank_one, W, u=u)
    assert np.array_equal(beta, rank_one)
    assert alpha == pytest.approx(range_step(pencil.coefficients.mats, beta, W), rel=1e-12)
    assert alpha == pytest.approx(perturbation_range(pencil, pencil_value(pencil, X), beta, W),
                                  rel=1e-12)


def test_rank_one_step_length_solves_no_eigenproblem_above_d(monkeypatch):
    pencil, X, K = _seeded_boundary_point(4, 24, 0)
    W = membership(pencil, X).range
    u, beta = freespec.extremality._rank_one(column_dilation_system(pencil, X, K).retained_rows)
    shapes = []

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
    perturbation_range(pencil, pencil_value(pencil, X), beta, W, u=u)
    assert shapes and all(shape[-1] <= pencil.d for shape in shapes)


_CERTIFY_SIZES = [(3, 6), (3, 10), (3, 14), (4, 6), (4, 10)]


@pytest.mark.parametrize("g, n, seed", [(g, n, seed) for g, n in _CERTIFY_SIZES
                                        for seed in range(3)] + [(4, 3, None)])
def test_step_guard_tests_the_pencil_at_both_sides(monkeypatch, g, n, seed):
    # The guard's stack [L - alpha B, L + alpha B] is the pencil value at
    # X + alpha beta and X - alpha beta; (4, 3) has column rank r >= n, where
    # beta is the Hermitian system's solution instead of u u*.
    if seed is None:
        pencil, X, _ = _boundary_point(g, n)
    else:
        pencil, X, _ = _seeded_boundary_point(g, n, seed)
    stacks = []

    def recording(stack, tol=DEFAULT_TOL):
        stacks.append(stack.copy())
        return freespec.pencil.psd_members(stack, tol)

    monkeypatch.setattr(freespec.extremality, "psd_members", recording)
    cert = classify(pencil, X)
    assert cert.verdict == Verdict.BOUNDARY and len(stacks) == 1
    reduced = pencil_split(pencil).reduced
    alpha, beta = cert.witness.alpha, np.asarray(cert.witness.direction)
    rank_one = np.linalg.matrix_rank(beta[0]) == 1 and not beta[1:].any()
    assert rank_one == (seed is not None)
    L = pencil_value(reduced, X)
    lam = batched_linear_part(reduced.mats, X.mats + np.multiply.outer([alpha, -alpha], beta))
    reference = np.eye(len(L)) - lam
    assert stacks[0].shape == reference.shape
    assert np.abs(stacks[0] - reference).max() <= 1e-13 * max(np.linalg.norm(L, 2), 1.0)
    # A direction that does not vanish on the kernel fails the guard at X + alpha X / |X|,
    # where B(X) K = K.
    W = membership(reduced, X).range
    with pytest.raises(NumericalError, match=r"^X \+ \S+ beta leaves the free spectrahedron"):
        perturbation_range(reduced, L, X.mats / np.linalg.norm(X.mats), W)


_FIXTURE_SUMS = {"freeex4": ("freeex4",), "freeex6": ("freeex6",),
                 "freeex4+freeex6": ("freeex4", "freeex6"),
                 "freeex4+freeex6+freeex4": ("freeex4", "freeex6", "freeex4")}
# Kernel and commutant dimensions of the free (commutant 1) and Arveson points.
_FIXTURE_SUM_DIMS = {"freeex4": (6, 1), "freeex6": (10, 1), "freeex4+freeex6": (16, 2),
                     "freeex4+freeex6+freeex4": (22, 5)}


def _fixture_sum(name, seed):
    """The direct sum of fixtures ``name``, as given at seed None, else a
    seeded Haar conjugate of it."""
    parts = [load_fixture(part)[0] for part in _FIXTURE_SUMS[name]]
    return HermitianTuple(direct_sum(parts).mats if seed is None else _haar_conjugate(parts, seed))


@pytest.mark.parametrize("name, seed", [(name, seed) for name in _FIXTURE_SUMS
                                        for seed in (None, 1, 2, 3)])
def test_full_column_rank_bounds_the_hermitian_system(name, seed):
    # The Hermitian system is the column system M on every row of the tuple,
    # so its singular values lie within M's: at full column rank its nullity
    # is 0 at the same cutoff, which is why classify does not solve it there.
    pencil = Pencil(spin_tuple(3))
    X = _fixture_sum(name, seed)
    K = membership(pencil, X).kernel
    column = column_dilation_system(pencil, X, K)
    assert column.nullity == 0
    hermitian = hermitian_direction_system(column)
    assert hermitian.nullity == 0
    assert hermitian.smallest_retained >= column.smallest_retained
    kernel_dim, commutant_dim = _FIXTURE_SUM_DIMS[name]
    cert = classify(pencil, X)
    assert cert.verdict == (Verdict.FREE if commutant_dim == 1 else Verdict.ARVESON)
    assert (cert.kernel_dim, cert.commutant_dim) == (kernel_dim, commutant_dim)
    assert (cert.beta_nullity_column, cert.beta_nullity_hermitian) == (0, 0)
    assert "hermitian_smallest_retained" not in cert.residuals
    assert cert.residuals["column_smallest_retained"] == column.smallest_retained
    basis, gap = freespec.extremality._commutant_basis(X, DEFAULT_TOL)
    assert cert.residuals["commutant_cluster_gap"] == gap
    if commutant_dim == 1:
        assert cert.witness is None
    else:
        assert cert.witness.kind == "commutant"
        assert np.array_equal(cert.witness.direction,
                              freespec.extremality._nonscalar_element(basis))


def test_arveson_classify_factors_nothing_above_the_column_system(monkeypatch):
    # At full column rank the column system (k d x g n) is the largest factored:
    # the Hermitian system (1176 x 588 here) is not formed.
    X = _fixture_sum("freeex4+freeex6+freeex4", 5)
    g, n = X.g, X.n
    shapes, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    assert classify(Pencil(spin_tuple(3)), X).verdict == Verdict.ARVESON
    assert shapes and max(max(shape[-2:]) for shape in shapes) <= g * n
