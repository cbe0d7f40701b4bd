import numpy as np
import pytest

from freespec.ballsets import (_ball_pencil, containment_chain_experiment, matrix_ball_arveson,
                               matrix_ball_membership, qd_membership,
                               selfdual_ball_membership, wmax_ball_membership,
                               wmin_ball_element)
from freespec.errors import ParameterError, PreconditionError
from freespec.extremality import column_dilation_system, dilation_step
from freespec.linalg import HermitianTuple, ToleranceProfile, random_hermitian_tuple
from freespec.pencil import membership
from freespec.spin import pauli_tuple, spin_tuple
from freespec.sphere import top_eigenvalue_extremum, unit_sphere_grid

from _oracles import singular_values_2x2

SQRT3 = np.sqrt(3.0)


def test_matrix_ball_scaled_spin_on_boundary():
    F = spin_tuple(3)
    verdict = matrix_ball_membership(HermitianTuple(F.mats / SQRT3))
    assert verdict.member
    assert abs(verdict.margin) <= 1e-12  # squares sum exactly to the identity


def test_matrix_ball_zero_and_unscaled_spin():
    assert matrix_ball_membership(HermitianTuple(np.zeros((3, 2, 2)))).margin == 1.0
    verdict = matrix_ball_membership(spin_tuple(3))
    assert not verdict.member
    assert abs(verdict.margin + 2.0) < 1e-12  # squares sum to three identities


def test_matrix_ball_arveson_flat_branch():
    F = spin_tuple(3)
    cert = matrix_ball_arveson(HermitianTuple(F.mats / SQRT3))
    assert cert.arveson_extreme
    assert cert.flat_branch


@pytest.mark.parametrize("X", [HermitianTuple(spin_tuple(3).mats / SQRT3),
                               HermitianTuple(np.array([[[1.0]], [[0.0]]]))])
def test_flat_branch_is_decided_by_the_column_system(X):
    # At kernel dimension n every beta_i is orthogonal to V = C^n: no column.
    cert = matrix_ball_arveson(X)
    assert cert.arveson_extreme and cert.flat_branch and cert.nullity == 0
    pencil = _ball_pencil(X.g)
    column = column_dilation_system(pencil, X, membership(pencil, X).kernel)
    assert column.nullity == 0
    assert np.isfinite(cert.smallest_retained)
    assert cert.smallest_retained == column.smallest_retained


def test_matrix_ball_arveson_strict_contraction_dilates():
    F = spin_tuple(2)
    cert = matrix_ball_arveson(HermitianTuple(F.mats / 2.0))
    assert not cert.arveson_extreme
    dil = cert.dilation
    assert dil is not None
    assert matrix_ball_membership(dil).member
    assert np.abs(dil[:, :2, :2] - F.mats / 2.0).max() < 1e-12
    assert max(np.linalg.norm(dil[j, :2, 2]) for j in range(2)) > 1e-12


def test_matrix_ball_arveson_scalar_pair():
    X = HermitianTuple(np.array([[[1.0]], [[0.0]]], dtype=complex))
    cert = matrix_ball_arveson(X)
    assert cert.arveson_extreme
    assert cert.flat_branch  # scalar square sums to exactly 1


def test_matrix_ball_arveson_inside_rank_cutoff():
    # The ball pencil's smallest eigenvalue, 3e-9, lies above psd_tol but
    # inside the rank cutoff: it is kernel for the test and for the scale.
    x = 1.0 - 3e-9
    cert = matrix_ball_arveson(HermitianTuple(np.array([[[x]]])))
    assert cert.arveson_extreme and cert.flat_branch
    cert = matrix_ball_arveson(HermitianTuple(np.array([[[x, 0.0], [0.0, 0.5]]])))
    assert not cert.arveson_extreme and not cert.flat_branch and cert.nullity == 1
    assert matrix_ball_membership(cert.dilation).member
    assert np.abs(cert.dilation[0, :2, 2]).max() > 0.5


def test_nonflat_ball_extreme_points_admit_no_one_row_dilation():
    # Seeded dilation chains end at Arveson extreme points that are not
    # flat (the sum of squares is not the identity): the column system
    # certifies them.  No random one-row dilation of one stays in the ball.
    rng = np.random.default_rng(7)
    for k in range(12):
        g, n = 2 + k % 2, 1 + k % 3
        X = random_hermitian_tuple(rng, n, g).mats
        X = X * 0.6 / np.sqrt(np.linalg.eigvalsh(np.einsum("iab,ibc->ac", X, X))[-1])
        for _ in range(20):
            cert = matrix_ball_arveson(HermitianTuple(X))
            if cert.arveson_extreme:
                break
            X = cert.dilation
        assert cert.arveson_extreme and not cert.flat_branch and cert.nullity == 0
        m = X.shape[1]
        rows = rng.normal(size=(500, g, m)) + 1j * rng.normal(size=(500, g, m))
        rows /= np.linalg.norm(rows.reshape(500, -1), axis=1)[:, None, None]
        eps = 10.0 ** rng.uniform(-3, -1, size=500)
        Y = np.zeros((500, g, m + 1, m + 1), dtype=complex)
        Y[:, :, :m, :m] = X
        Y[:, :, :m, m] = rows * eps[:, None, None]
        Y[:, :, m, :m] = rows.conj() * eps[:, None, None]
        Y[:, :, m, m] = rng.normal(size=(500, g)) * eps[:, None]
        top = np.linalg.eigvalsh(np.einsum("agij,agjk->aik", Y, Y))[:, -1]
        assert top.min() > 1.0 + 1e-9


BALL_POINTS = (HermitianTuple(spin_tuple(2).mats / 2.0),  # interior: the unit column
               HermitianTuple(np.array([[[1.0, 0.0], [0.0, 0.5]]])),  # boundary, nullity 1
               HermitianTuple(spin_tuple(3).mats / SQRT3))  # flat branch


@pytest.mark.parametrize("X, calls", zip(BALL_POINTS, (2, 2, 1)))
def test_matrix_ball_arveson_reads_the_ball_pencil_once_per_point(X, calls, monkeypatch):
    # One eigh of the ball pencil at X, and one more at the dilation by the
    # guard of the dilation step; membership passes each as a one-block stack.
    eigh, shapes = np.linalg.eigh, []

    def recording(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording)
    matrix_ball_arveson(X)
    g, n = X.g, X.n
    assert shapes == [(1,) + ((g + 1) * n,) * 2, (1,) + ((g + 1) * (n + 1),) * 2][:calls]


@pytest.mark.parametrize("X", BALL_POINTS)
def test_matrix_ball_arveson_dilation_and_margins_match_the_pencil_steps(X):
    cert = matrix_ball_arveson(X)
    assert abs(cert.margin - matrix_ball_membership(X).margin) <= 1e-12
    pencil = _ball_pencil(X.g)
    ball = membership(pencil, X)
    if cert.flat_branch:
        assert cert.dilation is None and cert.dilation_margin is None
        return
    beta = column_dilation_system(pencil, X, ball.kernel).solution
    dilation = dilation_step(pencil, X, ball.range, beta)[1]
    assert np.array_equal(cert.dilation, dilation.mats)
    assert abs(cert.dilation_margin - matrix_ball_membership(dilation).margin) <= 1e-12


def test_matrix_ball_arveson_rejects_nonmember():
    with pytest.raises(PreconditionError):
        matrix_ball_arveson(spin_tuple(3))


def test_selfdual_ball_frozen_margins():
    F2 = spin_tuple(2)
    v = selfdual_ball_membership(HermitianTuple(F2.mats / np.sqrt(2.0)))
    assert abs(v.margin) <= 1e-12
    assert selfdual_ball_membership(HermitianTuple(np.zeros((2, 2, 2)))).margin == 1.0
    # Frozen from the eigensolve oracle: the conjugate-pairing operator of
    # the 2x2 triple has norm 3, so the 1/sqrt(3) scaling sits on the boundary.
    v = selfdual_ball_membership(HermitianTuple(pauli_tuple().mats / SQRT3))
    assert abs(v.margin) <= 1e-12


def test_selfdual_ball_conjugation_invariance():
    rng = np.random.default_rng(22)
    for _ in range(25):
        X = random_hermitian_tuple(rng, int(rng.integers(1, 4)), 3)
        a = selfdual_ball_membership(X).margin
        b = selfdual_ball_membership(X.conj()).margin
        assert abs(a - b) <= 1e-12


def test_wmax_first_two_coordinates_of_triple():
    P = pauli_tuple().mats
    verdict = wmax_ball_membership(HermitianTuple(P[:2]), grid=32, seed=0)
    # Every unit combination of the anticommuting pair is a self-adjoint
    # unitary, so the supremum is exactly 1.
    assert verdict.member and verdict.heuristic
    assert abs(verdict.margin) <= 1e-9


def test_wmax_scalar_refutation():
    X = HermitianTuple(np.array([[[1.1]], [[0.0]], [[0.0]]], dtype=complex))
    verdict = wmax_ball_membership(X, grid=16, seed=0)
    assert not verdict.member and not verdict.heuristic
    c = verdict.witness
    assert abs(abs(c[0]) - 1.0) < 1e-6  # separating direction along the first axis


def test_wmax_scaled_spin_estimate_frozen():
    F = spin_tuple(3)
    verdict = wmax_ball_membership(HermitianTuple(F.mats / SQRT3), grid=32, seed=0)
    assert verdict.member
    assert abs(verdict.margin - (1.0 - 1.0 / SQRT3)) <= 1e-9


def test_sphere_search_refinement_is_monotone():
    rng = np.random.default_rng(23)
    X = random_hermitian_tuple(rng, 2, 3).scaled(0.4)
    dirs = unit_sphere_grid(np.random.default_rng(7), 3, 12)
    estimates = [top_eigenvalue_extremum(X.mats, dirs, r, 1)[0] for r in (0, 5, 20)]
    assert estimates[0] <= estimates[1] + 1e-15
    assert estimates[1] <= estimates[2] + 1e-15


def test_qd_single_matrix_unit():
    E12 = np.zeros((2, 2), complex)
    E12[0, 1] = 1.0
    verdict = qd_membership([E12], seed=0)
    assert verdict.member
    assert abs(verdict.margin) <= 1e-9


def test_qd_pair_of_matrix_units_closed_form():
    E12 = np.zeros((2, 2), complex)
    E12[0, 1] = 1.0
    E21 = E12.T.copy()
    # Closed form: singular values of a unit combination are |l1|, |l2|.
    lam = np.array([0.6, 0.8])
    lo, hi = singular_values_2x2(lam[0] * E12 + lam[1] * E21)
    assert abs(hi - 0.8) < 1e-12 and abs(lo - 0.6) < 1e-12
    verdict = qd_membership([E12, E21], seed=0)
    assert verdict.member
    assert abs(verdict.margin) <= 1e-9


def test_qd_parallel_pair_refuted():
    eye = np.eye(2, dtype=complex)
    verdict = qd_membership([eye, eye], seed=0)
    assert not verdict.member
    assert abs((1.0 - verdict.margin) - np.sqrt(2.0)) <= 1e-9


def test_qd_membership_searches_more_coordinates_than_its_grid_has_directions():
    # 2g = 66 real coordinates exceed the 64 directions: the grid still
    # holds every +/- axis, and the supremum over complex unit lambda of
    # |sum lambda_i t_i| is the norm of t.
    t = np.linspace(0.01, 0.1, 33) * np.exp(1j * np.arange(33))
    verdict = qd_membership(t[:, None, None], seed=0)
    assert verdict.member and verdict.heuristic
    assert abs((1.0 - verdict.margin) - np.linalg.norm(t)) <= 1e-9


def test_qd_membership_makes_no_svd(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("qd_membership called svd")

    monkeypatch.setattr(np.linalg, "svd", refused)
    eye = np.eye(2, dtype=complex)
    assert abs((1.0 - qd_membership([eye, eye], seed=0).margin) - np.sqrt(2.0)) <= 1e-9


def test_qd_membership_refuses_a_dilation_above_the_dense_bound(monkeypatch):
    import freespec.linalg

    # One 3 x 3 matrix: a dilation of side 6 and a grid of 2 * 2 axes.
    T = np.ones((1, 3, 3), dtype=complex)
    monkeypatch.setattr(freespec.linalg, "MAX_DENSE_SIDE", 6)
    assert qd_membership(T, seed=0).margin is not None
    monkeypatch.setattr(freespec.linalg, "MAX_DENSE_SIDE", 5)
    with pytest.raises(ParameterError, match="dilation .* of side 6 exceeds the dense bound 5"):
        qd_membership(T, seed=0)


def test_sphere_searches_refuse_a_direction_grid_above_the_dense_bound(monkeypatch):
    import freespec.linalg

    # 40 scalar coordinates: wmax searches 2 * 40 = 80 axis directions, qd
    # 2 * 80 = 160 in its 80 real coordinates.
    X = np.linspace(0.0, 0.1, 40)[:, None, None]
    monkeypatch.setattr(freespec.linalg, "MAX_DENSE_SIDE", 80)
    assert wmax_ball_membership(X, seed=0).member
    with pytest.raises(ParameterError, match="direction grid .* of side 160 exceeds"):
        qd_membership(X, seed=0)
    monkeypatch.setattr(freespec.linalg, "MAX_DENSE_SIDE", 79)
    with pytest.raises(ParameterError, match="direction grid .* of side 80 exceeds"):
        wmax_ball_membership(X, seed=0)


def test_containment_chain_no_violations():
    for g in (2, 3):
        report = containment_chain_experiment(g, samples=60, seed=0)
        assert report.violations == ()
        assert report.witness_in_matrix_ball
        assert abs(report.witness_pencil_top_eigenvalue - np.sqrt(g)) < 1e-9
        assert report.notes  # the un-oracled chain end is recorded


def test_containment_chain_tests_the_spin_set_through_one_pencil(monkeypatch):
    import freespec.ballsets

    calls = []
    least = freespec.ballsets.least_pencil_eigenvalues

    def recording(Am, X, tol):
        calls.append((Am, len(X)))
        return least(Am, X, tol)

    monkeypatch.setattr(freespec.ballsets, "least_pencil_eigenvalues", recording)
    for g in (2, 3, 4):
        for seed in range(3):
            calls.clear()
            assert containment_chain_experiment(g, samples=60, seed=seed).violations == ()
            # One stacked solve per point size (1, 2 and 3) covers the 60 samples.
            assert [count for _, count in calls] == [20, 20, 20]
            assert all(Am is calls[0][0] for Am, _ in calls)


def test_containment_chain_default_reports_have_no_violations():
    for g in (2, 3, 4):
        for seed in range(4):
            report = containment_chain_experiment(g, seed=seed)
            assert report.violations == (), (g, seed)
            assert report.witness_in_matrix_ball


@pytest.mark.parametrize("psd_tol", [1e-9, 1e-12])
def test_containment_chain_counts_a_margin_of_ten_psd_tol_as_a_violation(psd_tol, monkeypatch):
    import freespec.ballsets

    margins = freespec.ballsets.ball_margins

    def shifted(points, tol):
        ball, selfdual = margins(points, tol)
        if len(points) == 2 * 30:  # the spin and matrix-ball samples
            selfdual[30 + 5] = -10.0 * tol.psd_tol
        return ball, selfdual

    monkeypatch.setattr(freespec.ballsets, "ball_margins", shifted)
    report = containment_chain_experiment(3, samples=30, seed=0,
                                          tol=ToleranceProfile(psd_tol=psd_tol))
    assert report.violations == (("matrix-ball-not-in-selfdual-ball", 5),)


def test_containment_chain_ignores_roundoff_below_a_tight_psd_tol():
    # Boundary samples put margins at a few units of roundoff; with psd_tol
    # below roundoff these must not read as refutations.
    tol = ToleranceProfile(psd_tol=1e-300)
    for g in (2, 3, 4):
        for seed in range(4):
            assert containment_chain_experiment(g, seed=seed, tol=tol).violations == (), (g, seed)


def test_containment_chain_parameter_validation():
    with pytest.raises(ParameterError):
        containment_chain_experiment(1)


def test_wmin_elements_lie_in_every_chain_set():
    from freespec.pencil import membership
    from freespec.spin import spin_tuple as spin

    rng = np.random.default_rng(31)
    for g in (2, 3):
        for _ in range(25):
            X = wmin_ball_element(rng, g, int(rng.integers(1, 4)))
            assert membership(spin(g), X).member
            assert matrix_ball_membership(X).member
            assert selfdual_ball_membership(X).member
