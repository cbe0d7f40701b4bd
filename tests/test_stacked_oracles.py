"""The stacked command-line paths against the loop references in
``_oracles``: the drop witness search, the polar refutation sweep, the
tuple-file writer, the sphere searches scored one direction at a time and
the level-1 self-duality search, whose witnesses the dual pencil and the
polar sweep confirm."""

import io
import json

import numpy as np
import pytest

import freespec.ballsets
import freespec.drops
import freespec.pencil
from freespec import acceptance, sphere
from _oracles import (_kron_pencil_value, gell_mann_tuple, loop_criterion_4, loop_criterion_6,
                      loop_criterion_7, loop_non_selfdual_check,
                      loop_polar_refute, loop_sup_over_sphere, loop_top_eigenvalue_extremum,
                      loop_unit_sphere_grid, loop_witness_search, nested_list_payload,
                      top_eigenvalue_gradient)
from freespec.ballsets import qd_membership, wmax_ball_membership
from freespec.drops import (level1_hull_membership, project_membership_special,
                            witness_search)
from freespec.duality import FullSpanBasis, dual_pencil, polar_membership
from freespec.errors import DimensionError
from freespec.fixtures import fixture_names, load_fixture
from freespec.linalg import HermitianTuple, random_hermitian_tuple
from freespec.pencil import Pencil, boundary_scale, level1_bounded_heuristic, membership
from freespec.sphere import unit_sphere_grid
from freespec.spin import random_spin_member, spin_tuple
from freespec.tupleio import write_tuple


def _hermitian_stack(rng, g, n):
    G = rng.normal(size=(g, n, n)) + 1j * rng.normal(size=(g, n, n))
    return 0.5 * (G + G.conj().transpose(0, 2, 1))


def _gell_mann_nonmember(seed):
    # The compressions by e1 and e3 force X_3 <= 3/2 on the 3-coordinate
    # drop of the Gell-Mann pencil; here max eig X_3 = 2.
    X = _hermitian_stack(np.random.default_rng(seed), 3, 2)
    X[2] *= 2.0 / np.linalg.eigvalsh(X[2])[-1]
    return gell_mann_tuple(3).mats, 3, X


def _projected_member(seed):
    # The first two coordinates of a member of a random 5-variable pencil
    # whose zero padding is not a member: the search has to climb.
    rng = np.random.default_rng(seed)
    A, Z = _hermitian_stack(rng, 5, 3), _hermitian_stack(rng, 5, 2)
    top = np.linalg.eigvalsh(np.eye(6) - _kron_pencil_value(A, Z))[-1]
    X = Z[:2] * 0.95 / top
    padded = np.concatenate([X, np.zeros((3, 2, 2))])
    assert np.linalg.eigvalsh(_kron_pencil_value(A, padded))[0] < -1e-3
    return A, 2, X


DROP_CASES = ([_gell_mann_nonmember(seed) for seed in (100, 101, 102)]
              + [(gell_mann_tuple(3).mats, 3, 0.15 * _gell_mann_nonmember(103)[2])]
              + [_projected_member(seed) for seed in (524, 531, 649)])


@pytest.mark.parametrize("case", range(len(DROP_CASES)))
def test_witness_search_matches_loop_oracle(case, monkeypatch):
    monkeypatch.setattr(freespec.drops, "WITNESS_RESTARTS", 4)
    monkeypatch.setattr(freespec.drops, "WITNESS_ITERS", 30)
    A, keep, X = DROP_CASES[case]
    found, used, infeasibility, Y = loop_witness_search(A, keep, X, restarts=4, iters=30,
                                                        seed=3)
    result = witness_search(Pencil(A), HermitianTuple(X), seed=3)
    assert (result.found, result.restarts_used) == (found, used)
    assert abs(result.best_infeasibility - infeasibility) <= 1e-9
    if found:
        assert result.verdict.member
        assert np.abs(result.witness.mats - Y).max() <= 1e-9


def test_witness_search_cases_cover_members_and_nonmembers():
    found = [loop_witness_search(A, keep, X, restarts=1, iters=30)[0]
             for A, keep, X in DROP_CASES]
    assert 0 < sum(found) < len(found)


def test_witness_search_eigensolves_per_iteration(monkeypatch):
    calls = {"eigvalsh": 0, "eigh": 0, "iterations": 0}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    monkeypatch.setattr(np.linalg, "eigh", counting("eigh", np.linalg.eigh))
    monkeypatch.setattr(freespec.drops, "_first_improving_step",
                        counting("iterations", freespec.drops._first_improving_step))
    A, _, X = DROP_CASES[0]
    result = witness_search(Pencil(A), HermitianTuple(X), seed=0)
    assert not result.found and result.restarts_used == 8
    assert calls["iterations"] > 8
    assert calls["eigvalsh"] <= 5 * calls["iterations"]
    # One eigh at each restart's start and at most one per iteration.
    assert calls["eigh"] <= calls["iterations"] + result.restarts_used


def _polar_case(seed):
    rng = np.random.default_rng(seed)
    samples = [random_spin_member(rng, 3, (1, 2, 3)[k % 3],
                                  scale=(0.6, 1.0, 1.3, 0.8)[k % 4])
               for k in range(24)]
    X = random_hermitian_tuple(rng, 2, 3)
    X = X.scaled(rng.uniform(0.1, 0.8) / np.abs(X.mats).max())
    return samples, X


def test_polar_membership_matches_loop_oracle():
    outcomes = []
    for seed in range(40):
        samples, X = _polar_case(seed)
        expected = loop_polar_refute([Y.mats for Y in samples], X.mats)
        verdict = polar_membership(samples, X)
        assert verdict.member == (expected is None)
        pairings = [np.linalg.eigh(sum(np.kron(Yi, Xi) for Yi, Xi in zip(Y.mats, X.mats)))[0][-1]
                    for Y in samples]
        assert abs(1.0 - verdict.margin - max(pairings)) <= 1e-12
        if expected is not None:
            assert verdict.witness is samples[int(np.argmax(pairings))].mats
        outcomes.append(None if expected is None else samples[expected[0]].n)
    # Refutations by samples of a size after the smallest, and no refutation.
    assert None in outcomes and any(n is not None and n > 1 for n in outcomes)


def test_polar_membership_checks_every_length_first():
    samples, X = _polar_case(0)
    refuting = HermitianTuple(X.mats * 10.0)
    assert not polar_membership([refuting], X).member
    short = HermitianTuple(np.zeros((2, 1, 1)))
    with pytest.raises(DimensionError, match="sample 2"):
        polar_membership([refuting, samples[0], short], X)


def _old_bytes(mats, hermitian=True, comment=None):
    buf = io.StringIO()
    json.dump(nested_list_payload(mats, hermitian, comment), buf, allow_nan=False, indent=1)
    return (buf.getvalue() + "\n").encode("utf-8")


@pytest.mark.parametrize("name", fixture_names())
def test_writer_bytes_match_json_dump_of_nested_payload(name, tmp_path):
    tup, comment = load_fixture(name)
    path = tmp_path / "t.json"
    write_tuple(path, tup, comment=comment)
    assert path.read_bytes() == _old_bytes(tup.mats, True, comment)


def test_writer_bytes_match_for_general_tuple_and_signed_zeros(tmp_path):
    rng = np.random.default_rng(7)
    mats = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    mats[0, 0, 0] = complex(-0.0, -0.0)
    mats[1, 2, 1] = 1e-300 - 2.5e300j
    path = tmp_path / "g.json"
    write_tuple(path, mats)
    assert path.read_bytes() == _old_bytes(mats, hermitian=False)


@pytest.mark.parametrize("seed", range(2))
def test_sphere_searches_match_one_direction_at_a_time(seed):
    rng = np.random.default_rng([seed, 61])
    X = random_hermitian_tuple(rng, 3, 3).scaled(0.3).mats
    dirs = unit_sphere_grid(np.random.default_rng(seed), 3, 64)
    estimate, _ = loop_sup_over_sphere(lambda c: top_eigenvalue_gradient(X, c), dirs, 25)
    assert wmax_ball_membership(X, seed=seed).margin == pytest.approx(1.0 - estimate, abs=1e-12)

    T = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))

    def top_singular(lam):
        u, s, vh = np.linalg.svd(np.einsum("i,iab->ab", lam, T))
        return s[0], np.array([np.vdot(u[:, 0], Ti @ vh[0].conj()) for Ti in T]).conj()

    # The complex directions are the real grid in 2g coordinates, (Re, Im).
    dirs = unit_sphere_grid(np.random.default_rng(seed), 4, 64)
    estimate, _ = loop_sup_over_sphere(top_singular, dirs[:, :2] + 1j * dirs[:, 2:], 25)
    assert qd_membership(T, seed=seed).margin == pytest.approx(1.0 - estimate, abs=1e-9)

    gens = [random_hermitian_tuple(rng, 2, 3).scaled(0.5).mats for _ in range(2)]
    y = rng.uniform(-0.6, 0.6, size=3)

    def violation(c):
        eigs = [np.linalg.eigh(np.einsum("i,iab->ab", c, G)) for G in gens]
        top = max(w[-1] for w, _ in eigs)
        # The gradient averages every generator's eigenvectors in the top band.
        band = top - 1e-8 * max(abs(top - c @ y), 1.0)
        tops = [(G, V[:, w >= band]) for G, (w, V) in zip(gens, eigs)]
        grad = sum(np.einsum("as,iab,bs->i", V.conj(), G, V).real for G, V in tops)
        return float(c @ y) - top, y - grad / sum(V.shape[1] for _, V in tops)

    dirs = unit_sphere_grid(np.random.default_rng(seed), 3, 720)
    value, _ = loop_sup_over_sphere(violation, dirs, 30)
    assert level1_hull_membership(gens, y, seed=seed).margin == pytest.approx(-value, abs=1e-12)


def _against_loop_extremum(monkeypatch, module, run, same_witness=True):
    """``run()`` with ``module``'s sphere search recorded, then each recorded
    call against the one-start-at-a-time reference on the same grid: the
    values agree to 1e-12, the lockstep direction attains its value to 1e-12
    and, unless the maximizer is degenerate, lies within 1e-6 of the
    reference's.  Returns what ``run()`` returned."""
    calls = []

    def recorded(mats, dirs, refine_steps, sign, starts=4):
        out = sphere.top_eigenvalue_extremum(mats, dirs, refine_steps, sign, starts)
        calls.append(((mats, dirs, refine_steps, sign, starts), out))
        return out

    monkeypatch.setattr(module, "top_eigenvalue_extremum", recorded)
    result = run()
    assert calls
    for args, (value, c) in calls:
        reference, ref_dir = loop_top_eigenvalue_extremum(*args)
        assert abs(value - reference) <= 1e-12
        mats = args[0]
        assert abs(np.linalg.eigvalsh(np.tensordot(c, mats, axes=1))[-1] - value) <= 1e-12
        if same_witness:
            assert np.abs(c - ref_dir).max() <= 1e-6
    return result


@pytest.mark.parametrize("g", [1, 2, 3])
@pytest.mark.parametrize("seed", range(3))
def test_lockstep_hull_matches_loop_ascent(g, seed, monkeypatch):
    rng = np.random.default_rng([seed, g, 25])
    gens = [random_hermitian_tuple(rng, 2 + k, g).scaled(0.5).mats for k in range(2)]
    y = rng.uniform(-0.8, 0.8, size=g)
    _against_loop_extremum(monkeypatch, freespec.drops,
                           lambda: level1_hull_membership(gens, y, seed=seed))


@pytest.mark.parametrize("n", [2, 8, 24])
@pytest.mark.parametrize("seed", range(2))
def test_lockstep_wmax_and_qd_match_loop_ascent(n, seed, monkeypatch):
    rng = np.random.default_rng([seed, n, 25])
    X = random_hermitian_tuple(rng, n, 3).scaled(1.0 / np.sqrt(n)).mats
    _against_loop_extremum(monkeypatch, freespec.ballsets,
                           lambda: wmax_ball_membership(X, seed=seed))
    # The qd maximizer is a circle, c[:g] + i c[g:] up to a phase.
    T = (rng.normal(size=(2, n, n)) + 1j * rng.normal(size=(2, n, n))) / n
    _against_loop_extremum(monkeypatch, freespec.ballsets, lambda: qd_membership(T, seed=seed),
                           same_witness=False)


def test_lockstep_qd_at_the_pauli_triple_attains_its_margin(monkeypatch):
    verdict = _against_loop_extremum(monkeypatch, freespec.ballsets,
                                     lambda: qd_membership(load_fixture("pauli")[0], seed=0),
                                     same_witness=False)
    assert verdict.margin == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-12)


def test_lockstep_pauli_drop_matches_loop_ascent(monkeypatch):
    X = random_hermitian_tuple(np.random.default_rng(25), 2, 2).scaled(0.4)
    pencil = Pencil(load_fixture("pauli")[0])
    _against_loop_extremum(monkeypatch, freespec.ballsets,
                           lambda: project_membership_special(pencil, X))


@pytest.mark.parametrize("g", [2, 3, 4, 5])
def test_lockstep_boundedness_on_spin_matches_loop_ascent(g, monkeypatch):
    report = _against_loop_extremum(monkeypatch, freespec.pencil,
                                    lambda: level1_bounded_heuristic(spin_tuple(g)))
    assert report.bounded


def test_lockstep_boundedness_still_certifies_the_line(monkeypatch):
    A = spin_tuple(2).mats
    line = HermitianTuple(np.array([A[0], -2.0 * A[0], A[1]]))
    report = _against_loop_extremum(monkeypatch, freespec.pencil,
                                    lambda: level1_bounded_heuristic(line))
    assert not report.bounded
    ray = report.witness_direction
    assert np.linalg.eigvalsh(np.tensordot(ray, line.mats, axes=1))[-1] <= 1e-9


def _counting_eigensolves(monkeypatch):
    calls = {"n": 0}
    for name in ("eigh", "eigvalsh"):
        def wrapped(*args, _solve=getattr(np.linalg, name), **kwargs):
            calls["n"] += 1
            return _solve(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, wrapped)
    return calls


def test_hull_ascent_makes_one_stacked_solve_per_block_and_step(monkeypatch):
    generators = [load_fixture("simplex-remark-pencil")[0]]
    calls = _counting_eigensolves(monkeypatch)
    level1_hull_membership(generators, np.array([0.0, -0.6667]), seed=0)
    # The grid, the starts, and per step at most six trial blocks and one eigh.
    assert calls["n"] <= freespec.drops.HULL_REFINE_STEPS * 7 + 2


def test_witness_search_restarts_share_each_solve(monkeypatch):
    A, _, X = DROP_CASES[0]
    calls = _counting_eigensolves(monkeypatch)
    result = witness_search(Pencil(A), HermitianTuple(X), seed=0)
    assert not result.found
    # The starts, and per iteration at most five trial blocks and one eigh.
    assert calls["n"] <= freespec.drops.WITNESS_ITERS * 6 + 2


class _RejectingRng:
    """A Gaussian stream whose second row of ``dim`` draws is zero, whatever
    block sizes it is read in."""

    def __init__(self, seed, dim):
        self.stream = np.random.default_rng(seed).normal(size=4096)
        self.stream[dim:2 * dim] = 0.0
        self.used = 0

    def normal(self, size):
        out = self.stream[self.used:self.used + int(np.prod(size))].reshape(size)
        self.used += out.size
        return out


@pytest.mark.parametrize("dim", range(1, 7))
def test_unit_sphere_grid_matches_one_row_at_a_time(dim):
    # The loop draws the same rows whatever the count, so each count's grid
    # is a prefix of the longest one.
    reference = loop_unit_sphere_grid(np.random.default_rng(dim), dim, 720)
    for count in range(2, 721):
        grid = unit_sphere_grid(np.random.default_rng(dim), dim, count)
        assert np.array_equal(grid, reference[:max(count, 2 * dim)])


@pytest.mark.parametrize("dim", [1, 3, 6])
def test_unit_sphere_grid_redraws_only_a_null_row(dim):
    rng = _RejectingRng(dim, dim)
    grid = unit_sphere_grid(rng, dim, 2 * dim + 9)
    assert np.array_equal(grid, loop_unit_sphere_grid(_RejectingRng(dim, dim), dim, 2 * dim + 9))
    # Five pairs need five accepted rows: one block of five, one redraw.
    assert rng.used == 6 * dim
    assert np.all(np.isfinite(grid)) and np.allclose(np.linalg.norm(grid, axis=1), 1.0)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("d, full", [(3, True), (4, False)])
def test_non_selfdual_check_matches_loop_oracle(d, full, seed):
    # Gell-Mann d = 3 is full-span; d = 4 without its last element is not.
    A = gell_mann_tuple(d).mats if full else gell_mann_tuple(d).mats[:-1]
    B = dual_pencil(FullSpanBasis(A)).mats if full else None
    reference = loop_non_selfdual_check(A, B, seed=seed)
    assert reference is not None

    def level1(v):
        return HermitianTuple(v.reshape(-1, 1, 1).astype(complex))

    if full:
        # The witness sits halfway between the primal and dual radii of its
        # direction, so it lies in exactly one of the two sets.
        x = level1(reference[1])
        c = x.scaled(1.0 / np.linalg.norm(reference[1]))
        r_primal, r_dual = boundary_scale(A, c), boundary_scale(B, c)
        assert abs(r_primal - r_dual) > 1e-6 * (r_primal + r_dual)
        assert np.abs(reference[1] - c.mats.ravel() * 0.5 * (r_primal + r_dual)).max() <= 1e-12
        assert membership(A, x).member == (r_primal > r_dual)
        assert membership(B, x).member == (r_dual > r_primal)
    else:
        # Two primal boundary points pairing above one: the polar sweep
        # refutes the second against the first with the same pairing.
        value, x, y = reference
        assert value > 1.0
        assert membership(A, level1(x)).boundary and membership(A, level1(y)).boundary
        verdict = polar_membership([level1(x)], level1(y))
        assert not verdict.member
        assert 1.0 - verdict.margin == pytest.approx(value, abs=1e-12)


@pytest.mark.parametrize("criterion, oracle, helper", [
    (acceptance.criterion_4, loop_criterion_4, "_scale_to_boundary"),
    (acceptance.criterion_6, loop_criterion_6, "_scaled_draw"),
    (acceptance.criterion_7, loop_criterion_7, "_scaled_draw"),
], ids=["criterion_4", "criterion_6", "criterion_7"])
def test_stacked_criteria_match_their_loops(criterion, oracle, helper, monkeypatch):
    # The helper returns the scaled samples; they show that the draws kept
    # their order, which most details are too coarse to show.
    drawn, scale = [], getattr(acceptance, helper)
    monkeypatch.setattr(acceptance, helper, lambda *args: drawn.append(scale(*args)) or drawn[-1])
    # Seed 2: the acceptance tests already run seed 0.
    details = criterion(seed=2).details
    expected, samples = oracle(seed=2)
    assert [X.shape for X in drawn] == [X.shape for X in samples]
    assert max(np.abs(X - Y).max() for X, Y in zip(drawn, samples)) <= 1e-12
    assert details.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, int):
            assert details[key] == value, key
        else:
            assert abs(details[key] - value) <= 1e-12, key
