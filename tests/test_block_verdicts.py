"""classify decides L(X) on the distinct blocks, those of one side as one
stack: its verdicts, counts, step lengths and kernel residuals are those of
the whole pencil, no eigensolve or Cholesky factorization it makes is larger
than a distinct block's pencil value, and a stack decides as its blocks one
by one."""

import numpy as np
import pytest

import freespec.extremality
import freespec.linalg
import freespec.pencil
import freespec.sphere
from _oracles import haar_conjugated_sum
from freespec.extremality import classify, perturbation_range
from freespec.linalg import DEFAULT_TOL, HermitianTuple, random_hermitian, random_hermitian_tuple
from freespec.pencil import (Pencil, boundary_scale, eigen_verdict, membership, pencil_split,
                             pencil_value)
from freespec.spin import random_spin_member, spin_tuple


def _kron_least(A, X):
    """Least eigenvalue of I - sum_i A_i (x) X_i, built by np.kron."""
    L = np.eye(A.shape[1] * X.shape[1]) - sum(np.kron(Ai, Xi) for Ai, Xi in zip(A, X))
    return np.linalg.eigvalsh(L)[0]


def _whole_certificate(pencil, X, monkeypatch):
    """classify on a copy of the pencil with the split switched off."""
    with monkeypatch.context() as patch:
        patch.setattr(freespec.pencil, "SPLIT_SIDES", range(0))
        return classify(Pencil(pencil.coefficients), X)


def _points(boundary):
    """Each boundary point, then it scaled inside and outside the set."""
    for X in boundary:
        yield from (X, X.scaled(0.7), X.scaled(1.2))


def _spin_points(g):
    return [random_spin_member(np.random.default_rng([g, n, 41]), g, n) for n in (2, 6, 10)]


def _sum_points(pencil):
    rng = np.random.default_rng(43)
    for n in (2, 6):
        X = random_hermitian_tuple(rng, n, pencil.g)
        yield X.scaled(boundary_scale(pencil, X))


def _case(name):
    """The pencil and its seeded boundary points."""
    if name.startswith("spin"):
        g = int(name[-1])
        return Pencil(spin_tuple(g)), _spin_points(g)
    rng = np.random.default_rng(47)
    B, C = random_hermitian_tuple(rng, 2, 3), random_hermitian_tuple(rng, 3, 3)
    pencil = Pencil(haar_conjugated_sum(rng, [B, B, C]))
    return pencil, list(_sum_points(pencil))


@pytest.mark.parametrize("name", ["spin g=3", "spin g=4", "spin g=5", "B+B+C"])
def test_block_and_whole_verdicts_agree(name, monkeypatch):
    pencil, boundary = _case(name)
    split = pencil_split(pencil)
    assert split.multiplicities in {(1, 1), (2,), (2, 2), (2, 1)}
    A = pencil.coefficients.mats
    verdicts = set()
    for X in _points(boundary):
        cert, whole = classify(pencil, X), _whole_certificate(pencil, X, monkeypatch)
        verdicts.add(cert.verdict)
        assert (cert.verdict, cert.kernel_dim, cert.beta_nullity_column,
                cert.beta_nullity_hermitian, cert.commutant_dim) == (
            whole.verdict, whole.kernel_dim, whole.beta_nullity_column,
            whole.beta_nullity_hermitian, whole.commutant_dim)
        L = np.eye(A.shape[1] * X.n) - sum(np.kron(Ai, Xi) for Ai, Xi in zip(A, X.mats))
        norm = max(np.linalg.norm(L, 2), 1.0)
        assert abs(cert.min_eigenvalue - whole.min_eigenvalue) <= 1e-12 * norm
        if cert.kernel_dim:
            # Both kernel residuals are roundoff of the one L(X).
            residuals = (cert.residuals["kernel_residual"], whole.residuals["kernel_residual"])
            assert max(residuals) <= 1e-14 * norm
        witness = cert.witness
        if witness is not None and witness.kind == "hermitian":
            beta, alpha = np.asarray(witness.direction), witness.alpha
            # The whole pencil's step along the same direction.
            reference = perturbation_range(A, [pencil_value(A, X)[None]], beta,
                                           membership(A, X).range)
            assert abs(alpha - reference) <= 1e-12 * reference
            for sign in (1.0, -1.0):
                assert _kron_least(A, X.mats + sign * alpha * beta) >= -DEFAULT_TOL.psd_tol - 1e-12
            assert min(_kron_least(A, X.mats + sign * 1.01 * alpha * beta)
                       for sign in (1.0, -1.0)) < -DEFAULT_TOL.psd_tol
    assert {v.value for v in verdicts} >= {"boundary", "interior", "non-member"}


@pytest.mark.parametrize("g, bound", [(3, 2 * 6), (5, 4 * 6)])
def test_a_boundary_classify_never_solves_the_whole_sum(g, bound, monkeypatch):
    # Largest distinct block side times n: spin g = 3 is 2 + 2 and spin g = 5
    # two 4 x 4 blocks, each twice; the whole L(X) is 4n and 16n square.
    pencil = Pencil(spin_tuple(g))
    X = random_spin_member(np.random.default_rng([g, 6, 0]), g, 6)
    shapes = []

    def recording(fn):
        def wrapped(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return fn(a, *args, **kwargs)
        return wrapped

    eigensolve = recording(freespec.linalg._eigensolve)
    for module in (freespec.linalg, freespec.pencil, freespec.extremality, freespec.sphere):
        monkeypatch.setattr(module, "_eigensolve", eigensolve)
    monkeypatch.setattr(np.linalg, "cholesky", recording(np.linalg.cholesky))
    cert = classify(pencil, HermitianTuple(X))
    cert.residuals, cert.commutant_dim  # the deferred solves too
    assert cert.verdict.value == "boundary"
    assert max(B.n for B in pencil_split(pencil).blocks) * X.n == bound
    assert shapes and max(shape[-1] for shape in shapes) <= bound


def test_a_stack_decides_as_its_blocks_one_by_one():
    # Three blocks of side 6 and one of side 4, member and not: one stack per
    # side gives the margin, norm, kernel and range of each block alone.
    rng = np.random.default_rng(53)
    for shift in (0.0, 1.0):
        blocks = []
        for m in (6, 6, 6, 4):
            H = random_hermitian(rng, m)
            w, V = np.linalg.eigh(H @ H)
            w[:2] = 0.0  # a kernel of dimension 2 in each block
            blocks.append((V * w) @ V.conj().T - shift * np.eye(m))
        blocks = [0.5 * (B + B.conj().T) for B in blocks]
        stacked = eigen_verdict([np.array(blocks[:3]), blocks[3][None]])
        alone = eigen_verdict([B[None] for B in blocks])
        assert stacked.member == (shift == 0.0) and stacked == alone
        assert (stacked.margin, stacked.norm) == (alone.margin, alone.norm)
        for field in ("kernel", "range"):
            mine, reference = getattr(stacked, field), getattr(alone, field)
            assert (mine is None) == (reference is None)
            assert mine is None or np.array_equal(mine, reference)


def test_one_guard_per_block_side(monkeypatch):
    # B + B + C has distinct blocks of sides 2 and 3: two stacks of one block,
    # each evaluated once and each guarded by one Cholesky of its two sides.
    pencil, boundary = _case("B+B+C")
    split = pencil_split(pencil)
    assert [S.shape for S in split.stacks] == [(1, 3, 2, 2), (1, 3, 3, 3)]
    X = boundary[1]
    guards, evaluations = [], []
    psd_members = freespec.extremality.psd_members
    batched_linear_part = freespec.extremality.batched_linear_part

    def recording_guard(stack, tol=DEFAULT_TOL):
        guards.append(stack.shape)
        return psd_members(stack, tol)

    def recording_evaluation(Am, Y):
        evaluations.append(Am.shape)
        return batched_linear_part(Am, Y)

    monkeypatch.setattr(freespec.extremality, "psd_members", recording_guard)
    monkeypatch.setattr(freespec.extremality, "batched_linear_part", recording_evaluation)
    cert = classify(pencil, X)
    assert cert.verdict.value == "boundary" and cert.witness.kind == "hermitian"
    assert guards == [(2, 2 * X.n, 2 * X.n), (2, 3 * X.n, 3 * X.n)]
    # The values at X, then B_k of the step, one einsum per stack each.
    assert len(evaluations) == 4 and evaluations[:2] == [(1, 3, 2, 2), (1, 3, 3, 3)]
