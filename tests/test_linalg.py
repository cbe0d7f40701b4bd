import numpy as np
import pytest

from freespec.errors import DimensionError, NumericalError, ParameterError
from freespec.fixtures import free_extreme_level4
from freespec.linalg import (DEFAULT_TOL, HermitianTuple, SingularFactor, ToleranceProfile,
                             _commutant_basis, as_matrix_tuple, hermitian_eigen, hermitian_eigvals,
                             random_hermitian)
from freespec.pencil import pencil_value
from freespec.spin import pauli_tuple, spin_tuple

from _oracles import (charpoly_coefficients, charpoly_values_at, direct_sum,
                      eigenvalues_by_charpoly, nullspace, pauli_commutant_system)


def test_tolerance_profile_rejects_nonpositive():
    with pytest.raises(ParameterError):
        ToleranceProfile(psd_tol=0.0)
    with pytest.raises(ParameterError):
        ToleranceProfile(rank_tol=-1e-9)


def test_hermitian_tuple_symmetrizes_and_records_deviation():
    M = np.array([[1.0, 1e-13], [0.0, 2.0]], complex)
    t = HermitianTuple([M])
    assert t.hermitian_deviation <= 1e-12
    assert np.abs(t.mats[0] - t.mats[0].conj().T).max() == 0.0


def test_hermitian_tuple_rejects_far_from_hermitian():
    M = np.array([[0.0, 1.0], [0.0, 0.0]], complex)
    with pytest.raises(ParameterError):
        HermitianTuple([M])


def test_hermitian_tuple_rejects_nonfinite_and_mismatched():
    with pytest.raises(ParameterError):
        HermitianTuple([np.array([[np.nan, 0], [0, 1]])])
    with pytest.raises(DimensionError):
        HermitianTuple([np.eye(2), np.eye(3)])


@pytest.mark.parametrize("stack,error", [
    (np.zeros((2, 2, 3)), DimensionError),
    (np.array([[[np.nan, 0], [0, 1]]]), ParameterError),
    (np.zeros((0, 2, 2)), DimensionError),
    (np.array([np.eye(2), np.eye(3)], dtype=object), DimensionError),  # ragged
])
def test_matrix_tuple_stack_checks_match_the_matrix_by_matrix_path(stack, error):
    messages = []
    for matrices in (stack, list(stack)):
        with pytest.raises(error) as info:
            as_matrix_tuple(matrices)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_hermitian_tuple_of_a_hermitian_tuple_shares_its_matrices():
    T = HermitianTuple([np.array([[1.0, 1e-13], [0.0, 2.0]])])
    again = HermitianTuple(T)
    assert again.mats is T.mats and again.hermitian_deviation == 0.0
    assert np.asarray(T) is T.mats and np.array(T) is not T.mats


def test_matrix_tuple_stack_is_a_read_only_copy():
    stack = np.arange(8.0).reshape(2, 2, 2)
    out = as_matrix_tuple(stack)
    assert out.dtype == complex and not out.flags.writeable
    assert stack.flags.writeable and not np.shares_memory(out, stack)
    assert np.array_equal(out, as_matrix_tuple(list(stack)))


def test_eigen_identity():
    w, V = hermitian_eigen(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0])
    assert np.abs(V.conj().T @ V - np.eye(3)).max() < 1e-12


def test_eigen_offdiagonal_pair():
    # Characteristic polynomial t^2 - 1 by hand: eigenvalues -1, 1.
    P2 = pauli_tuple().mats[1]
    w, _ = hermitian_eigen(P2)
    assert np.allclose(w, [-1.0, 1.0], atol=1e-12)


def test_pauli_pairing_eigenvalues_against_charpoly_oracle():
    P = pauli_tuple().mats
    M = sum(np.kron(P[i], P[i]) for i in range(3))
    # Faddeev-LeVerrier gives (t+3)(t-1)^3 = t^4 - 6 t^2 + 8 t - 3 exactly.
    coeffs = charpoly_coefficients(M)
    assert np.allclose(coeffs.real, [1.0, 0.0, -6.0, 8.0, -3.0], atol=1e-12)
    assert np.abs(coeffs.imag).max() < 1e-12
    # Companion-matrix roots agree coarsely (multiple root limits accuracy).
    assert np.allclose(eigenvalues_by_charpoly(M), [-3.0, 1.0, 1.0, 1.0], atol=1e-4)
    w, _ = hermitian_eigen(M)
    assert np.allclose(w, [-3.0, 1.0, 1.0, 1.0], atol=1e-12)
    # The eigensolver's output zeroes the independently computed polynomial.
    assert np.abs(charpoly_values_at(M, w)).max() < 1e-10


def test_eigen_reconstruction_random():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        M = random_hermitian(rng, n)
        w, V = hermitian_eigen(M)
        err = np.abs(M - V @ np.diag(w) @ V.conj().T).max()
        assert err <= 1e-9 * max(np.abs(M).max(), 1.0)
        assert np.abs(V.conj().T @ V - np.eye(n)).max() < 1e-10


def test_eigen_errors():
    with pytest.raises(DimensionError):
        hermitian_eigen(np.ones((2, 3)))
    with pytest.raises(ParameterError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_nullspace_zero_and_identity():
    assert nullspace(np.zeros((2, 2))).shape[1] == 2
    assert nullspace(np.eye(2)).shape[1] == 0


def test_nullspace_planted_rank():
    rng = np.random.default_rng(1)
    for _ in range(100):
        m = int(rng.integers(2, 10))
        n = int(rng.integers(2, 10))
        r = int(rng.integers(0, min(m, n) + 1))
        A = rng.normal(size=(m, r)) @ rng.normal(size=(r, n)) if r else np.zeros((m, n))
        basis = nullspace(A)
        assert basis.shape[1] == n - np.linalg.matrix_rank(A, tol=1e-8)
        if basis.shape[1]:
            assert np.abs(A @ basis).max() <= DEFAULT_TOL.rank_tol * \
                max(np.linalg.norm(A, 2), 1.0)
            gram = basis.conj().T @ basis
            assert np.abs(gram - np.eye(basis.shape[1])).max() < 1e-10


@pytest.mark.parametrize("shape", [(7, 5), (5, 5), (5, 7)])
def test_singular_factor_reads_the_adjoint_where_gesdd_fails(shape, monkeypatch):
    rng = np.random.default_rng(3)
    arr = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    arr[:, -1] = arr[:, 0]  # a null direction
    reference = SingularFactor(arr)
    svd, calls = np.linalg.svd, []

    def failing_once(a, *args, **kwargs):
        calls.append(a.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_once)
    factor = SingularFactor(arr)
    assert len(calls) == 2 and calls[1] == calls[0][::-1]
    assert np.abs(factor.singular - reference.singular).max() <= 1e-12
    assert (factor.rank, factor.nullity) == (reference.rank, reference.nullity)
    rows = factor.rows
    assert np.abs(rows.conj().T @ rows - np.eye(rows.shape[1])).max() <= 1e-12
    assert np.abs(np.linalg.norm(arr @ rows, axis=0) - factor.singular).max() <= 1e-12
    assert np.abs(arr @ factor.null_vector()).max() <= 1e-12


def test_nullspace_of_level4_pencil_value():
    # Frozen regression constant: the pencil value at the level-4 free
    # extreme point has a 6-dimensional kernel.
    L = pencil_value(spin_tuple(3), free_extreme_level4())
    basis = nullspace(L)
    assert basis.shape[1] == 6
    assert np.abs(L @ basis).max() <= DEFAULT_TOL.rank_tol * np.linalg.norm(L, 2)


def test_direct_sum_blocks():
    X = pauli_tuple()
    merged = direct_sum([X, X.conj()])
    assert merged.n == 4 and merged.g == 3
    assert np.abs(merged.mats[2][:2, :2] - X.mats[2]).max() == 0.0
    assert np.abs(merged.mats[2][2:, 2:] + X.mats[2]).max() == 0.0
    assert np.abs(merged.mats[0][:2, 2:]).max() == 0.0


def test_nullspace_commutant_of_pauli():
    # The hand-assembled commutant system has a one-dimensional solution
    # space: only multiples of the identity commute with the triple.
    system = pauli_commutant_system()
    sol = nullspace(system)
    assert sol.shape[1] == 1
    C = sol[:, 0].reshape(2, 2)
    assert np.abs(C - C[0, 0] * np.eye(2)).max() < 1e-10


def test_solve_homogeneous_degenerate_shapes():
    # A homogeneous system with no equations leaves every unknown free; a
    # nonsingular square system has only the zero solution.
    assert nullspace(np.zeros((0, 3), complex)).shape[1] == 3
    assert nullspace(np.eye(3, dtype=complex)).shape[1] == 0


def _failing(solver, calls, failures):
    """A LAPACK ``solver`` that raises on its first ``failures`` calls."""

    def failing(a, *args, **kwargs):
        calls.append(np.shape(a))
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solver(a, *args, **kwargs)
    return failing


def test_hermitian_eigen_retries_once_on_a_shifted_copy(monkeypatch):
    M = random_hermitian(np.random.default_rng(17), 12)
    w_ref, V_ref = hermitian_eigen(M)
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", _failing(np.linalg.eigh, calls, 1))
    w, V = hermitian_eigen(M)
    assert len(calls) == 2
    assert np.abs(w - w_ref).max() < 1e-12
    # The eigenvalues are simple, so each eigenvector agrees up to a phase.
    overlaps = np.abs(np.einsum("ij,ij->j", V_ref.conj(), V))
    assert np.abs(overlaps - 1.0).max() < 1e-12
    assert np.abs(M - V @ np.diag(w) @ V.conj().T).max() < 1e-12


def test_hermitian_eigen_raises_after_a_second_failure(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eigh", _failing(np.linalg.eigh, calls, 2))
    with pytest.raises(NumericalError, match="did not converge"):
        hermitian_eigen(random_hermitian(np.random.default_rng(17), 12))
    assert len(calls) == 2


def _hermitian_stack(seed):
    rng = np.random.default_rng(seed)
    return np.array([random_hermitian(rng, 12) for _ in range(5)])


def test_hermitian_eigvals_retries_once_on_shifted_copies(monkeypatch):
    stack = _hermitian_stack(17)
    w_ref = np.array([hermitian_eigen(M)[0] for M in stack])
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", _failing(np.linalg.eigvalsh, calls, 1))
    w = hermitian_eigvals(stack)
    assert calls == [stack.shape, stack.shape]
    assert np.abs(w - w_ref).max() < 1e-12


def test_hermitian_eigvals_raises_after_a_second_failure(monkeypatch):
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", _failing(np.linalg.eigvalsh, calls, 2))
    with pytest.raises(NumericalError, match="did not converge"):
        hermitian_eigvals(_hermitian_stack(17))
    assert len(calls) == 2


def test_hermitian_eigvals_checks_the_stack_is_hermitian():
    stack = _hermitian_stack(18)
    stack[3, 0, 1] += 1e-9
    with pytest.raises(ParameterError, match="deviates from Hermitian"):
        hermitian_eigvals(stack)
    loose = ToleranceProfile(hermitian_tol=1e-8)
    w = hermitian_eigvals(stack, loose)
    assert np.abs(w[3] - hermitian_eigen(stack[3], loose)[0]).max() < 1e-12


def test_hermitian_eigvals_refuses_non_finite_eigenvalues():
    # eigvalsh returns NaN for an infinite entry; no verdict may read it.
    with pytest.raises(NumericalError, match="non-finite eigenvalues"):
        hermitian_eigvals(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_eigensolve_refuses_non_finite_eigenvalues_after_the_retry(monkeypatch):
    calls, eigh = [], np.linalg.eigh

    def failing_then_nan(a, *args, **kwargs):
        calls.append(np.shape(a))
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        w, V = eigh(a, *args, **kwargs)
        return w * np.nan, V

    monkeypatch.setattr(np.linalg, "eigh", failing_then_nan)
    with pytest.raises(NumericalError, match="non-finite eigenvalues"):
        hermitian_eigen(random_hermitian(np.random.default_rng(17), 6))
    assert len(calls) == 2


@pytest.mark.parametrize("m, n, rank", [(12, 5, 3), (4, 9, 4), (0, 6, 0), (9, 5, 5), (5, 5, 5)],
                         ids=["tall", "wide", "no rows", "tall full rank", "square full rank"])
def test_singular_factor_null_vector_is_its_last_kernel_column(m, n, rank):
    rng = np.random.default_rng([m, n, rank])
    M = (rng.normal(size=(m, rank)) + 1j * rng.normal(size=(m, rank))) @ rng.normal(size=(rank, n))
    factor = SingularFactor(M)
    v = factor.null_vector()
    if rank == n:
        assert v is None and factor.nullity == 0
        return
    assert factor.nullity == n - rank
    assert np.array_equal(v, factor.kernel()[:, -1])
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)
    assert np.abs(M @ v).max(initial=0.0) <= 1e-12 * max(np.linalg.norm(M), 1.0)


@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150])
def test_commutant_basis_reads_the_same_at_every_scale_and_memory_layout(scale):
    # freeex4 (+) freeex4 has commutant M_2 (x) I, dimension 4.  X* = X, so
    # the conjugated transpose is the same tuple with strided rows.
    X = direct_sum([free_extreme_level4(), free_extreme_level4()]).mats
    basis, gap = _commutant_basis(X, DEFAULT_TOL)
    assert len(basis) == 4 and np.isfinite(gap)
    for Y in (X * scale, (X * scale).transpose(0, 2, 1).conj()):
        found, found_gap = _commutant_basis(Y, DEFAULT_TOL)
        assert len(found) == 4
        assert found_gap == pytest.approx(gap * scale, rel=1e-12)
        overlaps = np.einsum("kab,lab->kl", found.conj(), basis)  # unitary for one span
        assert np.abs(overlaps @ overlaps.conj().T - np.eye(4)).max() < 1e-8
