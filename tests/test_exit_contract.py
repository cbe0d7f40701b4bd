"""The exit-code contract of the command line under adversarial inputs.

A seeded grid of pencils and points, with point entries from subnormal to
just below ``tupleio.MAX_ENTRY``, runs through ``cli.main`` in process.  It
asserts that every exit is one of the contract's codes, that a verdict's
stdout is one strict-JSON document with finite margins, that every
certified refutation (exit 1) holds up against plain numpy (a
``np.kron``-built matrix, or the reported direction), and that every
numerical failure (exit 70) is a listed overflow.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from freespec.cli import main
from freespec.fixtures import load_fixture
from freespec.linalg import DEFAULT_TOL
from freespec.tupleio import write_tuple

PSD_TOL = DEFAULT_TOL.psd_tol
EPS = np.finfo(float).eps
CODES = {0, 1, 2, 64, 65, 70}
# Largest |entry| of the points; "boundary" scales a point onto the
# boundary of the cell's pencil instead.
SCALES = (1e-320, 1e-160, 0.3, 1.0, 1e8, 1.3e154, "boundary")
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]])
PAULI_Z = np.diag([1.0, -1.0])
PENCIL_FILES = {
    "zero": np.zeros((2, 2, 2)),
    "dependent": np.array([PAULI_Z, 2.0 * PAULI_Z]),
    "psd": np.array([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)]),
    "huge": 1e300 * np.array([PAULI_X, PAULI_Z]),  # above MAX_ENTRY: refused on read
    "tiny": 1e-300 * np.array([PAULI_X, PAULI_Z]),
    "large": 1e150 * np.array([PAULI_X, PAULI_Z]),
}
PENCILS = ("spin-g2", "spin-g3") + tuple(PENCIL_FILES)
BALL_SETS = ("matrix", "selfdual", "wmax", "qd")
DILATE_SAMPLE = 6
# (command, what overflows): an exit 70 by design.  The sum of squares, and
# the self-dual sum, of a point with entries near MAX_ENTRY overflow, and the
# eigensolve refuses the non-finite matrix.
EXPECTED_OVERFLOWS = {
    ("ball --set matrix", 1.3e154): "sum of squares of entries near MAX_ENTRY overflows",
    ("ball --set selfdual", 1.3e154): "self-dual sum of entries near MAX_ENTRY overflows",
}


def _random_hermitian(rng, g, n):
    G = rng.normal(size=(g, n, n)) + 1j * rng.normal(size=(g, n, n))
    return 0.5 * (G + G.conj().transpose(0, 2, 1))


def _kron_value(A, X):
    """``I - sum_i A_i (x) X_i``, built with ``np.kron``."""
    return np.eye(len(A[0]) * len(X[0])) - sum(np.kron(a, x) for a, x in zip(A, X))


def _least(M):
    """Least eigenvalue of M's Hermitian part, and a roundoff slack for it."""
    w = np.linalg.eigvalsh(0.5 * (M + M.conj().T))
    return w[0], 16 * len(M) * EPS * max(np.abs(w).max(), 1.0)


def _choi(basis, X):
    """The Choi matrix of the unital map sending the full-span ``basis`` to
    X: block (i, j) is the image of the matrix unit E_ij."""
    d = len(basis[0])
    span = np.concatenate([np.eye(d)[None], basis])
    coefficients = np.linalg.solve(span.reshape(d * d, d * d).T, np.eye(d * d))
    images = np.concatenate([np.eye(len(X[0]))[None], X])
    return sum(np.kron(c.reshape(d, d), image) for c, image in zip(coefficients, images))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Every run of the grid: (argv, exit, stdout, recheck data)."""
    root = tmp_path_factory.mktemp("contract")
    rng = np.random.default_rng(20261021)
    pencils = {name: load_fixture(name)[0].mats for name in ("spin-g2", "spin-g3")}
    for name, mats in PENCIL_FILES.items():
        write_tuple(root / f"{name}.json", mats)
        pencils[name] = mats
    pauli = load_fixture("pauli")[0].mats
    runs, cells = [], []
    for name in PENCILS:
        A = pencils[name]
        ref = name if name.startswith("spin") else str(root / f"{name}.json")
        for scale in SCALES:
            # One point in four has a random length, mostly not the pencil's.
            length = len(A) if rng.random() < 0.75 else int(rng.integers(1, 4))
            n = int(rng.integers(1, 4))
            X = _random_hermitian(rng, length, n)
            if scale == "boundary":
                if length != len(A) or not np.abs(A).max() or np.abs(A).max() > 1e154:
                    continue
                top = np.linalg.eigvalsh(np.eye(len(A[0]) * n) - _kron_value(A, X))[-1]
                X = X / top if top > 0 else X
            else:
                X = X * (scale / np.abs(X).max())
            point = root / f"point{len(cells)}.json"
            write_tuple(point, X)
            cells.append((name, scale, ref, A, X, str(point)))
    for name, scale, ref, A, X, point in cells:
        commands = [["membership", "--pencil", ref], ["extreme", "--pencil", ref],
                    ["choi", "--basis", "pauli"]]
        commands += [["ball", "--set", s] for s in BALL_SETS]
        commands.append(["drop", "--pencil", ref, "--keep", str(len(X))])
        for command in commands:
            runs.append((command, name, scale, A, X, point, pauli))
    for k in np.random.default_rng(0).choice(len(cells), DILATE_SAMPLE, replace=False):
        name, scale, ref, A, X, point = cells[k]
        runs.append((["dilate", "--pencil", ref], name, scale, A, X, point, pauli))
    out = []
    for command, name, scale, A, X, point, pauli in runs:
        argv = command + ["--point", point, "--json"]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out.append({"argv": argv, "label": " ".join(command[:1] + command[1:3] * (command[0] == "ball")),
                    "pencil": name, "scale": scale, "A": A, "X": X, "basis": pauli, "code": code,
                    "stdout": stdout.getvalue(), "stderr": stderr.getvalue()})
    return out


def _strict(text):
    def refuse(token):
        raise ValueError(f"non-finite token {token}")
    return json.loads(text, parse_constant=refuse)


def test_every_exit_is_a_contract_code(sweep):
    codes = [run["code"] for run in sweep]
    assert set(codes) <= CODES, [r["argv"] for r in sweep if r["code"] not in CODES]
    # The grid reaches every code but 70 more than once.
    assert all(codes.count(code) > 1 for code in CODES - {70}), \
        {code: codes.count(code) for code in CODES}


def test_a_verdict_prints_one_strict_json_document_with_finite_margins(sweep):
    for run in sweep:
        if run["code"] in (0, 1, 2):
            report = _strict(run["stdout"])
            margins = {key: value for key, value in report.items() if key.startswith("margins.")}
            assert margins or run["argv"][0] == "dilate", run["argv"]  # dilate reports no margin
            for key, value in margins.items():
                assert isinstance(value, float) and np.isfinite(value), (run["argv"], key, value)
        else:
            assert run["stdout"] == "" and run["stderr"], run["argv"]


def _recheck(run, report):
    """The plain-numpy reading behind a refutation: ``(refuted, agrees)``."""
    command, X = run["argv"][0], run["X"]
    if command in ("membership", "extreme", "drop"):
        A = run["A"]
        if command == "drop" and len(X) < len(A):
            # Registered exact drops of a spin pencil: the matrix interval
            # at one kept coordinate, the shorter spin pencil at more.
            A = [PAULI_Z] if len(X) == 1 else load_fixture(f"spin-g{len(X)}")[0].mats
        least, slack = _least(_kron_value(A, X))
        margin = report["margins.min_eigenvalue"]
        agrees = abs(margin - least) <= slack
        if command == "extreme":
            verdict = report["verdicts.verdict"]
            band = {"non-member": least < -PSD_TOL + slack, "interior": least > PSD_TOL - slack}
            return band.get(verdict, abs(least) <= PSD_TOL + slack), agrees
        return least < -PSD_TOL + slack, agrees
    if command == "choi":
        least, slack = _least(_choi(run["basis"], X))
        return least < -PSD_TOL + slack, abs(report["margins.min_eigenvalue"] - least) <= slack
    kind = run["argv"][2]
    if kind == "matrix":
        top = np.linalg.eigvalsh(sum(x @ x for x in X))[-1]
    elif kind == "selfdual":
        top = np.abs(np.linalg.eigvalsh(sum(np.kron(x, x.conj()) for x in X))).max()
    else:
        c = np.array(report["verdicts.witness_direction"])
        c = c[:, 0] + 1j * c[:, 1] if kind == "qd" else c
        assert abs(np.linalg.norm(c) - 1.0) <= 1e-12
        top = np.linalg.norm(np.tensordot(c, X, axes=1), 2) if kind == "qd" \
            else np.linalg.eigvalsh(np.tensordot(c, X, axes=1))[-1]
    slack = 16 * len(X[0]) ** 2 * EPS * max(top, 1.0)
    agrees = kind in ("wmax", "qd") or abs(report["margins.margin"] - (1.0 - top)) <= slack
    return 1.0 - top < -PSD_TOL + slack, agrees


def test_every_refutation_is_rechecked_with_numpy(sweep):
    refutations = [run for run in sweep if run["code"] == 1]
    assert len(refutations) > 100
    for run in refutations:
        refuted, agrees = _recheck(run, _strict(run["stdout"]))
        assert refuted and agrees, run["argv"]


def test_every_numerical_failure_is_a_listed_overflow(sweep):
    failures = {(run["label"], run["scale"]): run["stderr"] for run in sweep if run["code"] == 70}
    unlisted = {cell: err for cell, err in failures.items() if cell not in EXPECTED_OVERFLOWS}
    assert not unlisted
    for cell in failures:
        assert "non-finite" in failures[cell], (cell, EXPECTED_OVERFLOWS[cell])
