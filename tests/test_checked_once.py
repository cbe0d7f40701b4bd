"""Inputs are checked once, where they enter: a boundary ``classify`` passes
its exact intermediates on as arrays, ``perturbation_range`` refuses an L
of the wrong side, a pencil value that overflows is a numerical failure,
and a CLI process builds only the parser of its command and imports no
more of numpy than its command needs."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import freespec
import freespec.cli
import freespec.linalg
from freespec.errors import DimensionError
from freespec.extremality import (Verdict, classify, column_dilation_system,
                                  hermitian_direction_system, perturbation_range)
from freespec.fixtures import triangle_example_pencil
from freespec.linalg import HermitianTuple, random_hermitian
from freespec.pencil import Pencil, ensure_bounded_flag, membership, pencil_split, pencil_value
from freespec.spin import random_spin_member, spin_tuple
from freespec.tupleio import write_tuple


def _boundary_point(g, n):
    pencil = Pencil(spin_tuple(g))
    X = random_spin_member(np.random.default_rng([g, n, 0]), g, n)
    return pencil, X, membership(pencil, X)


def _counted_linalg(monkeypatch):
    """A dict counting the calls of each ``np.linalg`` function from here on."""
    calls = {}

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapped

    for name in np.linalg.__all__:
        fn = getattr(np.linalg, name)
        if callable(fn) and not isinstance(fn, type):
            monkeypatch.setattr(np.linalg, name, counting(name, fn))
    return calls


def test_a_boundary_classify_checks_no_intermediate_and_factors_each_system_once(monkeypatch):
    pencil, X, _ = _boundary_point(3, 6)
    ensure_bounded_flag(pencil)
    pencil_split(pencil).column_coefficients  # the split and its cached coefficients
    copies = []
    original = freespec.linalg.as_matrix_tuple
    monkeypatch.setattr(freespec.linalg, "as_matrix_tuple",
                        lambda matrices: copies.append(1) or original(matrices))
    calls = _counted_linalg(monkeypatch)
    cert = classify(pencil, X)
    assert cert.verdict == Verdict.BOUNDARY and cert.witness.kind == "hermitian"
    assert copies == []
    assert calls == {"eigh": 1, "svd": 1, "qr": 3, "eigvalsh": 1, "cholesky": 1}


def test_a_boundary_classify_at_column_rank_n_factors_the_hermitian_copy_once(monkeypatch):
    # At (I_8, Y) on the triangle pencil the column rank r is at least n, so
    # the Hermitian system decides.  The column system takes a QR and an SVD;
    # the Hermitian system a QR of the retained rows and one factorization of
    # its copy (square here, so an SVD alone) for the count and the witness.
    pencil = Pencil(triangle_example_pencil())
    Y = random_hermitian(np.random.default_rng(0), 8)
    X = HermitianTuple([np.eye(8), 0.5 * Y / np.linalg.norm(Y, 2)])
    ensure_bounded_flag(pencil)
    pencil_split(pencil)
    calls = _counted_linalg(monkeypatch)
    cert = classify(pencil, X)
    assert cert.verdict == Verdict.BOUNDARY and cert.witness.kind == "hermitian"
    assert X.g * X.n - cert.beta_nullity_column >= X.n
    assert (calls["svd"], calls["qr"]) == (2, 2)


def test_the_split_caches_the_column_systems_coefficients():
    pencil = Pencil(spin_tuple(5))
    split = pencil_split(pencil)
    assert split.multiplicities == (2, 2)
    coefficients = split.column_coefficients
    assert coefficients is split.column_coefficients
    weights = np.repeat(np.sqrt(split.multiplicities), [B.n for B in split.blocks])
    assert np.array_equal(coefficients, split.reduced.mats / split.scale * weights[:, None])


@pytest.mark.parametrize("rank_one", [True, False])
def test_step_length_refuses_a_pencil_value_of_the_wrong_side(rank_one):
    pencil, X, verdict = _boundary_point(3, 4)
    assert verdict.boundary
    column = column_dilation_system(pencil, X, verdict.kernel)
    report = hermitian_direction_system(column)
    u, beta = (freespec.extremality._rank_one(column.retained_rows) if rank_one
               else (None, report.solution))
    assert beta is not None
    L = pencil_value(pencil, X)
    perturbation_range(pencil, [L[None]], beta, verdict.range, u=u)
    with pytest.raises(DimensionError, match="side 15"):
        perturbation_range(pencil, [L[None, :-1, :-1]], beta, verdict.range, u=u)


_ARGVS = [["fixture", "spin-g3", "--out", "g3.json"],
          ["--json", "membership", "--pencil", "spin-g3", "--point", "freeex4"],
          ["extreme", "--pencil", "spin-g3", "--point", "freeex4", "--seed", "2"],
          ["dilate", "--pencil", "spin-g2", "--point", "zeros", "--out", "d.json"],
          ["spin", "--g", "3"], ["choi", "--basis", "pauli", "--point", "pauli-conj"],
          ["dual", "--basis", "pauli", "--out", "dual.json"],
          ["ball", "--set", "matrix", "--point", "spin-g3", "--tol-psd", "1e-8"],
          ["drop", "--pencil", "spin-g4", "--keep", "3", "--point", "freeex4"],
          ["hull", "--generator", "simplex-remark-pencil", "--point", "-0.5,0"],
          ["chain", "--g", "3"], ["verify-paper", "--json"]]


def _parsers_built(monkeypatch, argv):
    built = []
    original = freespec.cli._Parser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(freespec.cli._Parser, "__init__", counting)
    parser = freespec.cli._build_parser(argv)
    monkeypatch.undo()
    return parser, len(built)


@pytest.mark.parametrize("argv", _ARGVS, ids=lambda argv: argv[0].lstrip("-"))
def test_the_cli_builds_the_named_commands_parser_alone(monkeypatch, argv):
    parser, built = _parsers_built(monkeypatch, argv)
    full, every = _parsers_built(monkeypatch, [])
    # The top parser, the options shared with the subcommands, the command's.
    assert (built, every) == (3, 2 + len(_ARGVS))
    assert vars(parser.parse_args(argv)) == vars(full.parse_args(argv))


@pytest.mark.parametrize("argv", [[], ["--help"], ["membership", "-h"], ["--seed", "3", "spin"],
                                  ["nonsense", "spin"]])
def test_the_cli_builds_every_parser_for_help_or_no_named_command(monkeypatch, argv):
    assert _parsers_built(monkeypatch, argv)[1] == 2 + len(_ARGVS)


def test_chain_does_not_import_numpy_ma(tmp_path):
    code = ("import contextlib, io, sys\nfrom freespec.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = main(['chain', '--g', '3', '--samples', '20', '--json'])\n"
            "print(code, 'numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(freespec.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


def test_an_overflowed_pencil_value_is_a_numerical_failure_without_warnings(tmp_path, capsys):
    # Entries below tupleio.MAX_ENTRY, so the file is legal, but the products
    # in the pencil value overflow.
    c = 1.3e154
    path = str(tmp_path / "huge.json")
    write_tuple(path, HermitianTuple([[[c, c], [c, -c]]] * 2))
    for command in ("membership", "extreme", "dilate"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert freespec.cli.main([command, "--pencil", path, "--point", path]) == 70
        assert capsys.readouterr().err == ("numerical failure: Hermitian eigensolve of a matrix "
                                           "with non-finite entries\n")
