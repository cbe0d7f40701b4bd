import json
import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import freespec
import freespec.cli
from freespec.cli import main
from freespec.errors import TupleFormatError
from freespec.fixtures import fixture_names, load_fixture
from freespec.linalg import HermitianTuple
from freespec.spin import pauli_tuple
from freespec.tupleio import read_tuple, write_tuple

from _oracles import tilting_eigh


def test_every_public_name_resolves():
    for name in freespec.__all__:
        assert getattr(freespec, name) is not None, name


def test_namespace_lists_binds_and_resolves_its_names():
    assert len(freespec.__all__) == 48
    assert set(freespec.__all__) <= set(dir(freespec))
    namespace = {}
    exec("from freespec import *", namespace)
    assert set(freespec.__all__) <= set(namespace)
    assert freespec.classify is freespec.extremality.classify
    assert "classify" in vars(freespec)  # kept after the first access
    with pytest.raises(AttributeError):
        freespec.no_such_name
    assert not hasattr(freespec, "_no_such_module")


def test_namespace_resolves_every_submodule():
    package = os.path.dirname(freespec.__file__)
    names = {name[:-3] for name in os.listdir(package)
             if name.endswith(".py") and name != "__init__.py"}
    for name in names:
        assert getattr(freespec, name) is sys.modules[f"freespec.{name}"], name


# Runs in a fresh interpreter: for each case, forget every freespec module,
# run the case, and record the freespec modules it loaded.
_LOADED_MODULES = """
import contextlib, importlib, io, json, sys

def fresh():
    for name in [n for n in sys.modules if n == "freespec" or n.startswith("freespec.")]:
        del sys.modules[name]

def loaded():
    return sorted(n.split(".", 1)[1] for n in sys.modules if n.startswith("freespec."))

out = {}
fresh()
freespec = importlib.import_module("freespec")
out["import freespec"] = [0, loaded()]
assert freespec.pencil.__name__ == "freespec.pencil"  # no explicit import needed
out["freespec.pencil"] = [0, loaded()]
fresh()
importlib.import_module("freespec.cli")
out["import freespec.cli"] = [0, loaded()]
for argv in json.loads(sys.argv[1]):
    fresh()
    main = importlib.import_module("freespec.cli").main
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    out[argv[0]] = [code, loaded()]
print(json.dumps(out))
"""

_HEAVY = {"extremality", "ballsets", "drops", "duality", "acceptance"}
# Case -> (the modules it must load, the modules it must not load).
_LOAD_RULES = {
    "freespec.pencil": ({"pencil"}, _HEAVY),
    "import freespec.cli": ({"cli"}, _HEAVY),
    "fixture": ({"fixtures", "tupleio"}, _HEAVY),
    "membership": ({"pencil"}, _HEAVY),
    "spin": ({"spin"}, _HEAVY),
    "extreme": ({"extremality"}, _HEAVY - {"extremality"}),
    "dilate": ({"extremality"}, _HEAVY - {"extremality"}),
    "choi": ({"duality"}, {"extremality", "acceptance"}),
    "dual": ({"duality"}, {"extremality", "acceptance"}),
    "ball": ({"ballsets"}, {"extremality", "acceptance"}),
    "drop": ({"drops"}, {"extremality", "ballsets", "acceptance"}),
    "hull": ({"drops"}, {"extremality", "ballsets", "acceptance"}),
    "chain": ({"ballsets"}, {"extremality", "acceptance"}),
}


def test_each_command_loads_only_the_modules_on_its_call_path(tmp_path):
    commands = [["fixture", "spin-g3", "--out", "g3.json"],
                ["membership", "--pencil", "spin-g3", "--point", "freeex4"],
                ["spin", "--g", "3"],
                ["extreme", "--pencil", "spin-g3", "--point", "freeex4"],
                ["dilate", "--pencil", "spin-g2", "--point", "zeros"],
                ["choi", "--basis", "pauli", "--point", "pauli-conj"],
                ["dual", "--basis", "pauli", "--out", "dual.json"],
                ["ball", "--set", "matrix", "--point", "spin-g3"],
                ["drop", "--pencil", "spin-g4", "--keep", "3", "--point", "freeex4"],
                ["hull", "--generator", "simplex-remark-pencil", "--point", "0,-0.6667"],
                ["chain", "--g", "3", "--samples", "20"]]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(freespec.__file__)))
    proc = subprocess.run([sys.executable, "-c", _LOADED_MODULES, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen.pop("import freespec") == [0, []]
    assert set(seen) == set(_LOAD_RULES)
    for case, (code, modules) in seen.items():
        needed, barred = _LOAD_RULES[case]
        assert code in (0, 1, 2), case  # the case ran to a verdict
        assert needed <= set(modules) and not barred & set(modules), (case, modules)


def test_round_trip_bit_identical(tmp_path):
    tup, comment = load_fixture("freeex4")
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_tuple(p1, tup, comment=comment)
    loaded, payload = read_tuple(p1)
    assert isinstance(loaded, HermitianTuple)
    assert np.abs(loaded.mats - tup.mats).max() == 0.0
    write_tuple(p2, loaded, comment=payload.get("comment"))
    assert p1.read_bytes() == p2.read_bytes()


def test_every_fixture_round_trips(tmp_path):
    for name in fixture_names():
        tup, comment = load_fixture(name)
        path = tmp_path / f"{name}.json"
        write_tuple(path, tup, comment=comment)
        loaded, _ = read_tuple(path)
        assert np.abs(loaded.mats - tup.mats).max() == 0.0


def test_read_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(TupleFormatError):
        read_tuple(path)
    path.write_text(json.dumps({"format_version": "2"}))
    with pytest.raises(TupleFormatError):
        read_tuple(path)
    payload = {"format_version": "1", "size": 2, "length": 1, "hermitian": True,
               "matrices": [[[[0.0, 0.0]]]]}  # wrong row count
    path.write_text(json.dumps(payload))
    with pytest.raises(TupleFormatError):
        read_tuple(path)


def test_general_tuple_round_trip(tmp_path):
    # A qd tuple is written as hermitian=false, which parses to a plain
    # array tuple, not a HermitianTuple.
    E12 = np.zeros((2, 2), complex)
    E12[0, 1] = 1.0
    path = tmp_path / "general.json"
    write_tuple(path, [E12, E12.T])
    loaded, payload = read_tuple(path)
    assert not payload["hermitian"]
    assert not isinstance(loaded, HermitianTuple)
    assert np.abs(np.asarray(loaded) - np.array([E12, E12.T])).max() == 0.0


def test_writer_marks_exactly_hermitian_tuples_hermitian(tmp_path):
    path = tmp_path / "t.json"
    mats = 0.3 * pauli_tuple().mats  # a plain array, exactly Hermitian
    write_tuple(path, mats)
    loaded, payload = read_tuple(path)
    assert payload["hermitian"] and isinstance(loaded, HermitianTuple)
    mats[0, 0, 1] += 1e-15
    write_tuple(path, mats)
    loaded, payload = read_tuple(path)
    assert not payload["hermitian"] and np.abs(np.asarray(loaded) - mats).max() == 0.0


def test_read_rejects_nonfinite_tokens(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"format_version": "1", "size": 1, "length": 1, '
                    '"hermitian": true, "matrices": [[[[NaN, 0.0]]]]}')
    with pytest.raises(TupleFormatError):
        read_tuple(path)


def test_cli_membership_exit_codes(capsys):
    assert main(["membership", "--pencil", "pauli", "--point", "pauli-conj"]) == 1
    assert main(["membership", "--pencil", "spin-g3", "--point", "zeros"]) == 0
    capsys.readouterr()


def test_cli_extreme_free_exit(capsys):
    assert main(["extreme", "--pencil", "spin-g3", "--point", "freeex4"]) == 0
    out = capsys.readouterr().out
    assert "free" in out
    assert main(["extreme", "--pencil", "spin-g3", "--point", "zeros"]) == 1
    capsys.readouterr()


def test_cli_usage_and_data_errors(tmp_path, capsys):
    assert main(["membership", "--pencil", "pauli"]) == 64  # missing --point
    assert main(["no-such-command"]) == 64
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert main(["membership", "--pencil", str(bad), "--point", "zeros"]) == 65
    assert main(["membership", "--pencil", "no-such-fixture", "--point", "zeros"]) == 65
    assert main(["ball", "--set", "qd", "--point", "no-such-fixture"]) == 65
    capsys.readouterr()


def test_cli_fixture_writes_file(tmp_path, capsys):
    out = tmp_path / "p.json"
    assert main(["fixture", "pauli", "--out", str(out)]) == 0
    loaded, payload = read_tuple(out)
    assert payload["comment"]
    assert np.abs(loaded.mats - load_fixture("pauli")[0].mats).max() == 0.0
    capsys.readouterr()


def test_cli_json_report_deterministic(capsys):
    argv = ["membership", "--pencil", "pauli", "--point", "pauli-conj",
            "--json", "--seed", "5"]
    main(argv)
    first = json.loads(capsys.readouterr().out)
    main(argv)
    second = json.loads(capsys.readouterr().out)
    first.pop("wall_time")
    second.pop("wall_time")
    assert first == second
    assert first["seed"] == 5


def _strict_json(text):
    def reject(token):
        raise ValueError(f"{token} is not a JSON value")
    return json.loads(text, parse_constant=reject)


def test_cli_json_reports_parse_as_strict_json(tmp_path, capsys):
    # A 1 x 1 point has one eigenvalue cluster, so its cluster gap is infinite.
    point = tmp_path / "point.json"
    write_tuple(point, HermitianTuple(np.array([[[1.0]], [[0.0]], [[0.0]]])))
    assert main(["extreme", "--json", "--pencil", "spin-g3", "--point", str(point)]) == 0
    report = _strict_json(capsys.readouterr().out)
    assert report["verdicts.verdict"] == "free"
    assert report["residuals.commutant_cluster_gap"] == "inf"


def test_cli_extreme_reports_the_deferred_fields_at_a_rank_one_boundary_point(tmp_path, capsys):
    # At column rank 2 < n = 6 classify decides boundary without the
    # Hermitian system or the commutant; the report reads both.
    from freespec.extremality import (_commutant_basis, column_dilation_system,
                                      hermitian_direction_system)
    from freespec.pencil import Pencil, membership
    from freespec.spin import random_spin_member, spin_tuple

    path = tmp_path / "point.json"
    write_tuple(path, random_spin_member(np.random.default_rng(5), 3, 6))
    X = read_tuple(path)[0]
    pencil = Pencil(spin_tuple(3))
    column = column_dilation_system(pencil, X, membership(pencil, X).kernel)
    hermitian = hermitian_direction_system(column)
    basis, gap = _commutant_basis(X, freespec.DEFAULT_TOL)
    assert column.retained_rows.shape[0] < X.n and column.nullity > 0
    assert main(["extreme", "--json", "--pencil", "spin-g3", "--point", str(path)]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["verdicts.verdict"] == "boundary"
    assert report["verdicts.hermitian_nullity"] == hermitian.nullity > 0
    assert report["verdicts.commutant_dim"] == len(basis) == 1
    assert report["residuals.hermitian_smallest_retained"] == pytest.approx(
        hermitian.smallest_retained, rel=1e-12)
    assert report["residuals.commutant_cluster_gap"] == gap


def test_cli_extreme_at_a_subnormal_point_is_interior_with_a_finite_report(tmp_path, capsys):
    # freeex4 x 1e-320 lies deep inside the set.  The report's commutant is
    # solved on the point over its largest entry, whose reciprocal would overflow.
    path = tmp_path / "subnormal.json"
    write_tuple(path, HermitianTuple(load_fixture("freeex4")[0].mats * 1e-320))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["extreme", "--json", "--pencil", "spin-g3", "--point", str(path)]) == 1
    out = capsys.readouterr().out
    report = _strict_json(out)
    assert (report["verdicts.verdict"], report["verdicts.commutant_dim"]) == ("interior", 1)
    assert not any(token in out for token in ('"inf"', '"-inf"', '"nan"'))


def test_json_report_writes_nonfinite_floats_as_strings(capsys):
    freespec.cli._emit({"a": np.inf, "b": -np.inf, "c": np.nan, "d": np.array([0.5, np.inf]),
                        "e": [complex(1.0, np.nan)], "f": 1.5}, as_json=True)
    assert _strict_json(capsys.readouterr().out) == {
        "a": "inf", "b": "-inf", "c": "nan", "d": [0.5, "inf"], "e": [[1.0, "nan"]], "f": 1.5}


def test_cli_seed_env_override(capsys, monkeypatch):
    monkeypatch.setenv("FREESPEC_SEED", "17")
    main(["membership", "--pencil", "pauli", "--point", "zeros", "--json"])
    report = json.loads(capsys.readouterr().out)
    assert report["seed"] == 17


def test_cli_bad_seed_env_is_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("FREESPEC_SEED", "abc")
    assert main(["membership", "--pencil", "pauli", "--point", "zeros"]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: FREESPEC_SEED") and err.count("\n") == 1
    # --seed takes precedence, so the bad variable is never read.
    assert main(["membership", "--pencil", "pauli", "--point", "zeros", "--seed", "3"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["ball", "--set", "wmax", "--point", "pauli"],
                                  ["chain", "--g", "3"]])
def test_cli_negative_seed_is_usage_error(argv, capsys, monkeypatch):
    for seed in ("-1", "-2"):
        assert main(argv + ["--seed", seed]) == 64
        err = capsys.readouterr().err
        assert err == f"usage error: --seed must be non-negative, got {seed}\n"
    monkeypatch.setenv("FREESPEC_SEED", "-1")
    assert main(argv) == 64
    err = capsys.readouterr().err
    assert err == "usage error: FREESPEC_SEED must be non-negative, got -1\n"


def test_cli_verify_paper_json_stdout_is_one_document(capsys, monkeypatch):
    from freespec.acceptance import CriterionResult

    results = [CriterionResult(1, "first", True, 0.5), CriterionResult(2, "second", False, 0.25)]
    monkeypatch.setattr(freespec.acceptance, "run_acceptance", lambda tol, seed: results)
    assert main(["verify-paper", "--json"]) == 1
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert report["verdicts.criterion_1"] == "pass" and report["verdicts.criterion_2"] == "FAIL"
    assert report["all_passed"] is False
    assert err.splitlines() == [r.line() for r in results]
    # Without --json the criterion lines stay on stdout, ahead of the table.
    assert main(["verify-paper"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[:2] == [r.line() for r in results] and err == ""


def test_cli_verify_paper_lapack_failure_is_a_numerical_error(capsys, monkeypatch):
    def failing(a, *args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # Criterion 4's stacked eigensolve fails, and so does its shifted retry.
    monkeypatch.setattr(freespec.acceptance, "ALL_CRITERIA", (freespec.acceptance.criterion_4,))
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    assert main(["verify-paper"]) == 70
    assert "numerical failure: Hermitian eigensolve did not converge" in capsys.readouterr().err


def _failing_first(solver, failures):
    """A LAPACK ``solver`` that raises on its first ``failures`` calls."""
    calls = []

    def failing(a, *args, **kwargs):
        calls.append(1)
        if len(calls) <= failures:
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return solver(a, *args, **kwargs)
    return failing


EXTREME_FREEEX4 = ["extreme", "--pencil", "spin-g3", "--point", "freeex4", "--json"]


def test_cli_extreme_retries_one_failure_of_each_eigensolver(capsys, monkeypatch):
    assert main(EXTREME_FREEEX4) == 0
    expected = json.loads(capsys.readouterr().out)
    # The first eigh is classify's, the first eigvalsh the boundedness scan's.
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _failing_first(getattr(np.linalg, name), 1))
    assert main(EXTREME_FREEEX4) == 0
    report = json.loads(capsys.readouterr().out)
    expected.pop("wall_time"), report.pop("wall_time")
    assert report.keys() == expected.keys()
    for key, value in expected.items():
        if isinstance(value, float):
            # The retried solve's eigenvalues move by about its shift, 1e-15 |L|.
            assert abs(report[key] - value) <= 1e-12 * max(abs(value), 1.0), key
        else:
            assert report[key] == value, key


def test_cli_extreme_at_full_column_rank_reports_no_hermitian_residual(capsys):
    # The column system has no kernel, so the Hermitian system is not solved.
    assert main(EXTREME_FREEEX4) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts.hermitian_nullity"] == report["verdicts.column_nullity"] == 0
    assert report["residuals.column_smallest_retained"] == pytest.approx(0.5, rel=1e-12)
    assert "residuals.hermitian_smallest_retained" not in report


def test_cli_extreme_persistent_eigensolver_failure_is_a_numerical_error(capsys, monkeypatch):
    for name in ("eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, _failing_first(getattr(np.linalg, name), 10 ** 9))
    assert main(EXTREME_FREEEX4) == 70
    assert "numerical failure: Hermitian eigensolve did not converge" in capsys.readouterr().err


def test_cli_tolerance_flags_threaded(capsys):
    # A huge psd band turns the refutation into a (nonsensical) membership;
    # the point is that the flag reaches the verdict.
    code = main(["membership", "--pencil", "pauli", "--point", "pauli-conj",
                 "--tol-psd", "10.0"])
    assert code == 0
    capsys.readouterr()


def test_cli_tol_hermitian_reaches_tuple_files(tmp_path, capsys):
    # A scaled Pauli triple with one entry moved 1e-10 off Hermitian.
    mats = 0.3 * pauli_tuple().mats
    mats[0, 0, 1] += 1e-10
    path = tmp_path / "x.json"
    path.write_text(json.dumps({
        "format_version": "1", "size": 2, "length": 3, "hermitian": True,
        "matrices": np.stack([mats.real, mats.imag], axis=-1).tolist()}))
    argv = ["membership", "--pencil", "pauli", "--point", str(path)]
    assert main(argv + ["--tol-hermitian", "1e-8"]) == 0
    capsys.readouterr()
    assert main(argv) == 65
    assert "deviates from Hermitian by 1.000e-10" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ball", "--set", "selfdual", "--point", "spin-g8"],
                                  ["membership", "--pencil", "spin-g8", "--point", "spin-g8"],
                                  ["extreme", "--pencil", "spin-g8", "--point", "spin-g8"]])
def test_cli_refuses_dense_matrices_above_the_bound(argv, capsys):
    # Both matrices would have side 128 * 128 = 16384 (4.3 GB complex).
    start = time.perf_counter()
    assert main(argv) == 64
    assert time.perf_counter() - start < 1.0
    assert "exceeds the dense bound 8192" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["ball", "--set", "qd", "--point", "freeex4"],
                                  ["hull", "--generator", "simplex-remark-pencil",
                                   "--generator", "simplex-remark-pencil", "--point", "0,0"]])
def test_cli_refuses_a_dilation_or_direct_sum_above_the_bound(argv, capsys, monkeypatch):
    # The dilation of a 4 x 4 point has side 8, the direct sum of two 3 x 3
    # generators side 6: both above the lowered bound.
    import freespec.linalg

    monkeypatch.setattr(freespec.linalg, "MAX_DENSE_SIDE", 5)
    assert main(argv) == 64
    assert "exceeds the dense bound 5" in capsys.readouterr().err


@pytest.mark.parametrize("which, length", [("wmax", 4097), ("qd", 2049)])
def test_cli_refuses_a_direction_grid_above_the_bound(which, length, tmp_path, capsys):
    # A small file of scalar matrices whose +/- axes alone (2 * 4097 for
    # wmax, 4 * 2049 for qd) exceed the bound: refused before the grid is built.
    path = tmp_path / "long.json"
    write_tuple(path, np.full((length, 1, 1), 0.01))
    start = time.perf_counter()
    assert main(["ball", "--set", which, "--point", str(path)]) == 64
    assert time.perf_counter() - start < 1.0
    assert "direction grid (" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["spin", "--g", "14"], ["chain", "--g", "13"]])
def test_cli_refuses_spin_tuples_above_the_entry_bound(argv, capsys):
    # 13 matrices of side 4096 take 3.5 GB complex, 14 of side 8192 15 GB.
    start = time.perf_counter()
    assert main(argv) == 64
    assert time.perf_counter() - start < 1.0
    assert "more than 8192^2 entries" in capsys.readouterr().err


def test_cli_ball_and_drop_exit_codes(capsys):
    assert main(["ball", "--set", "matrix", "--point", "spin-g3"]) == 1
    assert main(["ball", "--set", "wmax", "--point", "pauli"]) == 2  # heuristic accept
    assert main(["drop", "--pencil", "spin-g4", "--keep", "3",
                 "--point", "freeex4"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("ball", ["matrix", "selfdual"])
def test_cli_ball_reports_an_overflowing_point_as_a_numerical_failure(tmp_path, capsys, ball):
    # Entries just below MAX_ENTRY are legal, but sum_i X_i^2 overflows: its
    # eigenvalues are not finite, so no margin (and no refutation) is read.
    c = 1.3e154
    path = tmp_path / "big.json"
    write_tuple(path, np.array([[[c, c], [c, -c]]]))
    assert main(["ball", "--set", ball, "--point", str(path), "--json"]) == 70
    captured = capsys.readouterr()
    assert captured.out == "" and "non-finite eigenvalues" in captured.err


def test_cli_hull_and_chain(tmp_path, capsys):
    code = main(["hull", "--generator", "simplex-remark-pencil",
                 "--point", "0.0,0.0"])
    assert code == 2  # heuristic accept
    assert main(["chain", "--g", "2", "--samples", "30"]) == 0
    capsys.readouterr()


def test_cli_chain_does_not_refute_on_roundoff(capsys):
    # The chain scales samples exactly onto boundaries; with psd_tol below
    # roundoff their margins' signs are noise, not refutations.
    argv = ["--tol-psd", "1e-16", "chain", "--g", "4", "--samples", "200", "--seed", "0", "--json"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdicts.violations"] == []


def test_cli_dual_then_membership(tmp_path, capsys):
    out = tmp_path / "dual.json"
    assert main(["dual", "--basis", "pauli", "--out", str(out)]) == 0
    assert main(["membership", "--pencil", str(out), "--point", "pauli"]) == 0
    capsys.readouterr()


def test_cli_dilate_writes_output(tmp_path, capsys):
    out = tmp_path / "dilated.json"
    assert main(["dilate", "--pencil", "spin-g2", "--point", "zeros",
                 "--out", str(out)]) == 0
    loaded, _ = read_tuple(out)
    assert loaded.n >= 2
    capsys.readouterr()


def test_cli_spin_report(capsys):
    assert main(["spin", "--g", "4", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["verdicts.size"] == 8
    assert report["residuals.anticommutation_residual"] <= 1e-12


def test_cli_unexpected_exception_is_numerical_failure(monkeypatch, capsys):
    import freespec.cli

    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge\nin the LAPACK driver")

    monkeypatch.setattr(freespec.cli, "membership", broken)
    assert main(["membership", "--pencil", "pauli", "--point", "zeros"]) == 70
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: LinAlgError") and err.count("\n") == 1


def test_overflowing_tuple_file_rejected_at_load(tmp_path, capsys):
    big = np.zeros((3, 2, 2))
    big[:, 0, 0] = 1e308
    big[:, 0, 1] = big[:, 1, 0] = 1e308
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "format_version": "1", "size": 2, "length": 3, "hermitian": True,
        "matrices": [[[[float(v), 0.0] for v in row] for row in M] for M in big]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TupleFormatError):
            read_tuple(path)
        assert main(["membership", "--pencil", str(path), "--point", "zeros"]) == 65
    assert capsys.readouterr().err.startswith("tuple file error")


@pytest.mark.parametrize("argv", [
    ["chain", "--g", "3", "--samples", "-5"],
    ["chain", "--g", "3", "--samples", "0"],
])
def test_cli_count_options_must_be_positive(argv, capsys):
    assert main(argv) == 64
    assert "must be at least 1" in capsys.readouterr().err


def test_cli_count_options_are_capped_at_parse_time(monkeypatch, capsys):
    def unreachable(args):
        raise AssertionError("a capped count reached the command")

    monkeypatch.setattr(freespec.cli, "_run", unreachable)
    argv = ["chain", "--g", "3", "--samples", "1000000000"]
    assert main(argv) == 64
    assert f"must be at most {freespec.cli.MAX_COUNT}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dilate", "--pencil", "spin-g2", "--point", "zeros", "--max-steps", "64"],
    ["ball", "--set", "wmax", "--point", "pauli", "--grid", "64"],
    ["ball", "--set", "qd", "--point", "pauli", "--refine", "25"],
    ["drop", "--pencil", "spin-g3", "--keep", "2", "--point", "zeros", "--restarts", "8"],
    ["drop", "--pencil", "spin-g3", "--keep", "2", "--point", "zeros", "--iters", "60"],
    ["hull", "--generator", "pauli", "--point", "0,0,0", "--grid", "720"],
    ["hull", "--generator", "pauli", "--point", "0,0,0", "--refine", "30"],
])
def test_cli_search_effort_flags_are_gone(argv, monkeypatch, capsys):
    # A script that still passes one fails loudly, before any command runs.
    def unreachable(args):
        raise AssertionError("a removed flag reached the command")

    monkeypatch.setattr(freespec.cli, "_run", unreachable)
    assert main(argv) == 64
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main([argv[0], "--help"])
    assert argv[-2] not in capsys.readouterr().out


def test_cli_residual_tolerance_flag_is_gone(capsys):
    # The rank cutoff bounds the kernel residual: there is no fourth tolerance.
    argv = ["extreme", "--pencil", "spin-g3", "--point", "freeex4"]
    assert main(argv + ["--tol-residual", "1e-10"]) == 64
    assert "unrecognized arguments: --tol-residual 1e-10" in capsys.readouterr().err
    assert main(argv + ["--json"]) == 0
    assert "tolerances.residual_tol" not in json.loads(capsys.readouterr().out)


def test_cli_extreme_kernel_residual_over_the_rank_cutoff_is_numerical_failure(
        monkeypatch, capsys):
    # classify decides L(freeex4) of spin-g3 on its two distinct 8 x 8 blocks.
    monkeypatch.setattr(np.linalg, "eigh", tilting_eigh(8))
    assert main(["extreme", "--pencil", "spin-g3", "--point", "freeex4"]) == 70
    assert "exceeds rank_tol" in capsys.readouterr().err


def _malformed(field, value):
    payload = {"format_version": "1", "size": 1, "length": 2, "hermitian": True,
               "matrices": [[[[0.25, 0.0]]], [[[0.5, 0.0]]]]}
    if field == "entry":
        payload["matrices"][1][0][0][0] = value
    else:
        payload[field] = value
    if (field, value) == ("size", 0):
        payload["matrices"] = [[], []]  # two 0x0 matrices
    return payload


@pytest.mark.parametrize("field,value", [
    ("size", -1), ("size", 0), ("size", 1.7), ("entry", None), ("entry", "0.5"),
    ("hermitian", "no"), ("entry", True),
    ("matrices", [[[[True, False]]], [[[False, False]]]]),
])
def test_malformed_fields_are_tuple_file_errors(field, value, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_malformed(field, value)))
    with pytest.raises(TupleFormatError):
        read_tuple(path)
    assert main(["membership", "--pencil", "spin-g2", "--point", str(path)]) == 65
    err = capsys.readouterr().err
    assert err.startswith("tuple file error:") and err.count("\n") == 1


def test_well_formed_base_file_is_read(tmp_path, capsys):
    path = tmp_path / "good.json"
    path.write_text(json.dumps(_malformed("comment", "base case")))
    loaded, _ = read_tuple(path)
    assert loaded.mats.shape == (2, 1, 1) and loaded.mats[1, 0, 0] == 0.5
    assert main(["membership", "--pencil", "spin-g2", "--point", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("pencil,point,code", [
    ("spin-g3", "zeros", 0), ("pauli", "pauli", 0), ("pauli", "pauli-conj", 1),
])
def test_cli_drop_keeping_every_coordinate_is_membership(pencil, point, code, capsys):
    assert main(["drop", "--pencil", pencil, "--keep", "3", "--point", point, "--json"]) == code
    report = json.loads(capsys.readouterr().out)
    assert report["inputs.mode"] == "registered-exact"
    assert report["verdicts.member"] is (code == 0)


def test_cli_pauli_drop_accepts_heuristically_and_refutes(tmp_path, capsys):
    # The registered Pauli drop is decided by the one-sided wmax estimator.
    outside = tmp_path / "outside.json"
    write_tuple(outside, HermitianTuple(1.1 * freespec.spin_tuple(2).mats))
    for point, code in (("spin-g2", 2), (str(outside), 1)):
        argv = ["drop", "--pencil", "pauli", "--keep", "2", "--point", point, "--json"]
        assert main(argv) == code
        report = json.loads(capsys.readouterr().out)
        assert report["inputs.mode"] == "registered-exact"
        assert report["verdicts.member"] is report["verdicts.heuristic"] is (code == 2)


def test_cli_hull_point_may_start_with_a_minus_sign(capsys):
    reports = []
    for point in (["--point", "-0.5,0"], ["--point=-0.5,0"]):
        assert main(["hull", "--generator", "simplex-remark-pencil", "--json"] + point) == 2
        report = json.loads(capsys.readouterr().out)
        report.pop("wall_time")
        reports.append(report)
    assert reports[0] == reports[1] and reports[0]["verdicts.heuristic"] is True


@pytest.mark.parametrize("point", ["abc", "nan,0", "1,inf", "1,,2"])
def test_cli_hull_point_must_be_finite_numbers(point, capsys):
    assert main(["hull", "--generator", "simplex-remark-pencil", "--point", point]) == 64
    err = capsys.readouterr().err
    assert err.startswith("usage error: argument --point") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["membership", "--pencil", "spin-g3", "--point", "zeros", "--json"],
    ["verify-paper"],
])
def test_cli_closed_stdout_is_an_output_error(argv):
    # A reader that exits before the report is written (``| true``): exit
    # 70 with one line on stderr, never exit 1 or a traceback.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(freespec.__file__)))
    try:
        proc = subprocess.run([sys.executable, "-m", "freespec.cli"] + argv, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert proc.returncode == 70
    assert proc.stderr == "output error: stdout was closed before the report was written\n"


@pytest.mark.parametrize("argv", [["fixture", "pauli"],
                                  ["dilate", "--pencil", "spin-g2", "--point", "zeros"]])
def test_cli_failed_output_write_is_an_output_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(argv + ["--out", str(out)]) == 70
    assert capsys.readouterr().err == (
        f"output error: cannot write {out}: No such file or directory\n")


@pytest.mark.parametrize("keep", ["2", "0", "5"])
def test_cli_drop_refuses_a_point_of_another_length(keep, capsys):
    # freeex4 has length 3; spin-g4 has 4 coordinates.
    assert main(["drop", "--pencil", "spin-g4", "--keep", keep, "--point", "freeex4"]) == 64
    assert capsys.readouterr().err.startswith("usage error: --keep")


def test_cli_pauli_drop_refutation_carries_the_wmax_direction(tmp_path, capsys):
    outside = tmp_path / "outside.json"
    write_tuple(outside, HermitianTuple(1.1 * freespec.spin_tuple(2).mats))
    reports = {}
    for name, argv in (("drop", ["drop", "--pencil", "pauli", "--keep", "2"]),
                       ("ball", ["ball", "--set", "wmax"])):
        assert main(argv + ["--point", str(outside), "--json"]) == 1
        reports[name] = json.loads(capsys.readouterr().out)
    # Both refute with a unit direction c whose sum c_i X_i has an
    # eigenvalue above 1; the two searches use different grids.
    for report in reports.values():
        c = np.array(report["verdicts.witness_direction"])
        assert np.linalg.norm(c) == pytest.approx(1.0, abs=1e-12)
        top = np.linalg.eigvalsh(np.einsum("i,iab->ab", c, 1.1 * freespec.spin_tuple(2).mats))
        assert top[-1] > 1.0
    for argv, code in ((["pauli", "--keep", "2", "--point", "spin-g2"], 2),
                       (["spin-g4", "--keep", "3", "--point", "freeex4"], 0),
                       (["pauli", "--keep", "3", "--point", "pauli"], 0)):
        assert main(["drop", "--pencil"] + argv + ["--json"]) == code
        assert json.loads(capsys.readouterr().out)["verdicts.witness_direction"] is None
