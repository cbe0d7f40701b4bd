"""The README's examples run as written.

Each ``freespec`` line of the CLI quick start runs through ``cli.main`` in
one scratch directory, in order (the fixture lines write the files that
later lines read); the Python example prints what its comments say; and
the ``--tol-*`` flags the README names are the ones the parser has.
"""

import contextlib
import io
import pathlib
import re
import shlex

import pytest

from freespec.cli import main

README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
# The quick-start lines that refute (exit 1): the conjugate triple is outside
# the matrix range of the Pauli triple, the unscaled spin-g3 tuple outside
# the matrix ball, and (0, -2/3) outside the triangle (1, 0), (0, 1), (-1, -1)
# of the simplex pencil's joint eigenvalues.
REFUTED = {"choi", "ball", "hull"}


def _block(language, after=""):
    """The first ``language`` code block after the text ``after``."""
    return re.search(rf"```{language}\n(.*?)```", README[README.index(after):], re.S).group(1)


def _quick_start():
    block = _block("sh", after="## Quick start (CLI)\n")
    lines = [line.split(" #")[0] for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("freespec ")]


def test_quick_start_names_every_command_it_documents():
    assert [argv[0] for argv in _quick_start()] == [
        "fixture", "fixture", "fixture", "membership", "extreme", "dilate", "choi", "dual",
        "ball", "drop", "hull", "chain", "verify-paper"]


def test_quick_start_runs_as_written(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv in _quick_start():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == (1 if argv[0] in REFUTED else 0), argv
    assert {"pauli.json", "f3.json", "x4.json", "dilated.json", "dual.json"} <= {
        path.name for path in tmp_path.iterdir()}


def test_python_example_prints_what_its_comments_say(capsys):
    source = _block("python")
    expected = [line.split("# ")[1].strip() for line in source.splitlines() if "print(" in line]
    exec(compile(source, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected == ["Verdict.FREE", "6", "0.5"]


def test_readme_names_the_tolerance_flags_the_parser_has(capsys):
    named = set(re.findall(r"--tol-[a-z]+", README))
    with pytest.raises(SystemExit):
        main(["membership", "--help"])
    assert named == set(re.findall(r"--tol-[a-z]+", capsys.readouterr().out))
    for flag in sorted(named):
        assert main(["membership", "--pencil", "spin-g3", "--point", "zeros", flag, "1e-8"]) == 0
