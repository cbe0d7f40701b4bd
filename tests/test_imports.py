"""Every name a freespec module imports, and every private module-level
function, class or constant it defines, is used in that module.

No linter runs on this code, and consolidations leave stale imports and
dead private helpers behind.  A name listed in the module's ``__all__``
counts as used (a re-export).
"""

import ast
import pathlib

import pytest

import freespec

MODULES = sorted(pathlib.Path(freespec.__file__).parent.glob("*.py"))


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and isinstance(node.value, (ast.List, ast.Tuple))
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def _unused_privates(source):
    """(line, name) of each module-level ``_name`` that is defined but never
    read in its module; dunder names are not private."""
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    defined[target.id] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in defined.items()
                  if name.startswith("_") and not name.startswith("__") and name not in read)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_reads_every_private_name(path):
    unused = _unused_privates(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def test_private_name_guard_sees_functions_classes_and_constants():
    source = ("_A = 1\n_B: int = 2\n__version__ = '0'\npublic = _A\n"
              "def _f():\n    _local = 0\n    return _local\n"
              "def _g():\n    pass\nclass _C:\n    pass\nx = _g()\n")
    assert _unused_privates(source) == [(2, "_B"), (5, "_f"), (10, "_C")]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} {name}" for line, name in unused)


def test_unused_import_guard_sees_plain_from_and_reexported_names():
    source = ("import os\nimport numpy.linalg\nfrom .a import b as c, d\n"
              "__all__ = ['d']\nnumpy.linalg.eigh\n")
    assert _unused_imports(source) == [(1, "os"), (3, "c")]
