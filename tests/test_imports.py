"""Every name a freespec module imports, and every private module-level
function, class or constant it defines, is used in that module; every
option (a parameter or dataclass field with a default) is set by some call
in the package or the benchmark, where passing on an option of the caller
counts only when that option is set in turn; and every module-level
function or class is reached from a command, an acceptance criterion or
the benchmark.

No linter runs on this code, and consolidations leave stale imports, dead
private helpers, options only tests set and library-only functions behind.
A name listed in the module's ``__all__`` counts as used (a re-export), but
a re-export reaches nothing.
"""

import ast
import math
import pathlib

import pytest

import freespec

MODULES = sorted(pathlib.Path(freespec.__file__).parent.glob("*.py"))
BENCH = sorted((pathlib.Path(__file__).resolve().parents[1] / "bench").glob("*.py"))
# Calls in tests set no option: an option only tests set is a constant.
CALLERS = MODULES + BENCH
# The modules whose every definition is reached: the commands and the
# acceptance criteria.
ENTRIES = ("cli.py", "acceptance.py")


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


def _name(node):
    return getattr(node, "id", getattr(node, "attr", None))


# The value of an expression that is not a literal.
_NOT_LITERAL = object()


def _literal(node):
    """The value of a literal expression (``64``, ``-1.0``, ``True``), or
    ``_NOT_LITERAL``."""
    try:
        return ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return _NOT_LITERAL


def _field_default(value):
    """The expression that gives a dataclass field its default, or None:
    the right-hand side, or a ``field`` call's default or default factory."""
    if isinstance(value, ast.Call) and _name(value.func) == "field":
        return next((keyword.value for keyword in value.keywords
                     if keyword.arg in ("default", "default_factory")), None)
    return value


def _options(tree):
    """(name, parameter, position, default) of each parameter with a
    default, other than ``tol``, of the module-level functions and the
    methods, and of each dataclass field with a default; a constructor's
    name is its class's, keyword-only parameters have no position, and a
    default that is not a literal is ``_NOT_LITERAL``."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                _name(getattr(decorator, "func", decorator)) == "dataclass"
                for decorator in node.decorator_list):
            fields = [stmt for stmt in node.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)]
            found += [(node.name, stmt.target.id, i, _field_default(stmt.value))
                      for i, stmt in enumerate(fields)]
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(fn, ast.FunctionDef):
                name = node.name if fn.name == "__init__" else fn.name
                found += [(name, param, position, default)
                          for param, position, default in _signature(fn, fn is not node)]
    return [(name, param, position, _literal(default)) for name, param, position, default
            in found if default is not None and param != "tol"]


def _signature(fn, method=False):
    """(parameter, position, default expression or None) of each parameter
    of ``fn``, without a method's first one; keyword-only ones have no
    position."""
    args = fn.args
    positional = (args.posonlyargs + args.args)[method:]
    defaults = [None] * (len(positional) - len(args.defaults)) + args.defaults
    return ([(p.arg, i, default) for i, (p, default) in enumerate(zip(positional, defaults))]
            + [(p.arg, None, default) for p, default in zip(args.kwonlyargs, args.kw_defaults)])


def _calls(tree):
    """(callee name, positional count, keyword names, forwarded, literals) of
    each call.  ``forwarded`` maps each argument (keyword name or position)
    that is a bare parameter of an enclosing function to that parameter's
    option ``(function, parameter)``, or None when the parameter has no
    default; ``literals`` maps each argument that is a literal to its value.
    A call through a local alias (``f = g if c else h``) counts for every
    name the alias can take."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and isinstance(node.value, (ast.Name, ast.IfExp)):
            value = node.value
            branches = (value.body, value.orelse) if isinstance(value, ast.IfExp) else (value,)
            for target in node.targets:
                aliases.setdefault(_name(target), set()).update(map(_name, branches))

    def visit(node, scope, owner):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            name = getattr(node, "name", None)
            name = owner if name == "__init__" else name
            scope = {**scope, **{param: None if default is None else (name, param)
                                 for param, _, default in _signature(node)}}
        if isinstance(node, ast.Call):
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            keywords = {keyword.arg for keyword in node.keywords}  # None for **kwargs
            slots = [*enumerate(node.args), *((kw.arg, kw.value) for kw in node.keywords)]
            forwarded = {slot: scope[value.id] for slot, value in slots
                         if isinstance(value, ast.Name) and value.id in scope}
            literals = {slot: _literal(value) for slot, value in slots}
            for callee in {_name(node.func)} | aliases.get(_name(node.func), set()):
                yield (callee, math.inf if starred else len(node.args), keywords, forwarded,
                       literals)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope, node.name if isinstance(node, ast.ClassDef) else None)

    yield from visit(tree, {}, None)


def _unset_options(modules, callers):
    """(name, parameter) of each option of ``modules`` that no call in
    ``callers`` sets, by keyword or by enough positional arguments.  A
    ``dataclasses.replace`` call sets every field it names, whatever its
    class.  An argument that is a literal equal to the option's default sets
    nothing, and one that passes on an option of the calling function sets
    nothing unless that option is set in turn, through any chain of calls."""
    calls = {}
    for source in callers:
        for callee, *call in _calls(ast.parse(source)):
            calls.setdefault(callee, []).append(call)
    replaced = [(0, *call[1:]) for call in calls.get("replace", ())]
    options = [option for source in modules for option in _options(ast.parse(source))]
    unset = {(name, param) for name, param, _, _ in options}

    def sets(call, param, position, default):
        positional, keywords, forwarded, literals = call
        if None in keywords:
            return True
        slot = param if param in keywords else position
        if slot is None or (slot == position and not positional > position):
            return False
        if default is not _NOT_LITERAL and literals.get(slot, _NOT_LITERAL) == default:
            return False
        return forwarded.get(slot) not in unset

    changed = True
    while changed:
        found = {(name, param) for name, param, position, default in options
                 if (name, param) in unset and any(sets(call, param, position, default)
                                                   for call in calls.get(name, []) + replaced)}
        unset -= found
        changed = bool(found)
    return [(name, param) for name, param, _, _ in options if (name, param) in unset]


def test_every_option_is_set_by_some_call():
    sources = [path.read_text(encoding="utf-8") for path in CALLERS]
    unset = _unset_options(sources[:len(MODULES)], sources)
    assert not unset, ", ".join(f"{name}({param}=)" for name, param in unset)


def test_unset_option_guard_sees_keywords_positions_aliases_and_constructors():
    module = ("def f(a, b=1, c=2, *, d=3, tol=None):\n    pass\n"
              "def h(z=0, w=0):\n    pass\n"
              "class K:\n    def __init__(self, x, y=0):\n        pass\n"
              "    def m(self, v=0):\n        pass\n"
              "def r(rng, scale=1.0):\n    pass\n")
    # f(0, c=2) passes c its own default, which sets nothing.
    calls = "f(0, 5, d=4)\nf(0, c=2)\npick = f if f else h\npick(z=1)\nK(1)\nK.m(1)\nr(0)\n"
    expected = [("f", "c"), ("h", "w"), ("K", "y"), ("r", "scale")]
    assert _unset_options([module], [module, calls]) == expected
    # Only a call from a test, which CALLERS leaves out, would set r's scale.
    assert _unset_options([module], [module, calls, "r(0, scale=0.5)\n"]) == expected[:3]


def test_unset_option_guard_resolves_forwarded_options_transitively():
    module = ("def outer(x, seed=0):\n    return inner(x, seed=seed)\n"
              "def inner(x, seed=0):\n    return leaf(x, seed)\n"
              "def leaf(x, seed=0):\n    pass\n"
              "def top(x, level=0):\n    return mid(x, level=level)\n"
              "def mid(x, level=0):\n    pass\n"
              "def fixed(x):\n    return end(x, depth=x)\n"
              "def end(x, depth=0):\n    pass\n"
              "def shadow(x, grid=0):\n    return (lambda grid: tail(grid=grid))(1)\n"
              "def tail(grid=0):\n    pass\n")
    calls = "outer(1)\ntop(1, level=2)\nfixed(1)\nshadow(1)\n"
    # Nothing sets outer's seed, so the seed it passes on down the chain is
    # a constant; a required parameter or a lambda's own one sets an option.
    expected = [("outer", "seed"), ("inner", "seed"), ("leaf", "seed"), ("shadow", "grid")]
    assert _unset_options([module], [module, calls]) == expected
    # Setting the head of the chain sets every link.
    assert _unset_options([module], [module, calls, "outer(1, 5)\n"]) == expected[3:]


def test_unset_option_guard_sees_dataclass_fields_and_replace():
    module = ("from dataclasses import dataclass, field\n"
              "@dataclass(frozen=True)\nclass D:\n    a: int\n    b: int = 0\n"
              "    c: int = 1\n    d: list = field(default_factory=list)\n"
              "    e: int = field(default=2)\n    f: int = field(repr=False)\n"
              "@dataclass\nclass E:\n    z: int = 0\n"
              "class P:\n    y: int = 0\n")
    calls = "D(1, 2)\nD(0, e=3)\nreplace(D(0), d=[])\nE()\n"
    assert _unset_options([module], [module, calls]) == [("D", "c"), ("E", "z")]


def _definitions(tree):
    """(line, name, node) of each module-level function, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((node.lineno, target.id, node)
                        for target in targets if isinstance(target, ast.Name))


def _external(tree, internal):
    """Names that ``tree`` binds by ``import`` to a module outside ``internal``."""
    return {alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names if alias.name.split(".")[0] not in internal}


def _identifiers(tree, external, own=()):
    """Every ``Name`` and ``Attribute`` identifier of ``tree``.  A name inside
    a string is not one, nor is a ``Name`` in ``own`` or an attribute of a
    name in ``external`` (``np.kron``, ``np.linalg.eigh``)."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id not in own:
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if not (isinstance(base, ast.Name) and base.id in external):
                found.add(node.attr)
    return found


def _unreached(modules, roots):
    """(module, line, name) of each module-level function or class of
    ``modules`` (file name -> source) that no identifier reaches.  The
    identifiers of the ``roots`` sources reach every module-level definition
    of their name, in any module, and a reached function, class or
    assignment reaches the definitions of the identifiers in it.  An import
    is no identifier, so a re-export reaches nothing; neither does an
    attribute of a module imported from outside freespec and ``modules``,
    nor a bare name that the root defines itself."""
    internal = {"freespec"} | {pathlib.Path(module).stem for module in modules}
    definitions = []
    for module, source in modules.items():
        tree = ast.parse(source)
        external = _external(tree, internal)
        definitions += [(module, line, name, node, external)
                        for line, name, node in _definitions(tree)]
    reached = set()
    for source in roots:
        tree = ast.parse(source)
        own = {name for _, name, _ in _definitions(tree)}
        reached |= _identifiers(tree, _external(tree, internal), own)
    pending = definitions
    while any(definition[2] in reached for definition in pending):
        found = [definition for definition in pending if definition[2] in reached]
        pending = [definition for definition in pending if definition[2] not in reached]
        reached = reached.union(*(_identifiers(node, external)
                                  for _, _, _, node, external in found))
    return sorted((module, line, name) for module, line, name, node, _ in pending
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef)))


def test_every_definition_is_reached_from_a_command_criterion_or_bench():
    entries = [path for path in MODULES if path.name in ENTRIES]
    modules = {path.name: path.read_text(encoding="utf-8") for path in MODULES
               if path not in entries and path.name != "__init__.py"}
    roots = [path.read_text(encoding="utf-8") for path in entries + BENCH]
    unreached = _unreached(modules, roots)
    assert not unreached, ", ".join(f"{module}:{line} {name}" for module, line, name in unreached)


def test_reachability_guard_sees_strings_attributes_and_chains():
    module = ("def unreached():\n    pass\n"
              "def by_string():\n    pass\n"
              "def by_attribute():\n    return _TABLE\n"
              "_TABLE = {'helper': lambda: _helper()}\n"
              "def _helper():\n    pass\n")
    roots = ["import m\nfrom m import unreached\nm.by_attribute()\nSPANS = ['m.by_string']\n"]
    assert _unreached({"m.py": module}, roots) == [("m.py", 1, "unreached"),
                                                   ("m.py", 3, "by_string")]


def test_reachability_guard_ignores_outside_module_attributes_and_root_definitions():
    module = ("import numpy as np\n"
              "def kron():\n    pass\n"
              "def eigh():\n    pass\n"
              "def direct_sum():\n    pass\n"
              "def used():\n    return np.linalg.eigh(kron)\n")
    roots = ["import numpy as np\nimport m\nnp.kron(1, 2)\n"
             "def direct_sum():\n    return m.used()\nx = direct_sum()\n"]
    # np.kron and np.linalg.eigh name numpy's functions; the root's own
    # direct_sum shadows the module's; the bare name kron in used() reaches.
    assert _unreached({"m.py": module}, roots) == [("m.py", 4, "eigh"),
                                                   ("m.py", 6, "direct_sum")]


def _eigensolver_calls(source):
    """(line, name) of each ``eigh``/``eigvalsh`` attribute or import."""
    tree = ast.parse(source)
    found = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("eigh", "eigvalsh")]
    found += [(node.lineno, alias.name) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if alias.name in ("eigh", "eigvalsh")]
    return sorted(found)


def test_only_linalg_calls_a_hermitian_eigensolver():
    """Every Hermitian eigensolve goes through linalg's one retried solve."""
    calls = [f"{path.name}:{line} {name}" for path in MODULES if path.name != "linalg.py"
             for line, name in _eigensolver_calls(path.read_text(encoding="utf-8"))]
    assert not calls, ", ".join(calls)


def test_eigensolver_guard_sees_attributes_and_imports():
    source = ("import numpy as np\nfrom numpy.linalg import eigvalsh as ev\n"
              "np.linalg.eigh(1)\nw = ev(2)\nstr.eigh_like\n")
    assert _eigensolver_calls(source) == [(2, "eigvalsh"), (3, "eigh")]


def _hermitian_tuple_checks(source):
    """Line of each ``isinstance`` call that names ``HermitianTuple``, alone
    or in a tuple of classes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and _name(node.func) == "isinstance" and len(node.args) == 2:
            classes = node.args[1]
            classes = classes.elts if isinstance(classes, ast.Tuple) else [classes]
            if any(_name(cls) == "HermitianTuple" for cls in classes):
                found.append(node.lineno)
    return sorted(found)


def test_only_linalg_asks_whether_an_input_is_a_hermitian_tuple():
    """``HermitianTuple(X)`` shares the matrices of a HermitianTuple X and
    ``np.asarray(X)`` reads them, so no other module special-cases one."""
    checks = [f"{path.name}:{line}" for path in MODULES if path.name != "linalg.py"
              for line in _hermitian_tuple_checks(path.read_text(encoding="utf-8"))]
    assert not checks, ", ".join(checks)


def test_hermitian_tuple_check_guard_sees_bare_attribute_and_tuple_classes():
    source = ("isinstance(X, HermitianTuple)\nisinstance(X, linalg.HermitianTuple)\n"
              "isinstance(X, (np.ndarray, HermitianTuple))\nisinstance(X, Pencil)\n"
              "HermitianTuple(X)\nx = X.mats if isinstance(X, HermitianTuple) else X\n")
    assert _hermitian_tuple_checks(source) == [1, 2, 3, 6]


# The sphere search's moving parts, its stacked objective with gradients and
# the stacked combinations its trials score: every other module asks
# sphere.top_eigenvalue_extremum for the extremum over its own stack and sign.
SPHERE_SEARCH = ("_tops_and_gradients", "_combinations")


def _sphere_search_uses(source):
    """(line, name) of each use of a ``SPHERE_SEARCH`` name: a bare name, an
    attribute or an import."""
    tree = ast.parse(source)
    found = {(node.lineno, _name(node)) for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in SPHERE_SEARCH}
    found |= {(node.lineno, alias.name) for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names
              if alias.name in SPHERE_SEARCH}
    return sorted(found)


def test_only_sphere_runs_a_sphere_search():
    """One objective, one ascent: the other modules go through the extremum."""
    uses = [f"{path.name}:{line} {name}" for path in MODULES if path.name != "sphere.py"
            for line, name in _sphere_search_uses(path.read_text(encoding="utf-8"))]
    assert not uses, ", ".join(uses)


def test_sphere_search_guard_sees_names_attributes_and_imports():
    source = ("from .sphere import _combinations as comb, unit_sphere_grid\n"
              "from . import sphere\nsphere._tops_and_gradients(M, C, 1)\n"
              "sums = _combinations\nsphere.top_eigenvalue_extremum(M, d, 3, 1)\n")
    assert _sphere_search_uses(source) == [(1, "_combinations"), (3, "_tops_and_gradients"),
                                           (4, "_combinations")]


# What a module may not import at module level, so that a command that does
# not call into those modules does not load them.
DEFERRED = {"fixtures": {"drops", "ballsets", "extremality"},
            "cli": {"extremality", "duality", "ballsets", "drops", "acceptance"},
            "drops": {"ballsets"}, "ballsets": {"extremality"}}
# The entry modules, and the only modules that may import each of them.
IMPORTERS = {"cli": set(), "acceptance": {"cli"}}


def _freespec_imports(source):
    """(module, at module level) of each freespec module ``source`` imports;
    an import inside a function body is not at module level."""
    found = set()

    def visit(node, top):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            names = [node.module.split(".")[0]] if node.module else [a.name for a in node.names]
            found.update((name, top) for name in names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "freespec":
            parts = node.module.split(".")
            names = parts[1:2] or [alias.name for alias in node.names]
            found.update((name, top) for name in names)
        elif isinstance(node, ast.Import):
            found.update((alias.name.split(".")[1], top) for alias in node.names
                         if alias.name.startswith("freespec."))
        inner = top and not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for child in ast.iter_child_nodes(node):
            visit(child, inner)

    visit(ast.parse(source), True)
    return found


def _import_rule_breaks(modules):
    """(module, imported) of each import off the commands' call paths: one
    of ``DEFERRED[module]`` at module level, or an entry module imported by
    a module not in its ``IMPORTERS``."""
    breaks = set()
    for module, source in modules.items():
        for name, top in _freespec_imports(source):
            if (top and name in DEFERRED.get(module, ())) or \
                    (name in IMPORTERS and module not in IMPORTERS[name]):
                breaks.add((module, name))
    return sorted(breaks)


def test_imports_follow_the_commands_call_paths():
    modules = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    breaks = _import_rule_breaks(modules)
    assert not breaks, ", ".join(f"{module} imports {name}" for module, name in breaks)


def test_import_rule_guard_sees_module_level_function_and_entry_imports():
    modules = {"fixtures": "from .drops import x\nfrom . import spin\n"
                           "def f():\n    from .ballsets import y\n",
               "cli": "import freespec.duality\nfrom .pencil import membership\n"
                      "def run():\n    from .extremality import classify\n"
                      "    from . import acceptance\n",
               "pencil": "def f():\n    from freespec.acceptance import run\n",
               "acceptance": "if True:\n    from .cli import main\n"}
    assert _import_rule_breaks(modules) == [("acceptance", "cli"), ("cli", "duality"),
                                            ("fixtures", "drops"), ("pencil", "acceptance")]
