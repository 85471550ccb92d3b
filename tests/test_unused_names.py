"""No orphan names in the library: every module outside ``__init__.py`` uses
each name it imports, unless the import line carries ``# noqa: F401``, and
reads each plain name a function assigns. A tuple target, a loop variable
and a name that starts with an underscore are exempt, as in pyflakes.

No orphan definitions: every function and class that the library defines,
methods included, and every module-level constant (a plain name assigned
at the top level of a module) is read somewhere besides its definition, in
the library, the tests or the benchmark (as a name, an attribute, an
imported name or a string such as a patched binding); assigning the name
again does not count. Dunder names are exempt.

No undeclared dependency either: every module, ``__init__.py`` included,
imports only from the package itself, the standard library and numpy.

No ``assert`` statement in any module: ``python -O`` strips them, so a
library check must raise.
"""

import ast
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "minisplit"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")
ALLOWED_IMPORTS = {"minisplit", "numpy"} | set(sys.stdlib_module_names)


def _loaded(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def unused_imports(source):
    tree = ast.parse(source)
    lines = source.splitlines()
    used = _loaded(tree)
    unused = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in used:
                unused.append(f"line {node.lineno}: {name}")
    return unused


def _own_stores(func):
    """Plain names that ``func`` assigns in its own scope, not in nested ones."""
    stores, todo = {}, list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.NamedExpr)) and node.value is not None:
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Name) and not target.id.startswith("_"):
                stores.setdefault(target.id, target.lineno)
        todo.extend(ast.iter_child_nodes(node))
    return stores


def unused_locals(source):
    unused = []
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            declared = {name for node in ast.walk(func)
                        if isinstance(node, (ast.Global, ast.Nonlocal)) for name in node.names}
            used = _loaded(func)
            unused += [f"line {line}: {name} in {func.name}"
                       for name, line in _own_stores(func).items()
                       if name not in used and name not in declared]
    return unused


def _mentions(tree):
    """Identifiers that ``tree`` reads, outside any definition's own name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def orphan_definitions(defining, everywhere):
    """Functions, classes and module-level constants defined in the
    ``defining`` sources (a mapping of label to source) that no source in
    ``everywhere`` reads."""
    named = set().union(*(_mentions(ast.parse(source)) for source in everywhere))
    orphans = []
    for label, source in defining.items():
        tree = ast.parse(source)
        defs = [(node.lineno, node.name) for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        assigns = [node for node in tree.body if isinstance(node, (ast.Assign, ast.AnnAssign))]
        defs += [(node.lineno, target.id) for node in assigns
                 for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(target, ast.Name)]
        orphans += [f"{label} line {line}: {name}" for line, name in sorted(defs)
                    if name not in named and not (name.startswith("__") and name.endswith("__"))]
    return orphans


def foreign_imports(source):
    """Imported top-level packages outside ``ALLOWED_IMPORTS``; a relative
    import is the package itself."""
    foreign = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        foreign += [f"line {node.lineno}: {name}" for name in names
                    if name.split(".")[0] not in ALLOWED_IMPORTS]
    return foreign


def assert_statements(source):
    """Lines of the ``assert`` statements in ``source``."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_the_checks_catch_what_they_are_for():
    source = (
        "import os\n"
        "import sys  # noqa: F401\n"
        "from json import dumps, loads\n"
        "def f(x):\n"
        "    n = x.size\n"
        "    a, b = x\n"
        "    y = 2 * x\n"
        "    def g():\n"
        "        return y\n"
        "    return g() + loads('1')\n"
    )
    assert unused_imports(source) == ["line 1: os", "line 3: dumps"]
    assert unused_locals(source) == ["line 5: n in f"]

    source = (
        "import json, scipy.linalg\n"
        "from numpy.linalg import norm\n"
        "from . import engine\n"
        "def f():\n"
        "    from scipy import optimize\n"
        "    import minisplit.params\n"
    )
    assert foreign_imports(source) == ["line 1: scipy.linalg", "line 5: scipy"]

    source = (
        "def f(x):\n"
        "    assert x > 0, 'positive'\n"
        "    if x:\n"
        "        assert x\n"
        "    return 'assert'\n"
    )
    assert assert_statements(source) == ["line 2", "line 4"]

    library = (
        "class Used:\n"
        "    def __init__(self):\n"
        "        self.kept = 1\n"
        "    def method(self):\n"
        "        return _helper()\n"
        "    def orphan_method(self):\n"
        "        pass\n"
        "def _helper():\n"
        "    return _TOL\n"
        "def patched():\n"
        "    pass\n"
        "def orphan():\n"
        "    pass\n"
        "_TOL = 1e-9\n"
        "LIMIT: int = 3\n"
        "_RETIRED = 1e-10\n"
        "__version__ = '1'\n"
    )
    elsewhere = ("from lib import Used, LIMIT\nUsed().method()\nbindings = [(lib, 'patched')]\n"
                 "lib._RETIRED = 0.0\n_RETIRED = 2\n")
    assert orphan_definitions({"lib": library}, [library, elsewhere]) == [
        "lib line 6: orphan_method", "lib line 12: orphan", "lib line 16: _RETIRED"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_names(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source) + unused_locals(source) == []


def test_every_definition_is_named_somewhere():
    sources = [path.read_text(encoding="utf-8")
               for tree in ("src", "tests", "perfbench") for path in sorted((ROOT / tree).rglob("*.py"))]
    library = {path.name: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}
    assert orphan_definitions(library, sources) == []


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_statements(path.read_text(encoding="utf-8")) == []
