"""No orphan names in the library: every module outside ``__init__.py`` uses
each name it imports, unless the import line carries ``# noqa: F401``, and
reads each plain name a function assigns. A tuple target, a loop variable
and a name that starts with an underscore are exempt, as in pyflakes.

No undeclared dependency either: every module, ``__init__.py`` included,
imports only from the package itself, the standard library and numpy.
"""

import ast
import pathlib
import sys

import pytest

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "minisplit"
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_names(path):
    source = path.read_text(encoding="utf-8")
    assert unused_imports(source) + unused_locals(source) == []


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_only_numpy_and_the_standard_library(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []
