"""Source checks over ``src/skillblend``, with the standard library's ``ast``:
no module imports a name it never uses or a module outside the standard
library, no module has an ``assert`` statement, which ``python -O``
strips, and every top-level function and class has a reader in
``src/skillblend`` or ``perfbench``, not only in the tests."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "skillblend").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _annotations(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        found = [node.returns]
    elif isinstance(node, (ast.arg, ast.AnnAssign)):
        found = [node.annotation]
    else:
        found = []
    return [a for a in found if a is not None]


def unused_imports(tree: ast.Module) -> list[str]:
    """The names an import statement binds that no other node of the module
    reads; a string annotation counts as a read of the names it holds."""
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        for annotation in _annotations(node):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    expr = ast.parse(part.value, mode="eval")
                    used.update(n.id for n in ast.walk(expr) if isinstance(n, ast.Name))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def imported_modules(tree: ast.Module) -> set[str]:
    """The top-level packages the module's imports load; a relative import
    counts as ``skillblend``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            found.add("skillblend" if node.level else node.module.split(".")[0])
    return found


def references(tree: ast.Module) -> set[str]:
    """The names a module refers to: a name, an attribute, an imported name
    or its alias, and a string constant. A top-level function or class
    naming itself inside its own definition does not count."""
    found: set[str] = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(filter(None, (node.name, node.asname)))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
        if isinstance(stmt, _DEFINITIONS):
            names.discard(stmt.name)
        found |= names
    return found


def unreferenced(trees: dict[str, ast.Module], readers: list[ast.Module]) -> list[str]:
    """The top-level functions and classes in ``trees`` that no reader
    refers to, as ``module: name``."""
    used = set().union(*map(references, readers))
    return [
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, _DEFINITIONS) and node.name not in used
    ]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(_tree(path)) == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    outside = imported_modules(_tree(path)) - sys.stdlib_module_names - {"skillblend"}
    assert outside == set(), f"{path.name} imports {sorted(outside)}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = [node.lineno for node in ast.walk(_tree(path)) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert at lines {lines}"


def test_every_top_level_definition_has_a_reader():
    trees = {path.name: _tree(path) for path in SOURCES}
    assert unreferenced(trees, [_tree(path) for path in READERS]) == []


def test_the_checks_see_what_they_look_for():
    tree = ast.parse(
        "import os\nimport a.b\nfrom x import y as z, w\nfrom typing import T\n"
        "def f(v: 'T') -> None:\n    assert w\n    return a.b\n"
    )
    assert unused_imports(tree) == ["line 1: os", "line 3: z"]
    assert imported_modules(tree) == {"os", "a", "x", "typing"}
    relative = ast.parse("from . import core\nfrom .core import x\nfrom skillblend.core import y\n")
    assert imported_modules(relative) == {"skillblend"}
    assert [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)] == [6]
    defs = ast.parse(
        "class Dead:\n    x: 'Dead'\ndef loop():\n    return loop()\n"
        "def aliased(): pass\nclass Named: pass\ndef called(): pass\n"
    )
    reader = ast.parse("from m import aliased as a\nTARGETS = ('Named',)\nm.called()\n")
    assert unreferenced({"m.py": defs}, [defs, reader]) == ["m.py: Dead", "m.py: loop"]
    assert unreferenced({"m.py": defs}, [defs]) == [
        "m.py: Dead", "m.py: loop", "m.py: aliased", "m.py: Named", "m.py: called"
    ]
