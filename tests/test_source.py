"""Source checks over ``src/skillblend``, with the standard library's ``ast``:
no module imports a name it never uses or a module outside the standard
library, and no module has an ``assert`` statement, which ``python -O``
strips."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "skillblend").glob("*.py"))


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
