"""Source checks over ``src/skillblend``, with the standard library's ``ast``:
no module imports a name it never uses or a module outside the standard
library, no module has an ``assert`` statement, which ``python -O``
strips, and every top-level function and class, and every member of a
top-level class, has a reader in ``src/skillblend`` or ``perfbench``, not
only in the tests. The member check also imports each module, to see
which names a base class outside skillblend defines. No run of five
non-trivial code lines appears twice in ``src/skillblend``."""

from __future__ import annotations

import ast
import importlib
import io
import sys
import tokenize
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


def reads(tree: ast.Module) -> set[str]:
    """The names a module reads: a loaded name or attribute, and a string
    constant; a store does not count."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def _walk_skipping_classes(node: ast.AST):
    """``ast.walk`` that does not enter a class defined inside ``node``."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, ast.ClassDef):
            yield child
            yield from _walk_skipping_classes(child)


def _self_stores(method: ast.AST) -> set[str]:
    """The attributes ``method`` stores on ``self``, also through
    ``object.__setattr__(self, name, value)``; a class defined inside the
    method has its own ``self``."""
    found = set()
    for node in _walk_skipping_classes(method):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            target, name = node.value, node.attr
        elif (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "__setattr__"
            and len(node.args) == 3
        ):
            target, name = node.args[0], getattr(node.args[1], "value", None)
        else:
            continue
        if isinstance(target, ast.Name) and target.id == "self" and isinstance(name, str):
            found.add(name)
    return found


def unread_members(modules: dict[str, tuple[ast.Module, dict]], readers: list[ast.Module]) -> list[str]:
    """The members of the classes at the top level of ``modules`` (each a
    tree and the namespace its code ran in) that no reader reads, as
    ``module: Class.member``. Members are the methods, properties and
    annotated fields of a class body and the attributes its methods store
    on ``self``. Dunder names and names that a base class outside
    skillblend defines are exempt."""
    used = set().union(*map(reads, readers))
    found = []
    for module, (tree, namespace) in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            outside = {
                name
                for base in namespace[cls.name].__mro__[1:]
                if not base.__module__.startswith("skillblend")
                for name in vars(base)
            }
            members = set()
            for stmt in cls.body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    members.add(stmt.name)
                    members |= _self_stores(stmt)
                elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    members.add(stmt.target.id)
            found += [
                f"{module}: {cls.name}.{name}"
                for name in sorted(members - used - outside)
                if not (name.startswith("__") and name.endswith("__"))
            ]
    return found


def code_lines(text: str) -> list[tuple[int, str]]:
    """The non-trivial code lines of a module's source, as (line number,
    stripped text): those over 12 characters once stripped, with comments
    cut off and docstrings left out."""
    lines = text.splitlines()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type == tokenize.COMMENT:
            row, column = token.start
            lines[row - 1] = lines[row - 1][:column]
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, *_DEFINITIONS)) and ast.get_docstring(node) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return [
        (number, line.strip())
        for number, line in enumerate(lines, 1)
        if number not in docstrings and len(line.strip()) > 12
    ]


def repeated_runs(modules: dict[str, list[tuple[int, str]]], size: int = 5) -> list[str]:
    """Each run of ``size`` consecutive ``code_lines`` that appeared before,
    in any module, as "module:line and module:line" (where the run starts,
    first and again)."""
    first: dict[tuple[str, ...], str] = {}
    found = []
    for module, lines in modules.items():
        for start in range(len(lines) - size + 1):
            run = tuple(text for _number, text in lines[start : start + size])
            where = f"{module}:{lines[start][0]}"
            if run in first:
                found.append(f"{first[run]} and {where}")
            else:
                first[run] = where
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


def test_every_top_level_definition_has_a_reader():
    trees = {path.name: _tree(path) for path in SOURCES}
    assert unreferenced(trees, [_tree(path) for path in READERS]) == []


def test_every_class_member_has_a_reader():
    modules = {
        path.name: (_tree(path), vars(importlib.import_module(f"skillblend.{path.stem}")))
        for path in SOURCES
        if path.name != "__init__.py"
    }
    assert unread_members(modules, [_tree(path) for path in READERS]) == []


def test_no_run_of_five_code_lines_appears_twice():
    modules = {path.name: code_lines(path.read_text(encoding="utf-8")) for path in SOURCES}
    assert repeated_runs(modules) == []


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
    classes = ast.parse(
        "class Base:\n    def kept(self): pass\n"
        "class Point(Base, dict):\n    x: int\n    y: int\n"
        "    def __init__(self):\n        self.shown, self.hidden = 1, 2\n"
        "        object.__setattr__(self, 'late', 3)\n"
        "        class Local:\n            def never(self): self.inner = 4\n"
        "    def get(self, key): return self.x\n"
        "    @property\n    def area(self): return self.shown\n"
    )
    namespace = {"__name__": "skillblend.m"}
    exec(compile(classes, "m.py", "exec"), namespace)
    reader = ast.parse("p.area\np.y = p.late\n")
    # dict defines get; Local is nested in a method; a store of y is no read
    assert unread_members({"m.py": (classes, namespace)}, [classes, reader]) == [
        "m.py: Base.kept", "m.py: Point.hidden", "m.py: Point.y"
    ]
    # five long lines twice, once with a comment and a short line between
    # them; a docstring, a comment and short lines never count
    block = [f"value_{n} = compute(value_{n - 1})" for n in range(5)]
    text = "\n".join(
        ['"""a docstring line that is long enough"""', "# a comment line that is long enough"]
        + block
        + ["def f():", '    """', "    " + block[0], '    """']
        + ["    " + line + "  # a comment" for line in block[:2]]
        + ["    x = 1"]
        + ["    " + line for line in block[2:]]
    )
    lines = code_lines(text)
    assert [number for number, _ in lines] == [3, 4, 5, 6, 7, 12, 13, 15, 16, 17]
    assert repeated_runs({"m.py": lines}) == ["m.py:3 and m.py:12"]
    assert repeated_runs({"m.py": lines}, size=6) == []
    assert repeated_runs({"a.py": lines[:5], "b.py": lines[5:]}) == ["a.py:3 and b.py:12"]
