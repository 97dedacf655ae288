"""Every top-level function and class of the package outside ``oracles.py``
is reached from a name that ``alttab/__init__.py`` imports or from
``cli.main``, so production code that only the tests call does not grow back.

The walk is by name over the source.  A reached module-level def, class or
assignment reaches each name its body reads, through the relative imports of
its module.  Type annotations reach nothing.  Module-level statements of any
other kind run at import and are reached with their module.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Mapping

import alttab

PACKAGE = Path(alttab.__file__).parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
NOT_PINNED = {"__init__", "__main__", "oracles"}


def _strip_annotations(tree: ast.Module) -> None:
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            node.annotation = None
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            node.returns = None
        elif isinstance(node, ast.AnnAssign):
            node.annotation = ast.Constant(None)


def _imported(node: ast.ImportFrom) -> dict[str, tuple[str, str]]:
    """The (module, name) of the package that each name ``node`` binds is."""
    if node.level == 0:
        return {}
    return {alias.asname or alias.name: (node.module, alias.name) for alias in node.names}


def unreached(sources: Mapping[str, str]) -> list[str]:
    """``module.name`` of every top-level def and class of ``sources``
    (module name to source text) outside :data:`NOT_PINNED` that no walk from
    the imports of ``__init__`` or from ``cli.main`` reaches, sorted."""
    defs: dict[tuple[str, str], ast.AST] = {}
    scope: dict[str, dict[str, tuple[str, str]]] = {}
    todo: list[tuple[str, ast.AST]] = []
    for module, text in sources.items():
        tree = ast.parse(text)
        _strip_annotations(tree)
        scope[module] = names = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.update(_imported(node))
        for stmt in tree.body:
            if isinstance(stmt, DEFS):
                defs[module, stmt.name] = stmt
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name):
                            defs[module, node.id] = stmt
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                todo.append((module, stmt))
    roots = [*scope["__init__"].values(), ("cli", "main")]
    seen: set[tuple[str, str]] = set()

    def reach(key: tuple[str, str]) -> None:
        if key not in seen:
            seen.add(key)
            if key in defs:
                todo.append((key[0], defs[key]))

    for key in roots:
        reach(key)
    while todo:
        module, stmt = todo.pop()
        names = scope[module]
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                reach(names.get(node.id, (module, node.id)))
            elif isinstance(node, ast.ImportFrom):
                for target in _imported(node).values():
                    reach(target)
    return sorted(
        f"{module}.{name}"
        for (module, name), stmt in defs.items()
        if module not in NOT_PINNED and isinstance(stmt, DEFS) and (module, name) not in seen
    )


def _package_sources() -> dict[str, str]:
    return {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}


def test_every_def_and_class_is_reached_from_the_exports_or_the_cli():
    assert unreached(_package_sources()) == []


def test_an_unreached_def_is_found():
    # The pin bites: a def that nothing reaches is listed, in any module
    # but oracles.py, and a def that only it calls is listed too.
    sources = _package_sources()
    sources["trees"] += "\n\ndef _orphan():\n    return _orphan_helper()\n\n\ndef _orphan_helper():\n    return 1\n"
    sources["oracles"] += "\n\ndef _oracle_only():\n    return 1\n"
    assert unreached(sources) == ["trees._orphan", "trees._orphan_helper"]
