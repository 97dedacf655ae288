"""The statements of ``src/alttab`` that a pytest run never executes.

    python tools/linecov.py [pytest arguments]

Runs pytest in this process with the arguments given, tracing each line the
package executes with ``sys.settrace`` and ``threading.settrace``, then
prints each statement that never ran as ``<path>:<line>: <its first line>``,
module by module, and a count.  Docstrings and ``global``/``nonlocal``
declarations are not statements that run, so they are left out.  A
compound statement ran when any line of its own ran (its header, or an
``else:`` or ``finally:`` line), not counting the lines of the statements
inside it.  Hypothesis runs under a profile with no deadline, since tracing
slows each example several times over.  The exit code is pytest's.

Only the standard library is used.  Tracing makes a run a few times slower:
1330 tests (the suite without ``tests/test_acceptance.py``, the n = 6 and
n = 7 builder cases and the deep-tree tests) took 7 minutes on a 2-CPU Linux
machine with Python 3.11.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "alttab"


def _tracer(hits: dict[str, set[int]]):
    """A global trace function that adds each line run in a file of the
    package to ``hits[file]`` and traces nothing else."""
    prefix = str(PACKAGE) + os.sep
    local: dict[str, object] = {}

    def trace(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        found = local.get(path)
        if found is None:
            add = hits.setdefault(path, set()).add

            def found(frame, event, arg):
                if event == "line":
                    add(frame.f_lineno)
                return found

            local[path] = found
        return found

    return trace


def _statements(tree: ast.Module) -> list[tuple[ast.AST, set[int]]]:
    """Each statement of a module that runs, with the lines of its own: its
    span less the spans of the statements and ``except`` clauses inside it,
    or its first line when nothing is left."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.stmt, ast.excepthandler)) or isinstance(
            node, (ast.Global, ast.Nonlocal)
        ):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            if isinstance(node.value.value, str):
                continue  # a docstring
        lines = set(range(node.lineno, node.end_lineno + 1))
        for decorator in getattr(node, "decorator_list", ()):
            lines.update(range(decorator.lineno, decorator.end_lineno + 1))
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.stmt, ast.excepthandler)):
                lines -= set(range(child.lineno, child.end_lineno + 1))
        out.append((node, lines or {node.lineno}))
    return out


def never_ran(hits: dict[str, set[int]]) -> list[str]:
    """One line per statement of the package that never ran, by module and line."""
    report = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        ran = hits.get(str(path), set())
        missed = sorted(
            node.lineno for node, lines in _statements(ast.parse(source)) if not lines & ran
        )
        shown = path.relative_to(ROOT).as_posix()
        report += [f"{shown}:{line}: {text[line - 1].strip()}" for line in missed]
    return report


class _NoDeadline:
    """A pytest plugin that loads a Hypothesis profile with no deadline
    before any test module is collected."""

    @staticmethod
    def pytest_configure(config) -> None:
        from hypothesis import settings

        settings.register_profile("linecov", deadline=None)
        settings.load_profile("linecov")


def main(args: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    hits: dict[str, set[int]] = {}
    trace = _tracer(hits)
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(args, plugins=[_NoDeadline()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    report = never_ran(hits)
    print("\n".join(report))
    print(f"{len(report)} statements of {PACKAGE.relative_to(ROOT).as_posix()} never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
