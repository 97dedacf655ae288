"""``tools/linecov.py`` lists the statements of the package that a test run
never executes."""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_tracer_lists_the_statements_a_run_never_executes():
    # The README's tour parses a tableau and never runs ``python -m alttab``.
    run = subprocess.run(
        [sys.executable, "tools/linecov.py", "-q", "-p", "no:cacheprovider", "tests/test_readme.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    listed = run.stdout.splitlines()
    assert [line for line in listed if line.startswith("src/alttab/__main__.py:")] == [
        "src/alttab/__main__.py:1: import sys",
        "src/alttab/__main__.py:3: from .cli import main",
        "src/alttab/__main__.py:5: sys.exit(main())",
    ]
    core = ast.parse((ROOT / "src" / "alttab" / "core.py").read_text())
    parse = next(f for f in core.body if getattr(f, "name", None) == "parse_tableau")
    first = parse.body[1].lineno  # the statement after the docstring
    assert not [line for line in listed if line.startswith(f"src/alttab/core.py:{first}:")]
    assert listed[-1].endswith(" statements of src/alttab never ran")
