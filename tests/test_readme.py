"""The README's Quick tour runs as written: its ``python`` block is a
doctest of the public names."""

from __future__ import annotations

import doctest
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_quick_tour_runs_as_written():
    text = README.read_text()
    tour = re.search(r"^## Quick tour\n\n```python\n(.*?)^```$", text, re.M | re.S)
    assert tour is not None
    lineno = text.count("\n", 0, tour.start(1))
    test = doctest.DocTestParser().get_doctest(tour.group(1), {}, "Quick tour", str(README), lineno)
    assert len(test.examples) >= 10
    report = io.StringIO()
    result = doctest.DocTestRunner().run(test, out=report.write)
    assert result.failed == 0, report.getvalue()
