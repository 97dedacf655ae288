"""Exception types shared across the package, and the size-cap settings
that raise :class:`ResourceLimitError`."""

from __future__ import annotations

import os
from dataclasses import dataclass
from numbers import Integral


def _shown(text: str) -> str:
    """``text`` as an error message shows it: cut at 20 characters, with its length."""
    cut = text if len(text) <= 20 else text[:20] + "..."
    return f"{cut!r} ({len(text)} characters)"


def _shown_number(value: object) -> str:
    """A number as an error message shows it: whole up to 20 characters,
    else cut by :func:`_shown`."""
    try:
        text = str(value)
    except ValueError:  # more digits than the interpreter converts (4300 by default)
        return "<a number too long to print>"
    return text if len(text) <= 20 else _shown(text)


def _integral(value: object) -> bool:
    """Whether ``value`` is an integer: an ``Integral`` that is not a ``bool``."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _shown_value(value: object) -> str:
    """A value of any type as an error message shows it: a string by its
    ``repr`` up to 20 characters, else cut by :func:`_shown`, and anything
    else as :func:`_shown_number` shows it."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 20 else _shown(value)
    return _shown_number(value)


class TableauError(Exception):
    """Base class for all domain errors raised by this package."""


@dataclass(frozen=True)
class Violation:
    """A single validation failure: a short code plus the offending data."""

    code: str
    detail: str

    def __str__(self) -> str:
        return f"{self.code}: {self.detail}"


class ValidationError(TableauError):
    """Raised when a candidate object breaks its invariants.

    Carries *every* violation found, not just the first, so that
    diagnostics can list all offending cells at once.
    """

    def __init__(self, violations: list[Violation]):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))

    def __reduce__(self):
        # Each error here pickles as what its ``__init__`` takes; ``args``
        # holds only the text built from it.
        return type(self), (self.violations,)


class ParseError(TableauError):
    """Malformed textual input; ``position`` is a character offset, in the
    1-based ``line`` of a many-line input when one is given."""

    def __init__(self, message: str, position: int = 0, line: int | None = None):
        self.message = message
        self.position = position
        self.line = line
        at = f"position {position}" if line is None else f"line {line}, position {position}"
        super().__init__(f"{message} (at {at})")

    def __reduce__(self):
        return type(self), (self.message, self.position, self.line)


class DomainError(TableauError):
    """An operation was applied outside its domain.

    ``code`` identifies the precondition that failed, e.g. ``nothing-to-cut``
    or ``label-collision``; tests match on it.  ``message`` is the text
    shown after it.
    """

    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(f"{code}: {message}")

    def __reduce__(self):
        return type(self), (self.code, self.message)


class ResourceLimitError(TableauError):
    """A size cap was exceeded; the message names the cap and the environment
    variable that overrides it, or the oracle whose fixed bound it is (see
    "Resource caps" in the README)."""


def cap_limit(setting: tuple[str, int]) -> int:
    """The cap ``(variable, default)`` as set now: the environment variable's
    value, ASCII digits as in every text format, or the default when it is
    unset."""
    var, default = setting
    text = os.environ.get(var)
    if text is None:
        return default
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:  # more digits than the interpreter converts
        pass
    raise ResourceLimitError(f"{var}={_shown_value(text)} is not a non-negative integer")


def check_cap(n: int, what: str, setting: tuple[str, int]) -> None:
    """Refuse size ``n`` of workload ``what`` above the cap ``setting``, naming
    the variable that raises it; a size that is negative or not an integer,
    ``bool`` included, is a :class:`DomainError`."""
    if type(n) is not int and not _integral(n):
        raise DomainError("bad-size", f"size {_shown_value(n)} is not an integer")
    limit = cap_limit(setting)
    if n > limit:
        raise ResourceLimitError(
            f"{what} for n={_shown_number(n)} exceeds the cap {limit}; set {setting[0]} to raise it"
        )
    if n < 0:
        raise DomainError("bad-size", f"negative size {_shown_number(n)}")
