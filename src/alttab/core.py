"""Alternative and permutation tableaux: types, validation, statistics, text formats.

A tableau lives on a *shape*: a word over ``D`` (row step) and ``E`` (column
step) read along the south-east border from the top-right corner down to the
bottom-left one.  Border steps carry strictly increasing integer labels; the
k-th letter of the word is the step with the k-th smallest label.  The cell
``(i, j)`` exists exactly when ``i`` labels a row, ``j`` labels a column and
``i < j``.  Geometrically rows run top to bottom by increasing label and
columns run left to right by *decreasing* label, so the leftmost column is
the one with the largest label.

An alternative tableau places ``L`` (left) and ``U`` (up) arrows on cells so
that every cell an arrow points toward is empty: a left arrow at ``(i, j)``
empties all ``(i, j')`` with ``j' > j``, an up arrow empties all ``(i', j)``
with ``i' < i``.  A permutation tableau fills every cell with 0 or 1 so that
each column holds a 1 and no 0 has a 1 above it and a 1 to its left.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right, insort
from collections import abc
from dataclasses import dataclass
from functools import partial
from numbers import Real
from operator import lt
from typing import Callable, Container, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .errors import (
    DomainError,
    ParseError,
    ValidationError,
    Violation,
    _integral,
    _shown,
    _shown_number,
    _shown_value,
)

LEFT = "L"
UP = "U"


class Arrow(NamedTuple):
    row: int
    col: int
    kind: str  # LEFT or UP


# ``Arrow(*fields)`` for checked data, made in C without the Python-level constructor.
_arrow = partial(tuple.__new__, Arrow)


def _cell(i: int, j: int, sep: str = ",") -> str:
    """A cell as error messages show it, each label through ``_shown_number``."""
    return f"({_shown_number(i)}{sep}{_shown_number(j)})"


def _check_labels_word(labels: Sequence[int], word: str) -> list[Violation]:
    try:
        return _labels_word_violations(labels, word)
    except (TypeError, AttributeError):
        # Only values of the wrong type get here, so valid input pays nothing.
        # A string word leaves the labels at fault.
        bad = []
        if not isinstance(word, str):
            bad.append(Violation("bad-step", f"word {_shown_value(word)} is not a string"))
        if bad and isinstance(labels, abc.Sequence) and all(isinstance(l, Real) for l in labels):
            return bad
        shown = _shown_value(labels)
        return [*bad, Violation("bad-label", f"labels {shown} are not a sequence of integers")]


def _labels_word_violations(labels: Sequence[int], word: str) -> list[Violation]:
    bad = []
    if not all(type(l) is int for l in labels) and not all(map(_integral, labels)):
        shown = _shown_number(labels)
        bad.append(Violation("bad-label", f"labels {shown} are not all integers"))
    if len(labels) != len(word):
        bad.append(Violation("size-mismatch", f"{len(labels)} labels for word of length {len(word)}"))
    if labels and min(labels) < 0:
        bad.append(Violation("label-order", f"negative label in {_shown_number(labels)}"))
    if not all(map(lt, labels, labels[1:])):
        shown = _shown_number(labels)
        bad.append(Violation("label-order", f"labels not strictly increasing: {shown}"))
    if word.strip("DE"):
        bad.append(Violation("bad-step", f"word {_shown_value(word)} has letters outside D/E"))
    return bad


@dataclass(frozen=True)
class _Shape:
    """Labeled border shape shared by both tableau types: ``labels`` are
    strictly increasing and ``word`` is the aligned D/E border word.

    What is computed once and remembered on an instance (``rows``,
    ``columns``, a permutation tableau's passed check and reading, and a
    tableau's passed check, free lines, free statistics, closures, arrow
    forest, forest, permutation, arc diagram and binary pair)
    lives in its ``__dict__`` beside the fields, so ``==``, ``hash`` and
    ``repr`` see only the fields.  Being true of the immutable value, it is
    pickled and copied with it; the tree values pickle as a flat list of
    nodes, so this works at any depth.
    """

    labels: tuple[int, ...]
    word: str

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def rows(self) -> tuple[int, ...]:
        return _remembered(self, "rows", _rows)

    @property
    def columns(self) -> tuple[int, ...]:
        return _remembered(self, "columns", _columns)

    def cells(self) -> Iterator[tuple[int, int]]:
        """All existing cells (i, j), row-major by increasing labels."""
        cols = self.columns
        for i in self.rows:
            for j in cols:
                if i < j:
                    yield (i, j)


@dataclass(frozen=True)
class AltTableau(_Shape):
    """Immutable alternative tableau.

    ``labels`` are strictly increasing; ``word`` is the aligned D/E border
    word; ``arrows`` are kept sorted by cell.  Construction checks the cheap
    structural invariants; the arrow-emptiness rules are checked by
    :func:`validate_alt`, which all parsing paths go through, and by every
    conversion before it reads the arrows.  The first full check that passes
    is remembered on the instance, so each tableau is checked once however
    many conversions it goes through; a tableau that fails is checked, and
    raises, again on every call.
    """

    arrows: tuple[Arrow, ...] = ()

    def __post_init__(self) -> None:
        bad = _check_labels_word(self.labels, self.word)
        arrows = []
        for i, j, kind in _triples(self.arrows, bad):
            if kind not in (LEFT, UP):
                bad.append(Violation("bad-arrow-kind", f"{_shown_value(kind)} at {_cell(i, j)}"))
            arrows.append(_arrow((i, j, kind)))
        if bad:
            raise ValidationError(bad)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "arrows", tuple(sorted(arrows)))

    @property
    def kind_of(self) -> dict[int, str]:
        return dict(zip(self.labels, self.word))

    def arrow_map(self) -> dict[tuple[int, int], str]:
        return {(a.row, a.col): a.kind for a in self.arrows}

    def is_standard(self) -> bool:
        return self.labels == tuple(range(1, len(self) + 1))


def _items(items: object, code: str, what: str, bad: list[Violation]) -> tuple:
    """``tuple(items)``, or ``()`` with a ``code`` violation added to ``bad``
    when ``items`` cannot be iterated."""
    try:
        return tuple(items)
    except TypeError:
        bad.append(Violation(code, f"{what} {_shown_value(items)} are not a sequence"))
        return ()


def _triples(arrows: object, bad: list[Violation]) -> Iterator[tuple]:
    """The items of ``arrows`` that unpack as (row, col, kind) with an integer
    row and column, in order; each other item adds a ``bad-arrow`` violation
    to ``bad`` where it stands, as ``arrows`` does when it cannot be
    iterated.  The one rule of an arrow's form, for the constructor and
    :func:`validate_alt`."""
    for a in _items(arrows, "bad-arrow", "arrows", bad):
        try:
            i, j, kind = a
        except (TypeError, ValueError):
            detail = "is not a (row, col, kind) triple"
        else:
            # ``type(i) is int`` first: the ABC test is slow, and nearly every line is an int.
            if (type(i) is int or _integral(i)) and (type(j) is int or _integral(j)):
                yield i, j, kind
                continue
            detail = "has a row or column that is not an integer"
        bad.append(Violation("bad-arrow", f"arrow {_shown_value(a)} {detail}"))


def _rows(s: _Shape) -> tuple[int, ...]:
    return tuple(l for l, c in zip(s.labels, s.word) if c == "D")


def _columns(s: _Shape) -> tuple[int, ...]:
    return tuple(l for l, c in zip(s.labels, s.word) if c == "E")


def _assembled(labels: tuple[int, ...], word: str, arrows: tuple[Arrow, ...]) -> AltTableau:
    """The tableau with these fields, set without the constructor's checks.

    Only for builders whose data holds by construction: ``labels`` a strictly
    increasing tuple of non-negative ints, ``word`` the aligned D/E string,
    ``arrows`` a cell-sorted tuple of :class:`Arrow` of kind L or U.  The
    result is not marked checked, so its first conversion checks it in full.
    """
    t = object.__new__(AltTableau)
    fields = t.__dict__
    fields["labels"] = labels
    fields["word"] = word
    fields["arrows"] = arrows
    return t


def empty_tableau() -> AltTableau:
    return AltTableau((), "")


def standard_tableau(word: str, arrows: Sequence[tuple[int, int, str]] = ()) -> AltTableau:
    """Convenience constructor with labels 1..n; validates fully."""
    return validate_alt(tuple(range(1, len(word) + 1)), word, arrows)


V = TypeVar("V")


def _remembered(obj: object, key: str, build: Callable[..., V]) -> V:
    """``build(obj)``, worked out once and remembered in ``obj.__dict__``
    under ``key``; nothing is remembered when ``build`` raises.  A miss is
    tested, not caught: most values are asked for once, and a raised
    ``KeyError`` costs more than the lookup."""
    known = obj.__dict__
    if key in known:
        return known[key]
    value = known[key] = build(obj)
    return value


# Key under which a passed check is remembered in an instance's ``__dict__``;
# only :func:`validate_alt` and :func:`_check_valid` set it, after the check.
_VALID = "_valid"


def validate_alt(
    labels: Sequence[int], word: str, arrows: Sequence[tuple[int, int, str]]
) -> AltTableau:
    """Check candidate data and return the tableau, or raise listing every violation."""
    # Read once, so an iterator is checked and built from the same items;
    # ``arrows`` that cannot be read go to the check as they are, which
    # reports them where it reports the other arrow violations.
    unread: list[Violation] = []
    items = _items(arrows, "bad-arrow", "arrows", unread)
    bad = _alt_violations(labels, word, arrows if unread else items)
    if bad:
        raise ValidationError(bad)
    t = _assembled(tuple(labels), word, tuple(sorted(_arrow((i, j, k)) for i, j, k in items)))
    t.__dict__[_VALID] = True
    return t


def _check_valid(t: AltTableau) -> None:
    """Raise the violations :func:`validate_alt` would report for ``t``'s data.

    Runs the check once per tableau: a pass is remembered on ``t``, a failure
    is not.
    """
    if _VALID in t.__dict__:
        return
    bad = _alt_violations(t.labels, t.word, t.arrows)
    if bad:
        raise ValidationError(bad)
    t.__dict__[_VALID] = True


def _alt_violations(
    labels: Sequence[int], word: str, arrows: Sequence[tuple[int, int, str]]
) -> list[Violation]:
    bad = _check_labels_word(labels, word)
    if bad:
        return bad
    rows = {l for l, c in zip(labels, word) if c == "D"}
    cols = {l for l, c in zip(labels, word) if c == "E"}
    seen = _arrow_cells(_triples(arrows, bad), rows, cols, bad)
    # Emptiness: cells pointed at by an arrow must not be occupied.  In
    # row-major order a left arrow points at nothing when the next cell is in
    # another row, and an up arrow when no cell before it is in its column;
    # one pass finds the arrows that do point at something.
    cells = sorted(seen)
    pointing = []
    above: set[int] = set()  # the columns of the cells passed so far
    for k, (i, j) in enumerate(cells):
        if seen[(i, j)] == LEFT:
            if k + 1 < len(cells) and cells[k + 1][0] == i:
                pointing.append((i, j))
        elif j in above:
            pointing.append((i, j))
        above.add(j)
    if not pointing:
        return bad
    # Each row's occupied cells come by increasing column and each column's
    # by increasing row, so a left arrow points at a suffix of its row's list
    # and an up arrow at a prefix of its column's.  Each arrow's hits are
    # listed in the iteration order of the line sets.
    row_rank = {i: k for k, i in enumerate(rows)}
    col_rank = {j: k for k, j in enumerate(cols)}
    in_row: dict[int, list[int]] = {}
    in_col: dict[int, list[int]] = {}
    for i, j in cells:
        in_row.setdefault(i, []).append(j)
        in_col.setdefault(j, []).append(i)
    for i, j in pointing:
        kind = seen[(i, j)]
        if kind == LEFT:
            line = in_row[i]
            hits = sorted(line[bisect_right(line, j) :], key=col_rank.__getitem__)
            hit = [(i, j2) for j2 in hits]
        else:
            line = in_col[j]
            hits = sorted(line[: bisect_left(line, i)], key=row_rank.__getitem__)
            hit = [(i2, j) for i2 in hits]
        for cell in hit:
            bad.append(
                Violation(
                    "pointed-cell-occupied",
                    f"{kind} arrow at {_cell(i, j)} points at occupied cell {_cell(*cell, ', ')}",
                )
            )
    return bad


def _arrow_cells(
    arrows: Iterable[tuple[int, int, str]], rows: set[int], cols: set[int], bad: list[Violation]
) -> dict[tuple[int, int], str]:
    """The kind of each arrow on a cell of the shape, by cell; an arrow of
    an unknown kind, off the shape or on a taken cell adds its violation to
    ``bad`` instead, in arrow order."""
    seen: dict[tuple[int, int], str] = {}
    for i, j, kind in arrows:
        if kind not in (LEFT, UP):
            bad.append(Violation("bad-arrow-kind", f"{_shown_value(kind)} at {_cell(i, j)}"))
            continue
        if i not in rows or j not in cols or i >= j:
            detail = f"{kind} arrow on nonexistent cell {_cell(i, j)}"
            bad.append(Violation("arrow-off-shape", detail))
            continue
        if (i, j) in seen:
            bad.append(Violation("duplicate-cell", f"two arrows on cell {_cell(i, j)}"))
            continue
        seen[(i, j)] = kind
    return seen


@dataclass(frozen=True)
class FreeStats:
    """Free rows/columns/cells of an alternative tableau."""

    free_rows: frozenset[int]
    free_cols: frozenset[int]
    free_cells: frozenset[tuple[int, int]]

    @property
    def frow(self) -> int:
        return len(self.free_rows)

    @property
    def fcol(self) -> int:
        return len(self.free_cols)

    @property
    def fcell(self) -> int:
        return len(self.free_cells)


def free_stats(t: AltTableau) -> FreeStats:
    """Rows with no left arrow, columns with no up arrow, and cells no arrow points at.

    Computed once per tableau and remembered on it.
    """
    return _remembered(t, "_free_stats", _free_stats)


def free_lines(t: AltTableau) -> tuple[frozenset[int], frozenset[int]]:
    """The free rows and free columns of :func:`free_stats`, without its
    cells; computed once per tableau and remembered on it."""
    return _remembered(t, "_free_lines", lambda t: _free_lines(t.rows, t.columns, *_arrow_ends(t)))


def _free_lines(
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    left_in_row: dict[int, int],
    up_in_col: dict[int, int],
) -> tuple[frozenset[int], frozenset[int]]:
    return frozenset(rows).difference(left_in_row), frozenset(cols).difference(up_in_col)


def _free_stats(t: AltTableau) -> FreeStats:
    rows, cols = t.rows, t.columns
    ends = _arrow_ends(t)
    free_rows, free_cols = _remembered(t, "_free_lines", lambda t: _free_lines(rows, cols, *ends))
    unpointed = frozenset(_unpointed(rows, cols, *ends))
    return FreeStats(free_rows, free_cols, unpointed.difference(t.arrow_map()))


def _arrow_ends(t: AltTableau) -> tuple[dict[int, int], dict[int, int]]:
    """The column of each row's left arrow and the row of each column's up
    arrow; on a tableau not checked, the last such arrow in arrow order."""
    left_in_row: dict[int, int] = {}
    up_in_col: dict[int, int] = {}
    for a in t.arrows:
        if a.kind == LEFT:
            left_in_row[a.row] = a.col
        else:
            up_in_col[a.col] = a.row
    return left_in_row, up_in_col


def _sweep(rows: Sequence[int], cols: Sequence[int], opens: dict, visit: Callable) -> None:
    """Call ``visit(i, open_cols)`` for each row ``i`` in order, ``open_cols``
    the sorted columns of ``cols`` open at ``i``: those with no entry in
    ``opens`` or with an entry at most ``i``.  ``visit`` must not change the list."""
    open_cols = []
    joins = []
    for j in cols:
        at = opens.get(j)
        if at is None:
            open_cols.append(j)
        else:
            joins.append((at, j))
    joins.sort(reverse=True)
    for i in rows:
        while joins and joins[-1][0] <= i:
            insort(open_cols, joins.pop()[1])
        visit(i, open_cols)


def _unpointed(
    rows: tuple[int, ...],
    cols: tuple[int, ...],
    left_in_row: dict[int, int],
    up_in_col: dict[int, int],
) -> list[tuple[int, int]]:
    """The cells (i, j) of ``rows`` and ``cols`` that no arrow points at,
    less each row's left-arrow cell: row by row, each row's by increasing
    column.

    A cell is pointed at when it lies above its column's up arrow or left of
    its row's left arrow.  Going down the rows, a column stops being pointed
    at from its up arrow's row on, so :func:`_sweep` keeps the columns not
    pointed at, and each row reads one slice of them: the columns labeled
    above i and below the left arrow's column.
    """
    cells = []

    def visit(i: int, open_cols: list[int]) -> None:
        left = left_in_row.get(i)
        stop = len(open_cols) if left is None else bisect_left(open_cols, left)
        for j in open_cols[bisect_right(open_cols, i) : stop]:
            cells.append((i, j))

    _sweep(rows, cols, up_in_col, visit)
    return cells


def _free_counts(t: AltTableau) -> tuple[int, int, int]:
    """The ``frow``, ``fcol`` and ``fcell`` of :func:`free_stats`, remembered
    or counted without listing the cells: the length of each row's slice of
    :func:`_unpointed`, less the arrows on those cells."""
    known = t.__dict__.get("_free_stats")
    if known is not None:
        return known.frow, known.fcol, known.fcell
    rows, cols = t.rows, t.columns
    left_in_row, up_in_col = _arrow_ends(t)
    cells = 0

    def visit(i: int, open_cols: list[int]) -> None:
        nonlocal cells
        left = left_in_row.get(i)
        stop = len(open_cols) if left is None else bisect_left(open_cols, left)
        cells += max(stop - bisect_right(open_cols, i), 0)

    _sweep(rows, cols, up_in_col, visit)
    row_set, col_set = set(rows), set(cols)
    on_cells = {(i, j) for i, j, _ in t.arrows if i in row_set and j in col_set}
    cells -= sum(up_in_col.get(j, i) <= i < j < left_in_row.get(i, j + 1) for i, j in on_cells)
    return len(row_set.difference(left_in_row)), len(col_set.difference(up_in_col)), cells


def _check_arrow_labels(t: AltTableau, labels: Container[int]) -> None:
    """Raise ``arrow-off-shape`` for every arrow of ``t`` (built without
    validation) that names a label outside ``labels``."""
    bad = [
        Violation("arrow-off-shape", f"{a.kind} arrow on nonexistent cell {_cell(a.row, a.col)}")
        for a in t.arrows
        if a.row not in labels or a.col not in labels
    ]
    if bad:
        raise ValidationError(bad)


def transpose(t: AltTableau) -> AltTableau:
    """Reflect across the main diagonal: an involution swapping rows and columns.

    The label set is kept and the order-reversing permutation is applied
    within it; arrows move to the mirrored cell with left and up swapped.
    """
    rev = _reversal(t)
    return _assembled(t.labels, _flipped(t.word), tuple(sorted(_reflected(t.arrows, rev))))


def _reversal(t: AltTableau) -> dict[int, int]:
    """The order-reversing map of ``t``'s labels, after raising
    ``arrow-off-shape`` for any arrow that names a label outside them."""
    rev = dict(zip(t.labels, reversed(t.labels)))
    _check_arrow_labels(t, rev)
    return rev


# D and E swapped: the steps of a word as the transpose reads them.
_SWAP_STEPS = str.maketrans("DE", "ED")


def _flipped(word: str) -> str:
    """The word of the transpose: reversed, with D and E swapped."""
    return word[::-1].translate(_SWAP_STEPS)


def _reflected(arrows: Sequence[Arrow], image: dict[int, int]) -> Iterator[Arrow]:
    """Each arrow reflected across the diagonal: the arrow at (i, j) goes to
    (image[j], image[i]), left and up swapped."""
    return (_arrow((image[j], image[i], UP if k == LEFT else LEFT)) for i, j, k in arrows)


def _mirrored(half: AltTableau, size: int) -> AltTableau:
    """The transpose-fixed tableau on labels 1..size with ``half`` as one
    side, ``half``'s labels being one of each pair {l, size + 1 - l}: the
    same as ``merge(half, relabel(transpose(half), mirror))`` with ``mirror``
    the other label of each pair.  That mirror takes label l to
    size + 1 - l, so each arrow of ``half`` is joined by its reflection
    there, and each step by its swap."""
    m = size + 1
    image = {l: m - l for l in half.labels}
    kinds = dict(zip(half.labels, half.word))
    kinds.update(zip(image.values(), half.word.translate(_SWAP_STEPS)))
    word = "".join(map(kinds.__getitem__, range(1, m)))
    arrows = [*half.arrows, *_reflected(half.arrows, image)]
    arrows.sort()
    return _assembled(tuple(range(1, m)), word, tuple(arrows))


def relabel(t: AltTableau, new_labels: Sequence[int]) -> AltTableau:
    """Order-preserving label substitution; shape and arrow positions are kept."""
    if len(new_labels) != len(t):
        raise DomainError("size-mismatch", f"{len(new_labels)} labels for tableau of length {len(t)}")
    new = tuple(new_labels)
    bad = _check_labels_word(new, t.word)
    if bad:
        raise ValidationError(bad)
    sub = dict(zip(t.labels, new))
    _check_arrow_labels(t, sub)
    # An order-preserving substitution keeps the arrows sorted by cell.
    arrows = tuple(Arrow(sub[a.row], sub[a.col], a.kind) for a in t.arrows)
    return _assembled(new, t.word, arrows)


def standardize(t: AltTableau) -> AltTableau:
    return relabel(t, range(1, len(t) + 1))


# ---------------------------------------------------------------------------
# Permutation tableaux


@dataclass(frozen=True)
class PermTableau(_Shape):
    """Labeled shape with a total 0/1 filling; only the 1-cells are stored, each once.

    Construction checks the labels, the word and that each 1-cell is a pair
    of integers.  The filling is checked, once, by :func:`validate_perm_tableau`
    or by the first reader of it, in the pass that reads it.
    """

    ones: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        bad = _check_labels_word(self.labels, self.word)
        ones = _items(self.ones, "bad-cell", "1-cells", bad)
        bad.extend(
            Violation("bad-cell", f"1-cell {_shown_value(c)} is not a pair of integers")
            for c in ones
            if type(c) is not tuple or len(c) != 2 or not all(map(_integral, c))
        )
        if bad:
            raise ValidationError(bad)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "ones", tuple(sorted(set(ones))))


def _perm_assembled(
    labels: tuple[int, ...], word: str, ones: tuple[tuple[int, int], ...]
) -> PermTableau:
    """The permutation tableau with these fields, set without the
    constructor's checks and sort: as :func:`_assembled`, only for data that
    holds by construction, with ``ones`` a sorted tuple of cells.  The result
    is not marked checked."""
    p = object.__new__(PermTableau)
    fields = p.__dict__
    fields["labels"] = labels
    fields["word"] = word
    fields["ones"] = ones
    return p


def validate_perm_tableau(
    labels: Sequence[int], word: str, ones: Sequence[tuple[int, int]]
) -> PermTableau:
    """Check candidate permutation-tableau data and return the tableau, or
    raise listing every violation; ``ones`` lists the 1-cells (0s implicit)."""
    p = PermTableau(labels, word, ones)
    _remembered(p, "_reading", _read_perm_tableau)
    return p


# A row with at most this many 1s finds its left arrow by testing its open
# columns one by one; a longer row first compares its 1s with them as one
# slice.  Measured on the 873 permutation tableaux of n <= 5 and on rows of
# up to 160 labels.
_PROBED_ONES = 4


def _read_perm_tableau(p: PermTableau) -> tuple[dict[int, int], list[Arrow]]:
    """Check the filling of ``p`` and read it in the same pass, or raise
    every violation: 1s off the shape, empty columns, blocked 0s.  Every
    reader goes through ``_remembered(p, "_reading", _read_perm_tableau)``,
    so a tableau that passes is read once and one that fails is checked
    again on every call.

    The reading is the row of each column's topmost 1 and the arrows of
    :func:`from_perm_tableau`, with those on the top row.  One loop over the
    sorted 1s tests each against the shape; a column's first 1 is its
    topmost, an up arrow, and the column's 0s below it are restricted.
    Going down the rows, :func:`_sweep` keeps the columns whose topmost 1 is
    in the row or above in one sorted list; a row's left arrow is the first
    of them right of it that holds no 1, so none lies on the top row.  A
    cursor into the sorted 1s finds each row's 1s with one bisection.  A row
    of more than ``_PROBED_ONES`` 1s first compares their columns with the
    open columns right of it as one slice: when they are the first of them,
    as in every row that ``to_perm_tableau`` writes, the left arrow is the
    next; otherwise the row, like a shorter one, tests the open columns one
    by one.  A blocked 0 (restricted, with a 1 left of it) lies between that
    arrow and the row's leftmost 1: only a row with its left arrow there
    reads between.
    """
    rows = p.rows
    row_set, col_set = set(rows), set(p.columns)
    off = []
    topmost: dict[int, int] = {}
    arrows = []
    for cell in p.ones:
        i, j = cell
        if i not in row_set or j not in col_set or i >= j:
            off.append(cell)
        elif j not in topmost:
            topmost[j] = i
            arrows.append(_arrow((i, j, UP)))
    bad = [Violation("cell-off-shape", f"1 on nonexistent cell {_cell(*c, ', ')}") for c in off]
    for j in p.columns:
        if j not in topmost:
            bad.append(Violation("empty-column", f"column {_shown_number(j)} contains no 1"))
    ones = set(p.ones)  # asked only for cells of the shape
    kept = sorted(ones.difference(off)) if off else p.ones  # the 1s on the shape, sorted
    at = 0  # where the next row's 1s start in ``kept``

    def visit(i: int, open_cols: list[int]) -> None:
        nonlocal at
        first = at
        at = bisect_left(kept, (i + 1,), first)
        k = bisect_right(open_cols, i)
        count = at - first  # row i's 1s, all in open columns right of i
        if count > _PROBED_ONES and [j for _, j in kept[first:at]] == open_cols[k : k + count]:
            k += count
        else:
            while k < len(open_cols) and (i, open_cols[k]) in ones:
                k += 1
        if k == len(open_cols):
            return
        left = open_cols[k]
        arrows.append(_arrow((i, left, LEFT)))
        leftmost = kept[at - 1][1] if count else left  # row i's leftmost 1, if any
        if left < leftmost:
            for j in open_cols[k : bisect_left(open_cols, leftmost)]:
                if (i, j) not in ones:
                    detail = f"cell {_cell(i, j)} is 0 but blocked"
                    bad.append(Violation("zero-with-one-above-and-left", detail))

    _sweep(rows, tuple(topmost), topmost, visit)
    if bad:
        raise ValidationError(bad)
    return topmost, arrows


@dataclass(frozen=True)
class PermTableauStats:
    """Unrestricted rows below the top one, columns with a 1 in the top row,
    and cells holding a superfluous 1 (a 1 with another 1 above it)."""

    unrestricted_rows: frozenset[int]
    top_one_cols: frozenset[int]
    superfluous_cells: frozenset[tuple[int, int]]


def perm_tableau_stats(p: PermTableau) -> PermTableauStats:
    # A 1 is superfluous, and a 0 restricted, when its column has a 1 above it.
    topmost, arrows = _remembered(p, "_reading", _read_perm_tableau)
    top = p.labels[0] if p.labels else None
    superfluous = frozenset((i, j) for i, j in p.ones if topmost[j] < i)
    restricted_rows = {i for i, _, kind in arrows if kind == LEFT}
    unrestricted = frozenset(i for i in p.rows if i not in restricted_rows and i != top)
    top_one = frozenset(j for i, j in p.ones if i == top)
    return PermTableauStats(unrestricted, top_one, superfluous)


def from_perm_tableau(p: PermTableau) -> AltTableau:
    """Shrink a permutation tableau of length n+1 to an alternative tableau of length n.

    Non-superfluous 1s become up arrows and each row's rightmost restricted 0
    becomes a left arrow; the top row is then removed together with its label.
    A 1 is superfluous, and a 0 restricted, when its column has a 1 in a row
    above it, that is, when the column's topmost 1 lies higher.  The filling
    is checked first (once per tableau), so the smallest label labels a row.
    """
    _, arrows = _remembered(p, "_reading", _read_perm_tableau)
    if not p.labels:
        raise DomainError("nothing-to-cut", "permutation tableau has no top row")
    top = p.labels[0]
    return _assembled(p.labels[1:], p.word[1:], tuple(sorted(a for a in arrows if a.row != top)))


def to_perm_tableau(t: AltTableau) -> PermTableau:
    """Grow an alternative tableau into a permutation tableau one longer.

    A new top row (labeled one below the current minimum) gets a 1 over every
    free column; up arrows and free cells become 1s, everything else 0.  Row
    by row, the 1s are the cells no arrow points at, less the left arrow's,
    the new row's being the free columns, so they come in order.
    """
    _check_valid(t)
    new = t.labels[0] - 1 if t.labels else 0
    if new < 0:
        raise DomainError("label-order", "no nonnegative label available for the new top row")
    ones = _unpointed((new,) + t.rows, t.columns, *_arrow_ends(t))
    return _perm_assembled((new,) + t.labels, "D" + t.word, tuple(ones))


# ---------------------------------------------------------------------------
# Text formats
#
# Compact:    [labels=l1,...,ln|]<word>|<arrow>;<arrow>;...
#             with arrow L<i>,<j> or U<i>,<j>; standard labels implied when
#             the prefix is absent; the arrow list may be empty.
# Record:     one key=value per line: labels, word, arrows (list of [i,j,K]),
#             statistics (emitted, never parsed).
# Perm compact: [labels=...|]<word>|<i>,<j>;...   (cells filled with 1)

# Every number in every text format is ASCII digits, ``[0-9]+``: no sign,
# no ``_`` and no other script's digits, though ``int`` reads all three.  This
# token, a pattern of one group, is the only one: every pattern that reads a
# number, in every module, is built on it.
_NUMBER = "([0-9]+)"
_NUMBER_RE = re.compile(_NUMBER)
_LABEL_LIST_RE = re.compile(rf"(?:{_NUMBER}(?:,{_NUMBER})*)?")
_RECORD_KEYS = ("labels", "word", "arrows", "statistics")


def _list_part(part: str, value: Callable[..., tuple]) -> tuple:
    """The grammar of a ``;``-list by its one part: the part's pattern, the
    pattern of the whole list, whose parts may be empty, and the value of a
    part from the pattern's groups."""
    return re.compile(part), re.compile(f"(?:{part})?(?:;(?:{part})?)*"), value


# A compact arrow ``L<i>,<j>``, a compact 1-cell ``<i>,<j>`` and a record
# arrow ``[<i>,<j>,<K>]``, each as ``(i, j[, K])``.  A 1-cell may end in one
# newline, since permutation-tableau text has always allowed a line break
# before a ``;``; a compact tableau with a newline inside is a record.
_ARROW_PART = _list_part(rf"([LU]){_NUMBER},{_NUMBER}", lambda k, i, j: (int(i), int(j), k))
_CELL_PART = _list_part(rf"{_NUMBER},{_NUMBER}\n?", lambda i, j: (int(i), int(j)))
_RECORD_ARROW_PART = _list_part(
    rf"\[{_NUMBER},{_NUMBER},([LU])\]", lambda i, j, k: (int(i), int(j), k)
)


def _parse_int(digits: str, pos: int) -> int:
    """``int(digits)`` of ASCII ``digits``, or a :class:`ParseError` at
    ``pos`` when there are more than the interpreter converts (4300 by
    default)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"bad number {_shown(digits)}", pos) from None


def _read_list(body: str, pos: int, part: tuple, what: str) -> list[tuple]:
    """The values of the parts of the ``;``-list ``body``, which starts at
    position ``pos``; empty parts are skipped.  The whole list is matched
    and read in one pass; when that fails, part by part, so a
    :class:`ParseError` is at the start of the first part that does not
    match or holds a number too long to convert."""
    one, every, value = part
    try:
        if every.fullmatch(body):
            return [value(*groups) for groups in one.findall(body)]
    except ValueError:  # more digits than the interpreter converts
        pass
    values = []
    for text in body.split(";"):
        if text:
            m = one.fullmatch(text)
            if m is None:
                raise ParseError(f"bad {what} {_shown(text)}", pos)
            for digits in _NUMBER_RE.findall(text):
                _parse_int(digits, pos)
            values.append(value(*m.groups()))
        pos += len(text) + 1
    return values


def _parse_labels(body: str, pos: int) -> tuple[int, ...]:
    if _LABEL_LIST_RE.fullmatch(body):
        try:
            return tuple(map(int, _NUMBER_RE.findall(body)))
        except ValueError:
            pass
    raise ParseError(f"bad label list {_shown(body)}", pos)


def parse_tableau(text: str) -> AltTableau:
    """Parse the compact or record format into a validated tableau.

    Whitespace around the text is ignored; a :class:`ParseError` gives its
    position in ``text`` as given, and input that is not a ``str`` is one
    at position 0.
    """
    body = _check_text(text).strip()
    if "\n" in body or body.startswith("word="):
        return _parse_record(text)
    return validate_alt(*_parse_compact(text, "arrows", _ARROW_PART, "arrow"))


def _check_text(text: object) -> str:
    """``text``, or a :class:`ParseError` at position 0 when it is not a ``str``."""
    if not isinstance(text, str):
        raise ParseError(f"input of type {type(text).__name__} is not a str", 0)
    return text


def _parse_compact(text: str, items: str, part: tuple, what: str) -> tuple[tuple, str, list]:
    """The labels (standard when absent), word and list values of compact
    text ``[labels=...|]<word>|<items>`` with whitespace around it, the list
    read by :func:`_read_list`.  Error positions count from the start of
    ``text`` as given."""
    at = len(text) - len(text.lstrip())  # where the compact text starts
    text = text.strip()
    if not text:
        raise ParseError("empty input", 0)
    labels, offset = None, at  # the labels, and where the text after them starts
    if text.startswith("labels="):
        cut = text.find("|")
        if cut < 0:
            raise ParseError("labels prefix missing '|'", at + len(text))
        labels = _parse_labels(text[len("labels=") : cut], at + len("labels="))
        text, offset = text[cut + 1 :], at + cut + 1
    if text.count("|") != 1:
        raise ParseError(f"expected <word>|<{items}>", offset)
    word, _, body = text.partition("|")
    if labels is None:
        labels = tuple(range(1, len(word) + 1))
    return labels, word, _read_list(body, offset + len(word) + 1, part, what)


def _parse_record(text: str) -> AltTableau:
    fields: dict[str, tuple[str, int]] = {}  # key -> (value, offset of the value)
    unknown: dict[str, int] = {}  # key -> offset of its first line
    pos = 0
    for line in text.splitlines(keepends=True):
        head, eq, rest = line.partition("=")
        key = head.strip()
        if eq:
            fields[key] = (rest.strip(), pos + len(line) - len(rest.lstrip()))
            if key not in _RECORD_KEYS:
                unknown.setdefault(key, pos)
        elif key:  # a line with text but no "="
            raise ParseError(f"expected key=value, got {_shown(key)}", pos)
        pos += len(line)
    if unknown:
        raise ParseError(f"unknown keys {sorted(unknown)}", min(unknown.values()))
    if "word" not in fields:
        raise ParseError("record missing 'word'", 0)
    word = fields["word"][0]
    body, at = fields.get("labels", ("", 0))
    labels = _parse_labels(body, at) if body else tuple(range(1, len(word) + 1))
    field, at = fields.get("arrows", ("", 0))
    return validate_alt(labels, word, _read_list(field, at, _RECORD_ARROW_PART, "arrow entry"))


def render_tableau(t: AltTableau, style: str = "compact") -> str:
    """Canonical text form; ``style`` is one of compact, record, grid."""
    if style == "compact":
        return _render_compact(t.labels, t.word, [f"{a.kind}{a.row},{a.col}" for a in t.arrows])
    if style == "record":
        frow, fcol, fcell = _free_counts(t)
        lines = [
            "labels=" + ",".join(str(l) for l in t.labels),
            "word=" + t.word,
            "arrows=" + ";".join(f"[{a.row},{a.col},{a.kind}]" for a in t.arrows),
            f"statistics=frow:{frow};fcol:{fcol};fcell:{fcell}",
        ]
        return "\n".join(lines)
    if style == "grid":
        return _render_grid(t)
    raise DomainError("bad-style", f"unknown render style {_shown_value(style)}")


def _render_compact(labels: tuple[int, ...], word: str, items: list[str]) -> str:
    prefix = ""
    if labels != tuple(range(1, len(word) + 1)):
        prefix = "labels=" + ",".join(str(l) for l in labels) + "|"
    return prefix + word + "|" + ";".join(items)


def _render_grid(t: AltTableau) -> str:
    rows = t.rows
    cols = tuple(sorted(t.columns, reverse=True))  # leftmost column = largest label
    occupied = t.arrow_map()
    width = max((len(str(l)) for l in t.labels), default=1)
    sym = {LEFT: "<", UP: "^"}
    header = " " * width + "".join(f" {str(j):>{width}}" for j in cols)
    lines = [header.rstrip()]
    for i in rows:
        cells = []
        for j in cols:
            if i < j:
                cells.append(f" {sym.get(occupied.get((i, j), ''), '.'):>{width}}")
        lines.append((f"{str(i):>{width}}" + "".join(cells)).rstrip())
    return "\n".join(lines)


def parse_perm_tableau(text: str) -> PermTableau:
    """Parse compact permutation-tableau text, as :func:`parse_tableau` does."""
    return validate_perm_tableau(*_parse_compact(_check_text(text), "one-cells", _CELL_PART, "cell"))


def render_perm_tableau(p: PermTableau) -> str:
    return _render_compact(p.labels, p.word, [f"{i},{j}" for i, j in p.ones])
