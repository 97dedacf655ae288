"""Recursive structure of alternative tableaux.

Every tableau splits uniquely into *packed* components (length-n tableaux
with n-1 arrows), one per free row or column, over a partition of its label
set; ``merge_all`` reassembles them.  ``cut``/``block`` remove or insert an
extremal row/column, and ``divide`` groups the components into a rows-only
part and a columns-only part.

The components are the trees of the tableau's plane alternative forest,
which reads straight off the arrows once per tableau (:func:`_arrow_forest`,
remembered on it): its edges are the arrow cells and its roots the free
lines.  ``split`` and ``divide`` group the labels by tree in one pass.

The paper's own primitives, which the recursive oracles are built from, do
one pass per tableau as well, without the forest: ``packed_class``,
``block`` and ``closure`` read only the free rows and columns
(``core.free_lines``, remembered, never the free cells); ``closure`` finds
the component of every free label by graph search over one adjacency map
of the arrows, remembered on the tableau; and ``restrict`` checks its input
once and assembles the part, since any part of a valid tableau is valid.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Literal, Mapping

from .core import (
    LEFT,
    UP,
    AltTableau,
    Arrow,
    _arrow,
    _assembled,
    _check_valid,
    _remembered,
    free_lines,
    render_tableau,
)
from .errors import DomainError, ValidationError, Violation, _integral, _shown_number, _shown_value

ROW_PACKED = "row"
COL_PACKED = "col"
NOT_PACKED = "none"

Axis = Literal["row", "col"]


def packed_class(t: AltTableau) -> str:
    """Classify as ROW_PACKED (one free row, no free column), COL_PACKED, or NOT_PACKED."""
    free_rows, free_cols = free_lines(t)
    if (len(free_rows), len(free_cols)) == (1, 0):
        return ROW_PACKED
    if (len(free_rows), len(free_cols)) == (0, 1):
        if len(t) > 1:
            # Consistency: the top-left cell of a column-packed tableau holds a left arrow.
            top, left = min(t.rows), max(t.columns)
            if Arrow(top, left, LEFT) not in t.arrows:
                raise ValidationError(
                    [Violation("packed-corner", f"no left arrow at top-left cell ({top},{left})")]
                )
        return COL_PACKED
    return NOT_PACKED


def cut(t: AltTableau, axis: Axis) -> AltTableau:
    """Delete the topmost row (axis="row") or leftmost column (axis="col").

    The topmost row is the smallest row label, the leftmost column the
    largest column label; arrows on the deleted line go with it.  Row cuts
    need every column nonempty (and dually), otherwise the border would not
    shrink consistently.
    """
    # The topmost row is the first step of the word unless a column comes
    # before it, and the leftmost column is the last step unless a row comes after.
    if axis == "row":
        if "D" not in t.word:
            raise DomainError("nothing-to-cut", "tableau has no row")
        if t.word[0] != "D":
            raise DomainError("empty-line-obstruction", "an empty column blocks the row cut")
        gone, keep, word = t.labels[0], t.labels[1:], t.word[1:]
    elif axis == "col":
        if "E" not in t.word:
            raise DomainError("nothing-to-cut", "tableau has no column")
        if t.word[-1] != "E":
            raise DomainError("empty-line-obstruction", "an empty row blocks the column cut")
        gone, keep, word = t.labels[-1], t.labels[:-1], t.word[:-1]
    else:
        raise DomainError("bad-axis", f"unknown axis {_shown_value(axis)}")
    arrows = tuple(a for a in t.arrows if gone not in (a.row, a.col))
    return _assembled(keep, word, arrows)


def block(t: AltTableau, axis: Axis, label: int) -> AltTableau:
    """Inverse of :func:`cut`: insert a new extremal line and pin the free lines.

    axis="col" adds a full-width top row ``label`` (below every existing
    label) with an up arrow over each free column; axis="row" adds a
    full-height leftmost column (above every label) with a left arrow on each
    free row.  Either way ``cut`` on the dual axis restores ``t``.
    """
    free_rows, free_cols = free_lines(t)
    if type(label) is not int and not _integral(label):
        raise DomainError("bad-label", f"label {_shown_value(label)} is not an integer")
    if axis == "col":
        if label < 0 or (t.labels and label >= t.labels[0]):
            raise DomainError(
                "label-not-extremal", f"{_shown_number(label)} is not below all labels"
            )
        arrows = sorted(t.arrows + tuple(Arrow(label, j, UP) for j in free_cols))
        return _assembled((label,) + t.labels, "D" + t.word, tuple(arrows))
    if axis == "row":
        if label < 0 or (t.labels and label <= t.labels[-1]):
            raise DomainError(
                "label-not-extremal", f"{_shown_number(label)} is not above all labels"
            )
        arrows = sorted(t.arrows + tuple(Arrow(i, label, LEFT) for i in free_rows))
        return _assembled(t.labels + (label,), t.word + "E", tuple(arrows))
    raise DomainError("bad-axis", f"unknown axis {_shown_value(axis)}")


def closure(t: AltTableau, k: int) -> frozenset[int]:
    """Smallest label set containing free label ``k`` with arrow endpoints paired.

    Arrows tie their row and column labels together, so this is the connected
    component of ``k`` in the graph with one edge per arrow-filled cell.  The
    closures of all free labels are found in one pass and remembered on ``t``.
    """
    try:
        return _remembered(t, "_closures", _closures)[k]
    except KeyError:
        raise DomainError(
            "not-free", f"label {_shown_number(k)} is not a free row or column"
        ) from None


def _closures(t: AltTableau) -> dict[int, frozenset[int]]:
    """The closure of every free label, by graph search over one adjacency
    map of the arrows; each label is searched from at most once."""
    free_rows, free_cols = free_lines(t)
    adjacent: dict[int, list[int]] = {}
    for i, j, _ in t.arrows:
        adjacent.setdefault(i, []).append(j)
        adjacent.setdefault(j, []).append(i)
    free = free_rows | free_cols
    closures: dict[int, frozenset[int]] = {}
    for k in free:
        if k in closures:  # two free labels meet only on a tableau that is not valid
            continue
        seen = {k}
        frontier = [k]
        while frontier:
            v = frontier.pop()
            for w in adjacent.get(v, ()):
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        found = frozenset(seen)
        closures.update(dict.fromkeys(found & free, found))
    return closures


def restrict(t: AltTableau, subset: Iterable[int]) -> AltTableau:
    """Sub-tableau on a label subset, keeping arrows with both endpoints inside.

    Removing lines never fills a cell an arrow points at, so every subset of
    a valid tableau restricts to a valid tableau: ``t`` itself is checked
    (once, as every conversion checks it) and raises ``invalid-restriction``
    if it is not valid, whatever the subset.  The part is then assembled
    directly; it is ``t`` itself for the whole label set and the empty
    tableau for the empty set.
    """
    wanted = frozenset(subset)
    extra = wanted - set(t.labels)
    if extra:
        raise DomainError("not-a-subset", f"labels {_shown_number(sorted(extra))} not in tableau")
    try:
        _check_valid(t)
    except ValidationError as exc:
        raise DomainError("invalid-restriction", str(exc))
    if len(wanted) == len(t):
        return t
    if not wanted:
        return _assembled((), "", ())
    labels = tuple(l for l in t.labels if l in wanted)
    word = "".join(c for l, c in zip(t.labels, t.word) if l in wanted)
    arrows = tuple(a for a in t.arrows if a.row in wanted and a.col in wanted)
    return _assembled(labels, word, arrows)


def _arrow_forest(t: AltTableau) -> tuple[dict[int, list[int]], list[int]]:
    """The forest of :func:`_forest_of_arrows`, built once per tableau and
    remembered on it; every reader shares its lists and must not change them."""
    return _remembered(t, "_arrow_forest", _forest_of_arrows)


def _forest_of_arrows(t: AltTableau) -> tuple[dict[int, list[int]], list[int]]:
    """The plane alternative forest of ``t``, read straight off its arrows.

    An up arrow at (i, j) makes column j a child of row i, a left arrow makes
    row i a child of column j, and the free lines are the roots.  Returns the
    children of every label in plane order (a row's by decreasing label, a
    column's by increasing label) and the roots in increasing order.  Raises
    ``ValidationError`` unless ``t`` is a valid tableau.
    """
    _check_valid(t)
    children: dict[int, list[int]] = {l: [] for l in t.labels}
    child_labels = set()
    for i, j, kind in t.arrows:  # sorted by cell, so every list grows by label
        if kind == UP:
            children[i].append(j)
            child_labels.add(j)
        else:
            children[j].append(i)
            child_labels.add(i)
    for i in t.rows:
        children[i].reverse()
    return children, [l for l in t.labels if l not in child_labels]


def _tableau_from_edges(kinds: Mapping[int, str], edges: Iterable[tuple[int, int]]) -> AltTableau:
    """Inverse of :func:`_arrow_forest`: the tableau on the labels of ``kinds``
    (``D`` row, ``E`` column) whose arrows are the forest edges (parent, child)."""
    labels = tuple(sorted(kinds))
    arrows = sorted(_arrow((p, c, UP) if kinds[p] == "D" else (c, p, LEFT)) for p, c in edges)
    return _assembled(labels, "".join(kinds[l] for l in labels), tuple(arrows))


def _tree_roots(t: AltTableau) -> dict[int, int]:
    """The root of the tree each label belongs to (validates ``t``)."""
    children, roots = _arrow_forest(t)
    root_of: dict[int, int] = {}
    for r in roots:
        stack = [r]
        while stack:
            label = stack.pop()
            root_of[label] = r
            stack.extend(children[label])
    return root_of


def _parts(t: AltTableau, part_of: Mapping[int, Hashable]) -> dict[Hashable, AltTableau]:
    """Sub-tableaux of ``t`` on the classes of ``part_of``, each with its arrows;
    every arrow must join two labels of one class.  Each part keeps its labels
    and arrows in ``t``'s order, so they stay sorted."""
    labels: dict[Hashable, list[int]] = {}
    steps: dict[Hashable, list[str]] = {}
    arrows: dict[Hashable, list[Arrow]] = {}
    for l, c in zip(t.labels, t.word):
        labels.setdefault(part_of[l], []).append(l)
        steps.setdefault(part_of[l], []).append(c)
    for a in t.arrows:
        arrows.setdefault(part_of[a.row], []).append(a)
    return {
        k: _assembled(tuple(ls), "".join(steps[k]), tuple(arrows.get(k, ())))
        for k, ls in labels.items()
    }


def split(t: AltTableau) -> tuple[AltTableau, ...]:
    """Packed components, one per free label, ordered by smallest label.

    Each component is one tree of the forest read off the arrows.
    """
    parts = _parts(t, _tree_roots(t))
    return tuple(sorted(parts.values(), key=lambda p: p.labels[0]))


def _collision(overlap: Iterable[int]) -> str:
    return f"labels {_shown_number(sorted(overlap))} appear on both sides"


def merge(t: AltTableau, u: AltTableau) -> AltTableau:
    """Interleave two tableaux labeled on disjoint sets; mixed cells stay empty."""
    return merge_all((t, u))


def merge_all(parts: Iterable[AltTableau]) -> AltTableau:
    """Merge a collection with pairwise disjoint labels; order is irrelevant.

    One pass: a part that shares labels with the parts before it raises a
    ``label-collision`` error naming the shared labels.
    """
    kind: dict[int, str] = {}
    arrows: list[Arrow] = []
    for part in parts:
        overlap = [l for l in part.labels if l in kind]
        if overlap:
            raise DomainError("label-collision", _collision(overlap))
        kind.update(zip(part.labels, part.word))
        arrows.extend(part.arrows)
    labels = tuple(sorted(kind))
    return _assembled(labels, "".join(kind[l] for l in labels), tuple(sorted(arrows)))


def divide(t: AltTableau) -> tuple[AltTableau, AltTableau]:
    """Split into (rows part, columns part): the unions of the free-row and
    free-column components.  The first has no free columns, the second no
    free rows, and merging them restores ``t``."""
    kinds = t.kind_of
    parts = _parts(t, {l: kinds[r] for l, r in _tree_roots(t).items()})
    empty = AltTableau((), "")
    return parts.get("D", empty), parts.get("E", empty)


def format_split(parts: Iterable[AltTableau]) -> str:
    """One component per line: ``<label-set> :: <compact>``, ascending minimum label."""
    lines = []
    for p in sorted(parts, key=lambda p: p.labels[0]):
        labelset = "{" + ",".join(str(l) for l in p.labels) + "}"
        lines.append(f"{labelset} :: {render_tableau(p)}")
    return "\n".join(lines)
