from __future__ import annotations

import re
from bisect import bisect_left, bisect_right, insort
from typing import Callable, TypeVar

import pytest
from hypothesis import strategies as st

from alttab import enumeration
from alttab.core import (
    LEFT,
    UP,
    AltTableau,
    Arrow,
    FreeStats,
    PermTableau,
    PermTableauStats,
    _arrow,
    _cell,
    _check_labels_word,
    parse_tableau,
    relabel,
    transpose,
)
from alttab.decomposition import merge
from alttab.enumeration import _corner
from alttab.errors import (
    DomainError,
    ParseError,
    ValidationError,
    Violation,
    _shown,
    _shown_number,
)
from alttab.trees import (
    BLACK,
    MAX_ROOTED,
    MIN_ROOTED,
    WHITE,
    ArcDiagram,
    BinAltTree,
    PlaneAltForest,
    PlaneAltTree,
    validate_bin_tree,
    validate_tree,
)

T0_COMPACT = "EEDDEDDEEDDED|L3,5;U4,9;U6,8;L6,9;L7,9;L10,12"

V = TypeVar("V")


@pytest.fixture(scope="session")
def t0() -> AltTableau:
    return parse_tableau(T0_COMPACT)


@pytest.fixture
def no_kept_plan(monkeypatch):
    """Drop the corner plan an earlier call kept (a plan of no length matches
    no n), so the next corner table builds its own; restored after the test."""
    monkeypatch.setattr(enumeration, "_last_plan", (-1, (), (), (), ()))


@st.composite
def tableaux(draw, max_len: int = 10) -> AltTableau:
    """Random valid tableau: random border word, then a random legal filling.

    Arrows are chosen cell by cell, leftmost column first, respecting the
    same emptiness rules as the exhaustive generator, so every draw is valid
    by construction.
    """
    n = draw(st.integers(min_value=0, max_value=max_len))
    word = "".join(draw(st.sampled_from("DE")) for _ in range(n))
    labels = tuple(range(1, n + 1))
    rows = [l for l, c in zip(labels, word) if c == "D"]
    cols = [l for l, c in zip(labels, word) if c == "E"]
    row_used = {i: False for i in rows}
    col_used = {j: False for j in cols}
    arrows = []
    for j in sorted(cols, reverse=True):
        for i in rows:
            if i >= j:
                continue
            options = [""]
            if not row_used[i]:
                options.append("L")
            if not col_used[j]:
                options.append("U")
            choice = draw(st.sampled_from(options))
            if choice:
                arrows.append(Arrow(i, j, choice))
                row_used[i] = True
                col_used[j] = True
    return AltTableau(labels, word, tuple(arrows))


@st.composite
def raw_tableaux(draw) -> AltTableau:
    """Tableau built without validation: any labels and word, and arrows of
    either kind on any cells, on the shape or off it, possibly repeated."""
    labels = sorted(draw(st.sets(st.integers(min_value=0, max_value=9), max_size=8)))
    word = "".join(draw(st.sampled_from("DE")) for _ in labels)
    cells = st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    arrows = draw(st.lists(st.tuples(cells, st.sampled_from("LU")), max_size=8))
    return AltTableau(tuple(labels), word, tuple(Arrow(i, j, k) for (i, j), k in arrows))


@st.composite
def raw_perm_tableaux(draw) -> PermTableau:
    """Permutation tableau built without the filling checks: any labels and
    word, most often starting with a row, and 1s on any cells, on the shape
    or off it, in rows or not, possibly repeated."""
    labels = sorted(draw(st.sets(st.integers(min_value=0, max_value=9), min_size=1, max_size=8)))
    word = "".join(draw(st.sampled_from("DE")) for _ in labels)
    if draw(st.integers(0, 4)):
        word = "D" + word[1:]
    cell = st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    return PermTableau(tuple(labels), word, tuple(draw(st.lists(cell, max_size=14))))


@st.composite
def compact_texts(draw) -> tuple[bool, str]:
    """Whether the text lists 1-cells, and compact text of a permutation
    tableau if so, else of a tableau: an optional labels prefix, a word and
    a ``;``-separated list whose parts are well formed, empty, or drawn from
    the characters the formats use and a few they refuse, newline included,
    sometimes with a number too long for ``int``, and sometimes after
    leading whitespace."""
    cells = draw(st.booleans())
    lead = draw(st.sampled_from(["", "", "  ", "\n\t "]))
    word = "".join(draw(st.sampled_from("DE")) for _ in range(draw(st.integers(0, 6))))
    prefix = draw(
        st.sampled_from(
            ["", "labels=1,2,3,4,5,6|", "labels=|", "labels=1,x|", "labels=1_0,2|", "labels= +1|"]
        )
    )
    number = st.integers(min_value=0, max_value=7).map(str)
    good = st.tuples(st.just("") if cells else st.sampled_from("LU"), number, number).map(
        lambda p: f"{p[0]}{p[1]},{p[2]}"
    )
    junk = st.text(alphabet="LU0123456789,;x\n²٣ ", max_size=6)
    huge = st.just(("" if cells else "L") + "1," + "9" * 5000)
    parts = draw(st.lists(st.one_of(good, good, st.just(""), junk, huge), max_size=6))
    return cells, lead + prefix + word + "|" + ";".join(parts)


def parse_compact_by_parts(text: str, cells: bool):
    """Reference for the compact forms of ``parse_tableau`` (``cells`` false)
    and ``parse_perm_tableau``: every part of the list is matched and read
    on its own.  Returns the data that is then validated: labels, word and
    arrows or 1-cells.  Numbers are ASCII digits, and positions count the
    whitespace before the text."""
    at = len(text) - len(text.lstrip())
    text = text.strip()
    if not text:
        raise ParseError("empty input", 0)
    labels, rest, offset = None, text, at
    if text.startswith("labels="):
        cut = text.find("|")
        if cut < 0:
            raise ParseError("labels prefix missing '|'", at + len(text))
        body = text[len("labels=") : cut]
        parts = body.split(",") if body else []
        if not all(re.fullmatch(r"[0-9]+", p) for p in parts):
            raise ParseError(f"bad label list {_shown(body)}", at + len("labels="))
        try:
            labels = tuple(int(p) for p in parts)
        except ValueError:
            raise ParseError(f"bad label list {_shown(body)}", at + len("labels="))
        rest, offset = text[cut + 1 :], at + cut + 1
    if rest.count("|") != 1:
        raise ParseError(f"expected <word>|<{'one-cells' if cells else 'arrows'}>", offset)
    word, _, items = rest.partition("|")
    if labels is None:
        labels = tuple(range(1, len(word) + 1))
    part_re = re.compile(r"([0-9]+),([0-9]+)$" if cells else r"([LU])([0-9]+),([0-9]+)$")
    found = []
    pos = offset + len(word) + 1
    for part in items.split(";"):
        if not part:
            pos += 1  # an empty part still takes its ``;``
            continue
        m = part_re.match(part)
        if not m:
            raise ParseError(f"bad {'cell' if cells else 'arrow'} {_shown(part)}", pos)
        numbers = []
        for digits in m.groups()[-2:]:
            try:
                numbers.append(int(digits))
            except ValueError:
                raise ParseError(f"bad number {_shown(digits)}", pos) from None
        found.append(tuple(numbers) if cells else (*numbers, m.group(1)))
        pos += len(part) + 1
    return labels, word, found


def free_stats_by_grid(t: AltTableau) -> FreeStats:
    """Reference for ``free_stats``: scan every cell of the rows x columns grid.

    A row's left arrow is the last one in arrow order and a column's up arrow
    the last one, so it is also defined on tableaux built without validation.
    """
    left_in_row: dict[int, int] = {}
    up_in_col: dict[int, int] = {}
    for a in t.arrows:
        if a.kind == "L":
            left_in_row[a.row] = a.col
        else:
            up_in_col[a.col] = a.row
    free_rows = frozenset(i for i in t.rows if i not in left_in_row)
    free_cols = frozenset(j for j in t.columns if j not in up_in_col)
    occupied = t.arrow_map()
    free_cells = set()
    for i, j in t.cells():
        if (i, j) in occupied:
            continue
        if i in left_in_row and left_in_row[i] < j:
            continue
        if j in up_in_col and up_in_col[j] > i:
            continue
        free_cells.add((i, j))
    return FreeStats(free_rows, free_cols, frozenset(free_cells))


def alt_violations_by_scan(labels, word, arrows) -> list[Violation]:
    """Reference for the violations ``validate_alt`` reports: the per-arrow
    checks in input order, then, for every arrow in cell order, a scan of its
    whole line for the occupied cells it points at.  A line is scanned in the
    iteration order of its label set, the order the check reports hits in."""
    bad = _check_labels_word(labels, word)
    if bad:
        return bad
    rows = {l for l, c in zip(labels, word) if c == "D"}
    cols = {l for l, c in zip(labels, word) if c == "E"}
    seen: dict[tuple[int, int], str] = {}
    for i, j, kind in arrows:
        if kind not in ("L", "U"):
            bad.append(Violation("bad-arrow-kind", f"{kind!r} at ({i},{j})"))
        elif i not in rows or j not in cols or i >= j:
            bad.append(Violation("arrow-off-shape", f"{kind} arrow on nonexistent cell ({i},{j})"))
        elif (i, j) in seen:
            bad.append(Violation("duplicate-cell", f"two arrows on cell ({i},{j})"))
        else:
            seen[(i, j)] = kind
    for (i, j), kind in sorted(seen.items()):
        if kind == "L":
            hits = [(i, j2) for j2 in cols if j2 > j and (i, j2) in seen]
        else:
            hits = [(i2, j) for i2 in rows if i2 < i and (i2, j) in seen]
        for cell in hits:
            detail = f"{kind} arrow at ({i},{j}) points at occupied cell {cell}"
            bad.append(Violation("pointed-cell-occupied", detail))
    return bad


def _sweep_by_comprehensions(rows, cols, opens: dict, visit: Callable) -> None:
    """``core._sweep`` as it was before it partitioned the columns in one
    loop, for :func:`read_perm_tableau_by_probes`."""
    open_cols = [j for j in cols if j not in opens]
    joins = sorted([(opens[j], j) for j in cols if j in opens], reverse=True)
    for i in rows:
        while joins and joins[-1][0] <= i:
            insort(open_cols, joins.pop()[1])
        visit(i, open_cols)


def read_perm_tableau_by_probes(p: PermTableau) -> tuple[dict[int, int], list[Arrow]]:
    """Reference for ``core._read_perm_tableau``: the reader as it was before
    it kept a cursor into the 1s and compared long rows as slices, copied
    verbatim but for its sweep.  Each row probes its open columns one 1 at a
    time and finds its leftmost 1 by bisection."""
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

    def visit(i: int, open_cols: list[int]) -> None:
        k = bisect_right(open_cols, i)
        while k < len(open_cols) and (i, open_cols[k]) in ones:
            k += 1
        if k == len(open_cols):
            return
        left = open_cols[k]
        arrows.append(_arrow((i, left, LEFT)))
        # The last 1 before row i + 1, or the very last when none is: the
        # leftmost 1 of row i if it has one.
        row, leftmost = kept[bisect_left(kept, (i + 1,)) - 1]
        if row == i and left < leftmost:
            for j in open_cols[k : bisect_left(open_cols, leftmost)]:
                if (i, j) not in ones:
                    detail = f"cell {_cell(i, j)} is 0 but blocked"
                    bad.append(Violation("zero-with-one-above-and-left", detail))

    _sweep_by_comprehensions(rows, tuple(topmost), topmost, visit)
    if bad:
        raise ValidationError(bad)
    return topmost, arrows


def perm_ones_by_sorting(t: AltTableau) -> tuple[tuple[int, int], ...]:
    """Reference for the 1-cells of ``to_perm_tableau``: the new top row over
    every free column, the up arrows and the free cells of the grid scan,
    sorted."""
    stats = free_stats_by_grid(t)
    new = t.labels[0] - 1 if t.labels else 0
    ones = [(new, j) for j in stats.free_cols]
    ones.extend((a.row, a.col) for a in t.arrows if a.kind == "U")
    ones.extend(stats.free_cells)
    return tuple(sorted(ones))


def assert_as_public(t: AltTableau) -> None:
    """``t`` holds what the public constructor makes of its own fields: the
    same labels, word and arrows, each arrow an ``Arrow`` (a plain tuple
    compares equal to one) and the arrows in cell order."""
    public = AltTableau(t.labels, t.word, t.arrows)
    assert type(t.labels) is tuple and t.labels == public.labels
    assert type(t.word) is str and t.word == public.word
    assert type(t.arrows) is tuple and t.arrows == public.arrows
    assert all(type(a) is Arrow for a in t.arrows)


def merge_by_folding(parts) -> AltTableau:
    """Reference for ``merge_all``: fold the parts with pairwise ``merge``."""
    result = AltTableau((), "")
    for part in parts:
        result = merge(result, part)
    return result


def mirror_by_merge(half: AltTableau, size: int) -> AltTableau:
    """Reference for ``core._mirrored``: merge ``half`` with its transpose
    relabeled onto the other label of each pair {l, size + 1 - l}."""
    mirror = sorted(size + 1 - l for l in half.labels)
    return merge(half, relabel(transpose(half), mirror))


def from_perm_tableau_by_lists(p: PermTableau) -> AltTableau:
    """Reference for ``from_perm_tableau``: list every restricted 0 of each
    row, over all its columns, and keep the rightmost (smallest label)."""
    top = p.labels[0]
    ones = set(p.ones)
    topmost: dict[int, int] = {}
    for i, j in ones:
        if i in p.rows and i < topmost.get(j, i + 1):
            topmost[j] = i
    arrows = [Arrow(i, j, "U") for i, j in ones if i != top and not topmost.get(j, i) < i]
    for i in p.rows[1:]:
        restricted = [j for j in p.columns if i < j and (i, j) not in ones and topmost.get(j, i) < i]
        if restricted:
            arrows.append(Arrow(i, min(restricted), "L"))
    return AltTableau(p.labels[1:], p.word[1:], tuple(arrows))


def from_perm_tableau_by_cell_probes(p: PermTableau) -> AltTableau:
    """Reference for ``from_perm_tableau`` on a filling that passes the
    check: each row probes its cells one by one, right to left, for its first
    restricted 0, and a column's topmost 1 counts the 1s in rows only."""
    if not p.labels:
        raise DomainError("nothing-to-cut", "permutation tableau has no top row")
    top = p.labels[0]
    if p.word[0] != "D":
        raise DomainError("bad-top-row", "smallest label does not label a row")
    rows, cols = p.rows, p.columns
    ones = set(p.ones)
    topmost: dict[int, int] = {}
    for i, j in ones:
        if i in rows and i < topmost.get(j, i + 1):
            topmost[j] = i
    arrows = [Arrow(i, j, "U") for i, j in ones if i != top and not topmost.get(j, i) < i]
    for i in rows[1:]:
        for j in cols[bisect_right(cols, i) :]:
            if (i, j) not in ones and topmost.get(j, i) < i:
                arrows.append(Arrow(i, j, "L"))
                break
    return AltTableau(p.labels[1:], p.word[1:], tuple(arrows))


def record_by_grid(t: AltTableau) -> str:
    """Reference for the record form: its statistics line from the whole set
    of free cells of the grid scan."""
    stats = free_stats_by_grid(t)
    lines = [
        "labels=" + ",".join(map(str, t.labels)),
        "word=" + t.word,
        "arrows=" + ";".join(f"[{a.row},{a.col},{a.kind}]" for a in t.arrows),
        f"statistics=frow:{stats.frow};fcol:{stats.fcol};fcell:{stats.fcell}",
    ]
    return "\n".join(lines)


def validate_perm_tableau_by_scan(labels, word, ones) -> PermTableau:
    """Reference for ``validate_perm_tableau``: for every 0, scan the rows
    above it and the columns left of it for a 1."""
    bad = _check_labels_word(labels, word)
    if bad:
        raise ValidationError(bad)
    rows = {l for l, c in zip(labels, word) if c == "D"}
    cols = [l for l, c in zip(labels, word) if c == "E"]
    cells = {(i, j) for i in rows for j in cols if i < j}
    one_set = set(ones)
    for cell in sorted(one_set - cells):
        bad.append(Violation("cell-off-shape", f"1 on nonexistent cell {cell}"))
    one_set &= cells
    for j in cols:
        col_cells = [(i, j) for i in rows if i < j]
        if not col_cells or not any(c in one_set for c in col_cells):
            bad.append(Violation("empty-column", f"column {j} contains no 1"))
    for i, j in sorted(cells - one_set):
        above = any((i2, j) in one_set for i2 in rows if i2 < i)
        left = any((i, j2) in one_set for j2 in cols if j2 > j)
        if above and left:
            bad.append(
                Violation("zero-with-one-above-and-left", f"cell ({i},{j}) is 0 but blocked")
            )
    if bad:
        raise ValidationError(bad)
    return PermTableau(tuple(labels), word, tuple(sorted(one_set)))


def perm_tableau_stats_by_scan(p: PermTableau) -> PermTableauStats:
    """Reference for ``perm_tableau_stats``: scan the rows above each cell."""
    rows, cols = p.rows, p.columns
    ones = set(p.ones)
    top = min(p.labels) if p.labels else None
    superfluous = frozenset(
        (i, j) for (i, j) in ones if any((i2, j) in ones for i2 in rows if i2 < i)
    )
    restricted_rows = set()
    for i in rows:
        for j in cols:
            if i < j and (i, j) not in ones:
                if any((i2, j) in ones for i2 in rows if i2 < i):
                    restricted_rows.add(i)
                    break
    unrestricted = frozenset(i for i in rows if i not in restricted_rows and i != top)
    top_one = frozenset(j for j in cols if top is not None and (top, j) in ones)
    return PermTableauStats(unrestricted, top_one, superfluous)


# References for the tree decoders: each checks its input in a walk of its
# own, builds in another and checks what it built in a third, as the
# decoders did before they took check and output from one listing.  Nodes
# come from the public constructors, and tableaux from ``AltTableau``.


def _tableau_of_edges(kinds: dict[int, str], edges) -> AltTableau:
    labels = tuple(sorted(kinds))
    arrows = [Arrow(p, c, "U") if kinds[p] == "D" else Arrow(c, p, "L") for p, c in edges]
    return AltTableau(labels, "".join(kinds[l] for l in labels), tuple(arrows))


def validate_forest_by_trees(f: PlaneAltForest) -> None:
    """Reference for ``validate_forest``: the label set of each tree, which
    share a label when their union is smaller than their sizes add up to,
    then each tree checked on its own."""
    label_sets = []
    for t in f.trees:
        nodes, stack = [], [t]
        while stack:
            node = stack.pop()
            nodes.append(node)
            stack.extend(node.children)
        label_sets.append({node.label for node in nodes})
    if len(set().union(*label_sets)) != sum(map(len, label_sets)):
        raise ValidationError([Violation("duplicate-label", "trees share labels")])
    for t in f.trees:
        validate_tree(t)


def from_forest_by_walks(f: PlaneAltForest) -> AltTableau:
    """Reference for ``from_forest``: the check, then a walk for the edges."""
    validate_forest_by_trees(f)
    kinds, edges, stack = {}, [], list(f.trees)
    while stack:
        node = stack.pop()
        kinds[node.label] = "D" if node.color == WHITE else "E"
        for c in node.children:
            edges.append((node.label, c.label))
            stack.append(c)
    return _tableau_of_edges(kinds, edges)


def validate_arc_diagram_by_find(d: ArcDiagram) -> None:
    """Reference for ``validate_arc_diagram``: connectivity by the number of
    parts a union-find leaves, each found by a nested ``find``."""
    bad = []
    points = d.points
    if any(a >= b for a, b in zip(points, points[1:])):
        raise ValidationError([Violation("bad-points", "points not strictly increasing")])
    pset = set(points)
    for i, j in d.arcs:
        if i >= j or i not in pset or j not in pset:
            bad.append(Violation("bad-arc", f"arc {(i, j)} off the points"))
    if bad:
        raise ValidationError(bad)
    outs = {i for i, _ in d.arcs}
    ins = {j for _, j in d.arcs}
    for p in sorted(outs & ins):
        bad.append(Violation("in-and-out", f"point {p} has both incoming and outgoing arcs"))
    if len(d.arcs) != len(points) - 1:
        bad.append(Violation("not-a-tree", f"{len(d.arcs)} arcs on {len(points)} points"))
    else:
        parent = {p: p for p in points}

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in d.arcs:
            parent[find(i)] = find(j)
        if len({find(p) for p in points}) > 1:
            bad.append(Violation("not-a-tree", "arcs do not connect all points"))
    if points:
        right = {i: j for i, j in d.arcs}
        left = {j: i for i, j in reversed(d.arcs)}
        for i, j in d.arcs:
            if (i, j) == (points[0], points[-1]):
                continue
            sides = int(right[i] == j) + int(left[j] == i)
            if sides != 1:
                bad.append(Violation("topmost", f"arc {(i, j)} is topmost on {sides} sides, expected 1"))
    if bad:
        raise ValidationError(bad)


def arcs_to_forest_by_walks(d: ArcDiagram) -> PlaneAltForest:
    """Reference for ``arcs_to_forest``: the diagram checked, the children
    found breadth first, the trees built, then the forest checked."""
    validate_arc_diagram_by_find(d)
    if len(d.points) < 2:
        raise DomainError("bad-points", "diagram needs at least the two virtual points")
    lo, hi = d.points[0], d.points[-1]
    roots = sorted(
        {i for i, j in d.arcs if j == hi and i != lo}
        | {j for i, j in d.arcs if i == lo and j != hi}
    )
    color = {p: BLACK for p in d.points[1:-1]}
    neighbors: dict[int, list[int]] = {p: [] for p in color}
    for i, j in d.arcs:
        if i != lo:
            color[i] = WHITE
        if i != lo and j != hi:
            neighbors[i].append(j)
            neighbors[j].append(i)
    children: dict[int, list[int]] = {}
    seen = set(roots)
    order = list(roots)
    for p in order:
        kids = [q for q in neighbors[p] if q not in seen]
        if color[p] == WHITE:
            kids.reverse()
        seen.update(kids)
        children[p] = kids
        order.extend(kids)
    built: dict[int, PlaneAltTree] = {}
    for p in reversed(order):
        built[p] = PlaneAltTree(color[p], p, tuple(built.pop(c) for c in children[p]))
    forest = PlaneAltForest(tuple(built[r] for r in roots))
    validate_forest_by_trees(forest)
    return forest


def binary_pair_inv_by_walks(pair: tuple[BinAltTree | None, BinAltTree | None]) -> AltTableau:
    """Reference for ``binary_pair_inv``: each tree checked, then one walk
    for the edges, each node's role read off the kind it is marked with."""
    b_min, b_max = pair
    validate_bin_tree(b_min, MIN_ROOTED)
    validate_bin_tree(b_max, MAX_ROOTED)
    kinds, edges = {}, []
    stack = [(b_min, None), (b_max, None)]
    while stack:
        node, parent = stack.pop()
        if node is None:
            continue
        if node.label in kinds:
            raise DomainError("label-collision", f"label {node.label} appears twice")
        white = node.kind == MIN_ROOTED
        kinds[node.label] = "D" if white else "E"
        if parent is not None:
            edges.append((parent, node.label))
        first, after = (node.left, node.right) if white else (node.right, node.left)
        stack.append((first, node.label))
        stack.append((after, parent))
    return _tableau_of_edges(kinds, edges)


# Reference for the corner table: every word with a ``DE`` takes a corner
# step, and every word E^a D^b is a leaf, as the table was built before the
# boundary steps (E.w and w.D one letter shorter) were read off directly.


def corner_table_at_every_corner(
    n: int, leaf: Callable[[int, int], V], qn: int = 1, qd: int = 1, xd: int = 1, yd: int = 1
) -> tuple[list[V], list[int]]:
    # A row or a column holds fewer than n cells.
    row_factor = [qd**e * yd for e in range(n)]
    col_factor = [qd**e * xd for e in range(n)]
    prev, prev_cells = [leaf(0, 0)], [0]
    for m in range(1, n + 1):
        cur: list[V] = []
        cells: list[int] = []
        for w in range(1 << m):
            split = _corner(w)
            if split is None:
                b = w.bit_length()
                cur.append(leaf(m - b, b))
                cells.append(0)
                continue
            swap, no_row, no_col = split
            c = cells[swap] + 1
            cur.append(
                qn * cur[swap]
                + row_factor[c - prev_cells[no_row]] * prev[no_row]
                + col_factor[c - prev_cells[no_col]] * prev[no_col]
            )
            cells.append(c)
        prev, prev_cells = cur, cells
    return prev, prev_cells
