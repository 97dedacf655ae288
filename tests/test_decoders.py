"""The tree decoders take their check and their output from one listing of
their input.  On every input, valid or hostile, each returns what its
reference in ``conftest`` returns (the decoder as a check walk, a build walk
and a check of what was built), or raises the same error: same type, code,
message and violation list."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alttab.core import AltTableau
from alttab.enumeration import all_tableaux
from alttab.errors import TableauError
from alttab.trees import (
    MAX_ROOTED,
    MIN_ROOTED,
    ArcDiagram,
    BinAltTree,
    PlaneAltForest,
    PlaneAltTree,
    arc_diagram,
    arcs_to_forest,
    binary_pair,
    binary_pair_inv,
    from_forest,
    to_forest,
)

from conftest import (
    arcs_to_forest_by_walks,
    binary_pair_inv_by_walks,
    from_forest_by_walks,
    tableaux,
)


def outcome(fn, arg):
    """What ``fn(arg)`` returns, or the type, message, code and violations
    of the error it raises."""
    try:
        return ("returned", fn(arg))
    except TableauError as err:
        return (type(err), str(err), getattr(err, "code", None), getattr(err, "violations", None))


def fresh_forest(f: PlaneAltForest) -> PlaneAltForest:
    return PlaneAltForest(f.trees)  # nothing remembered


def fresh_diagram(d: ArcDiagram) -> ArcDiagram:
    return ArcDiagram(d.points, d.arcs)


def assert_forest_decodes_as_reference(f: PlaneAltForest) -> None:
    assert outcome(from_forest, fresh_forest(f)) == outcome(from_forest_by_walks, fresh_forest(f))


def assert_diagram_decodes_as_reference(d: ArcDiagram) -> None:
    got = outcome(arcs_to_forest, fresh_diagram(d))
    assert got == outcome(arcs_to_forest_by_walks, fresh_diagram(d))
    if got[0] == "returned":
        forest = got[1]
        assert "_valid" in forest.__dict__
        assert from_forest(forest) == from_forest_by_walks(fresh_forest(forest))


def assert_pair_decodes_as_reference(pair) -> None:
    assert outcome(binary_pair_inv, pair) == outcome(binary_pair_inv_by_walks, pair)


# ---------------------------------------------------------------------------
# Every tableau up to n = 6


@pytest.mark.parametrize("n", range(7))
def test_every_image_decodes_as_the_reference(n):
    for t in all_tableaux(n):
        forest, diagram, pair = to_forest(t), arc_diagram(t), binary_pair(t)
        assert from_forest(fresh_forest(forest)) == from_forest_by_walks(forest) == t
        assert arcs_to_forest(fresh_diagram(diagram)) == arcs_to_forest_by_walks(diagram) == forest
        assert binary_pair_inv(pair) == binary_pair_inv_by_walks(pair) == t


# ---------------------------------------------------------------------------
# Hostile forests: random ones, and valid ones with one defect

_labels = st.integers(min_value=-2, max_value=9)
_colors = st.sampled_from(("W", "B", "W", "B", "X", "w"))


def random_forests():
    """Small forests of any colors (bad ones too), labels (negative and
    repeated ones too) and child orders."""
    trees = st.recursive(
        st.builds(PlaneAltTree, _colors, _labels),
        lambda kids: st.builds(PlaneAltTree, _colors, _labels, st.lists(kids, max_size=3).map(tuple)),
        max_leaves=8,
    )
    return st.lists(trees, max_size=4).map(lambda ts: PlaneAltForest(tuple(ts)))


def _nested(node: PlaneAltTree) -> list:
    return [node.color, node.label, [_nested(c) for c in node.children]]


def _built(item: list) -> PlaneAltTree:
    color, label, kids = item
    return PlaneAltTree(color, label, tuple(_built(c) for c in kids))


def _preorder(items: list) -> list:
    out = []
    for item in items:
        out.append(item)
        out.extend(_preorder(item[2]))
    return out


@st.composite
def defective_forests(draw):
    """The forest of a valid tableau with one defect: a bad or swapped
    color, children out of order, a label repeated within a tree or across
    trees, a negative label, a root that is not extremal, or a subtree moved
    under another node."""
    t = draw(tableaux(max_len=8))
    items = [_nested(tree) for tree in to_forest(t).trees]
    nodes = _preorder(items)
    if not nodes:
        return PlaneAltForest(())
    node = draw(st.sampled_from(nodes))
    defect = draw(
        st.sampled_from(
            ("recolor", "bad-color", "reorder", "repeat", "negative", "root", "move", "swap")
        )
    )
    if defect == "recolor":
        node[0] = "B" if node[0] == "W" else "W"
    elif defect == "bad-color":
        node[0] = draw(st.sampled_from(("X", "w", "", None)))
    elif defect == "reorder":
        node[2].reverse()
    elif defect == "repeat":
        node[1] = draw(st.sampled_from(nodes))[1]
    elif defect == "negative":
        node[1] = -1 - draw(st.integers(0, 2))
    elif defect == "root":  # a root labeled past every label of its tree
        root = draw(st.sampled_from(items))
        root[1] = len(t) + 1 if root[0] == "W" else 0
    elif defect == "move" and len(items) > 1:
        moved = items.pop(draw(st.integers(0, len(items) - 1)))
        draw(st.sampled_from(_preorder(items)))[2].append(moved)
    elif defect == "swap" and node[2]:
        node[1], node[2][0][1] = node[2][0][1], node[1]
    return PlaneAltForest(tuple(_built(item) for item in items))


@settings(max_examples=300)
@given(st.one_of(random_forests(), defective_forests()))
def test_hostile_forests_decode_as_the_reference(f):
    assert_forest_decodes_as_reference(f)


# ---------------------------------------------------------------------------
# Hostile arc diagrams


@st.composite
def random_diagrams(draw):
    """Points, strictly increasing or not, and any arcs among nearby
    numbers, negative ones too."""
    points = draw(st.lists(st.integers(-3, 8), max_size=7))
    if draw(st.booleans()):
        points = sorted(set(points))
    pair = st.tuples(st.integers(-3, 9), st.integers(-3, 9))
    return ArcDiagram(tuple(points), tuple(draw(st.lists(pair, max_size=8))))


@st.composite
def defective_diagrams(draw):
    """The diagram of a valid tableau with one defect: an arc dropped,
    added, doubled or with an end moved (so ``not-a-tree`` or
    ``in-and-out``), an arc that the tree needs traded for another that
    joins its two parts again (so ``in-and-out`` or ``topmost``), or every
    point shifted, below 0 too."""
    t = draw(tableaux(max_len=8))
    d = arc_diagram(t)
    arcs = list(d.arcs)
    points = d.points
    defect = draw(st.sampled_from(("drop", "add", "double", "move", "trade", "trade", "shift")))
    if defect == "trade":
        arcs.pop(draw(st.integers(0, len(arcs) - 1)))
        part = {points[0]}
        while True:  # the part of the first point
            grown = part | {q for a in arcs if part & set(a) for q in a}
            if grown == part:
                break
            part = grown
        a = draw(st.sampled_from(sorted(part)))
        b = draw(st.sampled_from(sorted(set(points) - part)))
        arcs.append((min(a, b), max(a, b)))
    elif defect == "drop":
        arcs.pop(draw(st.integers(0, len(arcs) - 1)))
    elif defect == "add":
        arcs.append(tuple(sorted(draw(st.lists(st.sampled_from(points), min_size=2, max_size=2)))))
    elif defect == "double":
        arcs.append(draw(st.sampled_from(arcs)))
    elif defect == "move":
        k = draw(st.integers(0, len(arcs) - 1))
        i, j = arcs[k]
        end = draw(st.sampled_from(points))
        arcs[k] = (i, end) if draw(st.booleans()) else (end, j)
    else:
        shift = draw(st.integers(-4, 3))
        points = tuple(p + shift for p in points)
        arcs = [(i + shift, j + shift) for i, j in arcs]
    return ArcDiagram(points, tuple(arcs))


@settings(max_examples=300)
@given(st.one_of(random_diagrams(), defective_diagrams()))
def test_hostile_diagrams_decode_as_the_reference(d):
    assert_diagram_decodes_as_reference(d)


@pytest.mark.parametrize(
    "d",
    [
        ArcDiagram((0, 1, 2, 3), ((0, 1), (1, 3), (0, 3))),  # in-and-out
        ArcDiagram((0, 1, 2, 3), ((0, 1), (0, 3))),  # not-a-tree: too few arcs
        ArcDiagram((0, 1, 2, 3), ((0, 1), (0, 1), (0, 3))),  # not-a-tree: not connected
        ArcDiagram((0, 1, 2, 3), ((0, 2), (1, 2), (1, 3))),  # topmost
        ArcDiagram((-2, -1, 0), ((-2, -1), (-2, 0))),  # a negative label
        ArcDiagram((5,), ()),  # too few points for a forest
    ],
    ids=["in-and-out", "too-few-arcs", "disconnected", "topmost", "negative", "one-point"],
)
def test_defective_diagrams_decode_as_the_reference(d):
    assert_diagram_decodes_as_reference(d)


# ---------------------------------------------------------------------------
# Hostile binary pairs

_kinds = st.sampled_from((MIN_ROOTED, MAX_ROOTED, MIN_ROOTED, MAX_ROOTED, "other"))


def random_bin_pairs():
    """Pairs of small binary trees of any labels and kinds."""
    trees = st.recursive(
        st.none(),
        lambda sub: st.builds(BinAltTree, _labels, sub, sub, _kinds),
        max_leaves=8,
    )
    return st.tuples(trees, trees)


def _bin_nested(node: BinAltTree | None):
    if node is None:
        return None
    return [node.label, _bin_nested(node.left), _bin_nested(node.right), node.kind]


def _bin_built(item) -> BinAltTree | None:
    if item is None:
        return None
    label, left, right, kind = item
    return BinAltTree(label, _bin_built(left), _bin_built(right), kind)


def _bin_preorder(item) -> list:
    if item is None:
        return []
    return [item, *_bin_preorder(item[1]), *_bin_preorder(item[2])]


@st.composite
def defective_bin_pairs(draw):
    """The binary pair of a valid tableau with one defect: a wrong kind, a
    label repeated within a tree or across the two (``label-collision``
    when the trees stay valid), a negative label, or a node's subtrees
    swapped."""
    t = draw(tableaux(max_len=8))
    items = [_bin_nested(tree) for tree in binary_pair(t)]
    nodes = _bin_preorder(items[0]) + _bin_preorder(items[1])
    if not nodes:
        return (None, None)
    node = draw(st.sampled_from(nodes))
    defect = draw(st.sampled_from(("kind", "repeat", "negative", "swap", "leaf-collision")))
    if defect == "kind":
        node[3] = draw(st.sampled_from((MIN_ROOTED, MAX_ROOTED, "other")))
    elif defect == "repeat":
        node[0] = draw(st.sampled_from(nodes))[0]
    elif defect == "negative":
        node[0] = -1
    elif defect == "swap":
        node[1], node[2] = node[2], node[1]
    else:  # a new leaf under the min root, carrying a label of either tree
        root = items[0]
        if root is not None and root[2] is None:
            root[2] = [draw(st.sampled_from(nodes))[0], None, None, MIN_ROOTED]
    return (_bin_built(items[0]), _bin_built(items[1]))


@settings(max_examples=300)
@given(st.one_of(random_bin_pairs(), defective_bin_pairs()))
def test_hostile_binary_pairs_decode_as_the_reference(pair):
    assert_pair_decodes_as_reference(pair)


SIX_FIVE = BinAltTree(6, BinAltTree(5, kind=MAX_ROOTED), kind=MAX_ROOTED)  # a left subtree
FIVE_SIX = BinAltTree(5, None, BinAltTree(6))  # a right subtree


@pytest.mark.parametrize(
    "pair",
    [
        (BinAltTree(1, None, BinAltTree(1)), None),  # within a tree
        (BinAltTree(1), BinAltTree(1, kind=MAX_ROOTED)),  # across the trees
        (
            BinAltTree(1, None, BinAltTree(2)),
            BinAltTree(2, BinAltTree(1, kind=MAX_ROOTED), kind=MAX_ROOTED),
        ),
        # Valid trees whose two subtrees list 5 and 6 in opposite orders:
        # which label is reported depends on which subtree is read first.
        (BinAltTree(1, SIX_FIVE, FIVE_SIX), None),
        (None, BinAltTree(9, SIX_FIVE, FIVE_SIX, MAX_ROOTED)),
    ],
    ids=["within", "across", "two-labels", "min-node-order", "max-node-order"],
)
def test_label_collisions_are_reported_as_the_reference_reports_them(pair):
    assert outcome(binary_pair_inv, pair)[2] == "label-collision"
    assert_pair_decodes_as_reference(pair)


def test_an_empty_pair_and_forest_decode_to_the_empty_tableau():
    empty = AltTableau((), "")
    assert binary_pair_inv((None, None)) == binary_pair_inv_by_walks((None, None)) == empty
    assert from_forest(PlaneAltForest(())) == from_forest_by_walks(PlaneAltForest(())) == empty
