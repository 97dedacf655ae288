"""Tree, forest, arc-diagram and binary-tree encodings."""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from alttab.core import (
    AltTableau,
    Arrow,
    empty_tableau,
    free_stats,
    from_perm_tableau,
    parse_tableau,
    relabel,
    render_tableau,
    standard_tableau,
    to_perm_tableau,
    transpose,
    validate_alt,
)
from alttab.decomposition import block, cut, divide, merge, merge_all, restrict, split
from alttab.enumeration import all_tableaux
from alttab.errors import (
    DomainError,
    ParseError,
    TableauError,
    ValidationError,
    Violation,
)
from alttab.oracles import (
    binary_pair_by_divide,
    binary_pair_inv_by_block,
    divide_by_closure,
    from_forest_by_block,
    split_by_closure,
    to_forest_by_cut,
    word_to_forest,
)
from alttab.permutations import from_permutation, parse_word, render_word, to_permutation
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
    crossings,
    forest_to_arcs,
    from_forest,
    from_tree,
    out_crossings,
    parse_arcs,
    parse_bin_pair,
    parse_forest,
    render_arcs,
    render_bin_pair,
    render_forest,
    render_tree,
    to_forest,
    to_tree,
    validate_arc_diagram,
    validate_bin_tree,
    validate_forest,
    validate_tree,
)

from conftest import (
    assert_as_public,
    free_stats_by_grid,
    from_perm_tableau_by_lists,
    merge_by_folding,
    tableaux,
)

T0_ARCS = {
    (3, 5), (4, 9), (6, 8), (6, 9), (7, 9), (10, 12),
    (0, 1), (0, 2), (0, 5), (0, 12),
    (4, 14), (11, 14), (13, 14),
    (0, 14),
}


def outcome(fn, arg):
    """``fn(arg)``, or the fact that it raised a domain error."""
    try:
        return fn(arg)
    except TableauError:
        return "raised"


_labels = st.integers(min_value=-1, max_value=7)


def forests(colors: str = "WB"):
    """Small forests of any colors, labels (-1 among them) and child orders,
    mostly invalid."""
    trees = st.recursive(
        st.builds(PlaneAltTree, st.sampled_from(colors), _labels),
        lambda kids: st.builds(
            PlaneAltTree, st.sampled_from(colors), _labels, st.lists(kids, max_size=3).map(tuple)
        ),
        max_leaves=6,
    )
    return st.lists(trees, max_size=3).map(lambda ts: PlaneAltForest(tuple(ts)))


def bin_pairs():
    """Pairs of small binary trees of any labels (-1 among them), mostly
    invalid; half of them carry the kinds their positions require."""
    trees = st.recursive(
        st.none(),
        lambda sub: st.builds(
            BinAltTree, _labels, sub, sub, st.sampled_from((MIN_ROOTED, MAX_ROOTED))
        ),
        max_leaves=6,
    )

    def marked(b, kind):
        if b is None:
            return None
        return BinAltTree(b.label, marked(b.left, MAX_ROOTED), marked(b.right, MIN_ROOTED), kind)

    pairs = st.tuples(trees, trees)
    kinded = pairs.map(lambda p: (marked(p[0], MIN_ROOTED), marked(p[1], MAX_ROOTED)))
    return st.one_of(pairs, kinded)


def quadratic_validate_tree(t: PlaneAltTree) -> None:
    """Reference for ``validate_tree``: recurse, reading each node's subtree
    labels afresh."""
    bad: list[Violation] = []
    seen: set[int] = set()

    def walk(node: PlaneAltTree) -> None:
        if node.label in seen:
            bad.append(Violation("duplicate-label", f"label {node.label} repeats"))
        seen.add(node.label)
        if node.label < 0:
            bad.append(Violation("label-order", f"negative label {node.label}"))
        if node.color not in ("W", "B"):
            bad.append(Violation("bad-color", f"color {node.color!r} at {node.label}"))
            return
        child_roots = [c.label for c in node.children]
        if node.color == "W":
            if any(c.color != "B" for c in node.children):
                bad.append(Violation("bad-color", f"white {node.label} has a white child"))
            if any(a <= b for a, b in zip(child_roots, child_roots[1:])):
                bad.append(Violation("bad-order", f"children of white {node.label} not decreasing"))
        else:
            if any(c.color != "W" for c in node.children):
                bad.append(Violation("bad-color", f"black {node.label} has a black child"))
            if any(a >= b for a, b in zip(child_roots, child_roots[1:])):
                bad.append(Violation("bad-order", f"children of black {node.label} not increasing"))
        rest = [l for c in node.children for l in c.labels()]
        if node.color == "W" and any(l <= node.label for l in rest):
            bad.append(Violation("not-minimal", f"white {node.label} is not minimal"))
        if node.color == "B" and any(l >= node.label for l in rest):
            bad.append(Violation("not-maximal", f"black {node.label} is not maximal"))
        for c in node.children:
            walk(c)

    walk(t)
    if bad:
        raise ValidationError(bad)


def quadratic_validate_forest(f: PlaneAltForest) -> None:
    if len(f.labels()) != sum(len(t.labels()) for t in f.trees):
        raise ValidationError([Violation("duplicate-label", "trees share labels")])
    for t in f.trees:
        quadratic_validate_tree(t)


def quadratic_validate_bin_tree(t: BinAltTree | None, kind: str) -> None:
    """Reference for ``validate_bin_tree``, in the same recursive form."""
    bad: list[Violation] = []

    def walk(node: BinAltTree, want: str) -> None:
        if node.label < 0:
            bad.append(Violation("label-order", f"negative label {node.label}"))
        if node.kind != want:
            bad.append(Violation("bad-kind", f"node {node.label} marked {node.kind}, expected {want}"))
        rest = node.labels() - {node.label}
        if want == MIN_ROOTED and any(l <= node.label for l in rest):
            bad.append(Violation("not-minimal", f"node {node.label} is not minimal"))
        if want == MAX_ROOTED and any(l >= node.label for l in rest):
            bad.append(Violation("not-maximal", f"node {node.label} is not maximal"))
        if node.left:
            walk(node.left, MAX_ROOTED)
        if node.right:
            walk(node.right, MIN_ROOTED)

    if t is not None:
        walk(t, kind)
    if bad:
        raise ValidationError(bad)


def violations(validate, *args) -> list[Violation] | None:
    """The violations ``validate(*args)`` raises, in order, or None."""
    try:
        validate(*args)
    except ValidationError as err:
        return err.violations
    return None


class TestValidators:
    @given(forests(colors="WBX"))
    def test_plane_validators_equal_the_quadratic_ones(self, f):
        assert violations(validate_forest, f) == violations(quadratic_validate_forest, f)
        for t in f.trees:
            assert violations(validate_tree, t) == violations(quadratic_validate_tree, t)

    def test_a_label_repeated_in_one_tree_is_that_trees_violation(self):
        tree = PlaneAltTree("W", 1, (PlaneAltTree("B", 3, (PlaneAltTree("W", 3),)),))
        want = violations(validate_tree, tree)
        assert [v.code for v in want] == ["not-maximal", "duplicate-label"]
        for check in (validate_forest, from_forest):
            assert violations(check, PlaneAltForest((tree,))) == want
            shared = violations(check, PlaneAltForest((tree, PlaneAltTree("B", 3))))
            assert [str(v) for v in shared] == ["duplicate-label: trees share labels"]

    @given(bin_pairs())
    def test_binary_validator_equals_the_quadratic_one(self, pair):
        for tree in pair:
            for kind in (MIN_ROOTED, MAX_ROOTED, "other"):
                assert violations(validate_bin_tree, tree, kind) == violations(
                    quadratic_validate_bin_tree, tree, kind
                )


# A tree, a forest, a binary tree and an arc diagram whose one defect is the
# negative label -1.
NEGATIVE_TREE = PlaneAltTree("W", -1, (PlaneAltTree("B", 2),))
NEGATIVE_BIN = BinAltTree(-1, BinAltTree(2, kind=MAX_ROOTED), None, MIN_ROOTED)
NEGATIVE_ARCS = ArcDiagram((-2, -1, 0), ((-2, 0), (-1, 0)))


@pytest.mark.parametrize(
    "entry, arg",
    [
        (validate_tree, NEGATIVE_TREE),
        (from_tree, NEGATIVE_TREE),
        (validate_forest, PlaneAltForest((NEGATIVE_TREE,))),
        (from_forest, PlaneAltForest((NEGATIVE_TREE,))),
        (arcs_to_forest, NEGATIVE_ARCS),
        (lambda b: validate_bin_tree(b, MIN_ROOTED), NEGATIVE_BIN),
        (binary_pair_inv, (NEGATIVE_BIN, None)),
    ],
    ids=[
        "validate_tree", "from_tree", "validate_forest", "from_forest", "arcs_to_forest",
        "validate_bin_tree", "binary_pair_inv",
    ],
)
def test_a_negative_label_is_refused_by_the_tree_validators(entry, arg):
    assert [v.code for v in violations(entry, arg)] == ["label-order"]


BIG = 10**5000


@pytest.mark.parametrize(
    "entry, arg, code",
    [
        (
            validate_forest,
            PlaneAltForest((PlaneAltTree("W", BIG, (PlaneAltTree("W", BIG + 1),)),)),
            "bad-color",
        ),
        (validate_tree, PlaneAltTree("B", BIG, (PlaneAltTree("W", BIG + 1),)), "not-maximal"),
        (validate_tree, PlaneAltTree(BIG, 1), "bad-color"),
        (
            lambda b: validate_bin_tree(b, MIN_ROOTED),
            BinAltTree(BIG, BinAltTree(1, kind=MAX_ROOTED), None, MIN_ROOTED),
            "not-minimal",
        ),
        (lambda b: validate_bin_tree(b, MIN_ROOTED), BinAltTree(1, kind=BIG), "bad-kind"),
    ],
    ids=["forest", "tree", "color", "binary", "kind"],
)
def test_a_big_label_is_shown_in_the_violation(entry, arg, code):
    # Shown as error messages show numbers, not by str(), which refuses it.
    found = violations(entry, arg)
    assert code in [v.code for v in found]
    assert "<a number too long to print>" in "; ".join(v.detail for v in found)


@pytest.mark.parametrize(
    "diagram, code",
    [
        (ArcDiagram((0, 1), ((0, BIG),)), "bad-arc"),
        (ArcDiagram((0, BIG, BIG + 1), ((0, BIG), (BIG, BIG + 1))), "in-and-out"),
        (ArcDiagram((0, BIG, BIG + 1), ((0, BIG), (BIG, BIG + 1))), "topmost"),
    ],
    ids=["bad-arc", "in-and-out", "topmost"],
)
def test_a_big_point_is_shown_in_the_arc_violation(diagram, code):
    found = [v for v in violations(validate_arc_diagram, diagram) if v.code == code]
    assert found and all("<a number too long to print>" in v.detail for v in found)


def test_a_big_label_in_a_forest_with_a_gap_is_a_domain_error():
    with pytest.raises(DomainError) as err:
        forest_to_arcs(PlaneAltForest((PlaneAltTree("W", BIG),)))
    assert err.value.code == "label-gap"
    assert "<a number too long to print>" in str(err.value)


def test_a_big_label_twice_in_a_binary_pair_is_a_domain_error():
    with pytest.raises(DomainError) as err:
        binary_pair_inv((BinAltTree(BIG), BinAltTree(BIG, kind=MAX_ROOTED)))
    assert err.value.code == "label-collision"


def deep_plane_chain(size: int) -> PlaneAltTree:
    """The valid path white 1 - black size - white 2 - black size-1 - ..."""
    chain = [label for k in range(size // 2) for label in (1 + k, size - k)]
    tree = None
    for depth in range(len(chain) - 1, -1, -1):
        color = "W" if depth % 2 == 0 else "B"
        tree = PlaneAltTree(color, chain[depth], (tree,) if tree else ())
    return tree


def deep_min_chain(size: int) -> BinAltTree:
    """The valid min-rooted tree 1 - 2 - ... - size, each node a right child."""
    tree = None
    for label in range(size, 0, -1):
        tree = BinAltTree(label, None, tree, MIN_ROOTED)
    return tree


@pytest.mark.parametrize(
    "entry",
    [
        validate_tree,
        lambda t: validate_forest(PlaneAltForest((t,))),
        from_tree,
        lambda t: from_forest(PlaneAltForest((t,))),
    ],
    ids=["validate_tree", "validate_forest", "from_tree", "from_forest"],
)
def test_deep_plane_tree_is_refused_by_the_depth_cap(entry):
    # Named for the 200-node cap such chains once hit: they now pass and round-trip.
    tree = deep_plane_chain(3000)
    entry(tree)
    t = from_tree(tree)
    assert len(t.arrows) == 2999 and to_tree(t) == tree
    forest = PlaneAltForest((tree,))
    assert to_forest(t) == parse_forest(render_forest(forest)) == forest


@pytest.mark.parametrize(
    "entry",
    [
        lambda b: validate_bin_tree(b, MIN_ROOTED),
        lambda b: binary_pair_inv((b, None)),
    ],
    ids=["validate_bin_tree", "binary_pair_inv"],
)
def test_deep_binary_tree_is_refused_by_the_depth_cap(entry):
    # Named for the 200-node cap such chains once hit: they now pass and round-trip.
    tree = deep_min_chain(3000)
    entry(tree)
    t = binary_pair_inv((tree, None))
    assert t == standard_tableau("D" * 3000)
    assert binary_pair(t) == parse_bin_pair(render_bin_pair((tree, None))) == (tree, None)


# Each text form of a tableau: the direct encoding and its inverse.
TEXT_FORMS = {
    "alt": (render_tableau, parse_tableau),
    "forest": (
        lambda t: render_forest(to_forest(t)),
        lambda text: from_forest(parse_forest(text)),
    ),
    "arcs": (
        lambda t: render_arcs(arc_diagram(t)),
        lambda text: from_forest(arcs_to_forest(parse_arcs(text))),
    ),
    "bintrees": (
        lambda t: render_bin_pair(binary_pair(t)),
        lambda text: binary_pair_inv(parse_bin_pair(text)),
    ),
    "perm": (
        lambda t: render_word(to_permutation(t)),
        lambda text: from_permutation(parse_word(text)),
    ),
}


@pytest.mark.parametrize("shape", ["chain", "random"])
def test_deep_tableaux_round_trip_through_every_text_form(shape):
    # A 3000-label tableau whose forest is one path, and the tableau of a
    # random 3001-letter permutation; every pair of forms goes through "alt".
    if shape == "chain":
        t = from_tree(deep_plane_chain(3000))
    else:
        t = from_permutation(tuple(random.Random(3001).sample(range(3001), 3001)))
    for form, (encode, decode) in TEXT_FORMS.items():
        assert decode(encode(t)) == t, form


def reference_classes():
    """The two node classes as plain dataclasses, with generated ``==``,
    ``hash`` and ``repr``, under the same names."""
    plane = dataclasses.make_dataclass(
        "PlaneAltTree", ["color", "label", ("children", tuple, ())], frozen=True
    )
    binary = dataclasses.make_dataclass(
        "BinAltTree",
        ["label", ("left", object, None), ("right", object, None), ("kind", str, "min")],
        frozen=True,
    )
    return plane, binary


def as_reference(tree, plane, binary):
    if isinstance(tree, PlaneAltTree):
        kids = tuple(as_reference(c, plane, binary) for c in tree.children)
        return plane(tree.color, tree.label, kids)
    if tree is None:
        return None
    left, right = (as_reference(c, plane, binary) for c in (tree.left, tree.right))
    return binary(tree.label, left, right, tree.kind)


@pytest.mark.parametrize("n", range(7))
def test_tree_values_compare_hash_and_print_as_dataclasses_do(n):
    plane, binary = reference_classes()
    flip = {"W": "B", "B": "W", MIN_ROOTED: MAX_ROOTED, MAX_ROOTED: MIN_ROOTED}
    for t in all_tableaux(n):
        trees = [*to_forest(t).trees, *binary_pair(t)]
        # The same trees with the root's color or kind flipped.
        trees += [dataclasses.replace(p, color=flip[p.color]) for p in to_forest(t).trees]
        trees += [dataclasses.replace(b, kind=flip[b.kind]) for b in binary_pair(t) if b]
        refs = [as_reference(tree, plane, binary) for tree in trees]
        for tree, ref in zip(trees, refs):
            assert repr(tree) == repr(ref) and hash(tree) == hash(ref)
            assert [tree == other for other in trees] == [ref == other for other in refs]


def test_deep_tree_values_compare_hash_and_print():
    size = 20_000
    plane, binary = deep_plane_chain(size), deep_min_chain(size)
    assert plane.size() == binary.size() == size
    for tree, same, other in [
        (plane, deep_plane_chain(size), deep_plane_chain(size - 2)),
        (binary, deep_min_chain(size), BinAltTree(1, None, deep_min_chain(size).right.right)),
    ]:
        assert tree is not same and tree == same and hash(tree) == hash(same)
        assert tree != other and tree != None  # noqa: E711
    # Each identity below is the dataclass definition, one level deep.
    assert hash(plane) == hash((plane.color, plane.label, plane.children))
    assert hash(binary) == hash((binary.label, binary.left, binary.right, binary.kind))
    assert repr(plane) == (
        f"PlaneAltTree(color={plane.color!r}, label={plane.label!r}, children={plane.children!r})"
    )
    assert repr(binary) == (
        f"BinAltTree(label={binary.label!r}, left={binary.left!r}, right={binary.right!r},"
        f" kind={binary.kind!r})"
    )
    labels = [label for k in range(size // 2) for label in (1 + k, size - k)]
    opens = "".join(
        f"PlaneAltTree(color='{'W' if d % 2 == 0 else 'B'}', label={label}, children=("
        for d, label in enumerate(labels)
    )
    assert repr(plane) == opens + "))" + ",))" * (size - 1)
    opens = "".join(f"BinAltTree(label={k}, left=None, right=" for k in range(1, size + 1))
    assert repr(binary) == opens + "None" + ", kind='min')" * size
    forest = PlaneAltForest((plane,))
    assert repr(forest) == f"PlaneAltForest(trees=({plane!r},))"
    assert forest == PlaneAltForest((deep_plane_chain(size),)) and hash(forest) == hash(forest)


@pytest.mark.parametrize(
    "copier",
    [lambda value: pickle.loads(pickle.dumps(value)), copy.deepcopy],
    ids=["pickle", "deepcopy"],
)
def test_deep_values_pickle_and_copy(copier):
    size = 100_000
    plane, binary = deep_plane_chain(size), deep_min_chain(size)
    t = from_tree(deep_plane_chain(size))
    to_forest(t), binary_pair(t)  # remembered on t, so they travel with it
    for value in (plane, binary, PlaneAltForest((plane,)), t):
        back = copier(value)
        assert back is not value and back == value and hash(back) == hash(value)
    assert {"_forest", "_binary_pair"} <= set(back.__dict__)
    assert back.__dict__ == t.__dict__


def test_tree_values_pickle_and_copy_in_every_shape():
    for n in range(6):
        for t in all_tableaux(n):
            values = [to_forest(t), *to_forest(t).trees, binary_pair(t), *binary_pair(t)]
            for value in values:
                for back in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
                    assert back == value and repr(back) == repr(value)


# The forest "(W 4 (B 9 (W 6 (B 8)) (W 7))) (B 5)", its first tree and its
# binary pair as pickled when ``_plane_tree`` and ``_bin_tree`` took the
# node list alone.
OLD_PICKLES = {
    "tree": (
        b"\x80\x04\x95T\x00\x00\x00\x00\x00\x00\x00\x8c\x0calttab.trees\x94\x8c\x0b_plane_tree"
        b"\x94\x93\x94]\x94(\x8c\x01B\x94K\x08K\x00\x87\x94\x8c\x01W\x94K\x06K\x01\x87\x94h\x06"
        b"K\x07K\x00\x87\x94h\x04K\tK\x02\x87\x94h\x06K\x04K\x01\x87\x94e\x85\x94R\x94."
    ),
    "pair": (
        b"\x80\x04\x95o\x00\x00\x00\x00\x00\x00\x00\x8c\x0calttab.trees\x94\x8c\t_bin_tree\x94"
        b"\x93\x94]\x94((K\x08\x8c\x03max\x94\x89\x89t\x94(K\x07\x8c\x03min\x94\x89\x89t\x94(K"
        b"\x06h\x06\x88\x88t\x94(K\th\x04\x89\x88t\x94(K\x04h\x06\x88\x89t\x94e\x85\x94R\x94h"
        b"\x02]\x94(K\x05h\x04\x89\x89t\x94a\x85\x94R\x94\x86\x94."
    ),
    "forest": (
        b"\x80\x04\x95\x8b\x00\x00\x00\x00\x00\x00\x00\x8c\x0calttab.trees\x94\x8c\x0ePlaneAlt"
        b"Forest\x94\x93\x94)\x81\x94}\x94\x8c\x05trees\x94h\x00\x8c\x0b_plane_tree\x94\x93\x94"
        b"]\x94(\x8c\x01B\x94K\x08K\x00\x87\x94\x8c\x01W\x94K\x06K\x01\x87\x94h\x0bK\x07K\x00"
        b"\x87\x94h\tK\tK\x02\x87\x94h\x0bK\x04K\x01\x87\x94e\x85\x94R\x94h\x07]\x94h\tK\x05K"
        b"\x00\x87\x94a\x85\x94R\x94\x86\x94sb."
    ),
}


def test_tree_values_pickle_to_the_bytes_older_versions_wrote():
    # Tree pickles name the rebuild functions ``alttab.trees._plane_tree`` and
    # ``_bin_tree``; the bytes stay those older versions wrote, so pickles
    # written before load now, and the other way round.
    forest = parse_forest("(W 4 (B 9 (W 6 (B 8)) (W 7))) (B 5)")
    pair = binary_pair(from_forest(forest))
    assert pickle.dumps(forest.trees[0], 4) == OLD_PICKLES["tree"]
    assert pickle.dumps(pair, 4) == OLD_PICKLES["pair"]


def test_older_pickles_of_tree_values_still_load():
    forest = parse_forest("(W 4 (B 9 (W 6 (B 8)) (W 7))) (B 5)")
    want = {"tree": forest.trees[0], "pair": binary_pair(from_forest(forest)), "forest": forest}
    for name, data in OLD_PICKLES.items():
        back = pickle.loads(data)
        assert back == want[name] and repr(back) == repr(want[name]), name


class TestPlaneTrees:
    def test_corpus_component_tree(self, t0):
        component = restrict(t0, {4, 6, 7, 8, 9})
        tree = to_tree(component)
        assert tree == PlaneAltTree(
            "W", 4,
            (PlaneAltTree("B", 9, (PlaneAltTree("W", 6, (PlaneAltTree("B", 8),)),
                                   PlaneAltTree("W", 7))),),
        )
        assert render_tree(tree) == "(W 4 (B 9 (W 6 (B 8)) (W 7)))"
        assert from_tree(tree) == component

    def test_leaf(self):
        assert to_tree(relabel(standard_tableau("D"), [7])) == PlaneAltTree("W", 7)

    def test_column_packed_pair(self, t0):
        tree = to_tree(restrict(t0, {3, 5}))
        assert tree == PlaneAltTree("B", 5, (PlaneAltTree("W", 3),))

    def test_not_packed(self, t0):
        with pytest.raises(DomainError) as err:
            to_tree(t0)
        assert err.value.code == "not-packed"

    def test_corpus_forest_roots(self, t0):
        forest = to_forest(t0)
        assert [(t.color, t.label) for t in forest.trees] == [
            ("B", 1), ("B", 2), ("W", 4), ("B", 5), ("W", 11), ("B", 12), ("W", 13),
        ]
        validate_forest(forest)

    def test_empty_forest(self):
        assert to_forest(empty_tableau()) == PlaneAltForest()

    @pytest.mark.parametrize("n", range(7))
    def test_forest_roundtrip_exhaustive(self, n):
        for t in all_tableaux(n):
            forest = to_forest(t)
            validate_forest(forest)
            assert forest.size() == n
            assert from_forest(forest) == t

    @pytest.mark.parametrize("n", range(8))
    def test_forest_equals_the_cut_split_construction(self, n):
        memo: dict = {}
        for t in all_tableaux(n):
            assert to_forest(t) == to_forest_by_cut(t, memo)

    @given(forests())
    def test_from_forest_agrees_with_the_block_construction(self, f):
        assert outcome(from_forest, f) == outcome(from_forest_by_block, f)

    def test_validator_rejects_wrong_order(self):
        bad = PlaneAltTree("B", 9, (PlaneAltTree("W", 7), PlaneAltTree("W", 6)))
        with pytest.raises(ValidationError):
            validate_tree(bad)

    def test_validator_rejects_non_minimal_white(self):
        bad = PlaneAltTree("W", 9, (PlaneAltTree("B", 3),))
        with pytest.raises(ValidationError):
            validate_tree(bad)

    @pytest.mark.parametrize(
        "check",
        [validate_tree, lambda t: validate_forest(PlaneAltForest((t,))),
         lambda t: from_forest(PlaneAltForest((t,)))],
        ids=["validate_tree", "validate_forest", "from_forest"],
    )
    def test_a_smaller_label_below_a_later_child_is_not_minimal(self, check):
        # 2 sits below the second child, so the smallest label under white 5
        # is in the subtree of a child other than the first.
        bad = PlaneAltTree(
            "W", 5, (PlaneAltTree("B", 9), PlaneAltTree("B", 7, (PlaneAltTree("W", 2),)))
        )
        with pytest.raises(ValidationError) as err:
            check(bad)
        assert [v.code for v in err.value.violations] == ["not-minimal"]

    @given(tableaux(max_len=10))
    def test_forest_roundtrip_random(self, t):
        assert from_forest(to_forest(t)) == t


class TestArcDiagrams:
    def test_corpus_arcs(self, t0):
        d = arc_diagram(t0)
        assert d.points == tuple(range(15))
        assert set(d.arcs) == T0_ARCS and len(d.arcs) == 14
        validate_arc_diagram(d)

    def test_single_row(self):
        d = arc_diagram(standard_tableau("D"))
        assert d.points == (0, 1, 2) and set(d.arcs) == {(1, 2), (0, 2)}

    def test_empty(self):
        d = arc_diagram(empty_tableau())
        assert d.points == (0, 1) and d.arcs == ((0, 1),)

    def test_agrees_with_forest_route(self, t0):
        assert forest_to_arcs(to_forest(t0)) == arc_diagram(t0)

    def test_forest_route_needs_contiguous_labels(self):
        forest = PlaneAltForest((PlaneAltTree("W", 3),))
        with pytest.raises(DomainError) as err:
            forest_to_arcs(forest)
        assert err.value.code == "label-gap"

    @pytest.mark.parametrize("n", range(7))
    def test_identities_exhaustive(self, n):
        for t in all_tableaux(n):
            forest = to_forest(t)
            d = arc_diagram(t)
            validate_arc_diagram(d)
            assert d == forest_to_arcs(forest)
            assert arcs_to_forest(d) == forest

    def test_validator_in_out(self):
        with pytest.raises(ValidationError) as err:
            validate_arc_diagram(ArcDiagram((0, 1, 2), ((0, 1), (1, 2))))
        assert any(v.code == "in-and-out" for v in err.value.violations)

    def test_validator_tree_condition(self):
        with pytest.raises(ValidationError) as err:
            validate_arc_diagram(ArcDiagram((0, 1, 2, 3), ((0, 1), (2, 3))))
        assert any(v.code == "not-a-tree" for v in err.value.violations)

    def test_corpus_out_crossings(self, t0):
        assert out_crossings(arc_diagram(t0)) == {(4, 5), (4, 12), (7, 8), (11, 12)}

    def test_single_free_cell_out_crossing(self):
        assert out_crossings(arc_diagram(standard_tableau("DE"))) == {(1, 2)}

    def test_no_out_crossings_single_row(self):
        assert out_crossings(arc_diagram(standard_tableau("D"))) == frozenset()

    @pytest.mark.parametrize("n", range(7))
    def test_out_crossings_are_free_cells(self, n):
        for t in all_tableaux(n):
            assert out_crossings(arc_diagram(t)) == free_stats(t).free_cells

    @pytest.mark.parametrize("n", range(7))
    def test_no_free_cells_means_noncrossing(self, n):
        for t in all_tableaux(n):
            if free_stats(t).fcell == 0:
                assert crossings(arc_diagram(t)) == frozenset()


class TestBinaryTrees:
    def test_two_free_rows(self):
        tree = binary_pair(standard_tableau("DD"))[0]
        assert tree == BinAltTree(1, None, BinAltTree(2, kind=MIN_ROOTED), MIN_ROOTED)

    def test_up_arrow_goes_left(self):
        tree = binary_pair(standard_tableau("DE", [(1, 2, "U")]))[0]
        assert tree == BinAltTree(1, BinAltTree(2, kind=MAX_ROOTED), None, MIN_ROOTED)

    def test_pair_of_leaves(self):
        pair = binary_pair(standard_tableau("DE"))
        assert pair == (BinAltTree(1, kind=MIN_ROOTED), BinAltTree(2, kind=MAX_ROOTED))

    @pytest.mark.parametrize("k", range(1, 6))
    def test_min_tree_count_is_factorial(self, k):
        trees = set()
        for t in all_tableaux(k):
            if free_stats(t).fcol == 0:
                tree = binary_pair(t)[0]
                validate_bin_tree(tree, MIN_ROOTED)
                assert binary_pair_inv((tree, None)) == t
                trees.add(tree)
        assert len(trees) == math.factorial(k)

    @pytest.mark.parametrize("n", range(6))
    def test_pair_roundtrip_exhaustive(self, n):
        images = set()
        for t in all_tableaux(n):
            pair = binary_pair(t)
            validate_bin_tree(pair[0], MIN_ROOTED)
            validate_bin_tree(pair[1], MAX_ROOTED)
            assert binary_pair_inv(pair) == t
            images.add(pair)
        assert len(images) == math.factorial(n + 1)

    @pytest.mark.parametrize("n", range(7))
    def test_pair_equals_the_divide_construction(self, n):
        memo: dict = {}
        for t in all_tableaux(n):
            assert binary_pair(t) == binary_pair_by_divide(t, memo)

    @given(bin_pairs())
    def test_pair_inverse_agrees_with_the_block_construction(self, pair):
        assert outcome(binary_pair_inv, pair) == outcome(binary_pair_inv_by_block, pair)

    def test_validator_rejects_bad_left_child(self):
        bad = BinAltTree(2, BinAltTree(1, kind=MAX_ROOTED), None, MIN_ROOTED)
        with pytest.raises(ValidationError):
            validate_bin_tree(bad, MIN_ROOTED)


def test_depth_guard():
    # A valid alternating chain of 201 vertices, one more than the old depth
    # cap allowed, checks and round-trips.
    tree = PlaneAltTree("W", 100)
    lo, hi = 99, 100
    for _ in range(100):
        hi += 1
        tree = PlaneAltTree("B", hi, (tree,))
        tree = PlaneAltTree("W", lo, (tree,))
        lo -= 1
    validate_tree(tree)
    assert to_tree(from_tree(tree)) == tree


@st.composite
def large_words_and_corruptions(draw):
    """A random permutation of 0..n for n in 100..200, and one arrow to add
    to its tableau that breaks validity."""
    n = draw(st.integers(min_value=100, max_value=200))
    word = tuple(draw(st.permutations(range(n + 1))))
    return word, draw(st.sampled_from(("duplicate", "off-shape", "pointed"))), draw(st.randoms())


def corrupt(t: AltTableau, how: str, rng) -> AltTableau:
    """``t`` with one more arrow: on an occupied cell, off the shape, or on a
    cell another arrow points at."""
    if not t.arrows:
        return AltTableau(t.labels, t.word, (Arrow(t.labels[-1], t.labels[0], "L"),))
    a = rng.choice(t.arrows)
    extra = Arrow(a.row, a.col, "U" if a.kind == "L" else "L")
    if how == "off-shape":
        extra = Arrow(a.col, a.row, a.kind)
    elif how == "pointed" and a.kind == "L":
        pointed = [j for j in t.columns if j > a.col]
        if pointed:
            extra = Arrow(a.row, rng.choice(pointed), "U")
    elif how == "pointed":
        pointed = [i for i in t.rows if i < a.row]
        if pointed:
            extra = Arrow(rng.choice(pointed), a.col, "L")
    return AltTableau(t.labels, t.word, t.arrows + (extra,))


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(large_words_and_corruptions())
def test_direct_paths_equal_the_recursive_constructions_at_large_n(drawn):
    word, how, rng = drawn
    t = from_permutation(word)
    assert t == from_forest(word_to_forest(word))
    assert free_stats(t) == free_stats_by_grid(t)
    p = to_perm_tableau(t)
    assert from_perm_tableau(p) == from_perm_tableau_by_lists(p) == t
    parts = split(t)
    assert merge_all(parts) == merge_by_folding(parts) == t
    assert to_forest(t) == to_forest_by_cut(t)
    assert to_permutation(t) == word and from_permutation(to_permutation(t)) == t
    pair = binary_pair(t)
    assert pair == binary_pair_by_divide(t) and binary_pair_inv(pair) == t
    assert split(t) == split_by_closure(t) and divide(t) == divide_by_closure(t)
    # Every builder makes what the public constructor makes of its fields.
    n = len(t)
    built = [t, from_perm_tableau(p), *parts, merge_all(parts), *divide(t), merge(*divide(t))]
    built += [transpose(t), relabel(t, range(2, n + 2)), binary_pair_inv(pair)]
    built += [from_forest(to_forest(t)), validate_alt(t.labels, t.word, t.arrows[::-1])]
    built += [block(t, "row", n + 1), block(relabel(t, range(2, n + 2)), "col", 1)]
    for axis in ("row", "col"):
        try:
            built.append(cut(t, axis))
        except DomainError:
            pass
    for b in built:
        assert_as_public(b)
    bad = corrupt(t, how, rng)
    assert free_stats(bad) == free_stats_by_grid(bad)
    for direct in (to_forest, split, divide, binary_pair):
        with pytest.raises(TableauError):
            direct(bad)


class TestTextFormats:
    def test_forest_text_roundtrip(self, t0):
        text = render_forest(to_forest(t0))
        assert text.startswith("(B 1) (B 2) (W 4 (B 9 (W 6 (B 8)) (W 7)))")
        assert parse_forest(text) == to_forest(t0)

    def test_forest_empty_text(self):
        assert render_forest(PlaneAltForest()) == ""
        assert parse_forest("") == PlaneAltForest()

    def test_forest_parse_error(self):
        with pytest.raises(ParseError):
            parse_forest("(W 4")
        with pytest.raises(ParseError):
            parse_forest("(Q 4)")

    def test_arcs_text(self, t0):
        text = render_arcs(arc_diagram(t0))
        assert text.startswith("points=0..14 arcs=(0,1)(0,2)(0,5)(0,12)(0,14)")
        assert parse_arcs(text) == arc_diagram(t0)

    def test_arcs_parse_error(self):
        with pytest.raises(ParseError):
            parse_arcs("points=0-14 arcs=")

    @pytest.mark.parametrize(
        "parse, text, message",
        [
            (parse_forest, "(W 1", "expected ')' (at position 4)"),
            (parse_forest, "(X 1)", "expected color W or B (at position 1)"),
            (parse_forest, "(W x)", "expected label (at position 3)"),
            (parse_forest, "W 1)", "expected '(' (at position 0)"),
            (parse_forest, "(W 1 (B 2)", "expected ')' (at position 10)"),
            (parse_forest, "(W 1))", "expected '(' (at position 5)"),
            (parse_forest, "(W 1 (B 2 (W", "expected label (at position 12)"),
            (parse_forest, "(W 1 B)", "expected ')' (at position 5)"),
            (parse_forest, "(B 5 (W 3)) (W", "expected label (at position 14)"),
            (parse_forest, "(W 1   ?? (B 2))", "unexpected '??' (2 characters) (at position 7)"),
            (parse_forest, "(W 1)   !!", "unexpected '!!' (2 characters) (at position 8)"),
            (parse_bin_pair, "", "expected '(' or '-' (at position 0)"),
            (parse_bin_pair, "(1 L:- R:-)", "expected '(' or '-' (at position 11)"),
            (parse_bin_pair, "(1 R:- L:-) -", "expected '<label> L:' (at position 1)"),
            (parse_bin_pair, "(1 L:- -) -", "expected 'R:' (at position 6)"),
            (parse_bin_pair, "(1 L:- R:- -", "expected ')' (at position 11)"),
            (parse_bin_pair, "(1 L:(2 L:- R:-) R:-) - x", "trailing input 'x' (1 characters) (at position 23)"),
            (parse_bin_pair, "( L:- R:-) -", "expected '<label> L:' (at position 1)"),
            (parse_bin_pair, "(1 L:x R:-) -", "expected '(' or '-' (at position 5)"),
            (parse_bin_pair, "(2 L:(1 L:- R:-) R:(3 L:- R:- -", "expected ')' (at position 30)"),
        ],
    )
    def test_parse_errors_name_their_position(self, parse, text, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert str(err.value) == message

    def test_parse_error_at_the_end_of_a_deep_tree(self):
        forest_text = render_forest(PlaneAltForest((deep_plane_chain(3000),)))[:-1]
        with pytest.raises(ParseError, match=rf"expected '\)' \(at position {len(forest_text)}\)"):
            parse_forest(forest_text)
        pair_text = render_bin_pair((deep_min_chain(3000), None)).replace(" R:-", " R:", 1)
        with pytest.raises(ParseError) as err:
            parse_bin_pair(pair_text)
        assert str(err.value) == f"expected '(' or '-' (at position {pair_text.index(' R:)') + 3})"

    def test_bin_pair_text(self):
        pair = binary_pair(standard_tableau("DE"))
        assert render_bin_pair(pair) == "(1 L:- R:-) (2 L:- R:-)"
        assert parse_bin_pair(render_bin_pair(pair)) == pair

    def test_bin_pair_empty(self):
        pair = binary_pair(empty_tableau())
        assert render_bin_pair(pair) == "- -"
        assert parse_bin_pair("- -") == (None, None)

    @given(tableaux(max_len=9))
    def test_all_text_roundtrips(self, t):
        forest = to_forest(t)
        assert parse_forest(render_forest(forest)) == forest
        if t.is_standard():
            d = arc_diagram(t)
            assert parse_arcs(render_arcs(d)) == d
        pair = binary_pair(t)
        assert parse_bin_pair(render_bin_pair(pair)) == pair

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_arcs, "points=0..%s arcs=" % ("1" * 5000)),
            (parse_arcs, "points=0..2 arcs=(0,%s)" % ("1" * 5000)),
            (parse_forest, "(W %s)" % ("1" * 5000)),
            (parse_bin_pair, "(%s L:- R:-) -" % ("1" * 5000)),
        ],
        ids=["arcs-points", "arcs-arc", "forest", "bintrees"],
    )
    def test_number_beyond_the_digit_limit_is_a_parse_error(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)

    def test_arcs_point_range_is_checked_against_the_arcs_before_it_is_built(self):
        # A huge range with few arcs is refused on the counts alone.
        with pytest.raises(ValidationError) as err:
            parse_arcs("points=0..%d arcs=" % 10**15)
        assert [v.code for v in err.value.violations] == ["not-a-tree"]

    def test_arcs_text_beyond_the_depth_cap_parses(self):
        d = arc_diagram(standard_tableau("DE" * 150))
        assert len(d.points) == 302
        assert parse_arcs(render_arcs(d)) == d
