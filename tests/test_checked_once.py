"""Each tableau, forest and arc diagram is checked once and each image of a
tableau is built once: a passed check, the row and column tuples, the free
statistics, the forest, the arc diagram and the binary pair are remembered on
the immutable value, a failed check is not, and nothing remembered changes
the value."""

from __future__ import annotations

import copy
import dataclasses
import io
import pickle

import pytest
from hypothesis import given

from alttab import core, decomposition, oracles, trees
from alttab.core import (
    AltTableau,
    Arrow,
    free_stats,
    parse_tableau,
    to_perm_tableau,
    validate_alt,
)
from alttab.cli import main
from alttab.decomposition import _tableau_from_edges, merge_all, split
from alttab.enumeration import all_tableaux, symmetric_tableaux
from alttab.errors import ValidationError
from alttab.permutations import (
    from_permutation,
    to_permutation,
    to_permutation_by_insertion,
    to_signed_permutation,
)
from alttab.trees import (
    ArcDiagram,
    PlaneAltForest,
    PlaneAltTree,
    arc_diagram,
    arcs_to_forest,
    binary_pair,
    binary_pair_inv,
    forest_to_arcs,
    from_forest,
    parse_arcs,
    render_arcs,
    to_forest,
    validate_arc_diagram,
    validate_forest,
)

from conftest import T0_COMPACT, free_stats_by_grid, raw_tableaux

CONVERSIONS = (
    to_forest,
    to_permutation,
    arc_diagram,
    split,
    binary_pair,
    to_perm_tableau,
    to_permutation_by_insertion,
)

# Where each image of a tableau is remembered in its ``__dict__``.
IMAGES = {"_forest", "_arc_diagram", "_binary_pair"}
FIELDS = {"labels", "word", "arrows"}

# T0 with one more arrow that breaks it: on an occupied cell, off the shape,
# and on a cell the left arrow at (3, 5) points at.
BAD_ARROWS = [Arrow(3, 5, "U"), Arrow(5, 3, "L"), Arrow(3, 9, "U")]


def count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def violations(fn, arg):
    with pytest.raises(ValidationError) as err:
        fn(arg)
    return err.value.violations


@pytest.mark.parametrize("extra", BAD_ARROWS, ids=["occupied", "off-shape", "pointed"])
@pytest.mark.parametrize(
    "fn",
    (
        to_forest,
        split,
        arc_diagram,
        binary_pair,
        to_perm_tableau,
        to_permutation_by_insertion,
        to_permutation,
    ),
)
def test_a_failed_check_is_not_remembered(fn, extra):
    t0 = parse_tableau(T0_COMPACT)
    bad = AltTableau(t0.labels, t0.word, t0.arrows + (extra,))
    want = violations(lambda t: validate_alt(t.labels, t.word, t.arrows), bad)
    assert [violations(fn, bad) for _ in range(3)] == [want] * 3
    assert set(bad.__dict__) == FIELDS  # no pass, no image


def test_a_forest_that_fails_fails_again():
    # A white node with a white child.
    forest = PlaneAltForest((PlaneAltTree("W", 1, (PlaneAltTree("W", 2),)),))
    want = violations(validate_forest, forest)
    assert [violations(validate_forest, forest) for _ in range(2)] == [want] * 2
    assert violations(from_forest, forest) == want
    assert violations(forest_to_arcs, forest) == want


def test_each_tableau_is_checked_once(monkeypatch):
    calls = count_calls(monkeypatch, core, "_alt_violations")
    t = from_permutation((5, 3, 0, 4, 1, 2, 6))
    for fn in CONVERSIONS:
        fn(t)
        fn(t)
    assert len(calls) == 1
    parsed = parse_tableau(T0_COMPACT)
    for fn in CONVERSIONS:
        fn(parsed)
    assert len(calls) == 2  # the parse's check is the only one


def test_each_forest_is_checked_once(monkeypatch):
    # One shared pass checks a whole forest, on the listing its edges are
    # read from; ``arcs_to_forest`` runs it as it makes the nodes, so the
    # forest it returns is not checked again.
    t = parse_tableau(T0_COMPACT)
    forest = to_forest(t)
    assert len(forest.trees) > 1
    calls = count_calls(monkeypatch, trees, "_plane_violations")
    assert from_forest(forest) == from_forest(forest) == t
    assert len(calls) == 1
    calls.clear()
    assert from_forest(arcs_to_forest(arc_diagram(t))) == t
    assert len(calls) == 1
    # A forest that fails runs the pass again on every call, and then its
    # validator's report.
    bad = PlaneAltForest((PlaneAltTree("W", 1, (PlaneAltTree("W", 2),)),))
    calls.clear()
    for _ in range(2):
        with pytest.raises(ValidationError):
            from_forest(bad)
    assert len(calls) == 4 and core._VALID not in bad.__dict__


def test_each_image_is_built_once():
    for t in (parse_tableau(T0_COMPACT), from_permutation((5, 3, 0, 4, 1, 2, 6))):
        assert to_forest(t) is to_forest(t)
        assert arc_diagram(t) is arc_diagram(t)
        assert binary_pair(t) is binary_pair(t)
        assert IMAGES <= set(t.__dict__)


def test_the_arrow_forest_is_built_once_per_tableau(monkeypatch):
    # Every reader takes the forest remembered on the tableau and leaves its
    # lists as they were built.
    build = decomposition._forest_of_arrows
    builds = count_calls(monkeypatch, decomposition, "_forest_of_arrows")
    tableaux = [parse_tableau(T0_COMPACT), from_permutation((5, 3, 0, 4, 1, 2, 6))]
    tableaux += all_tableaux(4)
    for t in tableaux:
        for fn in (to_forest, arc_diagram, split, binary_pair, decomposition.divide):
            fn(t)
            fn(t)
        assert t.__dict__["_arrow_forest"] == build(t)
    assert [args[0] for args in builds] == tableaux


def test_the_words_are_read_off_the_arrows_without_the_plane_forest():
    # ``to_permutation`` and ``to_signed_permutation`` walk the arrow forest;
    # neither builds the plane forest.
    for t in [parse_tableau(T0_COMPACT), *all_tableaux(4)]:
        to_permutation(t)
        assert "_forest" not in t.__dict__
    for t in symmetric_tableaux(6):
        to_signed_permutation(t)
        assert "_forest" not in t.__dict__


def test_images_are_not_marked_checked_until_they_are(monkeypatch):
    t = parse_tableau(T0_COMPACT)
    forest, diagram = to_forest(t), arc_diagram(t)
    assert core._VALID not in forest.__dict__ and core._VALID not in diagram.__dict__
    trees_checked = count_calls(monkeypatch, trees, "_plane_violations")
    arcs_checked = count_calls(monkeypatch, trees, "_extreme_ends")
    forest_to_arcs(forest)
    forest_to_arcs(forest)
    assert len(trees_checked) == 1 and core._VALID in forest.__dict__
    # Each decode checks the diagram once and the forest it makes as it
    # makes it.
    decoded = [arcs_to_forest(diagram), arcs_to_forest(diagram)]
    assert len(arcs_checked) == 1 and core._VALID in diagram.__dict__
    assert len(trees_checked) == 3
    assert all(core._VALID in f.__dict__ for f in decoded)


def test_decoded_tableaux_carry_no_image():
    # A round trip must compare two objects: a decoder's tableau is built
    # afresh, so its images are built from it again.
    t = parse_tableau(T0_COMPACT)
    decoded = [
        from_forest(to_forest(t)),
        from_forest(arcs_to_forest(arc_diagram(t))),
        binary_pair_inv(binary_pair(t)),
        from_permutation(to_permutation(t)),
    ]
    for back in decoded:
        assert back == t and back is not t
        assert set(back.__dict__) == FIELDS  # not marked checked, and no image
        assert to_forest(back) is not to_forest(t) and to_forest(back) == to_forest(t)


def test_arc_text_is_checked_once(capsys, monkeypatch):
    # ``convert --from arcs`` parses the text (one check), then decodes the
    # diagram it parsed (remembered, no second check).
    text = render_arcs(arc_diagram(parse_tableau(T0_COMPACT)))
    calls = count_calls(monkeypatch, trees, "_extreme_ends")
    arcs_to_forest(parse_arcs(text))
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert main(["convert", "--from", "arcs", "--to", "alt"]) == 0
    assert capsys.readouterr().out.strip() == T0_COMPACT
    assert len(calls) == 1


def test_an_arc_diagram_that_fails_fails_again():
    # Point 1 has an outgoing and an incoming arc.
    diagram = ArcDiagram((0, 1, 2, 3), ((0, 1), (1, 3), (0, 3)))
    want = violations(validate_arc_diagram, diagram)
    assert [violations(validate_arc_diagram, diagram) for _ in range(2)] == [want] * 2
    assert violations(arcs_to_forest, diagram) == want
    assert core._VALID not in diagram.__dict__


def test_builders_leave_their_output_to_be_checked():
    t = from_permutation((5, 3, 0, 4, 1, 2, 6))
    assert core._VALID not in t.__dict__
    parts = split(t)  # checks t, not its parts
    assert core._VALID in t.__dict__
    built = [_tableau_from_edges({1: "D", 2: "E"}, [(1, 2)]), merge_all(parts), *parts]
    assert all(core._VALID not in b.__dict__ for b in built)
    forest = to_forest(t)
    assert core._VALID not in forest.__dict__
    from_forest(forest)
    assert core._VALID in forest.__dict__


def test_what_is_remembered_does_not_change_the_value():
    t = parse_tableau(T0_COMPACT)
    to_forest(t)
    arc_diagram(t)
    binary_pair(t)
    free_stats(t)
    assert t.rows and t.columns
    fresh = AltTableau(t.labels, t.word, t.arrows)
    assert set(fresh.__dict__) == FIELDS
    assert set(t.__dict__) - set(fresh.__dict__) == {
        "_valid",
        "_free_lines",
        "_free_stats",
        "rows",
        "columns",
        "_arrow_forest",
        "_forest",
        "_arc_diagram",
        "_binary_pair",
    }
    assert t == fresh and hash(t) == hash(fresh) and repr(t) == repr(fresh)
    assert dataclasses.astuple(t) == dataclasses.astuple(fresh)
    for back in (pickle.loads(pickle.dumps(t)), copy.deepcopy(t)):
        assert back == t and hash(back) == hash(t) and back.__dict__ == t.__dict__
    p = to_perm_tableau(t)
    assert p.rows and pickle.loads(pickle.dumps(p)) == dataclasses.replace(p)
    forest = to_forest(t)
    from_forest(forest)
    fresh_forest = PlaneAltForest(forest.trees)
    assert set(forest.__dict__) - set(fresh_forest.__dict__) == {"_valid"}
    assert forest == fresh_forest and hash(forest) == hash(fresh_forest)
    assert repr(forest) == repr(fresh_forest)
    back_forest = pickle.loads(pickle.dumps(forest))
    assert back_forest == forest and back_forest.__dict__ == forest.__dict__


@given(raw_tableaux())
def test_free_stats_of_an_unchecked_tableau_equal_the_grid_scan(t):
    try:
        to_forest(t)
    except ValidationError:
        assert core._VALID not in t.__dict__
    assert free_stats(t) == free_stats_by_grid(t)
    assert free_stats(t) is free_stats(t)


@pytest.mark.parametrize("oracle", (oracles.to_forest_by_cut, oracles.binary_pair_by_divide))
def test_the_recursive_oracles_check_each_tableau_they_cut_once(monkeypatch, oracle):
    # Every tableau the oracle restricts (kept alive, so ids stay distinct)
    # and every tableau it asks a closure of.
    restricted, closed = [], []
    restrict, closure = decomposition.restrict, decomposition.closure
    monkeypatch.setattr(oracles, "restrict", lambda t, s: restricted.append(t) or restrict(t, s))
    monkeypatch.setattr(oracles, "closure", lambda t, k: closed.append(t) or closure(t, k))
    checks = count_calls(monkeypatch, core, "_alt_violations")
    adjacencies = count_calls(monkeypatch, decomposition, "_closures")
    cells = count_calls(monkeypatch, core, "_unpointed")
    forest = count_calls(monkeypatch, decomposition, "_arrow_forest")
    for n in range(6):
        for t in all_tableaux(n):
            for calls in (restricted, closed, checks, adjacencies):
                calls.clear()
            oracle(t)
            cut = {id(r): r for r in restricted}.values()
            assert len(checks) == len(cut)
            assert all(core._VALID in r.__dict__ for r in cut)
            assert len(adjacencies) == len({id(c) for c in closed})
    assert not cells and not forest

