"""Packedness, cut/block, closures, restriction, split/merge, divide."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alttab.core import AltTableau, empty_tableau, free_stats, relabel, standard_tableau
from alttab.decomposition import (
    COL_PACKED,
    NOT_PACKED,
    ROW_PACKED,
    block,
    closure,
    cut,
    divide,
    format_split,
    merge,
    merge_all,
    packed_class,
    restrict,
    split,
)
from alttab.enumeration import all_tableaux
from alttab.errors import DomainError, ValidationError
from alttab.oracles import divide_by_closure, split_by_closure

from conftest import merge_by_folding, tableaux


@st.composite
def labeled_parts(draw) -> list[AltTableau]:
    """A few valid tableaux on random label sets, which often overlap."""
    parts = []
    for t in draw(st.lists(tableaux(max_len=4), max_size=4)):
        labels = draw(st.sets(st.integers(min_value=0, max_value=9), min_size=len(t), max_size=len(t)))
        parts.append(relabel(t, sorted(labels)))
    return parts


def merged_or_collision(fn, parts):
    """``fn(parts)``, or the message of the label collision it raised."""
    try:
        return fn(parts)
    except DomainError as err:
        assert err.code == "label-collision"
        return str(err)


class TestPackedClass:
    def test_column_packed(self):
        assert packed_class(standard_tableau("DE", [(1, 2, "L")])) == COL_PACKED

    def test_row_packed(self):
        assert packed_class(standard_tableau("D")) == ROW_PACKED

    def test_corpus_not_packed(self, t0):
        assert packed_class(t0) == NOT_PACKED

    def test_column_packed_corner_is_checked(self):
        # Built without validation: column 2 is the only free line, but the
        # top-left cell (1,3) holds an up arrow.  The check is an explicit
        # raise, so it holds under python -O too.
        t = AltTableau((1, 2, 3), "DEE", ((1, 2, "L"), (1, 3, "U")))
        with pytest.raises(ValidationError) as err:
            packed_class(t)
        assert err.value.violations[0].code == "packed-corner"

    def test_packed_arrow_count(self):
        # A packed tableau of length n carries exactly n-1 arrows.
        for n in range(1, 6):
            for t in all_tableaux(n):
                if packed_class(t) != NOT_PACKED:
                    assert len(t.arrows) == n - 1


class TestCutBlock:
    def test_cut_row_of_packed(self):
        t = standard_tableau("DE", [(1, 2, "U")])
        assert cut(t, "row") == relabel(standard_tableau("E"), [2])

    def test_cut_row_removes_smallest_row(self):
        t = standard_tableau("DDE", [(1, 3, "U")])
        out = cut(t, "row")
        assert out.labels == (2, 3) and out.word == "DE" and not out.arrows

    def test_cut_single_row_gives_empty(self):
        assert cut(standard_tableau("D"), "row") == empty_tableau()

    def test_cut_errors(self, t0):
        with pytest.raises(DomainError) as err:
            cut(standard_tableau("EE"), "row")
        assert err.value.code == "nothing-to-cut"
        # The corpus tableau has empty columns (1 and 2), which block a row
        # cut, and an empty row (13), which blocks a column cut.
        with pytest.raises(DomainError) as err:
            cut(t0, "row")
        assert err.value.code == "empty-line-obstruction"
        with pytest.raises(DomainError) as err:
            cut(t0, "col")
        assert err.value.code == "empty-line-obstruction"

    def test_block_col_is_inverse_of_cut_row(self):
        col = relabel(standard_tableau("E"), [2])
        assert block(col, "col", 1) == standard_tableau("DE", [(1, 2, "U")])

    def test_block_on_empty(self):
        assert block(empty_tableau(), "col", 1) == standard_tableau("D")
        assert block(empty_tableau(), "row", 1) == standard_tableau("E")

    def test_block_label_not_extremal(self):
        with pytest.raises(DomainError) as err:
            block(standard_tableau("D"), "col", 1)
        assert err.value.code == "label-not-extremal"

    @pytest.mark.parametrize("label", [1.5, True, "x", None], ids=["float", "bool", "str", "none"])
    @pytest.mark.parametrize("axis", ["col", "row"])
    def test_block_label_not_an_integer(self, axis, label):
        # A label equal to an integer is refused too: the tableau is
        # assembled without the constructor's label check.
        with pytest.raises(DomainError) as err:
            block(relabel(standard_tableau("DE"), (2, 3)), axis, label)
        assert err.value.code == "bad-label"
        assert str(err.value) == f"bad-label: label {label!r} is not an integer"

    @pytest.mark.parametrize("n", range(6))
    def test_block_then_cut_roundtrip(self, n):
        for t in all_tableaux(n):
            shifted = relabel(t, range(2, n + 2))
            assert cut(block(shifted, "col", 1), "row") == shifted
            assert cut(block(shifted, "row", n + 2), "col") == shifted

    def test_block_on_standard_labels(self, t0):
        # The new line takes the extremal label of 1..n+1 once the others
        # are standardized and shifted clear of it.
        from alttab.core import standardize

        s = standardize(t0)
        out = block(relabel(s, range(2, len(s) + 2)), "col", 1)
        assert out.labels == tuple(range(1, 15)) and out.word.startswith("D")
        assert standardize(cut(out, "row")) == t0
        out = block(s, "row", len(s) + 1)
        assert out.labels == tuple(range(1, 15)) and out.word.endswith("E")
        assert standardize(cut(out, "col")) == t0

    @pytest.mark.parametrize("n", range(6))
    def test_cut_then_block_on_bijection_domain(self, n):
        # Tableaux with no free columns and at least one row cut to anything;
        # blocking with the removed label restores them (and dually).
        for t in all_tableaux(n):
            stats = free_stats(t)
            if stats.fcol == 0 and t.rows:
                assert block(cut(t, "row"), "col", min(t.rows)) == t
            if stats.frow == 0 and t.columns:
                assert block(cut(t, "col"), "row", max(t.columns)) == t


class TestClosure:
    def test_corpus_closures(self, t0):
        assert closure(t0, 4) == {4, 6, 7, 8, 9}
        assert closure(t0, 13) == {13}
        assert closure(t0, 5) == {3, 5}
        assert closure(t0, 12) == {10, 12}

    def test_closures_partition_the_labels(self, t0):
        stats = free_stats(t0)
        parts = [closure(t0, k) for k in sorted(stats.free_rows | stats.free_cols)]
        assert sorted(itertools.chain.from_iterable(parts)) == list(range(1, 14))

    def test_not_free(self, t0):
        with pytest.raises(DomainError) as err:
            closure(t0, 3)
        assert err.value.code == "not-free"

    @pytest.mark.parametrize("n", range(7))
    def test_partition_property_exhaustive(self, n):
        for t in all_tableaux(n):
            stats = free_stats(t)
            seen: list[int] = []
            for k in stats.free_rows | stats.free_cols:
                seen.extend(closure(t, k))
            assert sorted(seen) == list(t.labels)


class TestRestrict:
    def test_corpus_component(self, t0):
        sub = restrict(t0, {4, 6, 7, 8, 9})
        assert sub.word == "DDDEE"
        assert set(sub.arrow_map().items()) == {
            ((4, 9), "U"),
            ((6, 8), "U"),
            ((6, 9), "L"),
            ((7, 9), "L"),
        }
        assert packed_class(sub) == ROW_PACKED

    def test_restrict_to_everything(self, t0):
        assert restrict(t0, t0.labels) == t0

    def test_the_whole_and_the_empty_set(self, t0):
        assert restrict(t0, t0.labels) is t0
        assert restrict(t0, ()) == empty_tableau()

    @pytest.mark.parametrize("subset", [{1, 4}, {1, 2, 3}, set()])
    def test_an_invalid_tableau_does_not_restrict(self, subset):
        # The up arrow at (2,3) points at the up arrow at (1,3); every part
        # is refused, including {1, 4}, which avoids both arrows.
        bad = AltTableau((1, 2, 3, 4), "DDEE", ((1, 3, "U"), (2, 3, "U")))
        with pytest.raises(DomainError) as err:
            restrict(bad, subset)
        assert err.value.code == "invalid-restriction"

    def test_restrict_pair(self, t0):
        sub = restrict(t0, {3, 5})
        assert sub.word == "DE" and packed_class(sub) == COL_PACKED

    def test_not_a_subset(self, t0):
        with pytest.raises(DomainError) as err:
            restrict(t0, {1, 99})
        assert err.value.code == "not-a-subset"


class TestSplitMerge:
    def test_corpus_split(self, t0):
        parts = split(t0)
        assert [sorted(p.labels) for p in parts] == [
            [1], [2], [3, 5], [4, 6, 7, 8, 9], [10, 12], [11], [13],
        ]
        kinds = [packed_class(p) for p in parts]
        assert kinds.count(ROW_PACKED) == 3 and kinds.count(COL_PACKED) == 4

    def test_split_empty(self):
        assert split(empty_tableau()) == ()

    def test_split_packed_is_itself(self):
        t = standard_tableau("DE", [(1, 2, "L")])
        assert split(t) == (t,)

    def test_merge_creates_free_cell(self):
        row = relabel(standard_tableau("D"), [4])
        pair = relabel(standard_tableau("DE", [(1, 2, "L")]), [3, 5])
        merged = merge(row, pair)
        assert merged.labels == (3, 4, 5) and merged.word == "DDE"
        assert free_stats(merged).free_cells == {(4, 5)}

    def test_merge_with_empty(self, t0):
        assert merge(t0, empty_tableau()) == t0

    def test_merge_collision(self, t0):
        with pytest.raises(DomainError) as err:
            merge(t0, t0)
        assert err.value.code == "label-collision"

    def test_merge_symmetric_associative(self, t0):
        parts = split(t0)
        for order in ([0, 1, 2, 3, 4, 5, 6], [6, 5, 4, 3, 2, 1, 0], [3, 0, 6, 1, 5, 2, 4]):
            assert merge_all(parts[k] for k in order) == t0

    @pytest.mark.parametrize("n", range(7))
    def test_merge_split_roundtrip_exhaustive(self, n):
        for t in all_tableaux(n):
            parts = split(t)
            for p in parts:
                assert packed_class(p) != NOT_PACKED
                assert len(p.arrows) == len(p) - 1
            assert merge_all(parts) == t

    @pytest.mark.parametrize("n", range(8))
    def test_merge_all_equals_the_fold_of_merge_exhaustive(self, n):
        for t in all_tableaux(n):
            parts = split(t)
            assert merge_all(parts) == merge_by_folding(parts) == t

    @given(labeled_parts())
    def test_merge_all_agrees_with_the_fold_of_merge(self, parts):
        assert merged_or_collision(merge_all, parts) == merged_or_collision(merge_by_folding, parts)

    @pytest.mark.parametrize("n", range(8))
    def test_split_and_divide_equal_the_closure_construction(self, n):
        for t in all_tableaux(n):
            assert split(t) == split_by_closure(t)
            assert divide(t) == divide_by_closure(t)

    def test_split_injective_small(self):
        for n in range(5):
            images = {tuple(split(t)) for t in all_tableaux(n)}
            assert len(images) == sum(1 for _ in all_tableaux(n))

    def test_merge_then_split_recovers_components(self):
        # Every set partition of {1..4} with any choice of packed tableau per
        # block merges to a tableau whose split gives the components back.
        def set_partitions(items):
            if not items:
                yield []
                return
            head, *rest = items
            for part in set_partitions(rest):
                for k in range(len(part)):
                    yield part[:k] + [[head] + part[k]] + part[k + 1 :]
                yield [[head]] + part

        packed = {
            n: [t for t in all_tableaux(n) if packed_class(t) != NOT_PACKED]
            for n in (1, 2, 3, 4)
        }
        seen_partitions = 0
        for blocks in set_partitions([1, 2, 3, 4]):
            seen_partitions += 1
            blocks = [tuple(sorted(b)) for b in blocks]
            for choice in itertools.product(*(packed[len(b)] for b in blocks)):
                parts = [relabel(p, b) for p, b in zip(choice, blocks)]
                merged = merge_all(parts)
                assert sorted(split(merged), key=lambda p: p.labels) == sorted(
                    parts, key=lambda p: p.labels
                )
        assert seen_partitions == 15  # Bell number of a 4-set

    @given(tableaux(max_len=10))
    def test_roundtrip_random(self, t):
        assert merge_all(split(t)) == t


class TestDivide:
    def test_corpus_divide(self, t0):
        p, q = divide(t0)
        assert p.labels == (4, 6, 7, 8, 9, 11, 13)
        assert q.labels == (1, 2, 3, 5, 10, 12)
        assert merge(p, q) == t0

    def test_single_cell(self):
        p, q = divide(standard_tableau("DE"))
        assert p.labels == (1,) and q.labels == (2,)

    def test_empty(self):
        assert divide(empty_tableau()) == (empty_tableau(), empty_tableau())

    @pytest.mark.parametrize("n", range(7))
    def test_divide_classes_exhaustive(self, n):
        for t in all_tableaux(n):
            p, q = divide(t)
            assert free_stats(p).fcol == 0
            assert free_stats(q).frow == 0
            assert merge(p, q) == t


def test_format_split(t0):
    lines = format_split(split(t0)).splitlines()
    assert lines[0] == "{1} :: E|"
    assert lines[1] == "{2} :: labels=2|E|"
    assert lines[3] == "{4,6,7,8,9} :: labels=4,6,7,8,9|DDDEE|U4,9;U6,8;L6,9;L7,9"


BIG = 10**5000
LONE = AltTableau((BIG,), "D")


@pytest.mark.parametrize(
    "call, code",
    [
        (lambda t0: restrict(t0, {BIG}), "not-a-subset"),
        (lambda t0: block(t0, "row", -BIG), "label-not-extremal"),
        (lambda t0: block(t0, "col", BIG), "label-not-extremal"),
        (lambda t0: closure(t0, BIG), "not-free"),
        (lambda t0: merge(LONE, LONE), "label-collision"),
        (lambda t0: merge_all([LONE, LONE]), "label-collision"),
        (lambda t0: cut(t0, BIG), "bad-axis"),
        (lambda t0: block(t0, BIG, 1), "bad-axis"),
    ],
    ids=["restrict", "block-row", "block-col", "closure", "merge", "merge-all", "cut-axis",
         "block-axis"],
)
def test_a_number_too_long_to_print_is_still_a_domain_error(t0, call, code):
    # The number is shown as error messages show numbers, so the call raises
    # its own error rather than the ValueError of str().
    with pytest.raises(DomainError) as err:
        call(t0)
    assert err.value.code == code
    assert "<a number too long to print>" in str(err.value)
