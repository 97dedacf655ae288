"""Core types: validation, statistics, transposition, the permutation-tableau
bijection, and the text formats."""

from __future__ import annotations

import ast
import math
import pickle
import random
import tracemalloc
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import alttab
from alttab import core, enumeration
from alttab.cli import LineError
from alttab.core import (
    AltTableau,
    PermTableau,
    empty_tableau,
    free_stats,
    from_perm_tableau,
    parse_perm_tableau,
    parse_tableau,
    perm_tableau_stats,
    relabel,
    render_perm_tableau,
    render_tableau,
    standard_tableau,
    standardize,
    to_perm_tableau,
    transpose,
    validate_alt,
    validate_perm_tableau,
)
from alttab.enumeration import all_tableaux, symmetric_tableaux, weight_poly
from alttab.errors import (
    DomainError,
    ParseError,
    ResourceLimitError,
    TableauError,
    ValidationError,
    Violation,
    _shown,
    cap_limit,
)
from alttab.oracles import _word_to_tree
from alttab.permutations import from_permutation, parse_signed, parse_word
from alttab.trees import parse_arcs, parse_bin_pair, parse_forest

from conftest import (
    T0_COMPACT,
    alt_violations_by_scan,
    assert_as_public,
    compact_texts,
    free_stats_by_grid,
    from_perm_tableau_by_cell_probes,
    from_perm_tableau_by_lists,
    mirror_by_merge,
    parse_compact_by_parts,
    perm_ones_by_sorting,
    perm_tableau_stats_by_scan,
    raw_perm_tableaux,
    raw_tableaux,
    read_perm_tableau_by_probes,
    record_by_grid,
    tableaux,
    validate_perm_tableau_by_scan,
)

# A label of more digits than str() converts by default (4300).
BIG = 10**5000

# More digits than ``int`` converts by default (4300).
HUGE = "1" * 5000


def outcome(fn, *args):
    """What ``fn`` returns, or the violations it raises."""
    try:
        return fn(*args)
    except ValidationError as err:
        return err.violations


def result_or_error(fn, *args):
    """What ``fn`` returns, or the type, message and any position of the
    ``TableauError`` it raises."""
    try:
        return fn(*args)
    except (DomainError, ParseError, ValidationError) as err:
        return type(err), str(err), getattr(err, "position", None)


def staircase(n: int) -> tuple[tuple[int, ...], str, list[tuple[int, int]]]:
    """Labels 1..n, word ``DE`` repeated, and a 1 just above each column's
    diagonal and in the leftmost column of each row: no 0 between a row and
    its leftmost 1 is restricted, as the one 1 of its column lies below it."""
    ones = [(j - 1, j) for j in range(2, n + 1, 2)] + [(i, n) for i in range(1, n, 2)]
    return tuple(range(1, n + 1)), "DE" * (n // 2), ones


@st.composite
def perm_tableau_data(draw):
    """Labels (sorted, sometimes with a repeat or a length mismatch), a word,
    and 1-cells on the shape or off it."""
    labels = sorted(draw(st.lists(st.integers(min_value=0, max_value=9), max_size=8)))
    word = "".join(draw(st.sampled_from("DE")) for _ in labels)
    if draw(st.integers(0, 9)) == 0:
        word += "D"
    cell = st.tuples(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
    return tuple(labels), word, draw(st.lists(cell, max_size=12))


def check_perm_readers(labels, word, ones) -> None:
    """``validate_perm_tableau``, and ``from_perm_tableau`` and
    ``perm_tableau_stats`` of ``PermTableau(labels, word, ones)``, each equal
    the scan or cell-probe reference, or raise exactly the scan's violations."""
    want = outcome(validate_perm_tableau_by_scan, labels, word, ones)
    assert outcome(validate_perm_tableau, labels, word, ones) == want
    p = outcome(PermTableau, labels, word, ones)
    if not isinstance(want, PermTableau):
        if isinstance(p, PermTableau):  # refused for its filling
            assert outcome(perm_tableau_stats, p) == want
            assert outcome(from_perm_tableau, p) == want
        else:
            assert p == want
        return
    assert perm_tableau_stats(p) == perm_tableau_stats_by_scan(p)
    want = result_or_error(from_perm_tableau_by_cell_probes, p)
    assert result_or_error(from_perm_tableau, p) == want


def naive_free_cells(t: AltTableau) -> set[tuple[int, int]]:
    """Independent oracle: scan the raw definition cell by cell."""
    occupied = t.arrow_map()
    out = set()
    for i, j in t.cells():
        if (i, j) in occupied:
            continue
        pointed = False
        for (a, b), kind in occupied.items():
            if kind == "L" and a == i and b < j:
                pointed = True
            if kind == "U" and b == j and a > i:
                pointed = True
        if not pointed:
            out.add((i, j))
    return out


class TestValidation:
    @pytest.mark.parametrize(
        "build, render, shown",
        [
            (lambda labels: AltTableau(labels, "DE"), render_tableau, "DE|"),
            (
                lambda labels: PermTableau([0, *labels], "DDE", ((0, 2),)),
                render_perm_tableau,
                "labels=0,1,2|DDE|0,2",
            ),
        ],
        ids=["alt", "perm"],
    )
    def test_list_labels_are_kept_as_a_tuple(self, build, render, shown):
        from_list, from_tuple = build([1, 2]), build((1, 2))
        assert type(from_list.labels) is tuple
        assert from_list == from_tuple and hash(from_list) == hash(from_tuple)
        assert render(from_list) == shown
        assert pickle.loads(pickle.dumps(from_list)) == from_tuple

    def test_single_cell_left_arrow_is_valid(self):
        t = validate_alt((1, 2), "DE", [(1, 2, "L")])
        assert t.arrows == ((1, 2, "L"),)

    def test_empty_tableau_is_valid(self):
        assert len(validate_alt((), "", [])) == 0

    def test_left_arrow_pointing_at_occupied_cell(self):
        # In word DEE the cell (1,2) sits right of (1,3): a left arrow at
        # (1,2) points at (1,3), which the up arrow occupies.
        with pytest.raises(ValidationError) as err:
            validate_alt((1, 2, 3), "DEE", [(1, 2, "L"), (1, 3, "U")])
        assert any(v.code == "pointed-cell-occupied" for v in err.value.violations)

    def test_arrow_off_shape(self):
        with pytest.raises(ValidationError) as err:
            validate_alt((1, 2), "DE", [(2, 1, "L")])
        assert err.value.violations[0].code == "arrow-off-shape"

    def test_label_order(self):
        with pytest.raises(ValidationError) as err:
            validate_alt((2, 1), "DE", [])
        assert any(v.code == "label-order" for v in err.value.violations)

    def test_violation_list(self):
        arrows = [(3, 1, "L"), (2, 4, "U"), (1, 4, "L"), (1, 3, "U"), (2, 3, "L"), (1, 3, "L")]
        with pytest.raises(ValidationError) as err:
            validate_alt((1, 2, 3, 4), "DDEE", arrows)
        assert [(v.code, v.detail) for v in err.value.violations] == [
            ("arrow-off-shape", "L arrow on nonexistent cell (3,1)"),
            ("duplicate-cell", "two arrows on cell (1,3)"),
            ("pointed-cell-occupied", "L arrow at (2,3) points at occupied cell (2, 4)"),
            ("pointed-cell-occupied", "U arrow at (2,4) points at occupied cell (1, 4)"),
        ]

    @pytest.mark.parametrize(
        "check, code",
        [
            (lambda: AltTableau((-1, BIG), "DE"), "label-order"),
            (lambda: validate_alt((BIG, 1), "DE", []), "label-order"),
            (lambda: validate_alt((1, BIG), "DE", [(1, BIG, "X")]), "bad-arrow-kind"),
            (lambda: AltTableau((1, BIG), "DE", ((1, BIG, "X"),)), "bad-arrow-kind"),
            (lambda: validate_alt((1, 2), "DE", [(1, 2, BIG)]), "bad-arrow-kind"),
            (lambda: AltTableau((1, 2), "DE", ((1, 2, BIG),)), "bad-arrow-kind"),
            (lambda: validate_alt((1, BIG), "DE", [(BIG, 1, "L")]), "arrow-off-shape"),
            (
                lambda: validate_alt((1, BIG), "DE", [(1, BIG, "L"), (1, BIG, "U")]),
                "duplicate-cell",
            ),
            (
                lambda: validate_alt((1, 2, BIG), "DDE", [(1, BIG, "U"), (2, BIG, "U")]),
                "pointed-cell-occupied",
            ),
            (lambda: validate_perm_tableau((1, BIG), "DE", []), "empty-column"),
            (lambda: validate_perm_tableau((1, BIG), "DE", [(BIG, 1)]), "cell-off-shape"),
        ],
    )
    def test_a_big_label_is_shown_in_the_violation(self, check, code):
        # The label is shown as error messages show numbers, so the check
        # raises its own error rather than the ValueError of str().
        with pytest.raises(ValidationError) as err:
            check()
        assert code in [v.code for v in err.value.violations]
        assert "<a number too long to print>" in str(err.value)

    @pytest.mark.parametrize("make", [AltTableau, lambda l, w: PermTableau(l, w, ())], ids=["alt", "perm"])
    @pytest.mark.parametrize(
        "labels, word, codes",
        [
            ((None, 2), "DE", ["bad-label"]),
            ((1, "a"), "DE", ["bad-label"]),
            ("12", "DE", ["bad-label"]),
            ({1, 2}, "DE", ["bad-label"]),
            (None, "DE", ["bad-label"]),
            ((1, 2), 12, ["bad-step"]),
            ((1, 2), b"DE", ["bad-step"]),
            ((1, 2), ["D", "E"], ["bad-step"]),
            (None, None, ["bad-step", "bad-label"]),
            ((BIG, "a"), "DE", ["bad-label"]),
            ((0.5, 2), "DE", ["bad-label"]),
            ((1.0, 2), "DE", ["bad-label"]),
            ((True, 2), "DE", ["bad-label"]),
            ((False, 2), "DE", ["bad-label"]),
            ((1, True), "DE", ["bad-label", "label-order"]),
        ],
    )
    def test_constructor_refuses_labels_or_word_of_the_wrong_type(self, make, labels, word, codes):
        with pytest.raises(ValidationError) as err:
            make(labels, word)
        assert [v.code for v in err.value.violations] == codes

    def test_an_integral_label_that_is_not_an_int_is_accepted(self):
        class Label(int):
            pass

        t = AltTableau((Label(1), Label(2)), "DE", ((1, 2, "L"),))
        assert t == AltTableau((1, 2), "DE", ((1, 2, "L"),))

    def test_constructor_rejects_unknown_arrow_kind(self):
        with pytest.raises(ValidationError) as err:
            AltTableau((1, 2), "DE", ((1, 2, "X"),))
        assert [v.code for v in err.value.violations] == ["bad-arrow-kind"]

    def test_all_violations_reported(self):
        with pytest.raises(ValidationError) as err:
            validate_alt((1, 2, 3), "DEE", [(1, 2, "L"), (1, 3, "U"), (5, 9, "L")])
        codes = {v.code for v in err.value.violations}
        assert codes == {"pointed-cell-occupied", "arrow-off-shape"}


def alt_outcome(labels, word, arrows) -> list:
    """The violations ``validate_alt`` raises, in order; [] when it passes."""
    try:
        validate_alt(labels, word, arrows)
    except ValidationError as err:
        return err.violations
    return []


class TestEmptinessAgainstTheLineScan:
    @given(raw_tableaux(), st.data())
    def test_violations_equal_the_scan(self, t, data):
        arrows = data.draw(st.permutations(t.arrows))
        want = alt_violations_by_scan(t.labels, t.word, arrows)
        assert alt_outcome(t.labels, t.word, arrows) == want

    @pytest.mark.parametrize(
        "labels, word, arrows, hits",
        [
            # The column set {2, 3, 8} iterates as 8, 2, 3.
            (
                (0, 2, 3, 8),
                "DEEE",
                [(0, 2, "L"), (0, 3, "U"), (0, 8, "U")],
                ["(0, 8)", "(0, 3)"],
            ),
            # The row set {2, 9, 10} iterates as 9, 2, 10.
            (
                (2, 9, 10, 11),
                "DDDE",
                [(2, 11, "U"), (9, 11, "U"), (10, 11, "U")],
                ["(2, 11)", "(9, 11)", "(2, 11)"],
            ),
        ],
    )
    def test_hits_come_in_the_order_of_the_line_sets(self, labels, word, arrows, hits):
        want = alt_violations_by_scan(labels, word, arrows)
        assert [v.detail.rsplit(" cell ", 1)[1] for v in want] == hits
        assert alt_outcome(labels, word, arrows) == want

    @pytest.mark.parametrize("n", range(6))
    def test_violations_equal_the_scan_on_every_small_filling(self, n):
        # Every placement of L, U or nothing on every cell of every shape.
        labels = tuple(range(1, n + 1))
        for word in map("".join, product("DE", repeat=n)):
            rows = [l for l, c in zip(labels, word) if c == "D"]
            cells = [(i, j) for i in rows for j, c in zip(labels, word) if c == "E" and i < j]
            for kinds in product(("", "L", "U"), repeat=len(cells)):
                arrows = [(i, j, k) for (i, j), k in zip(cells, kinds) if k]
                want = alt_violations_by_scan(labels, word, arrows)
                assert alt_outcome(labels, word, arrows) == want

    @pytest.mark.parametrize("n", range(7))
    def test_every_tableau_passes_the_scan(self, n):
        for t in all_tableaux(n):
            assert alt_violations_by_scan(t.labels, t.word, t.arrows) == []
            assert validate_alt(t.labels, t.word, t.arrows) == t


class TestFreeStats:
    def test_corpus_statistics(self, t0):
        stats = free_stats(t0)
        assert stats.free_rows == {4, 11, 13}
        assert stats.free_cols == {1, 2, 5, 12}
        assert stats.free_cells == {(4, 5), (4, 12), (7, 8), (11, 12)}
        assert (stats.frow, stats.fcol, stats.fcell) == (3, 4, 4)

    def test_single_row(self):
        stats = free_stats(standard_tableau("D"))
        assert stats.free_rows == {1}
        assert stats.free_cols == set()
        assert stats.free_cells == set()

    def test_empty_cell_is_free(self):
        stats = free_stats(standard_tableau("DE"))
        assert stats.free_rows == {1}
        assert stats.free_cols == {2}
        assert stats.free_cells == {(1, 2)}

    @given(tableaux(max_len=9))
    def test_matches_naive_scan(self, t):
        assert free_stats(t).free_cells == naive_free_cells(t)

    @pytest.mark.parametrize("n", range(8))
    def test_equals_the_grid_scan_exhaustive(self, n):
        for t in all_tableaux(n):
            assert free_stats(t) == free_stats_by_grid(t)

    @given(raw_tableaux())
    def test_equals_the_grid_scan_without_validation(self, t):
        assert free_stats(t) == free_stats_by_grid(t)


class TestTranspose:
    def test_single_cell(self):
        t = standard_tableau("DE", [(1, 2, "L")])
        assert transpose(t) == standard_tableau("DE", [(1, 2, "U")])

    def test_two_columns_become_two_rows(self):
        assert transpose(standard_tableau("EE")) == standard_tableau("DD")

    def test_involution_on_corpus(self, t0):
        assert transpose(transpose(t0)) == t0

    @given(tableaux(max_len=9))
    def test_involution_and_stat_swap(self, t):
        back = transpose(transpose(t))
        assert back == t
        a, b = free_stats(t), free_stats(transpose(t))
        assert a.frow == b.fcol and a.fcol == b.frow and a.fcell == b.fcell

    @pytest.mark.parametrize("size", range(0, 11, 2))
    def test_the_mirror_is_the_merge_with_the_relabeled_transpose(self, size, monkeypatch):
        # Every half and label choice ``symmetric_tableaux`` walks.
        built = []

        def checked(half: AltTableau, size: int) -> AltTableau:
            t = core._mirrored(half, size)
            assert t == mirror_by_merge(half, size)
            assert_as_public(t)
            built.append(t)
            return t

        monkeypatch.setattr(enumeration, "_mirrored", checked)
        n = size // 2
        assert list(symmetric_tableaux(size)) == built
        assert len(built) == 2**n * math.factorial(n)

    @given(st.data())
    def test_the_mirror_of_a_large_half_is_the_merge(self, data):
        # A half of 10 to 40 labels, one of each pair, in a tableau of 20 to 80.
        n = data.draw(st.integers(10, 40))
        chosen = [data.draw(st.sampled_from((i, 2 * n + 1 - i))) for i in range(1, n + 1)]
        half = from_permutation((0, *data.draw(st.permutations(chosen))))
        t = core._mirrored(half, 2 * n)
        assert t == mirror_by_merge(half, 2 * n) and transpose(t) == t


class TestRelabel:
    def test_relabel_single_row(self):
        t = standard_tableau("D")
        assert relabel(t, [7]).labels == (7,)

    def test_standardize_restriction(self, t0):
        from alttab.decomposition import restrict

        sub = standardize(restrict(t0, {3, 5}))
        assert sub == standard_tableau("DE", [(1, 2, "L")])

    def test_relabel_then_standardize(self, t0):
        assert standardize(relabel(t0, range(10, 23))) == standardize(t0) == t0

    def test_size_mismatch(self):
        with pytest.raises(DomainError) as err:
            relabel(standard_tableau("D"), [1, 2])
        assert err.value.code == "size-mismatch"

    @pytest.mark.parametrize("op", [standardize, transpose])
    def test_arrow_outside_the_labels_is_a_validation_error(self, op):
        t = AltTableau((5, 7), "DE", ((1, 2, "L"),))  # built without validation
        with pytest.raises(ValidationError) as err:
            op(t)
        assert [v.code for v in err.value.violations] == ["arrow-off-shape"]


class TestPermTableauBijection:
    def test_corpus_roundtrip(self, t0):
        p = to_perm_tableau(t0)
        assert p.labels == tuple(range(14))
        assert from_perm_tableau(p) == t0

    def test_corpus_statistics(self, t0):
        stats = perm_tableau_stats(to_perm_tableau(t0))
        assert stats.unrestricted_rows == {4, 11, 13}
        assert stats.top_one_cols == {1, 2, 5, 12}
        assert stats.superfluous_cells == {(4, 5), (4, 12), (7, 8), (11, 12)}

    def test_single_filled_cell(self):
        p = validate_perm_tableau((0, 1), "DE", [(0, 1)])
        t = from_perm_tableau(p)
        assert t.word == "E" and t.labels == (1,) and not t.arrows

    def test_single_column_all_ones(self):
        p = validate_perm_tableau((1, 2), "DE", [(1, 2)])
        assert perm_tableau_stats(p).superfluous_cells == set()

    @given(tableaux(max_len=9))
    def test_roundtrip_and_statistics_transport(self, t):
        p = to_perm_tableau(t)
        assert from_perm_tableau(p) == t
        stats, pstats = free_stats(t), perm_tableau_stats(p)
        assert pstats.top_one_cols == stats.free_cols
        assert pstats.unrestricted_rows == stats.free_rows
        assert pstats.superfluous_cells == stats.free_cells

    @given(tableaux())
    def test_ones_equal_the_sorted_construction(self, t):
        p = to_perm_tableau(t)
        assert type(p.ones) is tuple and p.ones == perm_ones_by_sorting(t)
        assert type(p.labels) is tuple and p == PermTableau(p.labels, p.word, p.ones)

    def test_ones_equal_the_sorted_construction_at_large_n(self):
        t = from_permutation(tuple(random.Random(7).sample(range(301), 301)))
        assert to_perm_tableau(t).ones == perm_ones_by_sorting(t)

    @pytest.mark.parametrize("n", range(8))
    def test_equals_the_list_scan_exhaustive(self, n):
        for t in all_tableaux(n):
            p = to_perm_tableau(t)
            assert from_perm_tableau(p) == from_perm_tableau_by_lists(p) == t

    @pytest.mark.parametrize("n", range(7))
    def test_equals_the_cell_probes_exhaustive(self, n):
        for t in all_tableaux(n):
            p = to_perm_tableau(t)
            assert from_perm_tableau(p) == from_perm_tableau_by_cell_probes(p) == t

    @given(raw_perm_tableaux())
    def test_equals_the_cell_probes_on_any_permutation_tableau(self, p):
        # Off the shape, outside the rows and repeated 1s included: a
        # refused filling raises the scan's violations.
        check_perm_readers(p.labels, p.word, p.ones)

    @pytest.mark.parametrize("top_row", [False, True], ids=["staircase", "with-a-full-top-row"])
    def test_a_staircase_is_checked_along_its_restricted_columns(self, top_row):
        # With a 1 atop every column, every 0 left of a row is blocked.
        labels, word, ones = staircase(200)
        if top_row:
            ones += [(1, j) for j in range(4, 201, 2)]
        assert isinstance(outcome(validate_perm_tableau, labels, word, ones), list) == top_row
        check_perm_readers(labels, word, ones)

    def test_a_large_staircase_is_valid(self):
        # 3 000 rows whose leftmost 1 is 3 000 columns away: a 64 KB text.
        labels, word, ones = staircase(6000)
        p = validate_perm_tableau(labels, word, ones)
        assert p == parse_perm_tableau(render_perm_tableau(p))
        assert p == PermTableau(labels, word, tuple(set(ones)))  # (5999, 6000) is listed twice
        assert perm_tableau_stats(p).superfluous_cells == {(i, 6000) for i in range(3, 6000, 2)}

    def test_constructor_keeps_each_one_cell_once(self):
        p = PermTableau((1, 2), "DE", ((1, 2), (1, 2)))
        assert p.ones == ((1, 2),)
        assert p == validate_perm_tableau((1, 2), "DE", [(1, 2), (1, 2)])
        assert render_perm_tableau(p) == "DE|1,2"

    def test_empty_column_rejected(self):
        with pytest.raises(ValidationError) as err:
            validate_perm_tableau((1, 2), "ED", [])
        assert any(v.code == "empty-column" for v in err.value.violations)

    def test_blocked_zero_rejected(self):
        # (2,3) is 0 with a 1 above at (1,3) and a 1 on its left at (2,4).
        with pytest.raises(ValidationError) as err:
            validate_perm_tableau(
                (1, 2, 3, 4), "DDEE", [(1, 3), (1, 4), (2, 4)]
            )
        assert any(v.code == "zero-with-one-above-and-left" for v in err.value.violations)

    @pytest.mark.parametrize("n", range(7))
    def test_checks_equal_the_scan_on_every_small_filling(self, n):
        # Every 0/1 filling of every shape of length n (at most 9 cells):
        # 3 290 in all, 2 416 of them refused.
        labels = tuple(range(1, n + 1))
        seen = 0
        for word in map("".join, product("DE", repeat=n)):
            rows = [l for l, c in zip(labels, word) if c == "D"]
            cells = [(i, j) for i in rows for j, c in zip(labels, word) if c == "E" and i < j]
            for k in range(len(cells) + 1):
                for ones in combinations(cells, k):
                    check_perm_readers(labels, word, ones)
                    seen += 1
        assert seen == [1, 2, 5, 16, 67, 374, 2825][n]

    @given(perm_tableau_data())
    def test_checks_equal_the_scan(self, data):
        check_perm_readers(*data)

    def test_checks_equal_the_scan_at_large_n(self):
        word = tuple(random.Random(7).sample(range(301), 301))
        p = to_perm_tableau(from_permutation(word))
        assert validate_perm_tableau(p.labels, p.word, p.ones) == p
        assert perm_tableau_stats(p) == perm_tableau_stats_by_scan(p)
        zero = next((i, j) for i in p.rows[1:] for j in p.columns if i < j and (i, j) not in p.ones)
        ones = p.ones + (zero,)
        want = outcome(validate_perm_tableau_by_scan, p.labels, p.word, ones)
        assert outcome(validate_perm_tableau, p.labels, p.word, ones) == want

    def test_a_wide_tableau_is_checked_without_its_cells(self):
        # 600 rows over 600 columns with a 1 atop each column: a 5 KB text
        # whose shape has 360 000 cells, all but 600 of them 0.
        n = 600
        text = "D" * n + "E" * n + "|" + ";".join(f"1,{j}" for j in range(n + 1, 2 * n + 1))
        tracemalloc.start()
        try:
            p = parse_perm_tableau(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(p.ones) == n and peak < 5_000_000

    @pytest.mark.parametrize(
        "cell, shown",
        [(5, "5"), ((1, 2, 3), "(1, 2, 3)"), ((True, 2), "(True, 2)"), ((1.0, 2), "(1.0, 2)")],
        ids=["int", "triple", "bool", "float"],
    )
    def test_a_one_cell_that_is_not_a_pair_of_integers_is_refused(self, cell, shown):
        for make in (PermTableau, validate_perm_tableau):
            with pytest.raises(ValidationError) as err:
                make((1, 2), "DE", [cell])
            assert [(v.code, v.detail) for v in err.value.violations] == [
                ("bad-cell", f"1-cell {shown} is not a pair of integers")
            ]

    @pytest.mark.parametrize("probed", [0, core._PROBED_ONES], ids=["every-row-sliced", "default"])
    def test_the_reader_equals_the_probing_reader_on_every_filling(self, probed, monkeypatch):
        # Every 0/1 filling of every shape up to 5 labels, valid or not; with
        # no rows probed, every row with a 1 is compared as a slice first.
        monkeypatch.setattr(core, "_PROBED_ONES", probed)
        for n in range(6):
            labels = tuple(range(1, n + 1))
            for word in map("".join, product("DE", repeat=n)):
                cells = list(PermTableau(labels, word, ()).cells())
                for k in range(len(cells) + 1):
                    for ones in combinations(cells, k):
                        p = PermTableau(labels, word, ones)
                        want = outcome(read_perm_tableau_by_probes, p)
                        assert outcome(core._read_perm_tableau, p) == want

    @settings(deadline=None)
    @given(st.integers(0, 159).flatmap(lambda n: st.permutations(range(n + 1))), st.data())
    def test_the_reader_equals_the_probing_reader_on_grown_tableaux(self, word, data):
        # ``to_perm_tableau`` images of up to 160 labels, and each with one
        # cell flipped, so long rows meet a 1 or a 0 where a slice differs.
        p = to_perm_tableau(from_permutation(word))
        assert core._read_perm_tableau(p) == read_perm_tableau_by_probes(p)
        cells = list(p.cells())
        if cells:
            cell = data.draw(st.sampled_from(cells))
            q = PermTableau(p.labels, p.word, set(p.ones) ^ {cell})
            assert outcome(core._read_perm_tableau, q) == outcome(read_perm_tableau_by_probes, q)

    @pytest.mark.parametrize(
        "make, items, violation",
        [
            (AltTableau, None, ("bad-arrow", "arrows None are not a sequence")),
            (AltTableau, [(1, 2)], ("bad-arrow", "arrow (1, 2) is not a (row, col, kind) triple")),
            (AltTableau, [5], ("bad-arrow", "arrow 5 is not a (row, col, kind) triple")),
            (PermTableau, None, ("bad-cell", "1-cells None are not a sequence")),
            (validate_alt, None, ("bad-arrow", "arrows None are not a sequence")),
            (validate_alt, [(1, 2)], ("bad-arrow", "arrow (1, 2) is not a (row, col, kind) triple")),
            (validate_alt, [5], ("bad-arrow", "arrow 5 is not a (row, col, kind) triple")),
            (
                lambda labels, word, arrows: standard_tableau(word, arrows),
                [(1, 2)],
                ("bad-arrow", "arrow (1, 2) is not a (row, col, kind) triple"),
            ),
            (
                lambda labels, word, arrows: validate_alt(labels, word, iter(arrows)),
                [(1, 2, "L"), (3,)],
                ("bad-arrow", "arrow (3,) is not a (row, col, kind) triple"),
            ),
        ],
        ids=[
            "no-arrows", "pair-arrow", "int-arrow", "no-cells", "validate-no-arrows",
            "validate-pair-arrow", "validate-int-arrow", "standard-pair-arrow", "validate-iterator",
        ],
    )
    def test_malformed_constructor_input_is_a_validation_error(self, make, items, violation):
        with pytest.raises(ValidationError) as err:
            make((1, 2), "DE", items)
        assert [(v.code, v.detail) for v in err.value.violations] == [violation]

    @pytest.mark.parametrize("make", [AltTableau, validate_alt])
    @pytest.mark.parametrize(
        "arrow",
        [([1], 2, "L"), (1.0, 2, "L"), (True, 2, "L"), (1, [2], "U"), (1, 2.0, "U"), (1, True, "U")],
        ids=["list-row", "float-row", "bool-row", "list-col", "float-col", "bool-col"],
    )
    def test_an_arrow_off_the_integers_is_refused(self, make, arrow):
        # Refused with the item rule, never let through to fail as unhashable
        # or to stand on the cell of an equal integer.
        with pytest.raises(ValidationError) as err:
            make((1, 2), "DE", [arrow])
        detail = f"arrow {arrow} has a row or column that is not an integer"
        assert [(v.code, v.detail) for v in err.value.violations] == [("bad-arrow", detail)]

    def test_each_malformed_arrow_is_listed_with_the_other_violations(self):
        with pytest.raises(ValidationError) as err:
            AltTableau((2, 1), "DE", [(1, 2, "X"), (1,), [1, 2, "L"], (1.0, 2, "L")])
        codes = [v.code for v in err.value.violations]
        assert codes == ["label-order", "bad-arrow-kind", "bad-arrow", "bad-arrow"]
        assert AltTableau((1, 2), "DE", [[1, 2, "L"]]).arrows == ((1, 2, "L"),)

    def test_the_validator_lists_each_malformed_arrow_in_arrow_order(self):
        arrows = [(1, 2, "L"), (3,), (1, 2, "U"), (1.5, 4, "L"), (9, 9, "L"), "ab"]
        with pytest.raises(ValidationError) as err:
            validate_alt((1, 2, 3, 4), "DEDE", arrows)
        codes = [v.code for v in err.value.violations]
        assert codes == ["bad-arrow", "duplicate-cell", "bad-arrow", "arrow-off-shape", "bad-arrow"]
        assert validate_alt((1, 2), "DE", [[1, 2, "L"]]).arrows == ((1, 2, "L"),)

    def test_the_validator_builds_from_the_arrows_it_checked(self):
        t = validate_alt((1, 2, 3, 4), "DEDE", iter([(1, 2, "L"), (3, 4, "U")]))
        assert t.arrows == ((1, 2, "L"), (3, 4, "U"))

    def test_each_permutation_tableau_is_checked_and_read_once(self, monkeypatch):
        runs = []
        real = core._read_perm_tableau
        monkeypatch.setattr(core, "_read_perm_tableau", lambda p: runs.append(p) or real(p))
        parsed = parse_perm_tableau("DDE|1,3")
        built = PermTableau((1, 2, 3), "DDE", ((1, 3),))
        grown = to_perm_tableau(standard_tableau("DE", [(1, 2, "U")]))
        for p in (parsed, built, grown):
            for _ in range(2):
                from_perm_tableau(p)
                perm_tableau_stats(p)
        assert list(map(id, runs)) == [id(parsed), id(built), id(grown)]

    def test_a_failed_check_is_not_remembered(self, monkeypatch):
        runs = []
        real = core._read_perm_tableau
        monkeypatch.setattr(core, "_read_perm_tableau", lambda p: runs.append(p) or real(p))
        p = PermTableau((1, 2, 3, 4), "DDEE", ((1, 3), (1, 4), (2, 4)))  # (2,3) is blocked
        for read in (from_perm_tableau, perm_tableau_stats, from_perm_tableau):
            with pytest.raises(ValidationError) as err:
                read(p)
            assert [v.code for v in err.value.violations] == ["zero-with-one-above-and-left"]
        assert len(runs) == 3 and "_reading" not in p.__dict__


class TestTextFormats:
    def test_corpus_parse_render(self, t0):
        assert render_tableau(t0) == T0_COMPACT
        assert parse_tableau(T0_COMPACT) == t0

    @pytest.mark.parametrize(
        "parse",
        [
            parse_tableau, parse_perm_tableau, parse_arcs, parse_forest, parse_bin_pair,
            parse_word, parse_signed,
        ],
        ids=["alt", "perm", "arcs", "forest", "bin-pair", "word", "signed"],
    )
    @pytest.mark.parametrize(
        "text", [None, b"DE|L1,2", 12, ["DE|L1,2"]], ids=["none", "bytes", "int", "list"]
    )
    def test_input_that_is_not_a_str_is_a_parse_error(self, parse, text):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == 0 and type(text).__name__ in str(err.value)

    def test_empty_string_is_a_parse_error(self):
        with pytest.raises(ParseError):
            parse_tableau("")

    def test_empty_tableau_renders_as_bar(self):
        assert render_tableau(empty_tableau()) == "|"
        assert parse_tableau("|") == empty_tableau()

    def test_canonicalization_sorts_arrows(self):
        messy = "EEDDEDDEEDDED|L10,12;U6,8;L3,5;L7,9;U4,9;L6,9"
        assert render_tableau(parse_tableau(messy)) == T0_COMPACT

    def test_labels_prefix(self):
        t = parse_tableau("labels=3,5|DE|L3,5")
        assert t.labels == (3, 5)
        assert render_tableau(t) == "labels=3,5|DE|L3,5"

    def test_record_roundtrip(self, t0):
        record = render_tableau(t0, "record")
        assert "statistics=frow:3;fcol:4;fcell:4" in record
        assert parse_tableau(record) == t0

    @pytest.mark.parametrize("n", range(7))
    def test_record_statistics_equal_free_stats(self, n):
        for t in all_tableaux(n):
            self.check_record_statistics(t)

    def test_record_statistics_equal_free_stats_at_large_n(self):
        word = tuple(random.Random(7).sample(range(301), 301))
        self.check_record_statistics(from_permutation(word))

    @staticmethod
    def check_record_statistics(t):
        record = render_tableau(t, "record")
        assert "_free_stats" not in t.__dict__  # counted, not listed
        stats = free_stats(t)
        assert record.splitlines()[-1] == (
            f"statistics=frow:{stats.frow};fcol:{stats.fcol};fcell:{stats.fcell}"
        )
        assert render_tableau(t, "record") == record  # from the remembered statistics

    @given(raw_tableaux())
    @example(AltTableau((1, 2, 3), "DDE", ((1, 3, "U"), (2, 3, "U"))))  # an up arrow above another
    @example(AltTableau((1, 2, 3), "DEE", ((1, 2, "L"), (1, 3, "U"))))  # left of a left arrow
    @example(AltTableau((1, 2), "DE", ((1, 2, "U"), (1, 2, "U"))))  # two arrows on one cell
    def test_record_of_an_unchecked_tableau_equals_the_grid_scan(self, t):
        assert render_tableau(t, "record") == record_by_grid(t)

    @given(compact_texts())
    def test_compact_parse_equals_reading_part_by_part(self, drawn):
        cells, text = drawn
        assume(cells or not ("\n" in text.strip() or text.strip().startswith("word=")))
        parse, validate = (
            (parse_perm_tableau, validate_perm_tableau) if cells else (parse_tableau, validate_alt)
        )
        want = result_or_error(lambda: validate(*parse_compact_by_parts(text, cells)))
        assert result_or_error(parse, text) == want

    def test_grid(self):
        assert render_tableau(standard_tableau("DE", [(1, 2, "L")]), "grid") == (
            "  2\n1 <"
        )

    def test_syntax_error_position(self):
        with pytest.raises(ParseError) as err:
            parse_tableau("DE|X1,2")
        assert err.value.position == 3

    @pytest.mark.parametrize(
        "text, position",
        [
            ("word=DE\n\narrows=[1,2,L]x", 16),
            ("word=DE\nlabels=1,x", 15),
            ("labels=1,x\nword=DE", 7),
            ("word=DE\r\n  labels =  1,x", 21),
            (f"word=DE\narrows=[1,2,L];[1,{HUGE},L]", 23),
            ("word=DE\narrows=[1,2,L];[1,x,L]", 23),
        ],
        ids=["arrows", "labels", "labels-first", "spaces-and-crlf", "arrow-entry", "bad-entry"],
    )
    def test_record_error_position_is_where_the_value_starts(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_tableau(text)
        assert err.value.position == position
        assert text[position] in "1["

    @pytest.mark.parametrize(
        "parse, text, position",
        [
            (parse_tableau, "\n\nword=DE\nlabels=1,x", 17),
            (parse_tableau, " \n word=DE\narrows=[1,2,L]x", 18),
            (parse_tableau, "  DE|X1,2", 5),
            (parse_tableau, "\t labels=1,x|DE|", 9),
            (parse_perm_tableau, "  DE|x", 5),
            (parse_arcs, f"  points=0..{HUGE} arcs=", 12),
        ],
        ids=["record-labels", "record-arrows", "compact", "compact-labels", "permtab", "arcs"],
    )
    def test_error_position_counts_the_whitespace_before_the_text(self, parse, text, position):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position
        assert text[position] in "1[X9x"

    @pytest.mark.parametrize(
        "text, position, message",
        [
            ("word=DE\nfoo=1", 8, "unknown keys ['foo']"),
            ("foo=1\nword=DE\nbar=2", 0, "unknown keys ['bar', 'foo']"),
            ("word=DE\n  zz = 3\nfoo=1", 8, "unknown keys ['foo', 'zz']"),
            ("\n\nword=DE\nfoo=1", 10, "unknown keys ['foo']"),
            ("labels=1,2\narrows=", 0, "record missing 'word'"),
            ("\n labels=1,2\narrows=", 0, "record missing 'word'"),
        ],
        ids=["second-line", "first-line", "first-of-two", "after-blank-lines", "no-word", "no-word-lead"],
    )
    def test_record_key_errors_are_reported_at_the_first_bad_line(self, text, position, message):
        # An unknown key is reported where its line starts; a missing word
        # has no line, and is reported at the start of the text.
        with pytest.raises(ParseError) as err:
            parse_tableau(text)
        assert err.value.position == position and str(err.value).startswith(message)

    @pytest.mark.parametrize("digits", ["\u0662", "+2", "0_2", "\u00b2"], ids=["arabic", "sign", "underscore", "sup"])
    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_tableau, "DE|L1,{}"),
            (parse_tableau, "labels=1,{}|DE|"),
            (parse_tableau, "word=DE\nlabels=1,{}"),
            (parse_tableau, "word=DE\narrows=[1,{},L]"),
            (parse_perm_tableau, "DE|1,{}"),
            (parse_perm_tableau, "labels=1,{}|DE|1,{}"),
            (parse_arcs, "points=0..{} arcs=(0,1)(0,2)"),
            (parse_arcs, "points=0..2 arcs=(0,1)(0,{})"),
            (parse_forest, "(W 1 (B {}))"),
            (parse_bin_pair, "({} L:- R:-) -"),
            (parse_word, "1 {} 0"),
            (parse_signed, "1 {}'"),
        ],
        ids=[
            "compact", "compact-labels", "record-labels", "record-arrows", "permtab",
            "permtab-labels", "arcs-points", "arcs", "forest", "bin-pair", "word", "signed",
        ],
    )
    def test_every_reader_takes_ascii_digits_only(self, parse, text, digits):
        # Each text reads with the number 2; ``int`` reads the other forms
        # of it (but "²"), and the grammar refuses them all.
        parse(text.format("2", "2"))
        with pytest.raises(ParseError):
            parse(text.format(digits, digits))

    def test_perm_tableau_roundtrip(self, t0):
        p = to_perm_tableau(t0)
        assert parse_perm_tableau(render_perm_tableau(p)) == p

    @given(tableaux(max_len=9))
    def test_parse_render_identity(self, t):
        assert parse_tableau(render_tableau(t)) == t
        assert parse_tableau(render_tableau(t, "record")) == t

    @pytest.mark.parametrize("text", ["word=DE\nlabels=a,b", "word=DE\narrows=[1,x,L]"])
    def test_record_with_a_bad_number_is_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_tableau(text)

    @pytest.mark.parametrize(
        "text",
        [
            "word=DE\narrows=garbage[1,2,L]more[junk",
            "word=DE\narrows=[ 1 , 2 , L ]",
            "word=DE\narrows=[+1,2,L]",
            "word=DE\nlabels=1,20\narrows=[1,2_0,L]",
            "word=DE\narrows=[1,2,L]x",
            "word=DE\nlabels= +1,+2\narrows=[ +1 , 2 , L ]",
            "word=DE\nlabels=1_0,2_0",
            "labels=1_0,2_0|DE|",
            "labels=1, 2|DE|",
        ],
    )
    def test_text_outside_the_grammar_is_a_parse_error(self, text):
        # Each of these once read as a tableau: text around the brackets was
        # skipped and every entry went through a plain int().
        with pytest.raises(ParseError):
            parse_tableau(text)

    @pytest.mark.parametrize(
        "parse, text, position, message",
        [
            (parse_tableau, "DE|;;X", 5, "bad arrow 'X' (1 characters)"),
            (parse_tableau, " DE|L1,2;;;L1,x", 11, "bad arrow 'L1,x' (4 characters)"),
            (parse_perm_tableau, "DE|;;x", 5, "bad cell 'x' (1 characters)"),
            (parse_perm_tableau, "DE|;1,2\n;;x", 10, "bad cell 'x' (1 characters)"),
            (parse_tableau, "word=DE\narrows=;;x", 17, "bad arrow entry 'x' (1 characters)"),
            (
                parse_tableau, "word=DE\narrows=;[1,2,L];;[1,x,L]", 25,
                "bad arrow entry '[1,x,L]' (7 characters)",
            ),
            (parse_tableau, f"DE|;;L1,{HUGE}", 5, f"bad number {_shown(HUGE)}"),
            (parse_tableau, f"word=DE\narrows=;;[1,{HUGE},L]", 17, f"bad number {_shown(HUGE)}"),
        ],
        ids=[
            "compact", "compact-three", "permtab", "permtab-newline", "record", "record-entry",
            "compact-number", "record-number",
        ],
    )
    def test_a_bad_part_after_empty_parts_is_reported_where_it_starts(
        self, parse, text, position, message
    ):
        # An empty part still takes the room of its ``;``.
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.position, err.value.message) == (position, message)

    def test_a_bad_arc_is_reported_where_it_starts(self):
        text = f"points=0..2 arcs=(0,1)(0,{'9' * 5000})"
        with pytest.raises(ParseError) as err:
            parse_arcs(text)
        assert err.value.position == 22 and err.value.message.startswith("bad number '99")

    def test_record_arrow_list_may_have_empty_parts_as_compact_lists_do(self):
        assert parse_tableau("word=DE\narrows=[1,2,L];") == parse_tableau("DE|L1,2;")

    @pytest.mark.parametrize(
        "parse, text",
        [
            (parse_tableau, f"DE|L1,{HUGE}"),
            (parse_tableau, f"labels=1,{HUGE}|DE|"),
            (parse_tableau, f"word=DE\nlabels=1,{HUGE}"),
            (parse_tableau, f"word=DE\narrows=[1,{HUGE},L]"),
            (parse_perm_tableau, f"DE|1,{HUGE}"),
        ],
        ids=["compact-arrow", "compact-labels", "record-labels", "record-arrow", "permtab"],
    )
    def test_number_beyond_the_digit_limit_is_a_parse_error(self, parse, text):
        with pytest.raises(ParseError):
            parse(text)

    @pytest.mark.parametrize(
        "text, field",
        [
            (f"labels=1,{HUGE}|DE|", f"1,{HUGE}"),
            (f"word=DE\nlabels=1,{HUGE}", f"1,{HUGE}"),
            (f"word=DE\narrows=[1,{HUGE},L]", HUGE),
        ],
        ids=["compact-labels", "record-labels", "record-arrow"],
    )
    def test_parse_error_cuts_the_field_it_shows(self, text, field):
        with pytest.raises(ParseError) as exc:
            parse_tableau(text)
        message = str(exc.value)
        assert f"'{field[:20]}...' ({len(field)} characters)" in message
        assert len(message) < 100


@pytest.mark.parametrize(
    "error",
    [
        TableauError("bad input"),
        ResourceLimitError("counting for n=25 exceeds the cap 24; set ALTAB_MAX_COUNT_N to raise it"),
        DomainError("label-collision", "labels 3 and 3 collide"),
        ParseError("x", 3),
        ParseError("unknown keys ['foo']", 0, 2),
        ValidationError([Violation("a", "b"), Violation("not-minimal", "white 5 is not minimal")]),
        ValidationError([]),
        LineError(DomainError("label-collision", "labels [2] appear on both sides"), 3),
    ],
    ids=["base", "cap", "domain", "parse", "parse-line", "validation", "no-violations", "line"],
)
def test_every_error_survives_pickle(error):
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is type(error)
    assert str(back) == str(error)
    for field in ("code", "message", "position", "line", "violations"):
        assert getattr(back, field, None) == getattr(error, field, None), field


PACKAGE = Path(alttab.__file__).parent
# Each reads a value of the given length, 200,000 or 1, and raises on it.
SHOWN_VALUES = {
    "word": lambda v: AltTableau(tuple(range(1, len(v) + 1)), v),
    "weight": weight_poly,
    "style": lambda v: render_tableau(empty_tableau(), v),
    "color": lambda v: _word_to_tree((1, 2), v),
}


@pytest.mark.parametrize("read", SHOWN_VALUES.values(), ids=SHOWN_VALUES.keys())
def test_an_error_shows_a_long_value_cut(read):
    with pytest.raises(TableauError) as err:
        read("X" * 200_000)
    message = str(err.value)
    assert "'XXXXXXXXXXXXXXXXXXXX...' (200000 characters)" in message and len(message) < 200


@pytest.mark.parametrize(
    "read, message",
    [
        (SHOWN_VALUES["word"], "bad-step: word 'X' has letters outside D/E"),
        (SHOWN_VALUES["weight"], "bad-word: border word 'X' is not over D and E"),
        (SHOWN_VALUES["style"], "bad-style: unknown render style 'X'"),
        (SHOWN_VALUES["color"], "bad-color: unknown color 'X'"),
    ],
    ids=SHOWN_VALUES.keys(),
)
def test_an_error_shows_a_short_value_whole(read, message):
    with pytest.raises(TableauError) as err:
        read("X")
    assert str(err.value) == message


def test_a_cap_setting_is_shown_cut(monkeypatch):
    monkeypatch.setenv("ALTAB_MAX_N", "X")
    with pytest.raises(ResourceLimitError) as err:
        cap_limit(("ALTAB_MAX_N", 9))
    assert str(err.value) == "ALTAB_MAX_N='X' is not a non-negative integer"
    monkeypatch.setenv("ALTAB_MAX_N", "X" * 100)
    with pytest.raises(ResourceLimitError) as err:
        cap_limit(("ALTAB_MAX_N", 9))
    assert str(err.value) == (
        "ALTAB_MAX_N='XXXXXXXXXXXXXXXXXXXX...' (100 characters) is not a non-negative integer"
    )


def test_no_error_message_shows_a_value_by_its_repr():
    # A ``!r`` shows a value whole, however long; messages go through
    # ``errors._shown_value`` or ``_shown_number``, which cut it.
    errors = {
        name
        for module in vars(alttab).values()
        if hasattr(module, "__file__")
        for name, obj in vars(module).items()
        if isinstance(obj, type) and issubclass(obj, TableauError)
    } | {"Violation"}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in errors:
                continue
            for arg in [*call.args, *(k.value for k in call.keywords)]:
                for node in ast.walk(arg):
                    if isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                        found.append(f"{path.name}:{node.lineno}")
    assert errors >= {"ParseError", "DomainError", "ResourceLimitError", "LineError"}
    assert found == []


def test_one_function_grows_a_sorted_list_of_columns():
    # ``core._sweep`` states once when a column opens at a row; the free
    # cells and a permutation tableau's restricted 0s are read through it.
    calls: dict[str, set] = {}
    insorts = 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                insorts += name in ("insort", "insort_left", "insort_right")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                calls[f"{path.stem}.{node.name}"] = {
                    getattr(c.func, "id", getattr(c.func, "attr", None))
                    for c in ast.walk(node)
                    if isinstance(c, ast.Call)
                }
    growers = [name for name, called in calls.items() if "insort" in called]
    assert growers == ["core._sweep"] and insorts == 1
    for reader in ("_unpointed", "_free_counts", "_read_perm_tableau"):
        assert "_sweep" in calls[f"core.{reader}"], reader


def test_one_function_mirrors_a_half():
    # ``core._mirrored`` is the one construction of a transpose-fixed
    # tableau from its half; neither caller relabels a transpose itself.
    def name(node: ast.AST) -> str | None:
        return getattr(node, "id", getattr(node, "attr", None))

    for module in ("permutations", "enumeration"):
        calls = [
            node
            for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
            if isinstance(node, ast.Call)
        ]
        relabeled = [
            call.lineno
            for call in calls
            if name(call.func) == "relabel"
            and any(isinstance(a, ast.Call) and name(a.func) == "transpose" for a in call.args)
        ]
        assert relabeled == [], module
        assert "_mirrored" in {name(call.func) for call in calls}, module


def test_the_digit_class_is_written_only_in_core():
    # Every other module builds its numbers on ``core._NUMBER``.
    writers = [path.name for path in sorted(PACKAGE.glob("*.py")) if "[0-9]" in path.read_text()]
    assert writers == ["core.py"]
