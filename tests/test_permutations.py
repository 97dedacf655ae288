"""Word statistics and the permutation bijections."""

from __future__ import annotations

import math
import random
import tracemalloc
from itertools import permutations as iter_permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from alttab.core import AltTableau, free_stats, relabel, standard_tableau
from alttab.decomposition import restrict
from alttab.enumeration import all_tableaux, symmetric_tableaux
from alttab.errors import DomainError, ParseError, ValidationError
from alttab.oracles import word_to_forest, word_to_tree
from alttab.permutations import (
    SignedPerm,
    check_word,
    forest_word,
    from_permutation,
    from_signed_permutation,
    insertion_steps,
    parse_signed,
    parse_word,
    perm_stats,
    render_signed,
    render_word,
    to_permutation,
    to_permutation_by_insertion,
    to_signed_permutation,
)
from alttab.trees import BLACK, WHITE, PlaneAltForest, from_forest, to_forest, to_tree

from conftest import tableaux

SIGMA0 = (10, 12, 3, 5, 2, 1, 0, 8, 6, 7, 9, 4, 11, 13)

# The worked insertion example, column by column.
SIGMA0_TRACE = [
    (0, 4, 11, 13),
    (10, 12, 0, 4, 11, 13),
    (10, 12, 0, 6, 7, 9, 4, 11, 13),
    (10, 12, 0, 8, 6, 7, 9, 4, 11, 13),
    (10, 12, 3, 5, 0, 8, 6, 7, 9, 4, 11, 13),
    (10, 12, 3, 5, 2, 0, 8, 6, 7, 9, 4, 11, 13),
    SIGMA0,
]


def naive_stats(word):
    """Quadratic re-derivation of every statistic, straight from the definitions."""
    n = len(word)
    ascents = {a for k, a in enumerate(word) if k == n - 1 or a < word[k + 1]}
    descents = {a for k, a in enumerate(word) if k < n - 1 and a > word[k + 1]}
    minima = {a for k, a in enumerate(word) if all(a < b for b in word[k + 1 :])}
    maxima = {a for k, a in enumerate(word) if all(a > b for b in word[k + 1 :])}
    prefix = word[: word.index(min(word))] if word else ()
    shifted = {a for k, a in enumerate(prefix) if all(a > b for b in prefix[k + 1 :])}
    return ascents, descents, minima, maxima, shifted


class TestPermStats:
    def test_corpus_word(self):
        stats = perm_stats(SIGMA0)
        keep = set(range(1, 14))
        assert stats.rl_minima & keep == {4, 11, 13}
        assert stats.shifted_rl_maxima == {1, 2, 5, 12}
        assert stats.ascent_letters & keep == {3, 4, 6, 7, 10, 11, 13}
        assert stats.descent_letters & keep == {1, 2, 5, 8, 9, 12}

    def test_two_letter_words(self):
        up = perm_stats((0, 1))
        assert up.ascent_letters == {0, 1}
        assert up.rl_minima == {0, 1}
        assert up.shifted_rl_maxima == set()
        down = perm_stats((1, 0))
        assert down.descent_letters == {1}
        assert down.shifted_rl_maxima == {1}

    def test_repeated_letter(self):
        with pytest.raises(DomainError) as err:
            perm_stats((1, 1))
        assert err.value.code == "repeated-letter"

    @pytest.mark.parametrize(
        "make",
        [
            lambda: from_permutation(["a"]),
            lambda: from_permutation([0, 1.0]),
            lambda: perm_stats([[1], 0]),
            lambda: SignedPerm((1, "a")),
            lambda: SignedPerm((1, 2.0)),
            lambda: SignedPerm((1,), frozenset({"x"})),
            lambda: SignedPerm((10**5000,)),
            lambda: from_permutation([10**5000, 10**5000, 0]),
            lambda: from_permutation([-(10**5000), 0]),
            lambda: from_permutation([0, None]),
            lambda: check_word([2.0, 0]),
            lambda: check_word(["1"]),
            lambda: from_permutation([2, True, 0]),
        ],
        ids=[
            "str-letter", "float-letter", "list-letter", "signed-str-letter",
            "signed-float-letter", "str-bar", "huge-signed-letter", "huge-repeated-letter",
            "huge-negative-letter", "none-letter", "float-word", "str-word", "bool-letter",
        ],
    )
    def test_a_bad_letter_is_a_domain_error(self, make):
        with pytest.raises(DomainError) as err:
            make()
        assert err.value.code in ("bad-letter", "bad-word", "repeated-letter", "negative-letter")

    def test_last_letter_is_min_and_max(self):
        stats = perm_stats((3, 1, 2))
        assert 2 in stats.rl_minima and 2 in stats.rl_maxima

    @given(st.permutations(list(range(8))))
    def test_matches_naive_scan(self, word):
        word = tuple(word)
        stats = perm_stats(word)
        ascents, descents, minima, maxima, shifted = naive_stats(word)
        assert stats.ascent_letters == ascents
        assert stats.descent_letters == descents
        assert stats.rl_minima == minima
        assert stats.rl_maxima == maxima
        assert stats.shifted_rl_maxima == shifted


class TestTreeWords:
    def test_corpus_component_postorder(self, t0):
        tree = to_tree(restrict(t0, {4, 6, 7, 8, 9}))
        assert forest_word(PlaneAltForest((tree,)), 0) == (0, 8, 6, 7, 9, 4)
        assert word_to_tree((8, 6, 7, 9, 4), WHITE) == tree

    def test_leaf(self):
        from alttab.trees import PlaneAltTree

        assert forest_word(PlaneAltForest((PlaneAltTree(WHITE, 7),)), 0) == (0, 7)

    def test_bad_terminal(self):
        with pytest.raises(DomainError) as err:
            word_to_tree((1, 2), WHITE)  # a white root must end with the minimum
        assert err.value.code == "bad-terminal-letter"

    def test_black_words_end_with_max(self):
        # Words ending in their maximum are exactly the black-rooted trees.
        for n in range(1, 8):
            words = [w for w in iter_permutations(range(1, n + 1)) if w[-1] == n]
            trees = {word_to_tree(w, BLACK) for w in words}
            assert len(trees) == math.factorial(n - 1)
            for w in words:
                assert forest_word(PlaneAltForest((word_to_tree(w, BLACK),)), 0) == w + (0,)


class TestForestWords:
    def test_corpus_assembly(self, t0):
        assert forest_word(to_forest(t0), 0) == SIGMA0
        assert word_to_forest(SIGMA0) == to_forest(t0)

    def test_empty_forest(self):
        from alttab.trees import PlaneAltForest

        assert forest_word(PlaneAltForest(), 0) == (0,)
        assert word_to_forest((0,)) == PlaneAltForest()

    def test_bad_separator(self, t0):
        with pytest.raises(DomainError) as err:
            forest_word(to_forest(t0), 1)
        assert err.value.code == "bad-separator"

    def test_an_invalid_forest_has_no_word(self):
        from alttab.trees import PlaneAltTree

        forest = PlaneAltForest((PlaneAltTree(WHITE, 2, (PlaneAltTree(BLACK, 1),)),))
        with pytest.raises(ValidationError) as err:
            forest_word(forest, 0)
        assert [v.code for v in err.value.violations] == ["not-minimal"]

    @given(st.permutations(list(range(8))))
    def test_total_on_permutations(self, word):
        forest = word_to_forest(tuple(word))
        assert forest_word(forest, min(word)) == tuple(word)

    @given(tableaux(max_len=9))
    def test_separator_is_unique_minimum(self, t):
        word = to_permutation(t)
        assert word.count(0) == 1 and min(word) == 0
        # Letters before the separator are exactly the black-rooted vertices.
        before = set(word[: word.index(0)])
        black = set()
        for tree in to_forest(t).trees:
            if tree.color == BLACK:
                black |= tree.labels()
        assert before == black


class TestTableauBijection:
    def test_corpus(self, t0):
        assert to_permutation(t0) == SIGMA0
        assert from_permutation(SIGMA0) == t0

    def test_singletons(self):
        assert to_permutation(standard_tableau("D")) == (0, 1)
        assert to_permutation(standard_tableau("E")) == (1, 0)

    @pytest.mark.parametrize("n", range(7))
    def test_bijection_onto_permutations(self, n):
        image = {to_permutation(t) for t in all_tableaux(n)}
        assert len(image) == math.factorial(n + 1)
        assert image == set(iter_permutations(range(n + 1)))

    @pytest.mark.parametrize("n", range(7))
    def test_statistic_transport(self, n):
        for t in all_tableaux(n):
            stats = free_stats(t)
            word_stats = perm_stats(to_permutation(t))
            keep = set(t.labels)
            assert set(t.rows) == word_stats.ascent_letters & keep
            assert set(t.columns) == word_stats.descent_letters & keep
            assert stats.free_rows == word_stats.rl_minima & keep
            assert stats.free_cols == word_stats.shifted_rl_maxima & keep

    @given(tableaux(max_len=10))
    def test_roundtrip_random(self, t):
        if t.is_standard():
            assert from_permutation(to_permutation(t)) == t

    @pytest.mark.parametrize("n", range(8))
    def test_direct_equals_the_forest_construction(self, n):
        for w in iter_permutations(range(n + 1)):
            assert from_permutation(w) == from_forest(word_to_forest(w))

    @pytest.mark.parametrize(
        "word, error",
        [
            ((), DomainError),
            ((2, 0, 2), DomainError),
            ((1, -1, 0), DomainError),
        ],
    )
    def test_errors_equal_the_forest_construction(self, word, error):
        messages = []
        for convert in (from_permutation, lambda w: from_forest(word_to_forest(w))):
            with pytest.raises(error) as err:
                convert(word)
            messages.append(str(err.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("n", range(5))
    def test_a_remembered_word_equals_a_fresh_one(self, n):
        for t in all_tableaux(n):
            word = to_permutation(t)
            assert to_permutation(t) is word
            assert word == forest_word(to_forest(AltTableau(t.labels, t.word, t.arrows)), 0)

    def test_another_separator_is_never_served_from_memory(self):
        t = relabel(standard_tableau("DEDE", [(1, 2, "L"), (3, 4, "U")]), (2, 3, 4, 5))
        word = to_permutation(t)
        assert word == forest_word(to_forest(t), 0)
        assert to_permutation(t, 1) == forest_word(to_forest(t), 1) != to_permutation(t)
        # An equal separator of another type is not the default either: it is refused.
        with pytest.raises(DomainError) as err:
            to_permutation(t, False)
        assert err.value.code == "bad-separator"
        assert to_permutation(t) is word == (2, 3, 0, 5, 4)
        with pytest.raises(DomainError):
            to_permutation(t, 2)

    @pytest.mark.parametrize(
        "separator", [1.5, True, False, "1", None, [0]],
        ids=["float", "true", "false", "str", "none", "list"],
    )
    def test_a_separator_that_is_not_an_integer_is_refused(self, separator):
        t = relabel(standard_tableau("DEDE", [(1, 2, "L"), (3, 4, "U")]), (2, 3, 4, 5))
        with pytest.raises(DomainError) as err:
            to_permutation(t, separator)
        assert err.value.code == "bad-separator" and "is not an integer" in str(err.value)

    @pytest.mark.parametrize("labels", [(1, 2, 3, 4), (3, 4, 6, 9)])
    def test_every_separator_below_the_labels_round_trips(self, labels):
        for t in all_tableaux(4):
            t = relabel(t, labels)
            for separator in range(labels[0]):
                assert from_permutation(to_permutation(t, separator)) == t

    @pytest.mark.parametrize("labels", [(0, 1, 2, 3), (1, 2, 3, 4), (2, 3, 5, 8)])
    def test_the_separator_is_checked_as_the_forest_word_checks_it(self, labels):
        def outcome(fn, *args):
            try:
                return fn(*args)
            except DomainError as err:
                return err.code, str(err)

        for t in all_tableaux(4):
            t = relabel(t, labels)
            for separator in (-1, 0, 1, 2, False, True):
                want = outcome(forest_word, to_forest(t), separator)
                assert outcome(to_permutation, t, separator) == want

    def test_the_separator_check_does_not_walk_the_forest(self, monkeypatch):
        t = relabel(standard_tableau("DEDE", [(1, 2, "L"), (3, 4, "U")]), (2, 3, 4, 5))
        want = forest_word(to_forest(t), 1)
        monkeypatch.setattr(PlaneAltForest, "labels", lambda f: pytest.fail("walked the forest"))
        assert to_permutation(t, 1) == want
        with pytest.raises(DomainError):
            to_permutation(t, 2)

    def test_words_beyond_the_oracle_bound_round_trip(self):
        # Past the bound of the recursive oracle: the direct pass has none.
        word = tuple(range(202))
        t = from_permutation(word)
        assert t == standard_tableau("D" * 201) and to_permutation(t) == word

    def test_chain_at_the_depth_cap(self):
        # The postorder word of the path 1 - 200 - 2 - 199 - ... - 100 - 101.
        chain = [label for k in range(100) for label in (1 + k, 200 - k)]
        word = (0,) + tuple(reversed(chain))
        t = from_permutation(word)
        assert t == from_forest(word_to_forest(word)) and len(t.arrows) == 199


class TestInsertion:
    def test_corpus_trace(self, t0):
        assert insertion_steps(t0) == SIGMA0_TRACE
        assert to_permutation_by_insertion(t0) == SIGMA0

    def test_no_columns(self):
        assert to_permutation_by_insertion(standard_tableau("D")) == (0, 1)

    @pytest.mark.parametrize("n", range(7))
    def test_matches_forest_bijection(self, n):
        for t in all_tableaux(n):
            assert to_permutation_by_insertion(t) == to_permutation(t)

    def test_only_the_current_word_is_kept(self):
        # All 3 001 steps of 3 001 labels would hold about 4.5 million letters.
        t = from_permutation(tuple(random.Random(3000).sample(range(3001), 3001)))
        tracemalloc.start()
        try:
            word = to_permutation_by_insertion(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert word == to_permutation(t) and peak < 2_000_000

    def test_non_standard_labels_rejected(self, t0):
        from alttab.core import relabel

        with pytest.raises(DomainError) as err:
            insertion_steps(relabel(t0, range(2, 15)))
        assert err.value.code == "non-standard-labels"


class TestSignedPermutations:
    def test_single_cell(self):
        sp = to_signed_permutation(standard_tableau("DE"))
        assert sp == SignedPerm((1,), frozenset())
        assert render_signed(sp) == "1"

    def test_single_bar(self):
        sp = to_signed_permutation(standard_tableau("ED"))
        assert sp == SignedPerm((1,), frozenset({0}))
        assert render_signed(sp) == "1'"

    def test_not_symmetric(self, t0):
        with pytest.raises(DomainError) as err:
            to_signed_permutation(t0)
        assert err.value.code == "not-symmetric"

    @pytest.mark.parametrize("n", range(1, 5))
    def test_bijective(self, n):
        image = set()
        for t in symmetric_tableaux(2 * n):
            sp = to_signed_permutation(t)
            assert from_signed_permutation(sp) == t
            image.add(sp)
        assert len(image) == 2**n * math.factorial(n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_the_word_is_the_forest_word_of_the_rows_half(self, n):
        # The word read off the arrows equals the one of the white-rooted
        # trees of the forest, folded: letters above n are barred.
        for t in symmetric_tableaux(2 * n):
            whites = [tree for tree in to_forest(t).trees if tree.color == WHITE]
            word = forest_word(PlaneAltForest(tuple(whites)), 0)[1:]
            sp = to_signed_permutation(t)
            assert sp.word == tuple(a if a <= n else 2 * n + 1 - a for a in word)
            assert sp.barred == {pos for pos, a in enumerate(word) if a > n}

    @pytest.mark.parametrize("n", [150, 200])
    def test_roundtrip_up_to_the_depth_cap(self, n):
        # The tableau has 2n labels; only its rows half of n labels is capped.
        word = tuple(range(n, 0, -1))
        sp = SignedPerm(word[1::2] + word[0::2], frozenset(range(0, n, 3)))
        t = from_signed_permutation(sp)
        assert len(t) == 2 * n
        assert to_signed_permutation(t) == sp

    def test_integers_that_are_not_ints_are_still_letters_and_positions(self):
        # An int is taken at once; any other Integral through the ABC, as before.
        assert SignedPerm((2, True), frozenset({False})).barred == {0}
        with pytest.raises(DomainError):
            SignedPerm((2, 1), frozenset({2}))

    def test_roundtrip_beyond_the_depth_cap_is_refused(self):
        # Named for the 200-letter cap this once hit: it now round-trips.
        sp = SignedPerm(tuple(range(1, 202)))
        t = from_signed_permutation(sp)
        assert len(t) == 402 and to_signed_permutation(t) == sp


class TestTextFormats:
    def test_word_roundtrip(self):
        assert parse_word(render_word(SIGMA0)) == SIGMA0
        assert render_word(SIGMA0) == "10 12 3 5 2 1 0 8 6 7 9 4 11 13"

    def test_signed_roundtrip(self):
        sp = SignedPerm((3, 1, 2), frozenset({1}))
        assert render_signed(sp) == "3 1' 2"
        assert parse_signed("3 1' 2") == sp

    def test_check_word(self):
        with pytest.raises(DomainError):
            check_word((2, 2))

    @pytest.mark.parametrize(
        "parse, text, position",
        [
            (parse_word, "0 " + "1" * 5000, 2),
            (parse_signed, "1" * 5000, 0),
            (parse_signed, "1 \u00b2", 2),  # "²" is a digit to isdigit() but not to int()
            (parse_word, "0 1 x 2", 4),
            (parse_signed, "1 2x 3", 2),
            (parse_word, " \t0 1 x 2 y", 6),
            (parse_signed, "  1\u00a02x' 3", 4),  # a no-break space separates letters
        ],
        ids=["word", "signed", "signed-sup2", "word-x", "signed-x", "word-indented", "signed-nbsp"],
    )
    def test_letter_int_refuses_is_a_parse_error(self, parse, text, position):
        # The position counts in the text as given, leading whitespace included.
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.position == position

    @pytest.mark.parametrize("parse", [parse_word, parse_signed], ids=["word", "signed"])
    @pytest.mark.parametrize(
        "text, position, message",
        [
            (" 1 2x 3", 3, "bad letter '2x'"),
            ("1 2'' 3", 2, "bad letter \"2''\""),
            ("1 " + "x" * 100, 2, "bad letter 'xxxxxxxxxxxxxxxxxxxx...' (100 characters)"),
        ],
        ids=["x", "two-bars", "long"],
    )
    def test_both_readers_name_a_bad_letter_alike(self, parse, text, position, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.position, err.value.message) == (position, message)
