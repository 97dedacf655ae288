"""Generators, count tables, weights, the exclusion process, and the
counting-formula report."""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from alttab import enumeration, oracles
from alttab.checks import ASEP_TRIPLES, formula_report
from alttab.core import (
    free_stats,
    render_tableau,
    standard_tableau,
    to_perm_tableau,
    transpose,
    validate_alt,
)
from alttab.enumeration import (
    CHAIN_CAP,
    HOLE,
    PARTICLE,
    AsepParams,
    MarkedTableau,
    all_tableaux,
    all_via_perm,
    asep_distribution,
    catalan,
    chain_stationary,
    count_table,
    decorated_bijection,
    decorated_bijection_inv,
    decorated_count,
    product_formula,
    shape_words,
    solve_stationary,
    states,
    symmetric_tableaux,
    transition_matrix,
    weight_poly,
)
from alttab.errors import DomainError, ResourceLimitError, cap_limit, check_cap
from alttab.oracles import all_perm_tableaux, count_table_by_corners, weight_poly_by_fillings
from alttab.series import Poly3

from conftest import corner_table_at_every_corner

# The shape of a state: particles are row steps, holes column steps.
SHAPE = str.maketrans({PARTICLE: "D", HOLE: "E"})

# Weight polynomials by shape, shared by the hypothesis examples.
_weight = functools.lru_cache(maxsize=None)(weight_poly)


@functools.lru_cache(maxsize=None)
def _folded_table(n):
    """The count table of length n folded from T(0) by the insertion step,
    checked once against the corner recursion."""
    counts = functools.reduce(enumeration._insert_label, range(n), {(0, 0, 0): 1})
    assert counts == count_table_by_corners(n).counts
    return counts


def _reset_chain(monkeypatch):
    """Start ``count_table`` from T(0) whatever ran before; restored after the test."""
    monkeypatch.setattr(enumeration, "_last_table", (0, {(0, 0, 0): 1}))


class TestGenerators:
    def test_smallest_sizes(self):
        assert [render_tableau(t) for t in all_tableaux(0)] == ["|"]
        assert [render_tableau(t) for t in all_tableaux(2)] == [
            "DD|", "DE|", "DE|L1,2", "DE|U1,2", "ED|", "EE|",
        ]

    @pytest.mark.parametrize("n", range(8))
    def test_factorial_count(self, n):
        assert sum(1 for _ in all_tableaux(n)) == math.factorial(n + 1)

    @pytest.mark.parametrize("n", range(6))
    def test_all_generated_are_valid_and_distinct(self, n):
        seen = set()
        for t in all_tableaux(n):
            validate_alt(t.labels, t.word, t.arrows)
            rows = [a.row for a in t.arrows if a.kind == "L"]
            cols = [a.col for a in t.arrows if a.kind == "U"]
            assert len(rows) == len(set(rows)) and len(cols) == len(set(cols))
            seen.add(t)
        assert len(seen) == math.factorial(n + 1)

    @pytest.mark.parametrize("n", range(6))
    def test_generators_agree(self, n):
        assert set(all_tableaux(n)) == set(all_via_perm(n))

    def test_perm_generator_count_matches(self):
        n = 6
        distinct = {(t.word, t.arrows) for t in all_via_perm(n)}
        assert len(distinct) == math.factorial(n + 1)

    def test_via_perm_singletons(self):
        words = {t.word for t in all_via_perm(1)}
        assert words == {"D", "E"}

    def test_resource_cap(self, monkeypatch):
        monkeypatch.setenv("ALTAB_MAX_N", "3")
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_N"):
            list(all_tableaux(4))
        # Counting runs on the insertion recurrence and has its own cap.
        assert count_table(4).total() == 120
        monkeypatch.setenv("ALTAB_MAX_N", "4")
        assert sum(1 for _ in all_tableaux(4)) == 120

    @pytest.mark.parametrize("n", range(1, 9))
    def test_perm_tableaux_counted_by_factorial(self, n):
        # Same count as alternative tableaux one size down, from two
        # independent generators.
        count = sum(1 for _ in all_perm_tableaux(n))
        assert count == math.factorial(n)
        assert count == sum(1 for _ in all_tableaux(n - 1))

    @pytest.mark.parametrize("n", range(7))
    def test_perm_tableaux_are_the_image(self, n):
        # Two independent generators: direct 0/1 backtracking versus growing
        # every alternative tableau one step.
        image = {
            standardize_perm(to_perm_tableau(t)) for t in all_tableaux(n)
        }
        direct = set(all_perm_tableaux(n + 1))
        assert image == direct


def standardize_perm(p):
    from alttab.core import PermTableau

    offset = dict(zip(p.labels, range(1, len(p.labels) + 1)))
    return PermTableau(
        tuple(range(1, len(p.labels) + 1)),
        p.word,
        tuple(sorted((offset[i], offset[j]) for i, j in p.ones)),
    )


class TestCountTable:
    def test_n2_marginals(self):
        table = count_table(2).by_free()
        assert table == {(1, 0): 1, (0, 1): 1, (2, 0): 1, (0, 2): 1, (1, 1): 2}

    def test_free_poly_matches_product(self):
        x, y = Poly3.var("x"), Poly3.var("y")
        assert count_table(1).free_poly() == x + y
        assert count_table(2).free_poly() == (x + y) * (x + y + 1)
        for n in range(7):
            assert count_table(n).free_poly() == product_formula(n)

    def test_total(self):
        assert count_table(6).total() == 5040

    def test_transpose_symmetry(self):
        for n in range(6):
            counts = count_table(n).counts
            assert all(
                counts[(i, j, k)] == counts.get((j, i, n - k), 0) for (i, j, k) in counts
            )

    @pytest.mark.parametrize("n", range(8))
    def test_recursion_matches_enumeration(self, n):
        enumerated: dict[tuple[int, int, int], int] = {}
        for t in all_tableaux(n):
            stats = free_stats(t)
            key = (stats.frow, stats.fcol, t.word.count("D"))
            enumerated[key] = enumerated.get(key, 0) + 1
        assert count_table(n).counts == enumerated

    @pytest.mark.parametrize("n", range(13))
    def test_recurrence_matches_the_corner_recursion(self, n):
        assert count_table(n).counts == count_table_by_corners(n).counts

    @pytest.mark.parametrize("n", range(9, 25))
    def test_beyond_enumeration(self, n):
        table = count_table(n)
        assert table.total() == math.factorial(n + 1)
        assert sum(c for (i, _, _), c in table.counts.items() if i == 0) == math.factorial(n)
        assert table.free_poly() == product_formula(n)
        counts = table.counts
        assert all(counts[(i, j, k)] == counts.get((j, i, n - k), 0) for (i, j, k) in counts)
        # Tableaux of length n by rows are permutations of n + 1 letters by
        # descents: the Eulerian numbers, here by their alternating sum.
        by_rows: dict[int, int] = {}
        for (_, _, k), c in counts.items():
            by_rows[k] = by_rows.get(k, 0) + c
        eulerian = {
            k: sum((-1) ** i * math.comb(n + 2, i) * (k + 1 - i) ** (n + 1) for i in range(k + 1))
            for k in range(n + 1)
        }
        assert by_rows == eulerian

    def test_counting_never_walks_the_shapes(self, monkeypatch):
        def no_shapes(*args):
            raise AssertionError("counting walked the 2^n shapes")

        monkeypatch.setattr(enumeration, "_bidiagonal_pass", no_shapes)
        monkeypatch.setattr(enumeration, "_corner_table", no_shapes)
        monkeypatch.setattr(oracles, "_corner_table", no_shapes)
        monkeypatch.setattr(enumeration, "shape_words", no_shapes)
        assert count_table(24).total() == math.factorial(25)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 12), st.sampled_from(("keep", "clear", "edit"))),
            min_size=1,
            max_size=12,
        )
    )
    @example([(3, "clear"), (3, "edit"), (5, "keep"), (2, "edit"), (2, "keep"), (12, "keep")])
    def test_the_chain_returns_the_folded_table_in_any_order(self, requests):
        # The last table built is extended or restarted from; a caller's copy
        # may be cleared or edited without reaching the chain.
        for n, change in requests:
            table = count_table(n)
            assert table.n == n and table.counts == _folded_table(n)
            if change == "clear":
                table.counts.clear()
            elif change == "edit":
                table.counts[(0, 0, 0)] = -1
                table.counts[next(iter(table.counts))] += 7

    def test_a_step_that_raises_leaves_later_tables_right(self, monkeypatch):
        _reset_chain(monkeypatch)
        step = enumeration._insert_label

        def fails_at_five(counts, m):
            if m == 5:
                raise RuntimeError("step 5 failed")
            return step(counts, m)

        assert count_table(3).counts == _folded_table(3)
        monkeypatch.setattr(enumeration, "_insert_label", fails_at_five)
        with pytest.raises(RuntimeError):
            count_table(8)  # steps 3 and 4 run, then the sixth label fails
        assert enumeration._last_table[0] == 3
        monkeypatch.setattr(enumeration, "_insert_label", step)
        for n in (8, 4, 9, 2):
            assert count_table(n).counts == _folded_table(n)

    def test_an_ascending_sweep_steps_once_per_label(self, monkeypatch):
        _reset_chain(monkeypatch)
        step = enumeration._insert_label
        steps = []

        def counted(counts, m):
            steps.append(m)
            return step(counts, m)

        monkeypatch.setattr(enumeration, "_insert_label", counted)
        tables = [count_table(n) for n in range(9)]
        assert steps == list(range(8))
        assert [t.total() for t in tables] == [math.factorial(n + 1) for n in range(9)]
        count_table(8)
        assert len(steps) == 8  # the same length again costs nothing
        count_table(2)
        assert steps[8:] == [0, 1]  # a shorter one starts again from T(0)

    def test_consecutive_tables_share_their_keys(self, monkeypatch):
        # A key reached again is the same tuple, so a sweep keeps few objects.
        _reset_chain(monkeypatch)
        tables = [count_table(n) for n in range(9)]
        assert sum(len(t.counts) for t in tables) == 395
        assert len({id(key) for t in tables for key in t.counts}) == 150

    def test_the_cap_refuses_before_the_chain_is_read(self, monkeypatch):
        def no_steps(*args):
            raise AssertionError("stepped before refusing")

        # Reading the chain as (length, counts) fails on None.
        monkeypatch.setattr(enumeration, "_last_table", None)
        monkeypatch.setattr(enumeration, "_insert_label", no_steps)
        monkeypatch.setenv("ALTAB_MAX_COUNT_N", "3")
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_COUNT_N"):
            count_table(4)
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_COUNT_N"):
            decorated_count(4)
        with pytest.raises(DomainError):
            count_table(-1)
        assert enumeration._last_table is None

    def test_weight_cap(self, monkeypatch):
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_COUNT_N"):
            count_table(25)
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_WEIGHT_N"):
            asep_distribution(AsepParams(13, Fraction(1), Fraction(1), Fraction(1)))
        monkeypatch.setenv("ALTAB_MAX_WEIGHT_N", "3")
        # Counting has its own cap; weights and laws keep the corner recursion's.
        assert count_table(4).total() == 120
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_WEIGHT_N"):
            weight_poly("DEDE")
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_WEIGHT_N"):
            asep_distribution(AsepParams(4, Fraction(1), Fraction(1), Fraction(1)))
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_WEIGHT_N"):
            count_table_by_corners(4)
        monkeypatch.setenv("ALTAB_MAX_COUNT_N", "3")
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_COUNT_N"):
            count_table(4)
        monkeypatch.setenv("ALTAB_MAX_COUNT_N", "4")
        assert count_table(4).total() == 120

    def test_weight_cap_counts_only_steps_that_bound_cells(self, monkeypatch):
        # Leading E and trailing D steps bound no cell, so they cost nothing.
        assert weight_poly("E" * 13) == Poly3.monomial(0, 13, 0)
        assert weight_poly("E" * 12 + "D") == Poly3.monomial(0, 12, 1)
        assert weight_poly("E" * 3 + "DE" + "D" * 9) == weight_poly_by_fillings("EEEDEDDDDDDDDD")
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_WEIGHT_N"):
            weight_poly("D" * 7 + "E" * 6)
        monkeypatch.setenv("ALTAB_MAX_WEIGHT_N", "3")
        assert weight_poly("EEEEDEEDDDD") == weight_poly_by_fillings("EEEEDEEDDDD")
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_WEIGHT_N"):
            weight_poly("EDEDED")

    @pytest.mark.parametrize("n", range(5))
    def test_cardinality_chain(self, n):
        # Cutting an extremal line relates the counts two sizes apart.
        mid = count_table(n + 1).by_free()
        far = count_table(n + 2).by_free()
        total = count_table(n).total()
        assert total == sum(c for (i, j), c in mid.items() if j == 0)
        assert total == sum(c for (i, j), c in mid.items() if i == 0)
        assert total == far.get((0, 1), 0) == far.get((1, 0), 0)


class TestWeights:
    def test_single_cell_shape(self):
        q, x, y = Poly3.var("q"), Poly3.var("x"), Poly3.var("y")
        assert weight_poly("DE") == q * x * y + x + y
        assert weight_poly("D") == y
        assert weight_poly("E") == x

    def test_rejects_letters_other_than_d_and_e(self):
        with pytest.raises(DomainError) as err:
            weight_poly("DX")
        assert err.value.code == "bad-word"

    @pytest.mark.parametrize(
        "word, shown", [(5, "5"), (["D", "E"], "['D', 'E']"), (None, "None"), (b"DE", "b'DE'")]
    )
    def test_rejects_a_word_that_is_not_a_string(self, word, shown):
        with pytest.raises(DomainError) as err:
            weight_poly(word)
        assert str(err.value) == f"bad-word: border word {shown} is not over D and E"

    @pytest.mark.parametrize("n", range(8))
    def test_recursion_matches_enumeration(self, n):
        for word in shape_words(n):
            assert weight_poly(word) == weight_poly_by_fillings(word), word

    @pytest.mark.parametrize("n", range(11))
    def test_vector_pass_matches_the_corner_table(self, n):
        # The q-tracked corner table lists the codes from 0 up, shape_words
        # from 2^n - 1 down.
        table, _ = enumeration._corner_table(n, enumeration._poly_leaf, Poly3.var("q"))
        for word, z in zip(shape_words(n), reversed(table)):
            assert weight_poly(word) == z, word

    def test_vector_pass_matches_the_corner_table_past_enumeration(self):
        q = Poly3.var("q")
        tables = {n: enumeration._corner_table(n, enumeration._poly_leaf, q)[0] for n in (11, 12)}

        def by_corners(word: str) -> Poly3:
            return tables[len(word)][int(word.replace("D", "1").replace("E", "0"), 2)]

        @given(st.text("DE", min_size=11, max_size=12))
        @example("DDDDDDEEEEEE")
        @example("DEDEDEDEDEDE")
        @settings(max_examples=40, deadline=None)
        def check(word):
            assert weight_poly(word) == by_corners(word)

        check()
        # Leading Es and trailing Ds only multiply the weight by x and y.
        for core in ("DDEDDEEDEDEE", "DEEDDDEEDDE"):
            padded = "E" * 60 + core + "D" * 60
            assert weight_poly(padded) == Poly3.monomial(0, 60, 60) * by_corners(core)

    def test_total_weight_counts_fillings(self):
        one = Fraction(1)
        for n in range(6):
            total = 0
            for word in shape_words(n):
                total += weight_poly(word).evaluate(one, one, one)
            assert total == math.factorial(n + 1)

    @pytest.mark.parametrize("length", range(2, 7))
    def test_commutation_identity(self, length):
        # Weight of u.DE.v equals q * weight(u.ED.v) + weight(u.D.v) + weight(u.E.v)
        # for every placement inside every word.  Checked on the enumerated
        # weights: weight_poly is built from this identity.
        q = Poly3.var("q")
        for word in shape_words(length):
            for k in range(length - 1):
                if word[k : k + 2] != "DE":
                    continue
                u, v = word[:k], word[k + 2 :]
                lhs = weight_poly_by_fillings(word)
                rhs = (
                    q * weight_poly_by_fillings(u + "ED" + v)
                    + weight_poly_by_fillings(u + "D" + v)
                    + weight_poly_by_fillings(u + "E" + v)
                )
                assert lhs == rhs, word


def dense_solve(m: list[list[Fraction]]) -> list[Fraction]:
    """Reference for ``solve_stationary``: Gauss-Jordan on full rows, with the
    same pivot rule (the first row from the diagonal down with a nonzero)."""
    size = len(m)
    a = [[m[j][i] - (1 if i == j else 0) for j in range(size)] for i in range(size)]
    a[-1] = [Fraction(1)] * size
    rhs = [Fraction(0)] * (size - 1) + [Fraction(1)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if a[r][col] != 0), None)
        if pivot is None:
            raise DomainError("singular-system", "no pivot")
        a[col], a[pivot] = a[pivot], a[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        inv = 1 / a[col][col]
        a[col] = [v * inv for v in a[col]]
        rhs[col] *= inv
        for r in range(size):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * w for v, w in zip(a[r], a[col])]
                rhs[r] -= f * rhs[col]
    return rhs


def square_matrices(k: int):
    """k x k matrices of small fractions, with rows of only 0s and 1s among
    them so that singular systems come up."""
    entries = st.fractions(min_value=-2, max_value=2, max_denominator=5)
    rows = st.lists(entries, min_size=k, max_size=k) | st.lists(
        st.sampled_from([Fraction(0), Fraction(1)]), min_size=k, max_size=k
    )
    return st.lists(rows, min_size=k, max_size=k)


class TestSparseSolve:
    @pytest.mark.parametrize("n", range(6))
    def test_equals_the_dense_elimination(self, n):
        for q, alpha, beta in (
            (Fraction(1), Fraction(1, 2), Fraction(1, 3)),
            (Fraction(0), Fraction(1), Fraction(1, 5)),
            (Fraction(2, 7), Fraction(3, 4), Fraction(1)),
        ):
            m = transition_matrix(AsepParams(n, q, alpha, beta))
            assert solve_stationary(m) == dense_solve(m)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=5).flatmap(square_matrices))
    def test_any_matrix_solves_or_is_singular_as_the_dense_one(self, m):
        def outcome(solve):
            try:
                return solve(m)
            except DomainError as err:
                return err.code

        assert outcome(solve_stationary) == outcome(dense_solve)

    @pytest.mark.parametrize("rates", [*ASEP_TRIPLES, (0.25, 0.1, 0.7)])
    def test_equals_the_dense_elimination_at_the_chain_cap(self, rates):
        # The float rates are binary fractions with denominators up to 2^55,
        # so the integer rows grow large before their gcds are divided out.
        p = AsepParams(CHAIN_CAP[1], *rates)
        m = transition_matrix(p)
        pi = solve_stationary(m)
        assert pi == dense_solve(m)
        assert dict(zip(states(p.n), pi)) == asep_distribution(p)

    def test_a_matrix_without_a_pivot_is_singular(self):
        m = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
        with pytest.raises(DomainError) as err:
            solve_stationary(m)
        assert err.value.code == "singular-system"


class TestAsep:
    def test_params_validated(self):
        with pytest.raises(DomainError):
            AsepParams(2, Fraction(2), Fraction(1), Fraction(1))

    @pytest.mark.parametrize(
        "args",
        [
            (2.5, 1, 1, 1),
            (Fraction(5, 2), 1, 1, 1),
            ("2", 1, 1, 1),
            (2, "a", 1, 1),
            (2, None, 1, 1),
            (2, 1, 1j, 1),
            (2, 1, 1, "1"),
        ],
    )
    def test_a_field_of_the_wrong_kind_is_a_domain_error(self, args):
        with pytest.raises(DomainError):
            AsepParams(*args)

    def test_ints_fractions_and_floats_are_rates(self):
        dist = asep_distribution(AsepParams(3, 0.5, Fraction(1, 3), 1))
        assert dist == chain_stationary(AsepParams(3, Fraction(1, 2), Fraction(1, 3), 1))

    def test_the_chain_oracle_is_exact_at_float_rates(self):
        p = AsepParams(2, 0.1, 0.3, 1)
        solved = chain_stationary(p)
        assert all(type(v) is Fraction for v in solved.values())
        assert solved == asep_distribution(p)
        assert list(solved) == list(asep_distribution(p))

    def test_repr_shows_any_site_count(self):
        assert repr(AsepParams(3, Fraction(1, 2), 1, 0.25)) == (
            "AsepParams(n=3, q=Fraction(1, 2), alpha=1, beta=0.25)"
        )
        assert repr(AsepParams(10**5000, 1, 1, 1)) == (
            "AsepParams(n=<a number too long to print>, q=1, alpha=1, beta=1)"
        )

    def test_repr_shows_any_rate(self):
        assert repr(AsepParams(1, Fraction(1, 10**5000), 1, 1)) == (
            "AsepParams(n=1, q=Fraction(1, <a number too long to print>), alpha=1, beta=1)"
        )
        assert repr(AsepParams(2, 0, Fraction(10**5000 - 1, 10**5000), True)) == (
            "AsepParams(n=2, q=0, alpha=Fraction(<a number too long to print>,"
            " <a number too long to print>), beta=True)"
        )

    @pytest.mark.parametrize("n", range(9))
    def test_corner_split_matches_the_word(self, n):
        def code(word):
            return int(word.replace("D", "1").replace("E", "0") or "0", 2)

        for word in shape_words(n):
            k = word.find("DE")
            split = enumeration._corner(code(word))
            if k < 0:
                assert split is None
            else:
                head, tail = word[:k], word[k + 2 :]
                assert split == tuple(code(head + mid + tail) for mid in ("ED", "E", "D"))

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=12),
        rates=st.tuples(*[st.integers(min_value=1, max_value=10**6)] * 4),
        leaves=st.tuples(*[st.integers(min_value=0, max_value=10**6)] * 2),
    )
    @example(n=12, rates=(1, 1, 1, 1), leaves=(1, 1))
    @example(n=12, rates=(0, 7, 5, 3), leaves=(2, 9))
    @example(n=1, rates=(2, 3, 5, 7), leaves=(0, 0))
    def test_boundary_steps_give_the_table_of_every_corner(self, n, rates, leaves):
        # On integer numerators at q = qn/qd, x = xn/xd and y = yn/yd.
        qn, qd, xd, yd = rates
        xn, yn = leaves

        def leaf(a, b):
            return xn**a * yn**b

        got = enumeration._corner_table(n, leaf, qn, qd, xd, yd)
        assert got == corner_table_at_every_corner(n, leaf, qn, qd, xd, yd)

    @pytest.mark.parametrize("n", range(10))
    def test_boundary_steps_give_the_polynomial_table_of_every_corner(self, n):
        leaf = enumeration._poly_leaf
        for q in (Poly3.var("q"), 1):
            got = enumeration._corner_table(n, leaf, q)
            assert got == corner_table_at_every_corner(n, leaf, q)

    @pytest.mark.parametrize("n", range(10))
    def test_only_words_from_d_to_e_take_a_corner_step(self, n, monkeypatch, no_kept_plan):
        split, corner = [], enumeration._corner

        def counted(w):
            split.append(w)
            return corner(w)

        monkeypatch.setattr(enumeration, "_corner", counted)
        enumeration._corner_table(n, lambda a, b: 2**a * 3**b, 1, 2, 3, 5)
        # Length m splits its even codes from 2^(m-1) up: D first, E last.
        assert split == [w for m in range(2, n + 1) for w in range(1 << (m - 1), 1 << m, 2)]
        assert len(split) == max(2 ** (n - 1) - 1, 0)

    def test_a_kept_plan_gives_the_table_of_every_corner(self):
        # Lengths interleaved, so a plan is read where it was kept and
        # rebuilt where another length came between.
        def leaf(a, b):
            return 2**a * 3**b

        q = Poly3.var("q")
        for n in (7, 3, 7, 12, 0, 7):
            want = corner_table_at_every_corner(n, leaf, 5, 12, 7, 11)
            assert enumeration._corner_table(n, leaf, 5, 12, 7, 11) == want
            assert enumeration._last_plan[0] == n
            got = enumeration._corner_table(n, enumeration._poly_leaf, q)
            assert got == corner_table_at_every_corner(n, enumeration._poly_leaf, q)
            # A caller's copy of the cells may be edited without reaching the plan.
            got[1].append(-1)
            assert enumeration._corner_table(n, leaf, 5, 12, 7, 11) == want

    def test_a_plan_is_built_once_per_length(self, monkeypatch, no_kept_plan):
        split, corner = [], enumeration._corner

        def counted(w):
            split.append(w)
            return corner(w)

        monkeypatch.setattr(enumeration, "_corner", counted)
        p = AsepParams(7, Fraction(1, 3), Fraction(2, 5), Fraction(5, 7))
        law = asep_distribution(p)
        assert len(split) == 63
        # The same length again, at other rates and by another caller: no step.
        assert asep_distribution(p) == law
        asep_distribution(AsepParams(7, Fraction(1), Fraction(1), Fraction(1, 2)))
        enumeration._corner_table(7, enumeration._poly_leaf)
        assert len(split) == 63
        # Another length takes the place of the kept plan.
        count_table_by_corners(5)
        assert len(split) == 63 + 15 and enumeration._last_plan[0] == 5
        assert list(asep_distribution(p).items()) == list(law.items())
        assert len(split) == 63 + 15 + 63

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=9),
        before=st.lists(st.integers(min_value=0, max_value=12), max_size=3),
        q=st.fractions(min_value=0, max_value=1, max_denominator=20),
        alpha=st.fractions(min_value=0, max_value=1, max_denominator=20).filter(bool),
        beta=st.fractions(min_value=0, max_value=1, max_denominator=20).filter(bool),
    )
    @example(n=7, before=[7], q=Fraction(1, 3), alpha=Fraction(2, 5), beta=Fraction(5, 7))
    @example(n=4, before=[12, 0], q=Fraction(0), alpha=Fraction(1), beta=Fraction(1, 2))
    def test_the_law_does_not_depend_on_what_ran_before(self, n, before, q, alpha, beta):
        p = AsepParams(n, q, alpha, beta)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(enumeration, "_last_plan", (-1, (), (), (), ()))
            want = list(asep_distribution(p).items())
        for m in before:
            enumeration._corner_table(m, lambda a, b: 2**a * 3**b, 1, 2, 3, 5)
        assert list(asep_distribution(p).items()) == want
        assert list(asep_distribution(p).items()) == want

    @settings(max_examples=15, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=12),
        q=st.fractions(min_value=0, max_value=1, max_denominator=50),
        alpha=st.fractions(min_value=0, max_value=1, max_denominator=50).filter(bool),
        beta=st.fractions(min_value=0, max_value=1, max_denominator=50).filter(bool),
    )
    def test_the_law_is_the_law_of_every_corner(self, n, q, alpha, beta):
        self.assert_law_of_every_corner(AsepParams(n, q, alpha, beta))

    @pytest.mark.parametrize("n", range(13))
    def test_the_law_of_every_corner_at_the_suite_rates(self, n):
        for q, alpha, beta in ASEP_TRIPLES:
            self.assert_law_of_every_corner(AsepParams(n, q, alpha, beta))

    @staticmethod
    def assert_law_of_every_corner(p):
        got = list(asep_distribution(p).items())
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(enumeration, "_corner_table", corner_table_at_every_corner)
            assert got == list(asep_distribution(p).items())

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=8),
        q=st.fractions(min_value=0, max_value=1, max_denominator=12),
        alpha=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(bool),
        beta=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(bool),
    )
    @example(n=0, q=Fraction(1, 2), alpha=Fraction(1), beta=Fraction(1))
    @example(n=1, q=Fraction(0), alpha=Fraction(1, 3), beta=Fraction(1))
    @example(n=8, q=Fraction(0), alpha=Fraction(1), beta=Fraction(1))
    @example(n=8, q=Fraction(1), alpha=Fraction(5, 12), beta=Fraction(7, 11))
    @example(n=7, q=Fraction(1), alpha=Fraction(1), beta=Fraction(1))
    def test_the_law_is_the_normalized_weight_polynomials(self, n, q, alpha, beta):
        # The integer pass over all shapes against the vector-pass polynomial of
        # each shape, evaluated at x = 1/alpha and y = 1/beta.
        weights = {s: _weight(s.translate(SHAPE)).evaluate(q, 1 / alpha, 1 / beta) for s in states(n)}
        z = sum(weights.values())
        want = [(s, w / z) for s, w in weights.items()]
        assert list(asep_distribution(AsepParams(n, q, alpha, beta)).items()) == want

    def test_each_traversal_serves_its_own_caller(self, monkeypatch):
        def walked(what):
            def refuse(*args):
                raise AssertionError(f"walked {what}")

            return refuse

        # The law and the count oracle read the full table, never the vector pass.
        monkeypatch.setattr(enumeration, "_bidiagonal_pass", walked("the one-word pass"))
        monkeypatch.setattr(oracles, "_bidiagonal_pass", walked("the one-word pass"), raising=False)
        p = AsepParams(5, Fraction(1, 2), Fraction(1, 3), Fraction(3, 4))
        assert asep_distribution(p) == chain_stationary(p)
        assert count_table_by_corners(6).counts == count_table(6).counts
        monkeypatch.undo()
        # One word's polynomial never fills the table of its length.
        monkeypatch.setattr(enumeration, "_corner_table", walked("the full table"))
        monkeypatch.setattr(oracles, "_corner_table", walked("the full table"))
        assert weight_poly("DDEDEE") == weight_poly_by_fillings("DDEDEE")

    def test_degenerate(self):
        with pytest.raises(DomainError) as err:
            asep_distribution(AsepParams(2, Fraction(1), Fraction(0), Fraction(1)))
        assert err.value.code == "degenerate-params"

    def test_single_site_closed_form(self):
        for alpha, beta in ((Fraction(1, 2), Fraction(1, 3)), (Fraction(1), Fraction(1, 4))):
            for q in (Fraction(0), Fraction(1, 2), Fraction(1)):
                dist = asep_distribution(AsepParams(1, q, alpha, beta))
                assert dist["*"] == alpha / (alpha + beta)
                assert dist["o"] == beta / (alpha + beta)

    def test_integer_rates_stay_exact(self):
        dist = asep_distribution(AsepParams(2, 1, 1, 1))
        assert all(isinstance(v, Fraction) for v in dist.values())
        assert dist == chain_stationary(AsepParams(2, 1, 1, 1))

    def test_symmetric_two_state(self):
        dist = chain_stationary(AsepParams(1, Fraction(1), Fraction(1, 2), Fraction(1, 2)))
        assert dist == {"o": Fraction(1, 2), "*": Fraction(1, 2)}

    def test_rows_are_stochastic(self):
        m = transition_matrix(AsepParams(3, Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)))
        for row in m:
            assert sum(row) == 1 and all(v >= 0 for v in row)

    @pytest.mark.parametrize("n", range(5))
    def test_oracle_agreement(self, n):
        for q, alpha, beta in ASEP_TRIPLES:
            p = AsepParams(n, q, alpha, beta)
            dist = asep_distribution(p)
            solved = chain_stationary(p)
            assert dist == solved
            assert sum(dist.values()) == 1

    @pytest.mark.parametrize(
        "var, run",
        [
            ("ALTAB_MAX_N", lambda: list(all_tableaux(2))),
            ("ALTAB_MAX_WEIGHT_N", lambda: weight_poly("DE")),
            ("ALTAB_MAX_CHAIN_N", lambda: chain_stationary(AsepParams(2, 1, 1, 1))),
            ("ALTAB_MAX_COUNT_N", lambda: count_table(2)),
        ],
    )
    def test_a_cap_that_is_not_an_integer_is_a_resource_error(self, monkeypatch, var, run):
        monkeypatch.setenv(var, "abc")
        with pytest.raises(ResourceLimitError, match=var):
            run()

    @pytest.mark.parametrize(
        "run, error",
        [
            (lambda n: count_table(n), ResourceLimitError),
            (lambda n: list(all_tableaux(n)), ResourceLimitError),
            (lambda n: AsepParams(-n, 1, 1, 1), DomainError),
            (lambda n: AsepParams(1, n, 1, 1), DomainError),
            (lambda n: list(symmetric_tableaux(n + 1)), DomainError),
            (lambda n: MarkedTableau(standard_tableau("D"), frozenset({n})), DomainError),
        ],
        ids=["count-cap", "enumeration-cap", "negative-sites", "rate", "odd-size", "mark"],
    )
    def test_a_number_too_long_to_print_is_still_refused(self, run, error):
        with pytest.raises(error) as err:
            run(10**5000)
        assert len(str(err.value)) < 200

    @pytest.mark.parametrize(
        "run",
        [
            lambda: count_table("5"),
            lambda: count_table(3.0),
            lambda: list(all_tableaux("3")),
            lambda: formula_report("3"),
            lambda: list(symmetric_tableaux("4")),
        ],
        ids=["count-str", "count-float", "enumeration-str", "formula-str", "symmetric-str"],
    )
    def test_a_size_that_is_not_an_integer_is_a_domain_error(self, run):
        with pytest.raises(DomainError) as err:
            run()
        assert err.value.code == "bad-size"

    @pytest.mark.parametrize(
        "run",
        [
            lambda: count_table(True),
            lambda: count_table(False),
            lambda: list(all_tableaux(True)),
            lambda: formula_report(True),
            lambda: AsepParams(True, 1, 1, 1),
            lambda: check_cap(False, "a size", ("ALTAB_MAX_N", 9)),
            lambda: list(symmetric_tableaux(False)),
        ],
        ids=[
            "count-true", "count-false", "enumeration", "formula", "sites", "check-cap",
            "symmetric",
        ],
    )
    def test_a_bool_size_is_a_domain_error(self, run):
        with pytest.raises(DomainError) as err:
            run()
        assert err.value.code == "bad-size"

    @pytest.mark.parametrize("text", ["\u0663", "-1", " 3", "3 ", "+3", "1_0", "\uff13", ""])
    def test_a_cap_is_ascii_digits(self, monkeypatch, text):
        monkeypatch.setenv("ALTAB_MAX_N", text)
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_N"):
            cap_limit(("ALTAB_MAX_N", 9))

    def test_chain_cap_is_its_own(self, monkeypatch):
        # Raising the enumeration cap must not raise the dense 2^n solve.
        monkeypatch.setenv("ALTAB_MAX_N", "9")
        p = AsepParams(7, Fraction(1), Fraction(1), Fraction(1))
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_CHAIN_N"):
            chain_stationary(p)
        monkeypatch.setenv("ALTAB_MAX_CHAIN_N", "1")
        with pytest.raises(ResourceLimitError, match="ALTAB_MAX_CHAIN_N"):
            chain_stationary(AsepParams(2, Fraction(1), Fraction(1), Fraction(1)))

    @settings(max_examples=12, deadline=None)
    @given(
        n=st.integers(min_value=7, max_value=10),
        q=st.fractions(min_value=0, max_value=1, max_denominator=12),
        alpha=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(bool),
        beta=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(bool),
    )
    def test_global_balance_beyond_the_chain_solve(self, n, q, alpha, beta):
        # Inflow equals outflow at every state, from the sparse list of moves.
        pi = asep_distribution(AsepParams(n, q, alpha, beta))
        assert sum(pi.values()) == 1 and all(v > 0 for v in pi.values())
        flow = dict.fromkeys(pi, Fraction(0))
        for s, p_s in pi.items():
            moves = [(s[:i] + "o*" + s[i + 2 :], 1) for i in range(n - 1) if s[i : i + 2] == "*o"]
            moves += [(s[:i] + "*o" + s[i + 2 :], q) for i in range(n - 1) if s[i : i + 2] == "o*"]
            if s[0] == "o":
                moves.append(("*" + s[1:], alpha))
            if s[-1] == "*":
                moves.append((s[:-1] + "o", beta))
            for target, rate in moves:
                flow[s] -= p_s * rate
                flow[target] += p_s * rate
        assert all(f == 0 for f in flow.values())

    def test_stationarity_directly(self):
        p = AsepParams(3, Fraction(1, 2), Fraction(2, 3), Fraction(1, 2))
        m = transition_matrix(p)
        pi = solve_stationary(m)
        names = list(states(3))
        for col in range(len(names)):
            assert sum(pi[r] * m[r][col] for r in range(len(names))) == pi[col]


class TestDecoratedAndSymmetric:
    @pytest.mark.parametrize("n", range(13))
    def test_decorated_count(self, n):
        assert decorated_count(n) == 2**n * math.factorial(n)

    def test_decorated_count_is_capped_with_the_count_cap(self, monkeypatch):
        monkeypatch.setenv("ALTAB_MAX_N", "3")
        monkeypatch.setenv("ALTAB_MAX_WEIGHT_N", "3")
        assert decorated_count(4) == 384
        assert decorated_count(24) == 2**24 * math.factorial(24)
        with pytest.raises(ResourceLimitError, match="decorated counting.*ALTAB_MAX_COUNT_N"):
            decorated_count(25)
        monkeypatch.setenv("ALTAB_MAX_COUNT_N", "3")
        with pytest.raises(ResourceLimitError, match="decorated counting.*ALTAB_MAX_COUNT_N"):
            decorated_count(4)

    def test_decorated_count_small_by_hand(self):
        # Six tableaux of length 2 carry 0,0,0,0,1,1 arrows: 1+1+1+1+2+2.
        assert decorated_count(2) == 8

    def test_mark_on_free_line_rejected(self, t0):
        with pytest.raises(DomainError) as err:
            decorated_bijection(MarkedTableau(t0, frozenset({4})))
        assert err.value.code == "mark-on-free-line"

    def test_smallest_bijection_case(self):
        from alttab.core import standard_tableau

        row = MarkedTableau(standard_tableau("D"), frozenset())
        col = MarkedTableau(standard_tableau("E"), frozenset())
        images = {decorated_bijection(row), decorated_bijection(col)}
        assert images == {
            MarkedTableau(standard_tableau("E"), frozenset({1})),
            MarkedTableau(standard_tableau("E"), frozenset()),
        }

    @pytest.mark.parametrize("n", range(6))
    def test_decorated_bijection_is_bijective(self, n):
        image = set()
        count = 0
        for t in all_tableaux(n):
            stats = free_stats(t)
            lines = sorted(set(t.labels) - stats.free_rows - stats.free_cols)
            for mask in product((False, True), repeat=len(lines)):
                marks = frozenset(l for l, on in zip(lines, mask) if on)
                mt = MarkedTableau(t, marks)
                out = decorated_bijection(mt)
                assert free_stats(out.tableau).frow == 0
                assert decorated_bijection_inv(out) == mt
                image.add(out)
                count += 1
        assert count == len(image) == 2**n * math.factorial(n)

    @pytest.mark.parametrize("size", (0, 2, 4, 6, 8))
    def test_symmetric_counts(self, size):
        n = size // 2
        built = set(symmetric_tableaux(size))
        assert len(built) == 2**n * math.factorial(n)
        filtered = sum(1 for t in all_tableaux(size) if transpose(t) == t)
        assert filtered == len(built)

    def test_symmetric_halves_are_picked_with_nothing_remembered(self, monkeypatch):
        # The halves are held while the tableaux are yielded, so they are
        # picked without working out, and keeping, anything on them.
        walked = []
        real = enumeration.all_tableaux
        monkeypatch.setattr(
            enumeration, "all_tableaux", lambda n: (walked.append(t) or t for t in real(n))
        )
        assert len(list(symmetric_tableaux(6))) == 2**3 * math.factorial(3)
        assert len(walked) == math.factorial(4)
        assert all(t.__dict__.keys() == {"labels", "word", "arrows"} for t in walked)

    def test_symmetric_construction_checks_symmetry(self, monkeypatch):
        # The check is an explicit raise, so it holds under python -O too.
        monkeypatch.setattr("alttab.enumeration._mirrored", lambda half, size: half)
        with pytest.raises(DomainError) as err:
            list(symmetric_tableaux(2))
        assert err.value.code == "not-symmetric"

    def test_symmetric_odd_size_rejected(self):
        with pytest.raises(DomainError):
            list(symmetric_tableaux(3))

    @pytest.mark.parametrize("size", (3, -3, -4))
    def test_symmetric_size_must_be_even_and_nonnegative(self, size):
        with pytest.raises(DomainError) as err:
            list(symmetric_tableaux(size))
        assert err.value.code == "bad-size" and str(err.value).endswith(f"got {size}")

    def test_marks_from_any_iterable_are_kept_as_a_frozenset(self):
        mt = MarkedTableau(standard_tableau("D"), [1])
        assert mt.marked == frozenset({1}) and isinstance(mt.marked, frozenset)
        assert mt == MarkedTableau(standard_tableau("D"), frozenset({1}))
        assert decorated_bijection(MarkedTableau(standard_tableau("DE", [(1, 2, "L")]), (1,)))

    @pytest.mark.parametrize("marked", (5, [[1]], ["a", 2]), ids=["number", "unhashable", "mixed"])
    def test_marks_that_are_not_labels_are_a_domain_error(self, marked):
        with pytest.raises(DomainError) as err:
            MarkedTableau(standard_tableau("D"), marked)
        assert err.value.code == "bad-mark"

    @pytest.mark.parametrize("n", range(7))
    def test_catalan_filter(self, n):
        assert sum(free_stats(t).fcell == 0 for t in all_tableaux(n)) == catalan(n + 1)

    def test_catalan_values(self):
        assert [catalan(n + 1) for n in range(9)] == [1, 2, 5, 14, 42, 132, 429, 1430, 4862]


class TestFormulaReport:
    def test_all_pass_at_n6(self):
        report = formula_report(6)
        assert report.passed, report.lines()

    def test_lines_format(self):
        lines = formula_report(3).lines()
        assert all(line.endswith("PASS") for line in lines)
        assert any("1/(1-z)^2" in line for line in lines)
