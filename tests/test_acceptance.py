"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  A shared scan over all tableaux up to length 8 feeds the
counting criteria so the expensive enumeration happens once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

import pytest

from alttab.core import (
    free_stats,
    from_perm_tableau,
    parse_tableau,
    perm_tableau_stats,
    render_tableau,
    to_perm_tableau,
    transpose,
)
from alttab.decomposition import closure, merge_all, split
from alttab.enumeration import (
    AsepParams,
    MarkedTableau,
    all_tableaux,
    all_via_perm,
    asep_distribution,
    chain_stationary,
    count_table,
    decorated_bijection,
    decorated_bijection_inv,
    product_formula,
    shape_words,
    symmetric_tableaux,
)
from alttab.oracles import weight_poly_by_fillings
from alttab.permutations import (
    from_signed_permutation,
    insertion_steps,
    perm_stats,
    to_permutation,
    to_permutation_by_insertion,
    to_signed_permutation,
)
from alttab.series import Poly3, Series, geometric, neg_log_one_minus_z
from alttab.trees import (
    arc_diagram,
    arcs_to_forest,
    binary_pair,
    binary_pair_inv,
    crossings,
    forest_to_arcs,
    from_forest,
    out_crossings,
    to_forest,
)

from conftest import T0_COMPACT

MAX_N = 8
CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862]
SIGMA0 = (10, 12, 3, 5, 2, 1, 0, 8, 6, 7, 9, 4, 11, 13)
ASEP_TRIPLES = (
    (Fraction(1), Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1), Fraction(1)),
    (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)),
)


def report(num: int, name: str, ok: bool) -> None:
    print(f"criterion {num:02d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


@dataclass
class Scan:
    total: list[int] = field(default_factory=list)
    no_free_cell: list[int] = field(default_factory=list)
    symmetric: list[int] = field(default_factory=list)
    decorated: list[int] = field(default_factory=list)
    tables: list[dict[tuple[int, int, int], int]] = field(default_factory=list)
    free_cell_free: list[list] = field(default_factory=list)


@pytest.fixture(scope="module")
def scan() -> Scan:
    data = Scan()
    for n in range(MAX_N + 1):
        total = fcell0 = symm = decorated = 0
        table: dict[tuple[int, int, int], int] = {}
        witnesses = []
        for t in all_tableaux(n):
            stats = free_stats(t)
            total += 1
            decorated += 2 ** len(t.arrows)
            if stats.fcell == 0:
                fcell0 += 1
                witnesses.append(t)
            if transpose(t) == t:
                symm += 1
            key = (stats.frow, stats.fcol, t.word.count("D"))
            table[key] = table.get(key, 0) + 1
        data.total.append(total)
        data.no_free_cell.append(fcell0)
        data.symmetric.append(symm)
        data.decorated.append(decorated)
        data.tables.append(table)
        data.free_cell_free.append(witnesses)
    return data


@pytest.fixture(scope="module")
def small() -> dict[int, list]:
    return {n: list(all_tableaux(n)) for n in range(7)}


def test_01_cardinality(scan):
    ok = all(scan.total[n] == math.factorial(n + 1) for n in range(MAX_N + 1))
    ok = ok and scan.total[7] == 40320 and scan.total[8] == 362880
    report(1, "exhaustive counts are (n+1)! for n <= 8", ok)


def test_02_dual_generator_oracle(scan, small):
    ok = all(set(small[n]) == set(all_via_perm(n)) for n in range(6))
    for n in range(MAX_N + 1):
        distinct = {(t.word, t.arrows) for t in all_via_perm(n)}
        ok = ok and len(distinct) == scan.total[n]
    report(2, "permutation-driven generator agrees with backtracking", ok)


def test_03_product_formula(scan):
    ok = True
    for n in range(8):
        by_free: dict[tuple[int, int], int] = {}
        for (i, j, _), c in scan.tables[n].items():
            by_free[(i, j)] = by_free.get((i, j), 0) + c
        poly = Poly3({(0, i, j): c for (i, j), c in by_free.items()})
        ok = ok and poly == product_formula(n)
    report(3, "free-line polynomial equals the rising product, n <= 7", ok)


def test_04_refined_generating_function(scan):
    order = 9
    ok = True
    for u, x, y in ((Fraction(2), Fraction(1), Fraction(1)),
                    (Fraction(1), Fraction(2), Fraction(3)),
                    (Fraction(3), Fraction(2), Fraction(5))):
        if u == 1:
            closed = geometric(order).pow_fraction(x + y)
        else:
            inner = (1 - u) * (1 - Series.z(order, 1 - u).exp() * u).inverse()
            closed = (Series.z(order, y * (1 - u)) + inner.log() * (x + y)).exp()
        for n in range(8):
            brute = sum(
                (c * x**i * y**j * u**k for (i, j, k), c in scan.tables[n].items()),
                Fraction(0),
            )
            ok = ok and brute == closed.egf_count(n)
    report(4, "closed-form refined series matches brute force at 3 points", ok)


def test_05_plain_series(scan):
    order = 9
    a = geometric(order) * geometric(order)
    b = geometric(order)
    c = neg_log_one_minus_z(order)
    ok = True
    for n in range(8):
        no_free_rows = sum(cnt for (i, _, _), cnt in scan.tables[n].items() if i == 0)
        col_packed = sum(cnt for (i, j, _), cnt in scan.tables[n].items() if (i, j) == (0, 1))
        ok = ok and a.egf_count(n) == scan.total[n]
        ok = ok and b.egf_count(n) == no_free_rows
        ok = ok and c.egf_count(n) == col_packed
    ok = ok and b.derivative() == a.truncate(order - 1)
    ok = ok and c.derivative().derivative() == a.truncate(order - 2)
    report(5, "1/(1-z)^2, 1/(1-z), -log(1-z) and their derivative relations", ok)


def test_06_decorated(scan, small):
    ok = all(scan.decorated[n] == 2**n * math.factorial(n) for n in range(8))
    for n in range(5):
        image = set()
        count = 0
        for t in small[n]:
            stats = free_stats(t)
            lines = sorted(set(t.labels) - stats.free_rows - stats.free_cols)
            for mask in product((False, True), repeat=len(lines)):
                mt = MarkedTableau(t, frozenset(l for l, on in zip(lines, mask) if on))
                out = decorated_bijection(mt)
                ok = ok and decorated_bijection_inv(out) == mt
                image.add(out)
                count += 1
        ok = ok and count == len(image) == 2**n * math.factorial(n)
    report(6, "decorated tableaux counted by 2^n n! with explicit bijection", ok)


def test_07_symmetric(scan):
    ok = True
    for n in range(6):
        built = set(symmetric_tableaux(2 * n)) if 2 * n <= 10 else set()
        ok = ok and len(built) == 2**n * math.factorial(n)
        ok = ok and all(transpose(t) == t for t in built)
    for size in range(0, MAX_N + 1, 2):
        ok = ok and scan.symmetric[size] == 2 ** (size // 2) * math.factorial(size // 2)
    for n in range(1, 5):
        image = set()
        for t in symmetric_tableaux(2 * n):
            sp = to_signed_permutation(t)
            ok = ok and from_signed_permutation(sp) == t
            image.add(sp)
        ok = ok and len(image) == 2**n * math.factorial(n)
    report(7, "symmetric tableaux counted by 2^n n!, signed map bijective", ok)


def test_08_catalan(scan):
    ok = scan.no_free_cell == CATALAN
    for n in range(MAX_N + 1):
        for t in scan.free_cell_free[n]:
            ok = ok and crossings(arc_diagram(t)) == frozenset()
    report(8, "free-cell-free tableaux are Catalan and noncrossing", ok)


def test_09_round_trips(small):
    ok = True
    for n in range(7):
        for t in small[n]:
            forest = to_forest(t)
            d = arc_diagram(t)
            ok = ok and merge_all(split(t)) == t
            ok = ok and from_forest(forest) == t
            ok = ok and arcs_to_forest(d) == forest
            ok = ok and d == forest_to_arcs(forest)
            ok = ok and from_perm_tableau(to_perm_tableau(t)) == t
            ok = ok and parse_tableau(render_tableau(t)) == t
            if not ok:
                break
    for n in range(6):
        for t in small[n]:
            ok = ok and binary_pair_inv(binary_pair(t)) == t
    report(9, "all round trips hold exhaustively (n <= 6; pairs n <= 5)", ok)


def test_10_insertion_equivalence(small, t0):
    ok = all(
        to_permutation_by_insertion(t) == to_permutation(t)
        for n in range(7)
        for t in small[n]
    )
    steps = insertion_steps(t0)
    ok = ok and to_permutation_by_insertion(t0) == SIGMA0
    ok = ok and steps == [
        (0, 4, 11, 13),
        (10, 12, 0, 4, 11, 13),
        (10, 12, 0, 6, 7, 9, 4, 11, 13),
        (10, 12, 0, 8, 6, 7, 9, 4, 11, 13),
        (10, 12, 3, 5, 0, 8, 6, 7, 9, 4, 11, 13),
        (10, 12, 3, 5, 2, 0, 8, 6, 7, 9, 4, 11, 13),
        SIGMA0,
    ]
    report(10, "insertion algorithm equals the forest bijection, trace exact", ok)


def test_11_statistic_transport(small, t0):
    ok = True
    for n in range(7):
        for t in small[n]:
            stats = free_stats(t)
            wstats = perm_stats(to_permutation(t))
            keep = set(t.labels)
            ok = ok and set(t.rows) == wstats.ascent_letters & keep
            ok = ok and set(t.columns) == wstats.descent_letters & keep
            ok = ok and stats.free_rows == wstats.rl_minima & keep
            ok = ok and stats.free_cols == wstats.shifted_rl_maxima & keep
            pstats = perm_tableau_stats(to_perm_tableau(t))
            ok = ok and pstats.top_one_cols == stats.free_cols
            ok = ok and pstats.unrestricted_rows == stats.free_rows
            ok = ok and pstats.superfluous_cells == stats.free_cells
            ok = ok and out_crossings(arc_diagram(t)) == stats.free_cells
            if not ok:
                break
    ok = ok and out_crossings(arc_diagram(t0)) == {(4, 5), (4, 12), (7, 8), (11, 12)}
    report(11, "statistics transport through every bijection, n <= 6", ok)


def test_12_commutation_transport(small):
    q = Poly3.var("q")
    ok = True
    for length in range(2, 7):
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
                ok = ok and lhs == rhs
    report(12, "weight polynomials satisfy the commutation identity", ok)


def test_13_asep_oracle():
    ok = True
    for n in range(7):
        for q, alpha, beta in ASEP_TRIPLES:
            p = AsepParams(n, q, alpha, beta)
            dist = asep_distribution(p)
            solved = chain_stationary(p)
            ok = ok and dist == solved
            ok = ok and sum(dist.values()) == 1 and sum(solved.values()) == 1
    report(13, "tableau weights equal the exact chain solve, n <= 6", ok)


def test_14_corpus_fidelity(t0):
    stats = free_stats(t0)
    ok = closure(t0, 4) == {4, 6, 7, 8, 9}
    ok = ok and (stats.frow, stats.fcol, stats.fcell) == (3, 4, 4)
    ok = ok and stats.free_rows == {4, 11, 13}
    ok = ok and stats.free_cols == {1, 2, 5, 12}
    ok = ok and stats.free_cells == {(4, 5), (4, 12), (7, 8), (11, 12)}
    ok = ok and to_permutation(t0) == SIGMA0
    ok = ok and render_tableau(t0) == T0_COMPACT
    report(14, "corpus tableau reproduces the worked examples", ok)


def test_15_recursion_counts(scan):
    ok = all(count_table(n).counts == scan.tables[n] for n in range(MAX_N + 1))
    report(15, "corner-recursion count tables equal enumeration, n <= 8", ok)
