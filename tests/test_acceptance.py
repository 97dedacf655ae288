"""Acceptance suite: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  The counting, series, bijection and exclusion-process criteria
read the named checks of the verification batteries, each run once at the
acceptance sizes: every tableau up to length 8 for the counts, round trips up
to length 6 (binary pairs up to 5) and the chain solve up to 6 sites.  What
no battery covers is checked here directly.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Iterable, Sequence

import pytest

from alttab.checks import (
    ASEP_TRIPLES,
    REFINED_POINTS,
    ROW_POINTS,
    FormulaCheck,
    formula_report,
    run_suite,
)
from alttab.core import free_stats, render_tableau, transpose
from alttab.decomposition import closure
from alttab.enumeration import (
    MarkedTableau,
    all_tableaux,
    decorated_bijection,
    decorated_bijection_inv,
    shape_words,
    symmetric_tableaux,
)
from alttab.oracles import weight_poly_by_fillings
from alttab.permutations import (
    from_signed_permutation,
    insertion_steps,
    to_permutation,
    to_permutation_by_insertion,
    to_signed_permutation,
)
from alttab.series import Poly3
from alttab.trees import arc_diagram, out_crossings

from conftest import T0_COMPACT

MAX_N = 8  # every tableau up to this length is enumerated
ROUND_TRIP_N = 6  # the bijection battery's size; binary pairs stop at 5
CHAIN_N = 6  # the exact chain solve's size
CATALAN = [1, 2, 5, 14, 42, 132, 429, 1430, 4862]
SIGMA0 = (10, 12, 3, 5, 2, 1, 0, 8, 6, 7, 9, 4, 11, 13)


def report(
    num: int,
    title: str,
    results: Sequence[FormulaCheck] = (),
    names: Iterable[str] = (),
    ok: bool = True,
) -> None:
    """Print the criterion's line.  It passes when ``ok`` holds and each of
    ``names`` is a check among ``results`` that passed."""
    by_name = {c.name: c for c in results}
    wrong = [name for name in names if name not in by_name or not by_name[name].passed]
    ok = ok and not wrong
    line = FormulaCheck(
        f"criterion {num:02d} ({title}):", ok, f"not passed: {wrong[0]}" if wrong else ""
    ).line()
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def counts() -> list[FormulaCheck]:
    return run_suite("counts", MAX_N)


@pytest.fixture(scope="module")
def series() -> tuple[FormulaCheck, ...]:
    return formula_report(MAX_N).checks


@pytest.fixture(scope="module")
def bijections() -> list[FormulaCheck]:
    return run_suite("bijections", ROUND_TRIP_N)


@pytest.fixture(scope="module")
def asep() -> list[FormulaCheck]:
    return run_suite("asep", CHAIN_N)


def test_01_cardinality(counts):
    names = [f"A({n})={math.factorial(n + 1)}" for n in range(MAX_N + 1)]
    names += [
        f"count table equals enumeration and the corner recursion at n={n}"
        for n in range(MAX_N + 1)
    ]
    report(1, "exhaustive counts are (n+1)! for n <= 8", counts, names)


def test_02_dual_generator_oracle(counts):
    names = [f"generator sets agree at n={n}" for n in range(6)]
    names += [f"permutation generator count at n={n}" for n in range(MAX_N + 1)]
    report(2, "permutation-driven generator agrees with backtracking", counts, names)


def test_03_product_formula(series):
    names = ["free-line polynomial equals rising product"]
    report(3, "free-line polynomial equals the rising product, n <= 8", series, names)


def test_04_refined_generating_function(series):
    names = [f"refined counts at (u,x,y)=({u},{x},{y})" for u, x, y in REFINED_POINTS]
    names += [f"no-free-row row counts at u={u}" for u in ROW_POINTS]
    assert len(REFINED_POINTS) == 3
    report(4, "closed-form refined series matches the counts at 3 points", series, names)


def test_05_plain_series(series):
    names = [
        "all tableaux vs 1/(1-z)^2",
        "no free rows vs 1/(1-z)",
        "column-packed vs -log(1-z)",
        "derivative of no-free-row series equals full series",
        "second derivative of packed series equals full series",
    ]
    report(5, "1/(1-z)^2, 1/(1-z), -log(1-z) and their derivative relations", series, names)


def test_06_decorated(counts):
    names = [
        f"decorated count at n={n} is {2**n * math.factorial(n)}" for n in range(MAX_N + 1)
    ]
    ok = True
    for n in range(5):
        image = set()
        count = 0
        for t in all_tableaux(n):
            stats = free_stats(t)
            lines = sorted(set(t.labels) - stats.free_rows - stats.free_cols)
            for mask in product((False, True), repeat=len(lines)):
                mt = MarkedTableau(t, frozenset(l for l, on in zip(lines, mask) if on))
                out = decorated_bijection(mt)
                ok = ok and decorated_bijection_inv(out) == mt
                image.add(out)
                count += 1
        ok = ok and count == len(image) == 2**n * math.factorial(n)
    report(6, "decorated tableaux counted by 2^n n! with explicit bijection", counts, names, ok)


def test_07_symmetric(counts):
    names = [
        f"symmetric tableaux of size {size}: {2 ** (size // 2) * math.factorial(size // 2)}"
        for size in range(0, MAX_N + 1, 2)
    ]
    # Size 10 is beyond the battery's enumeration.
    built = set(symmetric_tableaux(10))
    ok = len(built) == 2**5 * math.factorial(5)
    ok = ok and all(transpose(t) == t for t in built)
    for n in range(1, 5):
        image = set()
        for t in symmetric_tableaux(2 * n):
            sp = to_signed_permutation(t)
            ok = ok and from_signed_permutation(sp) == t
            image.add(sp)
        ok = ok and len(image) == 2**n * math.factorial(n)
    report(7, "symmetric tableaux counted by 2^n n!, signed map bijective", counts, names, ok)


def test_08_catalan(counts):
    names = [f"free-cell-free count at n={n} is {CATALAN[n]}" for n in range(MAX_N + 1)]
    names.append("free-cell-free diagrams have no crossings")
    report(8, "free-cell-free tableaux are Catalan and noncrossing", counts, names)


def test_09_round_trips(bijections):
    names = [
        "merge of split components restores the tableau",
        "forest encoding round trip",
        "forest equals the cut/split construction",
        "arc diagram agrees with the forest route",
        "arc diagram decodes back to the forest",
        "permutation-tableau round trip",
        "parse of render is the identity",
        "permutation encoding round trip",
        "transposition is an involution",
        "binary-tree pair round trip",
        "binary pair equals the divide construction",
        "forests validate",
    ]
    report(9, "all round trips hold exhaustively (n <= 6; pairs n <= 5)", bijections, names)


def test_10_insertion_equivalence(bijections, t0):
    steps = insertion_steps(t0)
    ok = to_permutation_by_insertion(t0) == SIGMA0
    ok = ok and steps == [
        (0, 4, 11, 13),
        (10, 12, 0, 4, 11, 13),
        (10, 12, 0, 6, 7, 9, 4, 11, 13),
        (10, 12, 0, 8, 6, 7, 9, 4, 11, 13),
        (10, 12, 3, 5, 0, 8, 6, 7, 9, 4, 11, 13),
        (10, 12, 3, 5, 2, 0, 8, 6, 7, 9, 4, 11, 13),
        SIGMA0,
    ]
    names = ["insertion algorithm matches the forest bijection"]
    title = "insertion algorithm equals the forest bijection, trace exact"
    report(10, title, bijections, names, ok)


def test_11_statistic_transport(bijections, t0):
    names = [
        "letter statistics transport",
        "permutation-tableau statistics transport",
        "free cells equal arc out-crossings",
    ]
    ok = out_crossings(arc_diagram(t0)) == {(4, 5), (4, 12), (7, 8), (11, 12)}
    report(11, "statistics transport through every bijection, n <= 6", bijections, names, ok)


def test_12_commutation_transport():
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
    report(12, "weight polynomials satisfy the commutation identity", ok=ok)


def test_13_asep_oracle(asep):
    names = [
        f"stationary law at n={n}, (q,a,b)=({q},{alpha},{beta})"
        for n in range(CHAIN_N + 1)
        for q, alpha, beta in ASEP_TRIPLES
    ]
    names += [f"corner-recursion weights equal enumeration at n={n}" for n in range(CHAIN_N + 1)]
    report(13, "tableau weights equal the exact chain solve, n <= 6", asep, names)


def test_14_corpus_fidelity(t0):
    stats = free_stats(t0)
    ok = closure(t0, 4) == {4, 6, 7, 8, 9}
    ok = ok and (stats.frow, stats.fcol, stats.fcell) == (3, 4, 4)
    ok = ok and stats.free_rows == {4, 11, 13}
    ok = ok and stats.free_cols == {1, 2, 5, 12}
    ok = ok and stats.free_cells == {(4, 5), (4, 12), (7, 8), (11, 12)}
    ok = ok and to_permutation(t0) == SIGMA0
    ok = ok and render_tableau(t0) == T0_COMPACT
    report(14, "corpus tableau reproduces the worked examples", ok=ok)


def test_15_recursion_counts(counts):
    names = [
        f"count table equals enumeration and the corner recursion at n={n}"
        for n in range(MAX_N + 1)
    ]
    names += [f"cut/block cardinality chain at n={n}" for n in range(MAX_N - 1)]
    report(15, "count tables equal enumeration and the corner recursion, n <= 8", counts, names)
