"""Every verification of the paper's identities, behind ``alttab verify``
and the acceptance tests: the suites, the data they share (the
exclusion-process and refined-series points, the refined closed form) and
the report.  :func:`run_suite` runs one suite of :data:`SUITES`, or all of
them, down one path: every cap, then at most one walk of each size, then
each suite's checks, one :class:`FormulaCheck` per identity and one
``<name> PASS`` or ``<name> FAIL <detail>`` line each.  All of it is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Sequence

from .core import (
    AltTableau,
    _flipped,
    free_stats,
    from_perm_tableau,
    parse_tableau,
    perm_tableau_stats,
    render_tableau,
    to_perm_tableau,
    transpose,
)
from .decomposition import merge_all, split
from .enumeration import (
    CHAIN_CAP,
    COUNT_CAP,
    ENUMERATION_CAP,
    WEIGHT_CAP,
    AsepParams,
    CountTable,
    _corner_table,
    _mirrored_halves,
    _poly_leaf,
    all_tableaux,
    all_via_perm,
    asep_distribution,
    catalan,
    chain_stationary,
    count_table,
    decorated_count,
    product_formula,
    shape_words,
    weight_poly,
)
from .errors import DomainError, _shown_value, check_cap
from .oracles import (
    binary_pair_by_divide,
    count_table_by_corners,
    to_forest_by_cut,
)
from .permutations import (
    from_permutation,
    perm_stats,
    to_permutation,
    to_permutation_by_insertion,
)
from .series import Poly3, Series, geometric, neg_log_one_minus_z
from .trees import (
    PlaneAltForest,
    arc_diagram,
    arcs_to_forest,
    binary_pair,
    binary_pair_inv,
    crossings,
    forest_to_arcs,
    from_forest,
    out_crossings,
    to_forest,
    validate_forest,
)

# The (q, alpha, beta) points where the stationary law is checked.
ASEP_TRIPLES = (
    (Fraction(1), Fraction(1, 2), Fraction(1, 3)),
    (Fraction(1, 2), Fraction(1), Fraction(1)),
    (Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)),
)

# Where the refined series is checked: the row counts of the tableaux with no
# free row at each u, and the full refinement at each (u, x, y).
ROW_POINTS = (Fraction(2), Fraction(1, 2))
REFINED_POINTS = (
    (Fraction(2), Fraction(1), Fraction(1)),
    (Fraction(1), Fraction(2), Fraction(3)),
    (Fraction(3), Fraction(2), Fraction(5)),
)


@dataclass(frozen=True)
class FormulaCheck:
    name: str
    passed: bool
    detail: str = ""

    def line(self) -> str:
        """The report line: the name, PASS or FAIL, and the detail if any."""
        line = f"{self.name} {'PASS' if self.passed else 'FAIL'}"
        return f"{line} {self.detail}" if self.detail else line


@dataclass(frozen=True)
class FormulaReport:
    checks: tuple[FormulaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        return [c.line() for c in self.checks]


def _all_hold(name: str, pairs: Iterable[tuple[bool, str]]) -> FormulaCheck:
    for ok, detail in pairs:
        if not ok:
            return FormulaCheck(name, False, detail)
    return FormulaCheck(name, True)


def _forest_valid(t) -> bool:
    # A fresh forest: the one remembered on ``t`` is marked checked by the
    # round trip that decodes it, so checking it again would check nothing.
    validate_forest(PlaneAltForest(to_forest(t).trees))
    return True


def _statistics_transport(t) -> bool:
    stats = free_stats(t)
    word_stats = perm_stats(to_permutation(t))
    keep = set(t.labels)
    return (
        set(t.rows) == word_stats.ascent_letters & keep
        and set(t.columns) == word_stats.descent_letters & keep
        and stats.free_rows == word_stats.rl_minima & keep
        and stats.free_cols == word_stats.shifted_rl_maxima & keep
    )


def _perm_transport(t) -> bool:
    stats = free_stats(t)
    p = perm_tableau_stats(to_perm_tableau(t))
    return (
        p.top_one_cols == stats.free_cols
        and p.unrestricted_rows == stats.free_rows
        and p.superfluous_cells == stats.free_cells
    )


# The bijection battery, in report order: (name, largest n it is checked at,
# or None for every n, property of one tableau and the size's oracle memo).
BIJECTIONS: tuple[tuple[str, int | None, Callable[[AltTableau, dict], bool]], ...] = (
    (
        "merge of split components restores the tableau",
        None,
        lambda t, _: merge_all(split(t)) == t,
    ),
    ("forest encoding round trip", None, lambda t, _: from_forest(to_forest(t)) == t),
    (
        "forest equals the cut/split construction",
        None,
        lambda t, memo: to_forest(t) == to_forest_by_cut(t, memo),
    ),
    (
        "arc diagram agrees with the forest route",
        None,
        lambda t, _: arc_diagram(t) == forest_to_arcs(to_forest(t)),
    ),
    (
        "arc diagram decodes back to the forest",
        None,
        lambda t, _: arcs_to_forest(arc_diagram(t)) == to_forest(t),
    ),
    (
        "permutation-tableau round trip",
        None,
        lambda t, _: from_perm_tableau(to_perm_tableau(t)) == t,
    ),
    ("parse of render is the identity", None, lambda t, _: parse_tableau(render_tableau(t)) == t),
    (
        "permutation encoding round trip",
        None,
        lambda t, _: from_permutation(to_permutation(t)) == t,
    ),
    (
        "insertion algorithm matches the forest bijection",
        None,
        lambda t, _: to_permutation_by_insertion(t) == to_permutation(t),
    ),
    ("transposition is an involution", None, lambda t, _: transpose(transpose(t)) == t),
    ("binary-tree pair round trip", 5, lambda t, _: binary_pair_inv(binary_pair(t)) == t),
    (
        "binary pair equals the divide construction",
        5,
        lambda t, memo: binary_pair(t) == binary_pair_by_divide(t, memo),
    ),
    (
        "free cells equal arc out-crossings",
        None,
        lambda t, _: out_crossings(arc_diagram(t)) == free_stats(t).free_cells,
    ),
    ("forests validate", None, lambda t, _: _forest_valid(t)),
    ("letter statistics transport", None, lambda t, _: _statistics_transport(t)),
    ("permutation-tableau statistics transport", None, lambda t, _: _perm_transport(t)),
)

# Tableaux per block of the bijection walk: enough for each property's code
# to stay warm across its run over the block, few enough that holding the
# block costs next to no memory (256 took the same time and more memory).
_BLOCK = 64


def _walk(n_max: int, battery: Sequence[tuple]) -> tuple[list[FormulaCheck], list[_Tally]]:
    """The one walk of every tableau up to ``n_max``, each size once: one
    check per property of ``battery``, a failing one with its first
    counterexample, and each size's :class:`_Tally`.

    The walk is drawn in blocks of :data:`_BLOCK` tableaux, and each live
    property runs over a whole block before the next one starts: run one
    after another on the same tableau, the properties leave each other's
    code cold.  Only one block is held at a time.  When properties
    raise on different tableaux of one block, the exception that escapes is
    the first property's in report order, not the first in walk order.  Each
    block goes to the tally once every live property has run over it, so the
    tally reads the statistics and arc diagrams the properties left on it.

    The recursive oracles share one memo per size, so each subproblem they
    meet in the walk is solved once.  Its keys are the sub-tableau's fields,
    ``(labels, word, arrows, class)`` for the forest and ``(labels, word,
    arrows, kind)`` for the pair, whose class and kind names differ; they
    hold no tableau, so each tableau of the walk, and all that is remembered
    on it, is freed once its block is done.  The memo is emptied when the
    size is done, also when a property raises.
    """
    failed: dict[str, str] = {}
    tallies = []
    for n in range(n_max + 1):
        live = [(name, prop) for name, bound, prop in battery if bound is None or n <= bound]
        walk = all_tableaux(n)
        memo: dict = {}
        tally = _Tally(n, n_max)
        try:
            while block := list(islice(walk, _BLOCK)):
                for name, prop in live:
                    if name in failed:
                        continue
                    for t in block:
                        if not prop(t, memo):
                            failed[name] = f"fails on {render_tableau(t)}"
                            break
                tally.add(block)
        finally:
            memo.clear()
        tallies.append(tally)
    report = [
        FormulaCheck(name, name not in failed, failed.get(name, "")) for name, _, _ in battery
    ]
    return report, tallies


def _flat_key(t: AltTableau) -> tuple:
    """A tableau's fields as one flat tuple of ints and strings: the word,
    the labels (as many as its letters) and each arrow's row, column and
    kind.  The garbage collector stops tracking such a tuple, and it holds
    nothing remembered on the tableau."""
    return (t.word, *t.labels, *chain.from_iterable(t.arrows))


class _Tally:
    """What the count and asep suites read off the walk of one size, filled
    by :meth:`add` block by block; the halves are the only tableaux it keeps.

    - ``by_word``: per shape word, the number of tableaux by (fcell, fcol,
      frow), which the weights and the (frow, fcol, rows) counts read;
    - ``listed``: the flat keys of the tableaux, for n <= 5;
    - ``crossing_fail``: the first tableau in walk order with no free cell
      whose arc diagram has a crossing, rendered, or ``None``;
    - ``decorations``: the sum of 2^arrows;
    - ``fixed``: how many tableaux are their own transpose;
    - ``halves``: the tableaux with no free column when 2n <= ``n_max``
      (the halves of the symmetric tableaux of size 2n), else ``None``.
    """

    def __init__(self, n: int, n_max: int):
        self.n = n
        self.by_word: dict[str, dict[tuple[int, int, int], int]] = {}
        self.listed: set[tuple] = set()
        self.crossing_fail: str | None = None
        self.decorations = 0
        self.fixed = 0
        self.halves: list[AltTableau] | None = [] if 2 * n <= n_max else None
        # Only tableaux on a word equal to its transpose's can be transpose-fixed.
        self._mirrored = {w for w in shape_words(n) if _flipped(w) == w}

    def add(self, walk: Iterable[AltTableau]) -> None:
        by_word, listed, halves, mirrored = self.by_word, self.listed, self.halves, self._mirrored
        keyed = self.n <= 5
        decorations = fixed = 0
        for t in walk:
            stats = free_stats(t)
            word = t.word
            counts = by_word.get(word)
            if counts is None:
                counts = by_word[word] = {}
            key = (stats.fcell, stats.fcol, stats.frow)
            counts[key] = counts.get(key, 0) + 1
            if keyed:
                listed.add(_flat_key(t))
            if not key[0] and self.crossing_fail is None and crossings(arc_diagram(t)):
                self.crossing_fail = f"fails on {render_tableau(t)}"
            decorations += 2 ** len(t.arrows)
            if halves is not None and not key[1]:
                halves.append(t)
            if word in mirrored and transpose(t) == t:
                fixed += 1
        self.decorations += decorations
        self.fixed += fixed

    def enumerated(self) -> dict[tuple[int, int, int], int]:
        """The number of tableaux by (free rows, free columns, rows)."""
        out: dict[tuple[int, int, int], int] = {}
        for word, counts in self.by_word.items():
            rows = word.count("D")
            for (_, fcol, frow), c in counts.items():
                key = (frow, fcol, rows)
                out[key] = out.get(key, 0) + c
        return out

    def no_free_cell(self) -> int:
        """The number of tableaux with no free cell."""
        return sum(
            c
            for counts in self.by_word.values()
            for (cells, _, _), c in counts.items()
            if not cells
        )

    def weight(self, word: str) -> Poly3:
        """The sum of q^fcell x^fcol y^frow over the tableaux on ``word``."""
        return Poly3(self.by_word[word])


def _count_checks(n_max: int, _battery, tallies: list[_Tally]) -> list[FormulaCheck]:
    """The counting identities up to ``n_max``, grouped by identity.  Every
    check that reads the backtracking walk takes what it needs from that
    size's :class:`_Tally`; the permutation generator draws each size once
    more."""
    tables = {n: count_table(n) for n in range(n_max + 1)}
    counts = {n: tables[n].total() for n in range(n_max + 1)}
    totals, by_table, same_sets, perm_counts, catalans, decorated, symmetric = (
        [] for _ in range(7)
    )
    for n, tally in enumerate(tallies):
        want = math.factorial(n + 1)
        totals.append(_all_hold(f"A({n})={counts[n]}", [(counts[n] == want, f"expected {want}")]))
        by_table.append(
            FormulaCheck(
                f"count table equals enumeration and the corner recursion at n={n}",
                tables[n].counts == tally.enumerated() == count_table_by_corners(n).counts,
            )
        )
        pairs = set()
        via: set[tuple] = set()
        for t in all_via_perm(n):
            # A flat key of ints and strings, which the garbage collector
            # stops tracking: the (n+1)! keys would otherwise be rescanned.
            pairs.add((t.word, *chain.from_iterable(t.arrows)))
            if n <= 5:
                via.add(_flat_key(t))
        if n <= 5:
            same_sets.append(FormulaCheck(f"generator sets agree at n={n}", tally.listed == via))
        distinct = len(pairs)
        perm_counts.append(
            _all_hold(
                f"permutation generator count at n={n}",
                [(distinct == counts[n], f"{distinct} != {counts[n]}")],
            )
        )
        want = catalan(n + 1)
        catalans.append(
            FormulaCheck(f"free-cell-free count at n={n} is {want}", tally.no_free_cell() == want)
        )
        want = 2**n * math.factorial(n)
        decorated.append(
            FormulaCheck(
                f"decorated count at n={n} is {want}",
                tally.decorations == decorated_count(n) == want,
            )
        )
        if n % 2 == 0:
            want = 2 ** (n // 2) * math.factorial(n // 2)
            built = {(t.word, t.arrows) for t in _mirrored_halves(n, tallies[n // 2].halves)}
            symmetric.append(
                FormulaCheck(
                    f"symmetric tableaux of size {n}: {want}",
                    len(built) == want and tally.fixed == want,
                )
            )
    crossing_fail = next((t.crossing_fail for t in tallies if t.crossing_fail), None)
    crossing_free = FormulaCheck(
        "free-cell-free diagrams have no crossings", crossing_fail is None, crossing_fail or ""
    )
    checks = totals + by_table + same_sets + perm_counts + catalans + [crossing_free]
    checks += decorated + symmetric
    for n in range(max(0, n_max - 1)):
        mid = tables[n + 1].by_free()
        far = tables[n + 2].by_free()
        chain_ok = (
            counts[n]
            == sum(c for (i, j), c in mid.items() if j == 0)
            == sum(c for (i, j), c in mid.items() if i == 0)
            == far.get((0, 1), 0)
            == far.get((1, 0), 0)
        )
        checks.append(FormulaCheck(f"cut/block cardinality chain at n={n}", chain_ok))
    return checks


def refined_series(order: int, u: Fraction, x: Fraction, y: Fraction) -> Series:
    """The closed form of the refined generating function, the sum over all
    tableaux of x^frow y^fcol u^rows z^n / n!, at one point; u = 1 uses the
    limit form (1-z)^-(x+y)."""
    if u == 1:
        return geometric(order).pow_fraction(x + y)
    inner = (1 - u) * (1 - Series.z(order, 1 - u).exp() * u).inverse()
    return (Series.z(order, y * (1 - u)) + inner.log() * (x + y)).exp()


def _weighted(
    table: CountTable,
    u: Fraction | int = 1,
    x: Fraction | int = 1,
    y: Fraction | int = 1,
    keep: Callable[[int, int], bool] = lambda i, j: True,
) -> Fraction:
    """The sum of x^frow y^fcol u^rows over the tableaux ``table`` counts
    whose (frow, fcol) ``keep`` accepts.

    A rate r = a/b of a tableau of length n enters as a^e b^(n-e), so every
    term is an integer over the one denominator of the three rates to the
    n-th power, and the only ``Fraction`` built is the total.
    """
    n = table.n
    rates = [Fraction(r) for r in (x, y, u)]
    px, py, pu = ([r.numerator**e * r.denominator ** (n - e) for e in range(n + 1)] for r in rates)
    total = sum(c * px[i] * py[j] * pu[k] for (i, j, k), c in table.counts.items() if keep(i, j))
    return Fraction(total, math.prod(r.denominator for r in rates) ** n)


def _coefficientwise(name: str, series: Series, counts: Sequence[Fraction]) -> FormulaCheck:
    """``counts[n]`` against the n-th exponential coefficient of ``series``."""
    found = ((n, series.egf_count(n), got) for n, got in enumerate(counts))
    return _all_hold(
        name,
        (
            (want == got, f"first failing coefficient n={n}: series {want}, count {got}")
            for n, want, got in found
        ),
    )


def formula_report(n_max: int = 7) -> FormulaReport:
    """Check every counting identity coefficientwise up to ``n_max``, exactly."""
    check_cap(n_max, "formula verification", COUNT_CAP)
    order = n_max + 2
    tables = [count_table(n) for n in range(n_max + 1)]
    a = geometric(order) * geometric(order)  # 1/(1-z)^2
    b = geometric(order)
    c = neg_log_one_minus_z(order)
    # (name, series, the arguments of ``_weighted``): the n-th coefficient of
    # the series is x^i y^j u^k summed over the tableaux of length n with i
    # free rows, j free columns and k rows (x = 0 keeps those with i = 0).
    identities = [
        ("all tableaux vs 1/(1-z)^2", a, {}),
        ("no free rows vs 1/(1-z)", b, {"x": 0}),
        ("column-packed vs -log(1-z)", c, {"keep": lambda i, j: (i, j) == (0, 1)}),
    ]
    # Row-count refinement at fixed rational u: (1-u)/(exp(z(u-1)) - u).
    identities += [
        (
            f"no-free-row row counts at u={u}",
            (Series.z(order, u - 1).exp() - u).inverse() * (1 - u),
            {"u": u, "x": 0},
        )
        for u in ROW_POINTS
    ]
    identities += [
        (
            f"refined counts at (u,x,y)=({u},{x},{y})",
            refined_series(order, u, x, y),
            {"u": u, "x": x, "y": y},
        )
        for u, x, y in REFINED_POINTS
    ]
    checks = [
        _coefficientwise(name, series, [_weighted(t, **weight) for t in tables])
        for name, series, weight in identities
    ]
    # Product formula, as an exact polynomial identity.
    checks.append(
        _all_hold(
            "free-line polynomial equals rising product",
            (
                (t.free_poly() == product_formula(n), f"first failing degree n={n}")
                for n, t in enumerate(tables)
            ),
        )
    )
    # Differential relations: B' = A and C'' = A as coefficient shifts.
    for name, derived in (
        ("derivative of no-free-row series equals full series", b.derivative()),
        ("second derivative of packed series equals full series", c.derivative().derivative()),
    ):
        checks.append(FormulaCheck(name, derived.truncate(n_max) == a.truncate(n_max)))
    return FormulaReport(tuple(checks))


def _asep_checks(n_max: int, _battery, tallies: list[_Tally]) -> list[FormulaCheck]:
    """The exclusion-process identities up to ``n_max``: each shape's weight
    by the bidiagonal pass, by the corner recursion and as the sum over its
    fillings, which the walk of each size tallies, and the stationary law
    from the weights against the exact chain solve."""
    checks = []
    for n, tally in enumerate(tallies):
        # The q-tracked corner table by code; shape_words lists the codes downwards.
        by_corners, _ = _corner_table(n, _poly_leaf, Poly3.var("q"))
        checks.append(
            _all_hold(
                f"corner-recursion weights equal enumeration at n={n}",
                (
                    (weight_poly(w) == tally.weight(w) == z, f"fails on shape {w}")
                    for w, z in zip(shape_words(n), reversed(by_corners))
                ),
            )
        )
        for q, alpha, beta in ASEP_TRIPLES:
            p = AsepParams(n, q, alpha, beta)
            weights = asep_distribution(p)
            solved = chain_stationary(p)
            name = f"stationary law at n={n}, (q,a,b)=({q},{alpha},{beta})"
            ok = weights == solved and sum(weights.values()) == 1 == sum(solved.values())
            checks.append(FormulaCheck(name, ok))
    return checks


# Each suite by name, in report order: the caps it runs into, and its checks
# as a function of the size, the battery's checks and each size's tallies
# (:func:`_walk`).  The walk is what runs into the enumeration cap, so a
# suite reads it exactly when its caps hold that cap.
SUITES = {
    "bijections": ((ENUMERATION_CAP,), lambda n, battery, _: battery),
    "counts": ((ENUMERATION_CAP, WEIGHT_CAP, COUNT_CAP), _count_checks),
    "series": ((COUNT_CAP,), lambda n, *_: list(formula_report(n).checks)),
    "asep": ((ENUMERATION_CAP, WEIGHT_CAP, CHAIN_CAP), _asep_checks),
}


def run_suite(suite: str, n_max: int) -> list[FormulaCheck]:
    """The checks of one suite, or of every suite in table order for ``"all"``:
    every cap first, then one walk of each size if a requested suite reads it,
    with the bijection battery only when its suite is requested."""
    names = list(SUITES) if suite == "all" else [suite]
    if not isinstance(suite, str) or names[0] not in SUITES:
        known = ", ".join([*SUITES, "all"])
        raise DomainError("bad-suite", f"unknown suite {_shown_value(suite)}, not one of {known}")
    for name in names:
        for setting in SUITES[name][0]:
            check_cap(n_max, f"verify suite {name}", setting)
    walked: tuple[list, list] = ([], [])
    if any(ENUMERATION_CAP in SUITES[name][0] for name in names):
        walked = _walk(n_max, BIJECTIONS if "bijections" in names else ())
    return [c for name in names for c in SUITES[name][1](n_max, *walked)]
