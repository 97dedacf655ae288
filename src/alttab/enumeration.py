"""Exhaustive generation, refined counting, stationary distributions, and
decorated and symmetric tableaux.

Counts come from the insertion recurrence on (free rows, free columns,
rows), one pass over a table of polynomial size per label, so counting never
visits a shape.  Weights and exclusion-process laws come from the corner
recursion of the matrix ansatz, ``DE = qED + D + E``: the corner cell of a
``DE`` step holds a left arrow (drop the row), an up arrow (drop the column)
or is an empty free cell (weight ``q``, swap the step), and a shape
``E^a D^b`` has no cells.  Words are coded as integers (D = 1, first letter
in the top bit), so a swap lowers the code and a drop shortens the word.
The law of all 2^n states is built length by length from the boundary
steps: a word E.w is x times w and a word w.D is y times w, so only the
words D...E of each length, 2^(n-1) - 1 in all, take a corner step.  It
works on integer numerators over a known power of the rates' denominators;
the polynomial of one word is one vector pass through bidiagonal matrices
that obey the same relation.  Either way a shape costs polynomial time.

The backtracking generator walks every shape word in lexicographic order and
fills cells leftmost column first, top to bottom, trying empty, then a left
arrow, then an up arrow; arrows are only placed when every cell they point at
is already known to be empty, so each produced filling is valid by
construction.  A second generator reaches the same set through the
permutation bijection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations as iter_permutations
from itertools import product, repeat
from numbers import Real
from typing import Callable, Iterator, Sequence, TypeVar

from .core import (
    UP,
    AltTableau,
    Arrow,
    _assembled,
    _mirrored,
    _reversal,
    free_stats,
    relabel,
    transpose,
)
from .decomposition import _parts, _tree_roots, divide, merge
from .errors import DomainError, _integral, _shown_number, _shown_value, check_cap
from .permutations import from_permutation
from .series import Poly3

# Size caps, one per workload, each overridable by its environment variable.
# Enumeration visits (n+1)! tableaux; the corner recursion fills 2^(n+1)
# entries (about 10 MB of count polynomials for the oracle at n = 12); counting
# steps through tables of O(n^3) entries whose numbers grow to (n+1)! (the
# formula report, which works over every table up to n, sets its default);
# the chain solve eliminates over a 2^n linear system whose rows fill in as
# it goes.
ENUMERATION_CAP = ("ALTAB_MAX_N", 9)
WEIGHT_CAP = ("ALTAB_MAX_WEIGHT_N", 12)
COUNT_CAP = ("ALTAB_MAX_COUNT_N", 24)
CHAIN_CAP = ("ALTAB_MAX_CHAIN_N", 6)

PARTICLE = "*"
HOLE = "o"

V = TypeVar("V")


def shape_words(n: int) -> Iterator[str]:
    """All 2^n border words of length n, lexicographically (D before E)."""
    for bits in product("DE", repeat=n):
        yield "".join(bits)


def fillings(word: str) -> Iterator[tuple[Arrow, ...]]:
    """All valid arrow placements on a shape, in a fixed backtracking order."""
    labels = range(1, len(word) + 1)
    rows = [l for l, c in zip(labels, word) if c == "D"]
    cols = [l for l, c in zip(labels, word) if c == "E"]
    cells = [(i, j) for j in sorted(cols, reverse=True) for i in rows if i < j]
    row_used: dict[int, bool] = {i: False for i in rows}  # any arrow already in row
    col_used: dict[int, bool] = {j: False for j in cols}  # any arrow already in column
    chosen: list[Arrow] = []

    def place(k: int) -> Iterator[tuple[Arrow, ...]]:
        if k == len(cells):
            yield tuple(chosen)
            return
        i, j = cells[k]
        yield from place(k + 1)  # empty
        # A left arrow points at the already-placed cells further left in its
        # row; legal exactly when the row is still untouched.
        if not row_used[i]:
            row_used[i] = True
            before = col_used[j]
            col_used[j] = True
            chosen.append(Arrow(i, j, "L"))
            yield from place(k + 1)
            chosen.pop()
            row_used[i] = False
            col_used[j] = before
        # An up arrow points at the cells above it in its column.
        if not col_used[j]:
            col_used[j] = True
            before = row_used[i]
            row_used[i] = True
            chosen.append(Arrow(i, j, "U"))
            yield from place(k + 1)
            chosen.pop()
            col_used[j] = False
            row_used[i] = before
        return

    yield from place(0)


def all_tableaux(n: int) -> Iterator[AltTableau]:
    """Every alternative tableau of length n with standard labels, exactly once."""
    check_cap(n, "exhaustive generation", ENUMERATION_CAP)
    labels = tuple(range(1, n + 1))
    for word in shape_words(n):
        for arrows in fillings(word):
            yield _assembled(labels, word, tuple(sorted(arrows)))


def all_via_perm(n: int) -> Iterator[AltTableau]:
    """The same set, produced from all (n+1)! permutations of 0..n."""
    check_cap(n, "permutation-driven generation", ENUMERATION_CAP)
    for word in iter_permutations(range(n + 1)):
        yield from_permutation(word)


# ---------------------------------------------------------------------------
# The corner recursion


def _corner(w: int) -> tuple[int, int, int] | None:
    """Split the code of a word at its first ``DE`` corner.

    A word of length m is coded as an m-bit int, first letter in the top bit
    and D = 1, so the first ``DE`` is the top bit set in ``w & ~(w << 1) & ~1``.
    Returns the codes of the word with that corner swapped to ``ED`` (same
    length, smaller code), with its row dropped and with its column dropped
    (both one letter shorter); ``None`` for a word ``E^a D^b``, which has no
    cells.  The codes do not depend on the length, which the caller tracks.
    """
    corner = w & ~(w << 1) & ~1
    if not corner:
        return None
    top = corner.bit_length()  # the D sits at bit top - 1, its E at top - 2
    low = 1 << (top - 2)
    no_row = (w >> top) << (top - 1) | (w & (low - 1))
    return w - low, no_row, no_row | low


# The plan ``_corner_plan`` built last, as (length, corner steps by length from
# 2 up, cells, state names, rows); nothing in it is ever changed.
_Plan = tuple[
    int, tuple[tuple[tuple[int, ...], ...], ...], tuple[int, ...], tuple[str, ...], tuple[int, ...]
]
_last_plan: _Plan = (0, (), (0,), ("",), (0,))


def _corner_plan(n: int) -> _Plan:
    """The rate-free part of :func:`_corner_table` for words of length n.

    Which entries a code reads and how many cells each drop takes depend on
    n alone, not on (q, x, y).  For each length m from 2 to n the plan lists
    the D...E codes in ascending order, each as the five ints (swap, no row,
    cells dropped with the row, no column, cells dropped with the column);
    the odd code after each of them is w.D, read from entry w >> 1, the
    upper half of length m - 1 in order, and the codes below 2^(m-1) are E.w.
    With them it holds the cells of every word of length n, the state names
    in the order of :func:`states` (a hole being an E step) and each code's
    number of rows, its bit count.

    Only the plan built last is kept, so a sweep of rates at one n walks the
    recursion once and a call at another n builds its own plan in place of
    it: at n = 12 about 0.7 MB (2^11 - 1 steps, 4096 names).
    """
    global _last_plan
    if _last_plan[0] == n:
        return _last_plan
    steps = []
    prev_cells = [0, 0] if n else [0]  # E and D bound no cell
    for m in range(2, n + 1):
        half = len(prev_cells)
        cells = prev_cells.copy()
        at_length = []
        for w in range(half, 2 * half):
            if w & 1:
                cells.append(prev_cells[w >> 1])
                continue
            swap, no_row, no_col = _corner(w)
            c = cells[swap] + 1
            at_length.append((swap, no_row, c - prev_cells[no_row], no_col, c - prev_cells[no_col]))
            cells.append(c)
        steps.append(tuple(at_length))
        prev_cells = cells
    rows = tuple(w.bit_count() for w in range(1 << n))
    _last_plan = (n, tuple(steps), tuple(prev_cells), tuple(states(n)), rows)  # one rebinding
    return _last_plan


def _corner_table(
    n: int, leaf: Callable[[int, int], V], qn: int = 1, qd: int = 1, xd: int = 1, yd: int = 1
) -> tuple[list[V], list[int]]:
    """Every word of length n by code: its scaled Z and its number of cells.

    Entry w holds Z(w).qd^cells(w).xd^#E(w).yd^#D(w), and ``leaf(a, b)`` is
    the scaled Z of ``E^a D^b``, a product x^a.y^b as the matrix ansatz's
    boundary relations <W|E = x<W| and D|V> = y|V> make it; only leaf(0, 0),
    leaf(1, 0) and leaf(0, 1) are read.  Length m comes from length m - 1:

    - a code below 2^(m-1) is E.w, x times entry w, with the same cells;
    - an odd code is w.D, y times entry w >> 1, with the same cells;
    - the other codes, the words D...E, split at their first ``DE`` corner,
      Z(X.DE.Y) = q.Z(X.ED.Y) + Z(X.E.Y) + Z(X.D.Y) with q = qn/qd, so the
      step is

        qn.Z(swap) + qd^(cells dropped with the row).yd.Z(no row)
                   + qd^(cells dropped with the column).xd.Z(no column).

    A swap lowers the code and a drop shortens the word, so an ascending
    pass per length, keeping only the previous length, sees every operand
    first: 2^(n+1) entries, 2^(n-1) - 1 corner steps, no memo and no stack.
    Which codes each step reads, and the cells, come from
    :func:`_corner_plan`, built once per n; this pass does only the
    arithmetic.  On ints every entry is an integer numerator; on ``Poly3``
    values at the default q = 1 the table holds the polynomials themselves.
    This is the only walk of the recursion, for all 2^n words of a size; one
    word's polynomial is :func:`_bidiagonal_pass`.
    """
    _, steps, cells, _, _ = _corner_plan(n)
    # A row or a column holds fewer than n cells.
    row_factor = [qd**e * yd for e in range(n)]
    col_factor = [qd**e * xd for e in range(n)]
    x, y = leaf(1, 0), leaf(0, 1)
    prev = [leaf(0, 0)]
    if n:
        prev = [x * prev[0], y * prev[0]]
    for at_length in steps:
        cur = [x * v for v in prev]
        # Each D...E code w is followed by the odd code w + 1, y times entry
        # w >> 1: the upper half of the length before, in order.
        parents = prev[len(prev) >> 1 :]
        for (swap, no_row, row_cells, no_col, col_cells), v in zip(at_length, parents):
            cur.append(
                qn * cur[swap]
                + row_factor[row_cells] * prev[no_row]
                + col_factor[col_cells] * prev[no_col]
            )
            cur.append(y * v)
        prev = cur
    return prev, list(cells)


def _poly_leaf(a: int, b: int) -> Poly3:
    return Poly3.monomial(0, a, b)


# ---------------------------------------------------------------------------
# Refined counts


@dataclass(frozen=True)
class CountTable:
    """Counts of tableaux of length n by (free rows, free columns, rows)."""

    n: int
    counts: dict[tuple[int, int, int], int]

    def total(self) -> int:
        return sum(self.counts.values())

    def by_free(self) -> dict[tuple[int, int], int]:
        out: dict[tuple[int, int], int] = {}
        for (i, j, _), c in self.counts.items():
            out[(i, j)] = out.get((i, j), 0) + c
        return out

    def free_poly(self) -> Poly3:
        """The polynomial summing x^(free rows) y^(free cols) over all tableaux."""
        return Poly3({(0, i, j): c for (i, j), c in self.by_free().items()})


# T(0), and the last table ``count_table`` built as (length, counts).  Neither
# dict is ever changed: ``_insert_label`` builds a new one and callers get copies.
_EMPTY_TABLE: dict[tuple[int, int, int], int] = {(0, 0, 0): 1}
_last_table: tuple[int, dict[tuple[int, int, int], int]] = (0, _EMPTY_TABLE)


def count_table(n: int) -> CountTable:
    """Exact count table by the insertion recurrence: T(0; 0,0,0) = 1 and

        T(m+1; i,j,k) = T(m; i-1,j,k-1) + T(m; i,j-1,k)
                        + (m-k+1) T(m; i,j,k-1) + k T(m; i,j,k)

    for i free rows, j free columns and k rows.  The four terms read as what
    a new label can be: a free row, a free column, a non-free row (its arrow
    in one of the m-k+1 columns of the old tableau) or a non-free column
    (its arrow in one of the k old rows).  Summed over k the weights give the
    factor (x+y+m) of the rising product; summed over i and j they give the
    Eulerian recurrence of permutation tableaux by rows (Williams 2005).
    The identity is what is checked, not the reading: the ``counts`` suite of
    ``checks.run_suite`` ties every table to enumeration and to the corner
    recursion.

    The last table built is kept and extended when a table at least as long
    is asked for, so an ascending sweep n = 0..N runs N steps, not
    N(N+1)/2; a shorter one starts again from T(0).  Each caller gets its
    own copy of the counts.
    """
    global _last_table
    check_cap(n, "counting", COUNT_CAP)
    m, counts = _last_table
    if n < m:
        m, counts = 0, _EMPTY_TABLE
    for step in range(m, n):
        counts = _insert_label(counts, step)
    _last_table = (n, counts)  # one rebinding, after every step has run
    return CountTable(n, dict(counts))


def _insert_label(
    counts: dict[tuple[int, int, int], int], m: int
) -> dict[tuple[int, int, int], int]:
    """The table of length m + 1 from the table of length m, pushing each
    entry to the four keys a new label can reach.  A non-free column keeps
    its entry's key, so those pushes come first and reuse the key tuple:
    consecutive tables share most of their keys, and the tables of
    n = 0..8 hold about 150 key tuples where a new tuple per push made 395."""
    out = {key: key[2] * c for key, c in counts.items() if key[2]}
    get = out.get
    for (i, j, k), c in counts.items():
        key = (i + 1, j, k + 1)
        out[key] = get(key, 0) + c
        key = (i, j + 1, k)
        out[key] = get(key, 0) + c
        if m > k:
            key = (i, j, k + 1)
            out[key] = get(key, 0) + (m - k) * c
    return out


def product_formula(n: int) -> Poly3:
    """The closed product (x+y)(x+y+1)...(x+y+n-1) as an exact polynomial."""
    out = Poly3.constant(1)
    base = Poly3.var("x") + Poly3.var("y")
    for i in range(n):
        out = out * (base + i)
    return out


# ---------------------------------------------------------------------------
# Weights and the exclusion process


def weight_poly(word: str) -> Poly3:
    """Sum of q^fcell x^fcol y^frow over all fillings of the shape.

    Leading E steps and trailing D steps bound no cell and only multiply the
    weight by x and y, so the cap applies to the steps between them.
    """
    if not isinstance(word, str) or set(word) - {"D", "E"}:
        raise DomainError("bad-word", f"border word {_shown_value(word)} is not over D and E")
    rest = word.lstrip("E")
    core = rest.rstrip("D")
    check_cap(len(core), "weight polynomial (steps from the first D to the last E)", WEIGHT_CAP)
    return _bidiagonal_pass(core, Poly3.monomial(0, len(word) - len(rest), len(rest) - len(core)))


def _bidiagonal_pass(core: str, ends: Poly3) -> Poly3:
    """``ends`` times <0|M(c_1)...M(c_m)|0>.  With [h] = 1 + q + ... + q^(h-1),
    D[h][h] = [h] + q^h.y, D[h][h+1] = 1, E[h][h] = [h] + q^h.x and
    E[h+1][h] = [h+1].([h] + q^h.(x + y - (1-q).x.y)).  These satisfy
    DE = qED + D + E, <0|E = x<0| and D|0> = y|0>: the corner recursion and
    its leaves.  A row vector runs along the word; a level above the number
    of Es still to come cannot return to 0, so it is dropped."""
    es = core.count("E")
    top = min(len(core) - es, es)
    box = [{(k, 0, 0): 1 for k in range(h)} for h in range(top + 1)]  # [h] by (q, x, y) exponents
    d = [Poly3({**box[h], (h, 0, 1): 1}) for h in range(top + 1)]
    e = [Poly3({**box[h], (h, 1, 0): 1}) for h in range(top + 1)]
    low = [
        Poly3(box[h + 1]) * Poly3({**d[h].coeffs, (h, 1, 0): 1, (h, 1, 1): -1, (h + 1, 1, 1): 1})
        for h in range(top)
    ]
    v = [ends]
    for c in core:
        if c == "D":
            h = len(v) - 1
            if h < es:
                v.append(v[h])  # D[h][h+1] = 1 opens the next level
            for h in range(h, 0, -1):
                v[h] = v[h] * d[h] + v[h - 1]
            v[0] *= d[0]
        else:
            es -= 1
            for h in range(len(v) - 1):
                v[h] = v[h] * e[h] + v[h + 1] * low[h]
            if len(v) > es + 1:
                v.pop()
            else:
                v[-1] *= e[len(v) - 1]
    return v[0]


@dataclass(frozen=True, repr=False)
class AsepParams:
    """Open exclusion process on n sites with entry rate alpha, exit rate beta,
    forward hop rate 1 and backward hop rate q (all scaled by 1/(n+1)).

    The rates are real numbers in [0, 1]: ints, ``Fraction``s or finite
    floats, which the weights read exactly."""

    n: int
    q: Fraction
    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        if not _integral(self.n):
            raise DomainError("bad-size", f"site count {_shown_number(self.n)} is not an integer")
        if self.n < 0:
            raise DomainError("bad-size", f"negative site count {_shown_number(self.n)}")
        for name in ("q", "alpha", "beta"):
            v = getattr(self, name)
            if not isinstance(v, Real):
                raise DomainError("bad-params", f"{name}={_shown_number(v)} is not a real number")
            if not 0 <= v <= 1:
                raise DomainError("bad-params", f"{name}={_shown_number(v)} outside [0, 1]")

    def __repr__(self) -> str:
        # The dataclass repr, with n and each rate's numerator and denominator
        # shown as error messages show numbers: an int of more digits than
        # str() converts would make it raise.
        q, alpha, beta = map(_shown_rate, (self.q, self.alpha, self.beta))
        rates = f"q={q}, alpha={alpha}, beta={beta}"
        return f"{type(self).__qualname__}(n={_shown_number(self.n)}, {rates})"


def _shown_rate(v: Real) -> str:
    """``repr(v)``, with a ``Fraction``'s two ints shown by ``_shown_number``."""
    if isinstance(v, Fraction):
        return f"Fraction({_shown_number(v.numerator)}, {_shown_number(v.denominator)})"
    return repr(v)


def states(n: int) -> Iterator[str]:
    for bits in product((HOLE, PARTICLE), repeat=n):
        yield "".join(bits)


def asep_distribution(p: AsepParams) -> dict[str, Fraction]:
    """Stationary law from tableau weights: P(s) proportional to the weight
    polynomial of the state's shape at x=1/alpha, y=1/beta.

    One integer pass of :func:`_corner_table` weighs every shape (codes in
    the order of :func:`states`, a hole being an E step); each weight is
    then raised to the one denominator qd^maxcells.xd^n.yd^n, and the only
    ``Fraction`` built per state is its share of the sum.  The state names
    and each code's rows come with the corner steps from
    :func:`_corner_plan`, which keeps the plan of the last n asked for, so a
    sweep of rates at one n does only the arithmetic after its first call.
    """
    check_cap(p.n, "stationary distribution", WEIGHT_CAP)
    if p.alpha == 0 or p.beta == 0:
        raise DomainError("degenerate-params", "alpha and beta must be positive")
    # Fraction() keeps integer or float rates exact; x = 1/alpha, y = 1/beta.
    q, alpha, beta = Fraction(p.q), Fraction(p.alpha), Fraction(p.beta)
    qn, qd = q.numerator, q.denominator
    xn, xd, yn, yd = alpha.denominator, alpha.numerator, beta.denominator, beta.numerator
    n = p.n
    _, _, _, names, rows = _corner_plan(n)
    weights, cells = _corner_table(n, lambda a, b: xn**a * yn**b, qn, qd, xd, yd)
    # Entry w carries qd^cells(w).xd^#E(w).yd^#D(w), #D(w) being its rows.
    top = max(cells)
    q_up = [qd ** (top - c) for c in range(top + 1)]
    xy_up = [xd**d * yd ** (n - d) for d in range(n + 1)]
    nums = [v * q_up[c] * xy_up[r] for v, c, r in zip(weights, cells, rows)]
    return dict(zip(names, map(Fraction, nums, repeat(sum(nums)))))


def transition_matrix(p: AsepParams) -> list[list[Fraction]]:
    """The chain's one-step transition probabilities, exact: the rates are
    read through ``Fraction``, so a float rate counts as the binary fraction
    it holds, as in :func:`asep_distribution`."""
    n = p.n
    q, alpha, beta = Fraction(p.q), Fraction(p.alpha), Fraction(p.beta)
    scale = Fraction(1, n + 1)
    names = list(states(n))
    index = {s: k for k, s in enumerate(names)}
    size = len(names)
    m = [[Fraction(0)] * size for _ in range(size)]
    for s in names:
        k = index[s]
        out = Fraction(0)

        def hop(target: str, rate: Fraction) -> None:
            nonlocal out
            m[k][index[target]] += rate
            out += rate

        for i in range(n - 1):
            pair = s[i : i + 2]
            if pair == PARTICLE + HOLE:
                hop(s[:i] + HOLE + PARTICLE + s[i + 2 :], scale)
            elif pair == HOLE + PARTICLE:
                hop(s[:i] + PARTICLE + HOLE + s[i + 2 :], q * scale)
        if n and s[0] == HOLE:
            hop(PARTICLE + s[1:], alpha * scale)
        if n and s[-1] == PARTICLE:
            hop(s[:-1] + HOLE, beta * scale)
        m[k][k] = 1 - out
    return m


def solve_stationary(m: list[list[Fraction]]) -> list[Fraction]:
    """Exact solution of pi M = pi with sum(pi) = 1 by forward elimination
    and back substitution.

    Each row is kept as a map from column to nonzero entry, so the work
    follows the nonzeros: a chain row has at most n + 2 of them.  Each row is
    scaled by the lcm of its denominators and stays integral: with pivot p,
    a row below it whose entry in the pivot column is f becomes (p/g).row -
    (f/g).pivot row, g = gcd(p, f), divided by the gcd of its entries.  That
    is the rational elimination with every row scaled by a nonzero factor,
    so the same entries vanish and the same pivots are taken.  Only the rows
    below a pivot are reduced; back substitution, from the last row up,
    keeps the solved entries as integer numerators over one common
    denominator, which each row multiplies, with every numerator solved
    before it, by the part of its pivot that does not divide its own
    numerator.  So each state's ``Fraction`` is built once, at the end.
    """
    size = len(m)
    # Rows of A are the balance equations (M^T - I) pi = 0, last one replaced
    # by the normalization.
    rational: list[dict[int, Fraction]] = [{} for _ in range(size)]
    for j, row in enumerate(m):
        for i, v in enumerate(row):
            if i == j:
                v -= 1
            if v:
                rational[i][j] = v
    rational[-1] = {j: 1 for j in range(size)}
    a: list[dict[int, int]] = []
    for row in rational:
        scale = math.lcm(*(v.denominator for v in row.values()))
        a.append({c: v.numerator * (scale // v.denominator) for c, v in row.items()})
    rhs = [0] * (size - 1) + [1]
    for col in range(size):
        pivot = next((r for r in range(col, size) if col in a[r]), None)
        if pivot is None:
            raise DomainError("singular-system", "no pivot; the chain matrix is malformed")
        a[col], a[pivot] = a[pivot], a[col]
        rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
        top, b = a[col], rhs[col]
        p = top[col]
        for r in range(col + 1, size):
            row = a[r]
            f = row.get(col)
            if f is None:
                continue
            g = math.gcd(p, f)
            u, w = p // g, f // g
            if u != 1:
                for c in row:
                    row[c] *= u
            for c, v in top.items():
                x = row.get(c, 0) - w * v
                if x:
                    row[c] = x
                else:
                    del row[c]
            rhs[r] = u * rhs[r] - w * b
            g = math.gcd(rhs[r], *row.values())
            if g > 1:
                for c in row:
                    row[c] //= g
                rhs[r] //= g
    # Row r now reads p.pi[r] + (its entries right of r) = rhs[r]; pi[c] is
    # nums[c] / d for every c already solved, d > 0.
    nums = [0] * size
    d = 1
    for r in range(size - 1, -1, -1):
        row = a[r]
        p = row[r]
        num = rhs[r] * d - sum(v * nums[c] for c, v in row.items() if c != r)
        g = math.gcd(num, p)
        s = p // g  # pi[r] = (num / g) / (s.d)
        if s < 0:
            s, g = -s, -g
        if s != 1:
            for c in range(r + 1, size):
                nums[c] *= s
            d *= s
        nums[r] = num // g
    return [Fraction(v, d) for v in nums]


def chain_stationary(p: AsepParams) -> dict[str, Fraction]:
    """Independent oracle: build the chain and solve it exactly."""
    check_cap(p.n, "chain solve", CHAIN_CAP)
    pi = solve_stationary(transition_matrix(p))
    return dict(zip(states(p.n), pi))


# ---------------------------------------------------------------------------
# Decorated and symmetric tableaux


def decorated_count(n: int) -> int:
    """Number of tableaux of length n with each arrow independently marked.
    Each arrow makes exactly one line non-free, so a tableau with i free rows
    and j free columns has n - i - j arrows."""
    check_cap(n, "decorated counting", COUNT_CAP)
    return sum(c * 2 ** (n - i - j) for (i, j), c in count_table(n).by_free().items())


@dataclass(frozen=True)
class MarkedTableau:
    """A tableau with a set of marked line labels, given as any iterable of
    labels and kept as a frozenset."""

    tableau: AltTableau
    marked: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        try:
            marked = frozenset(self.marked)
        except TypeError:
            shown = _shown_value(self.marked)
            raise DomainError("bad-mark", f"marks must be a set of line labels, got {shown}") from None
        object.__setattr__(self, "marked", marked)
        extra = marked - set(self.tableau.labels)
        if extra:
            try:
                extra = sorted(extra)
            except TypeError:  # marks of types that do not compare
                pass
            raise DomainError("bad-mark", f"marks {_shown_number(extra)} not on any line")


def _non_free_labels(t: AltTableau) -> frozenset[int]:
    stats = free_stats(t)
    return frozenset(set(t.labels) - stats.free_rows - stats.free_cols)


def is_decorated(mt: MarkedTableau) -> bool:
    """Decorated tableaux only mark non-free lines (equivalently, arrows)."""
    return mt.marked <= _non_free_labels(mt.tableau)


def decorated_bijection(mt: MarkedTableau) -> MarkedTableau:
    """Map a decorated tableau to a freely marked tableau with no free rows.

    The rows part of the divide is transposed (marks follow their lines) and
    its newly free columns are all marked; the columns part rides along.
    """
    if not is_decorated(mt):
        raise DomainError("mark-on-free-line", "decorated tableaux cannot mark free lines")
    p, q = divide(mt.tableau)
    rev = _reversal(p)
    p_stats = free_stats(p)
    p_marks = {rev[l] for l in mt.marked if l in rev} | {rev[i] for i in p_stats.free_rows}
    q_marks = {l for l in mt.marked if l in set(q.labels)}
    return MarkedTableau(merge(transpose(p), q), frozenset(p_marks | q_marks))


def decorated_bijection_inv(mt: MarkedTableau) -> MarkedTableau:
    """Inverse: group the trees by the mark on their free column, transpose
    the marked part back."""
    u = mt.tableau
    stats = free_stats(u)
    if stats.frow:
        raise DomainError("wrong-class", "image tableaux have no free rows")
    parts = _parts(u, {l: root in mt.marked for l, root in _tree_roots(u).items()})
    empty = AltTableau((), "")
    r, s = parts.get(True, empty), parts.get(False, empty)
    rev = _reversal(r)
    r_marks = {rev[l] for l in mt.marked - stats.free_cols if l in rev}
    s_marks = mt.marked & set(s.labels)
    out = MarkedTableau(merge(transpose(r), s), frozenset(r_marks | s_marks))
    if not is_decorated(out):
        raise DomainError("mark-on-free-line", "inverse produced a mark on a free line")
    return out


def symmetric_tableaux(size: int) -> Iterator[AltTableau]:
    """All transpose-fixed tableaux of even length, built constructively.

    Pick a tableau with no free columns on half the labels (one from each
    pair {i, size+1-i}), then join it with its mirror: each arrow reflected
    across the diagonal onto the other label of each pair.
    """
    if not _integral(size) or size < 0 or size % 2:
        shown = _shown_value(size)
        raise DomainError(
            "bad-size", f"symmetric tableaux have even nonnegative integer length, got {shown}"
        )
    n = size // 2
    check_cap(n, "symmetric generation", ENUMERATION_CAP)  # the work scales with the halves
    # A valid tableau has at most one up arrow per column, so it has no free
    # column when it has as many up arrows as columns: the halves are kept
    # with nothing worked out and remembered on them.
    halves = [
        t for t in all_tableaux(n) if sum(a.kind == UP for a in t.arrows) == t.word.count("E")
    ]
    yield from _mirrored_halves(size, halves)


def _mirrored_halves(size: int, halves: Sequence[AltTableau]) -> Iterator[AltTableau]:
    """:func:`symmetric_tableaux` from ``halves``, the tableaux of length
    ``size // 2`` with no free columns."""
    n = size // 2
    for choice in product(*[(i, size + 1 - i) for i in range(1, n + 1)]):
        chosen = sorted(choice)
        for u in halves:
            t = _mirrored(relabel(u, chosen), size)
            if transpose(t) != t:
                raise DomainError(
                    "not-symmetric", f"tableau built on {chosen} is not transpose-fixed"
                )
            yield t


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)
