"""The paper's constructions, kept as oracles for the production code.

The paper builds its bijections through the recursive structure of a
tableau (cut the root line, split by closures, block the parts back) and
checks its counts by enumeration.  The engine reads the same objects
straight off the arrows and counts by the insertion recurrence; these
reference forms, with the count by the corner recursion over every shape,
are what ``checks`` and the tests compare it with.  No other module of
the package imports this one.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .core import AltTableau, PermTableau, free_lines, free_stats
from .decomposition import (
    COL_PACKED,
    ROW_PACKED,
    block,
    closure,
    cut,
    merge,
    merge_all,
    packed_class,
    restrict,
)
from .enumeration import (
    ENUMERATION_CAP,
    WEIGHT_CAP,
    CountTable,
    _corner_table,
    _poly_leaf,
    fillings,
    shape_words,
)
from .errors import DomainError, ResourceLimitError, _shown_number, _shown_value, check_cap
from .permutations import Word, check_word, rl_maxima, rl_minima
from .series import Poly3
from .trees import (
    BLACK,
    MAX_ROOTED,
    MIN_ROOTED,
    WHITE,
    BinAltTree,
    PlaneAltForest,
    PlaneAltTree,
    validate_bin_tree,
    validate_forest,
)

# The recursive constructions below descend one level per call, a few frames
# each; they refuse objects larger than this, well under the interpreter's
# stack limit.  The production code has no such bound.
RECURSION_BOUND = 200


def _bounded(n: int, oracle: str) -> None:
    if n > RECURSION_BOUND:
        raise ResourceLimitError(
            f"oracle {oracle} recurses once per level; n={_shown_number(n)}"
            f" exceeds its fixed bound {RECURSION_BOUND}"
        )


# ---------------------------------------------------------------------------
# Components by closure, forests and binary pairs by cut and block


def split_by_closure(t: AltTableau) -> tuple[AltTableau, ...]:
    """Oracle for ``split``: restrict to the closure of each free label."""
    free_rows, free_cols = free_lines(t)
    parts = [restrict(t, closure(t, k)) for k in sorted(free_rows | free_cols)]
    return tuple(sorted(parts, key=lambda p: p.labels[0]))


def divide_by_closure(t: AltTableau) -> tuple[AltTableau, AltTableau]:
    """Oracle for ``divide``: restrict to the union of the closures."""
    free_rows, free_cols = free_lines(t)
    row_side: set[int] = set()
    for k in free_rows:
        row_side |= closure(t, k)
    col_side: set[int] = set()
    for k in free_cols:
        col_side |= closure(t, k)
    return restrict(t, row_side), restrict(t, col_side)


def to_forest_by_cut(t: AltTableau, memo: dict | None = None) -> PlaneAltForest:
    """Oracle for ``to_forest``: cut the root line, split, recurse.

    ``memo`` maps each packed tableau solved so far, keyed by its fields and
    class as ``(labels, word, arrows, class)``, to its tree, so callers that
    walk many tableaux of one size can pass one dict and solve each
    subproblem once; without it the call gets a fresh one.  The memo holds
    no tableau, so nothing remembered on one outlives it."""
    _bounded(len(t), "to_forest_by_cut")
    memo = {} if memo is None else memo
    return PlaneAltForest(tuple(_tree_rec(c, None, memo) for c in split_by_closure(t)))


def _tree_rec(t: AltTableau, cls: str | None, memo: dict) -> PlaneAltTree:
    """The tree of the packed tableau ``t`` of class ``cls``, or of its own
    class, which is only worked out when ``memo`` does not hold the tree."""
    key = (t.labels, t.word, t.arrows, cls)
    tree = memo.get(key)
    if tree is not None:
        return tree
    if cls is None:
        cls = packed_class(t)
    if cls == ROW_PACKED:
        root = t.labels[0]  # the free row is the topmost one
        rest = cut(t, "row")
        kids = [_tree_rec(c, COL_PACKED, memo) for c in split_by_closure(rest)]
        kids.sort(key=lambda k: -k.label)
        tree = memo[key] = PlaneAltTree(WHITE, root, tuple(kids))
        return tree
    root = t.labels[-1]  # the free column is the leftmost one
    rest = cut(t, "col")
    kids = [_tree_rec(c, ROW_PACKED, memo) for c in split_by_closure(rest)]
    kids.sort(key=lambda k: k.label)
    tree = memo[key] = PlaneAltTree(BLACK, root, tuple(kids))
    return tree


def from_forest_by_block(f: PlaneAltForest) -> AltTableau:
    """Oracle for ``from_forest``: merge the children's tableaux, then block."""
    _bounded(f.size(), "from_forest_by_block")
    validate_forest(f)
    return merge_all(_from_tree_rec(t) for t in f.trees)


def _from_tree_rec(tree: PlaneAltTree) -> AltTableau:
    body = merge_all(_from_tree_rec(c) for c in tree.children)
    axis = "col" if tree.color == WHITE else "row"
    return block(body, axis, tree.label)


def binary_pair_by_divide(
    t: AltTableau, memo: dict | None = None
) -> tuple[BinAltTree | None, BinAltTree | None]:
    """Oracle for ``binary_pair``: cut the root line, divide, recurse.

    ``memo`` maps each tableau solved so far, keyed by its fields and kind
    as ``(labels, word, arrows, kind)``, to its tree, as in
    :func:`to_forest_by_cut`; the kind names differ from the class names, so
    the two oracles can share one memo."""
    _bounded(len(t), "binary_pair_by_divide")
    memo = {} if memo is None else memo
    p, q = divide_by_closure(t)
    return _bin_rec(p, MIN_ROOTED, memo), _bin_rec(q, MAX_ROOTED, memo)


def _bin_rec(t: AltTableau, kind: str, memo: dict) -> BinAltTree | None:
    if not t.labels:
        return None
    key = (t.labels, t.word, t.arrows, kind)
    tree = memo.get(key)
    if tree is not None:
        return tree
    if kind == MIN_ROOTED:
        root = t.labels[0]
        rest = cut(t, "row")
    else:
        root = t.labels[-1]
        rest = cut(t, "col")
    p, q = divide_by_closure(rest)
    tree = memo[key] = BinAltTree(
        root, _bin_rec(q, MAX_ROOTED, memo), _bin_rec(p, MIN_ROOTED, memo), kind
    )
    return tree


def binary_pair_inv_by_block(pair: tuple[BinAltTree | None, BinAltTree | None]) -> AltTableau:
    """Oracle for ``binary_pair_inv``: merge the subtrees' tableaux, then block."""
    b_min, b_max = pair
    _bounded(sum(b.size() for b in pair if b is not None), "binary_pair_inv_by_block")
    validate_bin_tree(b_min, MIN_ROOTED)
    validate_bin_tree(b_max, MAX_ROOTED)
    return merge(_from_bin_rec(b_min, MIN_ROOTED), _from_bin_rec(b_max, MAX_ROOTED))


def _from_bin_rec(tree: BinAltTree | None, kind: str) -> AltTableau:
    if tree is None:
        return AltTableau((), "")
    p = _from_bin_rec(tree.right, MIN_ROOTED)
    q = _from_bin_rec(tree.left, MAX_ROOTED)
    body = merge(p, q)
    axis = "col" if kind == MIN_ROOTED else "row"
    return block(body, axis, tree.label)


# ---------------------------------------------------------------------------
# Words to trees (the oracle for ``from_permutation``)


def word_to_tree(word: Sequence[int], color: str) -> PlaneAltTree:
    """Inverse of a tree's postorder word, for a given root color.

    A black-rooted word ends with its maximum and splits before the root at
    the right-to-left minima; white-rooted words end with their minimum and
    split at the maxima.
    """
    w = check_word(word)
    if not w:
        raise DomainError("bad-terminal-letter", "empty word encodes no tree")
    _bounded(len(w), "word_to_tree")
    return _word_to_tree(w, color)


def _word_to_tree(w: Word, color: str) -> PlaneAltTree:
    root = w[-1]
    body = w[:-1]
    if color == BLACK:
        if body and root != max(w):
            shown = f"{_shown_number(root)} is not the maximum of {_shown_number(w)}"
            raise DomainError("bad-terminal-letter", shown)
        bounds = rl_minima(body)
        child_color = WHITE
    elif color == WHITE:
        if body and root != min(w):
            shown = f"{_shown_number(root)} is not the minimum of {_shown_number(w)}"
            raise DomainError("bad-terminal-letter", shown)
        bounds = rl_maxima(body)
        child_color = BLACK
    else:
        raise DomainError("bad-color", f"unknown color {_shown_value(color)}")
    children = []
    start = 0
    for b in bounds:
        end = body.index(b, start) + 1
        children.append(_word_to_tree(body[start:end], child_color))
        start = end
    return PlaneAltTree(color, root, tuple(children))


def word_to_forest(word: Sequence[int]) -> PlaneAltForest:
    """Inverse of ``forest_word``; the separator is the smallest letter."""
    w = check_word(word)
    if not w:
        raise DomainError("bad-separator", "empty word has no separator")
    _bounded(len(w) - 1, "word_to_forest")  # the forest's size: all but the separator
    cut_at = w.index(min(w))
    before, after = w[:cut_at], w[cut_at + 1 :]
    trees: list[PlaneAltTree] = []
    for part, color, bounds in (
        (before, BLACK, rl_maxima(before)),
        (after, WHITE, rl_minima(after)),
    ):
        start = 0
        for b in bounds:
            end = part.index(b, start) + 1
            trees.append(_word_to_tree(part[start:end], color))
            start = end
    return PlaneAltForest(tuple(trees))


# ---------------------------------------------------------------------------
# Counts by the corner recursion, weights and permutation tableaux by
# enumeration


def count_table_by_corners(n: int) -> CountTable:
    """Oracle for ``count_table``: the corner recursion at q = 1 over all 2^n
    shapes, where "times q" is the identity and each shape's polynomial holds
    x^fcol y^frow terms.  The table is indexed by the shape's code, whose bit
    count is its number of rows."""
    check_cap(n, "counting by the corner recursion", WEIGHT_CAP)
    counts: dict[tuple[int, int, int], int] = {}
    polys, _ = _corner_table(n, _poly_leaf)
    for code, poly in enumerate(polys):
        k = code.bit_count()
        for (_, fcol, frow), c in poly.coeffs.items():
            counts[(frow, fcol, k)] = counts.get((frow, fcol, k), 0) + c
    return CountTable(n, counts)


def weight_poly_by_fillings(word: str) -> Poly3:
    """Oracle for ``weight_poly``: sum over every filling."""
    labels = tuple(range(1, len(word) + 1))
    total = Poly3()
    for arrows in fillings(word):
        stats = free_stats(AltTableau(labels, word, arrows))
        total = total + Poly3.monomial(stats.fcell, stats.fcol, stats.frow)
    return total


def all_perm_tableaux(n: int) -> Iterator[PermTableau]:
    """Every permutation tableau of length n with standard labels.

    Independent of the alternative-tableau generator: a 0/1 backtracking with
    the column and blocked-zero rules checked as cells are placed.
    """
    check_cap(n, "permutation-tableau generation", ENUMERATION_CAP)
    labels = tuple(range(1, n + 1))
    for word in shape_words(n):
        rows = [l for l, c in zip(labels, word) if c == "D"]
        cols = [l for l, c in zip(labels, word) if c == "E"]
        if any(not any(i < j for i in rows) for j in cols):
            continue  # a column without cells can never contain a 1
        by_col = [[(i, j) for i in rows if i < j] for j in sorted(cols, reverse=True)]
        cells = [c for col in by_col for c in col]
        ones: set[tuple[int, int]] = set()

        def place(k: int) -> Iterator[PermTableau]:
            if k == len(cells):
                yield PermTableau(labels, word, tuple(sorted(ones)))
                return
            i, j = cells[k]
            one_above = any((i2, j) in ones for i2 in rows if i2 < i)
            one_left = any((i, j2) in ones for j2 in cols if j2 > j)
            last_of_col = k + 1 == len(cells) or cells[k + 1][1] != j
            # 0 is allowed unless blocked; a column must not finish all-zero.
            if not (one_above and one_left) and not (last_of_col and not one_above):
                yield from place(k + 1)
            ones.add((i, j))
            yield from place(k + 1)
            ones.discard((i, j))

        yield from place(0)
