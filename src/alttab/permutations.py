"""Bijections between alternative tableaux and permutations.

Permutations here are repeat-free words of nonnegative integers.  A tableau's
word is its black-rooted trees by decreasing root, a separator ``x`` below
every label, then its white-rooted trees by increasing root, each tree read
in postorder straight off the arrows (``decomposition._arrow_forest``).  An
equivalent column-by-column insertion algorithm produces the same word and
exposes its intermediate steps.  Statistics travel: rows are ascent letters,
columns descent letters, free rows right-to-left minima and free columns
shifted right-to-left maxima.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from numbers import Integral
from typing import Iterable, Iterator, Mapping, Sequence

from .core import (
    LEFT,
    UP,
    _NUMBER_RE,
    AltTableau,
    _check_text,
    _check_valid,
    _mirrored,
    _parse_int,
    _remembered,
    transpose,
)
from .decomposition import _arrow_forest, _tableau_from_edges
from .errors import DomainError, ParseError, _integral, _shown_number, _shown_value
from .trees import BLACK, WHITE, PlaneAltForest, from_forest

Word = tuple[int, ...]


def check_word(word: Sequence[int]) -> Word:
    w = tuple(word)
    # ``type(a) is int`` first: the ABC test is slow, and nearly every letter is an int.
    odd = [a for a in w if type(a) is not int and not _integral(a)]
    if odd:
        raise DomainError("bad-letter", f"letter {_shown_number(odd[0])} is not an integer")
    if len(set(w)) != len(w):
        raise DomainError("repeated-letter", f"word {_shown_number(w)} repeats a letter")
    if any(a < 0 for a in w):
        raise DomainError("negative-letter", f"word {_shown_number(w)} has a negative letter")
    return w


@dataclass(frozen=True)
class PermStats:
    ascent_letters: frozenset[int]
    descent_letters: frozenset[int]
    rl_minima: frozenset[int]
    rl_maxima: frozenset[int]
    shifted_rl_maxima: frozenset[int]


def rl_minima(word: Sequence[int]) -> list[int]:
    """Letters smaller than everything to their right, left to right."""
    out: list[int] = []
    low = None
    for a in reversed(word):
        if low is None or a < low:
            out.append(a)
            low = a
    return out[::-1]


def rl_maxima(word: Sequence[int]) -> list[int]:
    out: list[int] = []
    high = None
    for a in reversed(word):
        if high is None or a > high:
            out.append(a)
            high = a
    return out[::-1]


def perm_stats(word: Sequence[int]) -> PermStats:
    """All letter statistics of a repeat-free word; the last letter counts
    as an ascent and the shifted maxima are the maxima of the prefix before
    the smallest letter."""
    w = check_word(word)
    if not w:
        return PermStats(frozenset(), frozenset(), frozenset(), frozenset(), frozenset())
    ascents = {w[-1]} | {a for a, b in zip(w, w[1:]) if a < b}
    descents = {a for a, b in zip(w, w[1:]) if a > b}
    prefix = w[: w.index(min(w))]
    return PermStats(
        frozenset(ascents),
        frozenset(descents),
        frozenset(rl_minima(w)),
        frozenset(rl_maxima(w)),
        frozenset(rl_maxima(prefix)),
    )


# ---------------------------------------------------------------------------
# Tableaux to permutations


def forest_word(f: PlaneAltForest, separator: int) -> Word:
    """Word of a forest: black-rooted trees by decreasing root, the separator,
    then white-rooted trees by increasing root; each tree in postorder."""
    return to_permutation(from_forest(f), separator)


def to_permutation(t: AltTableau, separator: int = 0) -> Word:
    """Bijection from tableaux labeled by L to permutations of L plus the separator.

    The word is :func:`forest_word` of the tableau's forest, read straight
    off its arrows.  The word for the default separator 0 is worked out once
    and remembered on ``t``."""
    if type(separator) is int and separator == 0:
        return _remembered(t, "_permutation", lambda t: _word(t, 0))
    return _word(t, separator)


def _word(t: AltTableau, separator: int) -> Word:
    """The word of :func:`to_permutation`, once ``t`` and the separator pass their checks."""
    children, roots = _arrow_forest(t)
    if type(separator) is not int and not _integral(separator):
        raise DomainError("bad-separator", f"separator {_shown_value(separator)} is not an integer")
    if separator < 0 or (t.labels and separator >= t.labels[0]):
        raise DomainError(
            "bad-separator", f"separator {_shown_number(separator)} not below all labels"
        )
    kinds = t.kind_of
    word = _postorder_word([r for r in reversed(roots) if kinds[r] == "E"], children)
    word.append(separator)
    word += _postorder_word([r for r in roots if kinds[r] == "D"], children)
    return tuple(word)


def _postorder_word(roots: Iterable[int], children: Mapping[int, list[int]]) -> list[int]:
    """The labels of the trees of the arrow forest ``children`` below
    ``roots``, tree after tree in the order of ``roots``, each in postorder."""
    stack = list(roots)
    word = []
    while stack:  # each label, then its children last first: postorder, reversed
        label = stack.pop()
        word.append(label)
        stack.extend(children[label])
    return word[::-1]


def from_permutation(word: Sequence[int]) -> AltTableau:
    """Inverse of :func:`to_permutation`, from the word straight to the arrows.

    The letters before the separator hang below a white root that stands for
    the separator, the letters after it below a black root above every label;
    the forest is what hangs below the two.  Read right to left, each letter
    is the root of a new subtree of the nearest open node whose range holds
    it: a black node's subtree holds the letters between its parent and it,
    a white node's the letters between it and its parent.  Each letter
    becomes the forest edge (parent, letter), an up or a left arrow.
    :func:`~alttab.oracles.word_to_forest` with
    :func:`~alttab.trees.from_forest` is the oracle.
    """
    w = check_word(word)
    if not w:
        raise DomainError("bad-separator", "empty word has no separator")
    cut_at = w.index(min(w))
    kinds: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    for positions, root, color in (
        (range(len(w) - 1, cut_at, -1), math.inf, BLACK),
        (range(cut_at - 1, -1, -1), w[cut_at], WHITE),
    ):
        # Open nodes, innermost last: (label, color, low, high), where the
        # node's subtree holds the letters strictly between low and high.
        stack = [(root, color, -math.inf, math.inf)]
        for k in positions:
            a = w[k]
            while not stack[-1][2] < a < stack[-1][3]:
                stack.pop()
            parent, parent_color = stack[-1][:2]
            if len(stack) > 1:
                edges.append((parent, a))
            if parent_color == BLACK:
                kinds[a] = "D"
                stack.append((a, WHITE, a, parent))
            else:
                kinds[a] = "E"
                stack.append((a, BLACK, parent, a))
    return _tableau_from_edges(kinds, edges)


def insertion_steps(t: AltTableau) -> list[Word]:
    """Intermediate words of the column-insertion algorithm, one per column.

    Start from 0 followed by the free rows in increasing order.  Columns are
    handled left to right (decreasing label): insert the column label left of
    its up-arrow row (left of 0 when the column has none), then the rows of
    its left arrows, in increasing order, immediately left of it.
    """
    return list(_insertion_words(t))


def to_permutation_by_insertion(t: AltTableau) -> Word:
    """The last word of :func:`insertion_steps`, keeping only the current one."""
    for after in _insertion_links(t):
        pass
    return _linked_word(after)


def _insertion_words(t: AltTableau) -> Iterator[Word]:
    """The words of :func:`insertion_steps`, one at a time."""
    return (_linked_word(after) for after in _insertion_links(t))


def _insertion_links(t: AltTableau) -> Iterator[dict[int | None, int | None]]:
    """The word of :func:`insertion_steps` at the start and after each
    column, as links: a map from each letter to the next, with ``None``
    before the first letter and after the last.  One map, yielded again
    after each change; :func:`_linked_word` reads it.

    A second map links each letter to the one before, so each letter is
    placed in constant time, wherever it goes.
    """
    _check_valid(t)
    if not t.is_standard():
        raise DomainError("non-standard-labels", "insertion needs labels 1..n")
    up_in_col = {a.col: a.row for a in t.arrows if a.kind == UP}
    lefts_in_col: dict[int, list[int]] = {}
    for a in t.arrows:
        if a.kind == LEFT:
            lefts_in_col.setdefault(a.col, []).append(a.row)
    left_rows = {i for rows in lefts_in_col.values() for i in rows}
    start = [0] + [i for i in t.rows if i not in left_rows]  # the free rows, increasing
    after: dict[int | None, int | None] = dict(zip([None] + start, start + [None]))
    before = {b: a for a, b in after.items()}

    def insert(letter: int, target: int) -> None:  # immediately left of target
        prev = before[target]
        after[prev] = before[target] = letter
        after[letter], before[letter] = target, prev

    yield after
    for j in sorted(t.columns, reverse=True):
        insert(j, up_in_col.get(j, 0))
        for i in sorted(lefts_in_col.get(j, ())):
            insert(i, j)
        yield after


def _linked_word(after: dict[int | None, int | None]) -> Word:
    """The word of the links of :func:`_insertion_links`."""
    word = []
    letter = after[None]
    while letter is not None:
        word.append(letter)
        letter = after[letter]
    return tuple(word)


# ---------------------------------------------------------------------------
# Signed permutations of symmetric tableaux


@dataclass(frozen=True)
class SignedPerm:
    """Permutation of 1..n with a set of barred positions (0-based)."""

    word: tuple[int, ...]
    barred: frozenset[int] = frozenset()

    def __post_init__(self) -> None:
        n = len(self.word)
        # ``type(a) is int`` first: the ABC test is slow, and nearly every value is an int.
        letters = sorted(a for a in self.word if type(a) is int or isinstance(a, Integral))
        if letters != list(range(1, n + 1)):  # a letter that is not an integer is left out
            shown = _shown_number(self.word)
            raise DomainError("bad-word", f"{shown} is not a permutation of 1..{n}")
        if not all((type(p) is int or isinstance(p, Integral)) and 0 <= p < n for p in self.barred):
            raise DomainError("bad-word", "barred position out of range")


def to_signed_permutation(t: AltTableau) -> SignedPerm:
    """Encode a transpose-fixed tableau of size 2n as a signed permutation.

    The rows half of the tableau maps through the forest bijection; letters
    above n fold down to barred letters.
    """
    if not t.is_standard():
        raise DomainError("non-standard-labels", "symmetric encoding needs labels 1..2n")
    if len(t) % 2 or transpose(t) != t:
        raise DomainError("not-symmetric", "tableau is not fixed by transposition")
    n = len(t) // 2
    # The rows half (the free-row components) is the trees with a row at the
    # root; its word is theirs in postorder, by increasing root.
    children, roots = _arrow_forest(t)
    word = _postorder_word([r for r in roots if t.word[r - 1] == "D"], children)
    letters = []
    barred = set()
    for pos, a in enumerate(word):
        if a > n:
            letters.append(2 * n + 1 - a)
            barred.add(pos)
        else:
            letters.append(a)
    return SignedPerm(tuple(letters), frozenset(barred))


def from_signed_permutation(sp: SignedPerm) -> AltTableau:
    """Inverse of :func:`to_signed_permutation`."""
    n = len(sp.word)
    unfolded = tuple(
        2 * n + 1 - a if pos in sp.barred else a for pos, a in enumerate(sp.word)
    )
    t = _mirrored(from_permutation((0,) + unfolded), 2 * n)
    if transpose(t) != t:
        raise DomainError("not-symmetric", "reconstruction failed to be symmetric")
    return t


# ---------------------------------------------------------------------------
# Text formats


# A whitespace-separated letter: ``\s`` is the whitespace ``str.split`` splits at.
_LETTER_RE = re.compile(r"\S+")


def _letters(text: str, bars: bool) -> tuple[list[int], set[int]]:
    """The numbers of the whitespace-separated letters of ``text``, each ASCII
    digits, and the indexes of the letters barred by a trailing ``'`` when
    ``bars``; a :class:`ParseError` is at the first bad letter's offset in
    ``text``, and input that is not a ``str`` is one at position 0."""
    numbers: list[int] = []
    barred: set[int] = set()
    for m in _LETTER_RE.finditer(_check_text(text)):
        letter = m[0]
        digits = letter[:-1] if bars and letter[-1] == "'" else letter
        if not _NUMBER_RE.fullmatch(digits):
            raise ParseError(f"bad letter {_shown_value(letter)}", m.start())
        if len(digits) < len(letter):
            barred.add(len(numbers))
        numbers.append(_parse_int(digits, m.start()))
    return numbers, barred


def render_word(word: Sequence[int]) -> str:
    return " ".join(str(a) for a in word)


def parse_word(text: str) -> Word:
    """Read whitespace-separated letters, as :func:`_letters` reads them."""
    return check_word(_letters(text, bars=False)[0])


def render_signed(sp: SignedPerm) -> str:
    return " ".join(
        f"{a}'" if pos in sp.barred else str(a) for pos, a in enumerate(sp.word)
    )


def parse_signed(text: str) -> SignedPerm:
    """Read whitespace-separated letters, each barred by a trailing ``'`` or
    not, as :func:`_letters` reads them."""
    letters, barred = _letters(text, bars=True)
    return SignedPerm(tuple(letters), frozenset(barred))
