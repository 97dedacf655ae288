"""Tableaux the library assembles itself skip the constructor's checks: each
builder's output is what the public constructor makes of the same fields,
and it is still checked in full on its first conversion."""

from __future__ import annotations

import pytest

from alttab import core
from alttab.core import (
    AltTableau,
    Arrow,
    from_perm_tableau,
    relabel,
    to_perm_tableau,
    transpose,
    validate_alt,
)
from alttab.decomposition import block, cut, divide, merge, merge_all, split
from alttab.enumeration import all_tableaux, all_via_perm
from alttab.errors import DomainError, ValidationError
from alttab.trees import binary_pair, binary_pair_inv, from_forest, to_forest

from conftest import assert_as_public


def built_from(t: AltTableau) -> list[AltTableau]:
    """What every builder makes of the valid tableau ``t``."""
    n = len(t)
    shifted = relabel(t, range(2, n + 2))
    out = [t, transpose(t), shifted, validate_alt(t.labels, t.word, t.arrows[::-1])]
    parts = split(t)
    rows_part, cols_part = divide(t)
    out += [*parts, merge_all(parts), rows_part, cols_part, merge(rows_part, cols_part)]
    out += [from_perm_tableau(to_perm_tableau(t)), from_forest(to_forest(t))]
    if n <= 5:
        out.append(binary_pair_inv(binary_pair(t)))
    out += [block(shifted, "col", 1), block(t, "row", n + 1)]
    for axis in ("row", "col"):
        try:
            out.append(cut(t, axis))
        except DomainError:
            pass
    return out


@pytest.mark.parametrize("n", range(8))
def test_every_builder_makes_what_the_public_constructor_makes(n):
    for t in all_tableaux(n):
        for b in built_from(t):
            assert_as_public(b)
    for t in all_via_perm(n):  # from_permutation on every word
        assert_as_public(t)


def test_assembled_tableaux_are_checked_on_their_first_conversion():
    # The public constructor leaves the up arrow at (2, 3), which points at
    # the occupied (1, 3), to the full check; merging keeps it.
    bad = AltTableau((1, 2, 3), "DDE", ((1, 3, "L"), (2, 3, "U")))
    merged = merge(bad, validate_alt((4,), "E", []))
    assert core._VALID not in merged.__dict__
    assert_as_public(merged)
    with pytest.raises(ValidationError):
        to_forest(merged)
    assert core._VALID not in merged.__dict__


def test_the_public_constructor_keeps_its_checks():
    with pytest.raises(ValidationError) as err:
        AltTableau((2, 1), "DX", ((1, 2, "Q"),))
    assert [v.code for v in err.value.violations] == ["label-order", "bad-step", "bad-arrow-kind"]
    t = AltTableau((1, 2), "DE", ((1, 2, "L"),))
    assert type(t.arrows[0]) is Arrow
