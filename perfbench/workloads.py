"""The four workloads: seeded input generation, the timed op, and an exact oracle.

Inputs are generated here from the seed with :mod:`random` only; the library
is never used to make them.  Each workload is split into rounds, and every
round runs in its own fresh worker process on fresh inputs:
``random.Random(f"{name}:{seed}:{round}")`` makes round r of a seed the same
on every commit.  For each input, ``expect`` computes the expected result
without the library, ``run`` is the timed op, and ``check`` compares the two
outside the timed region and raises :class:`Mismatch` on any difference.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
import re
from fractions import Fraction
from itertools import product


class Mismatch(Exception):
    """An op returned a result that differs from the oracle."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


# ---------------------------------------------------------------------------
# convert: few large unrelated permutations through every representation


def convert_inputs(rng: random.Random, tiny: bool):
    """One permutation of 0..n per size on a fixed schedule, so the cost of a
    round depends little on the seed, each with a signed permutation of about
    a quarter of its size."""
    sizes = (3, 5, 8) if tiny else range(16, 161, 4)
    out = []
    for n in sizes:
        word = tuple(rng.sample(range(n + 1), n + 1))
        m = max(1, n // 4)
        signed = tuple(rng.sample(range(1, m + 1), m))
        barred = tuple(p for p in range(m) if rng.random() < 0.5)
        out.append((word, signed, barred))
    return out


def convert_run(lib, inp):
    word, signed, barred = inp
    t = lib.from_permutation(word)
    forest = lib.to_forest(t)
    return {
        "tableau": t,
        "perm": lib.to_permutation(t),
        "insertion": lib.to_permutation_by_insertion(t),
        "forest": lib.from_forest(forest),
        "arcs": lib.from_forest(lib.arcs_to_forest(lib.arc_diagram(t))),
        "split/merge": lib.merge_all(lib.split(t)),
        "permtab": lib.from_perm_tableau(lib.to_perm_tableau(t)),
        "text": lib.parse_tableau(lib.render_tableau(t)),
        "record": lib.parse_tableau(lib.render_tableau(t, "record")),
        "binary pair": lib.binary_pair_inv(lib.binary_pair(t)),
        "signed": lib.to_signed_permutation(
            lib.from_signed_permutation(lib.SignedPerm(signed, frozenset(barred)))
        ),
    }


def _rl_extrema(word, better) -> set[int]:
    out, best = set(), None
    for a in reversed(word):
        if best is None or better(a, best):
            out.add(a)
            best = a
    return out


def convert_expect(inp):
    """The input word back from every round trip, and the tableau's lines and
    free lines as the paper reads them off the word: rows are ascent letters,
    columns descent letters, free rows right-to-left minima and free columns
    the right-to-left maxima before the separator 0."""
    word, signed, barred = inp
    labels = set(word) - {0}
    ascents = {word[-1]} | {a for a, b in zip(word, word[1:]) if a < b}
    return {
        "word": word,
        "rows": ascents & labels,
        "columns": labels - ascents,
        "free_rows": _rl_extrema(word, lambda a, b: a < b) & labels,
        "free_cols": _rl_extrema(word[: word.index(0)], lambda a, b: a > b) & labels,
        "signed": (signed, frozenset(barred)),
    }


def convert_check(inp, out, want) -> None:
    t = out["tableau"]
    _require(out["perm"] == want["word"], "to_permutation(from_permutation(w)) != w")
    _require(out["insertion"] == want["word"], "insertion algorithm word != w")
    for rep in ("forest", "arcs", "split/merge", "permtab", "text", "record", "binary pair"):
        _require(out[rep] == t, f"{rep} round trip changed the tableau")
    kinds = dict(zip(t.labels, t.word))
    rows = {l for l, c in kinds.items() if c == "D"}
    lefts = {a.row for a in t.arrows if a.kind == "L"}
    ups = {a.col for a in t.arrows if a.kind == "U"}
    _require(rows == want["rows"], "rows are not the ascent letters")
    _require(set(kinds) - rows == want["columns"], "columns are not the descent letters")
    _require(rows - lefts == want["free_rows"], "free rows are not the right-to-left minima")
    _require(set(kinds) - rows - ups == want["free_cols"], "free columns are not the shifted maxima")
    sp = out["signed"]
    _require((sp.word, sp.barred) == want["signed"], "signed permutation round trip changed it")


def convert_describe(inp) -> str:
    word, signed, barred = inp
    bars = set(barred)
    return "perm " + " ".join(map(str, word)) + " | signed " + " ".join(
        f"{a}'" if p in bars else str(a) for p, a in enumerate(signed)
    )


# ---------------------------------------------------------------------------
# count: the cold exhaustive count a `alttab count` user pays


def count_inputs(rng: random.Random, tiny: bool):
    """The ascending sweep n = 0..8; the seed has nothing to vary here."""
    return [tuple(range(5 if tiny else 9))]


def count_run(lib, ns):
    return [lib.count_table(n) for n in ns]


def _stirling1(n: int) -> list[int]:
    """Unsigned Stirling numbers c(n, k): coefficients of t(t+1)...(t+n-1)."""
    row = [1]
    for i in range(n):
        row = [(row[k] * i if k < len(row) else 0) + (row[k - 1] if k else 0) for k in range(len(row) + 1)]
    return row


def count_expect(ns):
    """Per n: (n+1)! tableaux, n! without free rows, and the free-line counts
    of the rising product (x+y)(x+y+1)...(x+y+n-1), which has coefficient
    c(n, i+j) * C(i+j, i) at x^i y^j."""
    out = []
    for n in ns:
        c = _stirling1(n)
        by_free = {(i, k - i): c[k] * math.comb(k, i) for k in range(n + 1) for i in range(k + 1) if c[k]}
        out.append({"n": n, "total": math.factorial(n + 1), "no_free_row": math.factorial(n), "by_free": by_free})
    return out


def count_check(ns, tables, want) -> None:
    _require(len(tables) == len(want), "wrong number of tables")
    for table, w in zip(tables, want):
        n = w["n"]
        _require(table.n == n, f"table for n={table.n}, expected n={n}")
        total = sum(table.counts.values())
        _require(total == w["total"], f"n={n}: {total} tableaux, expected {w['total']}")
        no_free = sum(c for (i, _, _), c in table.counts.items() if i == 0)
        _require(no_free == w["no_free_row"], f"n={n}: {no_free} without free rows, expected {w['no_free_row']}")
        by_free: dict = {}
        for (i, j, _), c in table.counts.items():
            by_free[(i, j)] = by_free.get((i, j), 0) + c
        _require(by_free == w["by_free"], f"n={n}: free-line counts differ from the rising product")


def count_describe(ns) -> str:
    return "count_table n=" + ",".join(map(str, ns))


# ---------------------------------------------------------------------------
# asep: a library user's parameter sweep of stationary laws

ASEP_N = 7
ASEP_DENOMINATOR = 12
ASEP_TRIPLES_PER_ROUND = 4


def asep_inputs(rng: random.Random, tiny: bool):
    """Rational (q, alpha, beta) with q in [0, 1] and alpha, beta in (0, 1]."""
    d = ASEP_DENOMINATOR
    return [
        (3 if tiny else ASEP_N, Fraction(rng.randint(0, d), d), Fraction(rng.randint(1, d), d), Fraction(rng.randint(1, d), d))
        for _ in range(ASEP_TRIPLES_PER_ROUND)
    ]


def asep_run(lib, inp):
    return lib.asep_distribution(lib.AsepParams(*inp))


def asep_expect(inp):
    """The chain's transitions, built here: a particle '*' hops right at rate
    1 and left at rate q, enters site 1 at rate alpha and leaves site n at
    rate beta (the common factor 1/(n+1) cancels in the balance equations)."""
    n, q, alpha, beta = inp
    states = ["".join(s) for s in product("o*", repeat=n)]
    moves = []
    for s in states:
        for i in range(n - 1):
            if s[i : i + 2] == "*o":
                moves.append((s, s[:i] + "o*" + s[i + 2 :], Fraction(1)))
            elif s[i : i + 2] == "o*" and q:
                moves.append((s, s[:i] + "*o" + s[i + 2 :], q))
        if n and s[0] == "o":
            moves.append((s, "*" + s[1:], alpha))
        if n and s[-1] == "*":
            moves.append((s, s[:-1] + "o", beta))
    return {"states": states, "moves": moves}


def asep_check(inp, pi, want) -> None:
    """Exact global balance: for every state, inflow equals outflow."""
    _require(sorted(pi) == sorted(want["states"]), "states differ from the 2^n configurations")
    _require(all(p > 0 for p in pi.values()), "a state has probability <= 0")
    _require(sum(pi.values()) == 1, "probabilities do not sum to 1")
    flow = {s: Fraction(0) for s in want["states"]}
    for src, dst, rate in want["moves"]:
        flow[src] -= pi[src] * rate
        flow[dst] += pi[src] * rate
    bad = [s for s, f in flow.items() if f != 0]
    _require(not bad, f"pi M != pi at {len(bad)} states, first {bad[:1]}")


def asep_describe(inp) -> str:
    n, q, alpha, beta = inp
    return f"asep n={n} q={q} alpha={alpha} beta={beta}"


# ---------------------------------------------------------------------------
# verify: every tableau up to n=5 through the CLI

_SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")


def verify_inputs(rng: random.Random, tiny: bool):
    return [("verify", "--suite", "all", "--n", "2" if tiny else "5")]


def verify_run(lib, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(list(argv))
    return code, buf.getvalue()


def verify_expect(argv):
    return {"code": 0}


def verify_check(argv, out, want) -> None:
    """Exit 0, every check line PASS, and a summary k/k with k > 0, so a run
    that does less work cannot pass."""
    code, text = out
    _require(code == want["code"], f"exit code {code}, expected {want['code']}")
    lines = text.splitlines()
    m = _SUMMARY.fullmatch(lines[-1]) if lines else None
    _require(m is not None, "no summary line")
    passed, total = int(m.group(1)), int(m.group(2))
    _require(total > 0 and passed == total, f"summary {passed}/{total}")
    results = lines[:-1]
    _require(len(results) == total and all(l.endswith(" PASS") for l in results), "check lines are not all PASS")


def verify_describe(argv) -> str:
    return "alttab " + " ".join(argv)


WORKLOADS = {
    name: {
        "inputs": globals()[f"{name}_inputs"],
        "run": globals()[f"{name}_run"],
        "expect": globals()[f"{name}_expect"],
        "check": globals()[f"{name}_check"],
        "describe": globals()[f"{name}_describe"],
    }
    for name in ("convert", "count", "asep", "verify")
}
