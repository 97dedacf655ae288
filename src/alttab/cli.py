"""Command-line front end; a thin layer over the library modules.

Input comes from a file argument or standard input, output goes to standard
output.  Exit codes: 0 on success, 1 on validation or domain failures, 2 on
usage errors, 141 when standard output is closed before the output is
written, as a process that SIGPIPE ends reports it.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import Callable

from .checks import SUITES, FormulaReport, run_suite
from .core import (
    _NUMBER,
    AltTableau,
    _parse_labels,
    empty_tableau,
    free_stats,
    from_perm_tableau,
    parse_perm_tableau,
    parse_tableau,
    perm_tableau_stats,
    render_perm_tableau,
    render_tableau,
    to_perm_tableau,
)
from .decomposition import format_split, merge_all, split
from .enumeration import (
    AsepParams,
    all_tableaux,
    asep_distribution,
    count_table,
)
from .errors import DomainError, ParseError, TableauError, _shown, _shown_number, _shown_value
from .permutations import (
    _insertion_words,
    from_permutation,
    from_signed_permutation,
    parse_signed,
    parse_word,
    render_signed,
    render_word,
    to_permutation,
    to_permutation_by_insertion,
    to_signed_permutation,
)
from .trees import (
    arc_diagram,
    arcs_to_forest,
    binary_pair,
    binary_pair_inv,
    from_forest,
    parse_arcs,
    parse_bin_pair,
    parse_forest,
    render_arcs,
    render_bin_pair,
    render_forest,
    render_tree,
    to_forest,
)


class UsageError(Exception):
    """Bad command-line input that argparse cannot see, such as an unreadable file."""


def _read_input(path: str | None) -> str:
    try:
        if path and path != "-":
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read()
        return sys.stdin.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path or 'standard input'}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:  # a ValueError: bad input, not a bug
        raise ParseError(f"input is not {exc.encoding} text", exc.start) from None


def _parse_alt(text: str) -> AltTableau:
    # Empty input denotes the empty tableau at the CLI level; the strict
    # library format for it is "|".
    if not text.strip():
        return empty_tableau()
    return parse_tableau(text)


def _render_alt(t: AltTableau) -> str:
    return "" if not t.labels else render_tableau(t)


def _write_perm(t: AltTableau, args) -> str:
    if args.algo == "cn":
        return render_word(to_permutation_by_insertion(t))
    return render_word(to_permutation(t, args.separator))


# Each representation's text to a tableau, and a tableau (with the parsed
# ``convert`` options) to its text.
_READERS = {
    "alt": _parse_alt,
    "permtab": lambda text: from_perm_tableau(parse_perm_tableau(text)),
    "forest": lambda text: from_forest(parse_forest(text)),
    "arcs": lambda text: from_forest(arcs_to_forest(parse_arcs(text))),
    "bintrees": lambda text: binary_pair_inv(parse_bin_pair(text)),
    "perm": lambda text: from_permutation(parse_word(text)),
    "signedperm": lambda text: from_signed_permutation(parse_signed(text)),
}
_WRITERS = {
    "alt": lambda t, args: _render_alt(t),
    "permtab": lambda t, args: render_perm_tableau(to_perm_tableau(t)),
    "forest": lambda t, args: render_forest(to_forest(t)),
    "arcs": lambda t, args: render_arcs(arc_diagram(t)),
    "bintrees": lambda t, args: render_bin_pair(binary_pair(t)),
    "perm": _write_perm,
    "signedperm": lambda t, args: render_signed(to_signed_permutation(t)),
}
REPS = tuple(_READERS)


def cmd_validate(args) -> int:
    text = _read_input(args.file)
    if args.format == "alt":
        t = parse_tableau(text)
        print(f"valid alternative tableau of length {len(t)}")
    else:
        p = parse_perm_tableau(text)
        print(f"valid permutation tableau of length {len(p)}")
    return 0


def cmd_stats(args) -> int:
    text = _read_input(args.file)
    if args.format == "alt":
        stats = free_stats(_parse_alt(text))
        print(f"frow={stats.frow} fcol={stats.fcol} fcell={stats.fcell}")
        print("free_rows=" + ",".join(map(str, sorted(stats.free_rows))))
        print("free_cols=" + ",".join(map(str, sorted(stats.free_cols))))
        print("free_cells=" + ";".join(f"({i},{j})" for i, j in sorted(stats.free_cells)))
    else:
        stats = perm_tableau_stats(parse_perm_tableau(text))
        print("unrestricted_rows=" + ",".join(map(str, sorted(stats.unrestricted_rows))))
        print("top_one_cols=" + ",".join(map(str, sorted(stats.top_one_cols))))
        print(
            "superfluous_cells="
            + ";".join(f"({i},{j})" for i, j in sorted(stats.superfluous_cells))
        )
    return 0


def cmd_convert(args) -> int:
    if args.trace and not (args.to == "perm" and args.algo == "cn"):
        print("--trace is only available with --to perm --algo cn", file=sys.stderr)
        return 2
    t = _READERS[getattr(args, "from")](_read_input(args.file))
    if args.trace:
        for word in _insertion_words(t):
            print(render_word(word))
        return 0
    print(_WRITERS[args.to](t, args))
    return 0


def cmd_split(args) -> int:
    t = _parse_alt(_read_input(args.file))
    out = format_split(split(t))
    if out:
        print(out)
    return 0


class LineError(TableauError):
    """An error that one line of a many-line input causes, with that line's
    number: ``<error> (at line <number>)``."""

    def __init__(self, error: TableauError, line: int):
        self.error = error
        self.line = line
        super().__init__(f"{error} (at line {line})")

    def __reduce__(self):
        return type(self), (self.error, self.line)


def _head_labels(head: str, at: int) -> tuple[int, ...]:
    """The labels of a ``{labels}`` head that starts at position ``at``."""
    if len(head) < 2 or head[0] != "{" or head[-1] != "}":
        raise ParseError(f"bad head {_shown_value(head)}, expected {{labels}}", at)
    return _parse_labels(head[1:-1], at + 1)


def cmd_merge(args) -> int:
    text = _read_input(args.file)
    number = 0  # the line being read, which every error it causes names

    def parts():
        nonlocal number
        for number, line in enumerate(text.splitlines(), 1):
            body = line.strip()
            if not body:
                continue
            # The tableau after a ``{labels} :: `` head, which must list its
            # labels; positions count in the line as given.
            lead = len(line) - len(line.lstrip())
            head, sep, _ = body.partition(" :: ")
            start = lead + len(head) + len(sep) if sep else 0
            try:  # each position here counts from ``start``; the head is before it
                t = parse_tableau(line[start:])
                labels = _head_labels(head, lead - start) if sep else t.labels
            except ParseError as exc:
                raise ParseError(exc.message, start + exc.position, number) from None
            if labels != t.labels:
                shown = _shown_value("{" + ",".join(map(str, t.labels)) + "}")
                message = f"head {_shown_value(head)} does not list the labels {shown}"
                raise DomainError("head-mismatch", f"{message} of its tableau")
            yield t

    try:
        merged = merge_all(parts())
    except ParseError:
        raise
    except TableauError as exc:  # a part that breaks the rules, shares labels or has a wrong head
        raise LineError(exc, number) from None
    print(_render_alt(merged))
    return 0


def cmd_enumerate(args) -> int:
    for t in all_tableaux(args.n):
        print(render_tableau(t))
    return 0


def cmd_count(args) -> int:
    table = count_table(args.n)
    for (i, j, k), c in sorted(table.counts.items()):
        print(f"{args.n}\t{i}\t{j}\t{k}\t{c}")
    for (i, j), c in sorted(table.by_free().items()):
        print(f"#by_free\t{args.n}\t{i}\t{j}\t{c}")
    print(f"#total\t{args.n}\t{table.total()}")
    return 0


def cmd_verify(args) -> int:
    report = FormulaReport(tuple(run_suite(args.suite, args.n)))
    for line in report.lines():
        print(line)
    print(f"{sum(c.passed for c in report.checks)}/{len(report.checks)} checks passed")
    return 0 if report.passed else 1


def cmd_asep(args) -> int:
    params = AsepParams(args.n, args.q, args.alpha, args.beta)
    lines = []
    for state, prob in asep_distribution(params).items():
        try:
            lines.append(f"{state} {prob} [{float(prob):.6f}]")
        except ValueError:  # more digits than the interpreter converts (4300 by default)
            raise DomainError(
                "too-long-to-print", f"the probability of state {state} has too many digits"
            ) from None
    print("\n".join(lines))
    return 0


def cmd_render(args) -> int:
    t = _parse_alt(_read_input(args.file))
    if args.style == "grid":
        print(render_tableau(t, "grid"))
    elif args.style == "forest":
        for tree in to_forest(t).trees:
            print(render_tree(tree))
    else:
        print(render_arcs(arc_diagram(t)))
    return 0


def _number(pattern: str, read: Callable[[str], object], what: str) -> Callable[[str], object]:
    """The argument type that reads with ``read`` a text ``pattern`` matches
    whole, and refuses any other as not ``what``.  Numbers on the command
    line are ``core``'s token, as in every text format: ``int`` and
    ``Fraction`` would also read ``_``, a sign, spaces, other scripts' digits
    and, in a rate, an exponent."""
    whole = re.compile(pattern)

    def number(text: str):
        try:
            if whole.fullmatch(text):
                return read(text)
        except (ValueError, ZeroDivisionError):  # too many digits, or a zero denominator
            pass
        raise argparse.ArgumentTypeError(f"not {what}: {_shown(text)}")

    return number


_integer = _number(rf"-?{_NUMBER}", int, "an integer")
_fraction = _number(rf"{_NUMBER}(?:[/.]{_NUMBER})?", Fraction, "a rational number")  # p, p/q or p.d

# The most digits a rate's text may have.  The law's time grows with them:
# ``asep --n 12`` with three rates of 32 digits each takes about 0.9 s and
# prints 12 MB (a whole process, on a 2-CPU Linux machine with Python 3.11).
RATE_DIGITS = 32


def _rate(text: str) -> Fraction:
    digits = sum(c.isdigit() for c in text)
    if digits > RATE_DIGITS:
        raise argparse.ArgumentTypeError(
            f"a rate has at most {RATE_DIGITS} digits, not {digits}: {_shown(text)}"
        )
    return _fraction(text)


def _size(text: str) -> int:
    n = _integer(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"size must be non-negative, got {_shown_number(n)}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alttab",
        description="Alternative-tableau toolkit: validate, convert, enumerate, verify.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, help="check a tableau and report every violation")
    p.add_argument("--format", choices=("alt", "permtab"), default="alt")
    p.add_argument("file", nargs="?", help="input file, defaults to stdin")

    p = add("stats", cmd_stats, help="free-line statistics of a tableau")
    p.add_argument("--format", choices=("alt", "permtab"), default="alt")
    p.add_argument("file", nargs="?")

    p = add("convert", cmd_convert, help="convert between representations")
    p.add_argument("--from", dest="from", choices=REPS, required=True)
    p.add_argument("--to", choices=REPS, required=True)
    p.add_argument("--algo", choices=("forest", "cn"), default="forest",
                   help="permutation encoding: forest bijection or column insertion")
    p.add_argument("--trace", action="store_true",
                   help="print the insertion steps (only with --to perm --algo cn)")
    p.add_argument("--separator", type=_integer, default=0,
                   help="letter placed below all labels in the permutation word")
    p.add_argument("file", nargs="?")

    p = add("split", cmd_split, help="packed components, one per line")
    p.add_argument("file", nargs="?")

    p = add("merge", cmd_merge, help="merge disjointly labeled tableaux, one per line")
    p.add_argument("file", nargs="?")

    p = add("enumerate", cmd_enumerate, help="all tableaux of a given length")
    p.add_argument("--n", type=_integer, required=True)

    p = add("count", cmd_count, help="counts by free rows, free columns and rows")
    p.add_argument("--n", type=_integer, required=True)

    p = add("verify", cmd_verify, help="run a verification suite")
    p.add_argument("--suite", choices=(*SUITES, "all"), required=True)
    p.add_argument("--n", type=_size, required=True)

    p = add("asep", cmd_asep, help="exact stationary distribution on n sites")
    p.add_argument("--n", type=_integer, required=True)
    p.add_argument("--q", type=_rate, default=Fraction(1))
    p.add_argument("--alpha", type=_rate, default=Fraction(1))
    p.add_argument("--beta", type=_rate, default=Fraction(1))

    p = add("render", cmd_render, help="ASCII rendering of a tableau")
    p.add_argument("--style", choices=("grid", "forest", "arcs"), default="grid")
    p.add_argument("file", nargs="?")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe shows here, not at exit
        return code
    except UsageError as exc:
        parser.error(str(exc))
    except TableauError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader has gone: what is still buffered goes nowhere, so the
        # flush at exit cannot fail again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
