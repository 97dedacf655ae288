"""Command-line behavior: conversions, verification, exit codes, formats."""

from __future__ import annotations

import hashlib
import io
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alttab import checks
from alttab.cli import REPS, build_parser, main
from alttab.core import render_tableau
from alttab.enumeration import all_tableaux

from conftest import T0_COMPACT

SIGMA0_TEXT = "10 12 3 5 2 1 0 8 6 7 9 4 11 13"

# More digits than ``int`` converts by default (4300).
HUGE = "1" * 5000


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["validate"], T0_COMPACT)
        assert code == 0 and "length 13" in out

    def test_invalid_exits_one(self, capsys, monkeypatch):
        code, _, err = run(capsys, monkeypatch, ["validate"], "DEE|L1,2;U1,3")
        assert code == 1 and "pointed-cell-occupied" in err

    @pytest.mark.parametrize("record", ["word=DE\nlabels=a,b", "word=DE\narrows=[1,x,L]"])
    def test_bad_number_in_a_record_is_a_parse_error(self, capsys, monkeypatch, record):
        code, out, err = run(capsys, monkeypatch, ["validate"], record)
        assert code == 1 and out == "" and "at position" in err

    @pytest.mark.parametrize(
        "argv", (["validate"], ["convert", "--from", "alt", "--to", "perm"]), ids=["validate", "convert"]
    )
    @pytest.mark.parametrize(
        "record, position",
        [
            ("word=DE\n\narrows=[1,2,L]x", 16),
            ("word=DE\nlabels=1,x", 15),
            ("\n\nword=DE\nlabels=1,x", 17),
            ("  DE|X1,2", 5),
        ],
        ids=["arrows", "labels", "labels-after-blank-lines", "compact-after-spaces"],
    )
    def test_record_error_names_the_field_position(
        self, capsys, monkeypatch, argv, record, position
    ):
        code, out, err = run(capsys, monkeypatch, argv, record + "\n")
        assert code == 1 and out == ""
        assert err.startswith("error: bad") and f"(at position {position})" in err

    def test_usage_error_exits_two(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["convert", "--from", "alt"])
        assert exc.value.code == 2

    def test_permtab(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["validate", "--format", "permtab"], "DE|1,2"
        )
        assert code == 0 and "length 2" in out


class TestStats:
    def test_alt_stats(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["stats"], T0_COMPACT)
        assert code == 0
        assert "frow=3 fcol=4 fcell=4" in out
        assert "free_rows=4,11,13" in out
        assert "free_cells=(4,5);(4,12);(7,8);(11,12)" in out


class TestConvert:
    def test_alt_to_perm(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["convert", "--from", "alt", "--to", "perm"], T0_COMPACT
        )
        assert code == 0 and out.strip() == SIGMA0_TEXT

    def test_alt_to_perm_insertion_agrees(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["convert", "--from", "alt", "--to", "perm", "--algo", "cn"],
            T0_COMPACT,
        )
        assert code == 0 and out.strip() == SIGMA0_TEXT

    def test_trace(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["convert", "--from", "alt", "--to", "perm", "--algo", "cn", "--trace"],
            T0_COMPACT,
        )
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "0 4 11 13"
        assert lines[1] == "10 12 0 4 11 13"
        assert lines[-1] == SIGMA0_TEXT

    def test_trace_requires_cn(self, capsys, monkeypatch):
        code, _, err = run(
            capsys,
            monkeypatch,
            ["convert", "--from", "alt", "--to", "perm", "--trace"],
            T0_COMPACT,
        )
        assert code == 2 and "--trace" in err

    def test_alt_to_arcs_single_row(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["convert", "--from", "alt", "--to", "arcs"], "D|"
        )
        assert code == 0 and out.strip() == "points=0..2 arcs=(0,2)(1,2)"

    def test_empty_roundtrip_through_forest(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["convert", "--from", "alt", "--to", "forest"], ""
        )
        assert code == 0 and out.strip() == ""
        code, out, _ = run(
            capsys, monkeypatch, ["convert", "--from", "forest", "--to", "alt"], out
        )
        assert code == 0 and out.strip() == ""

    @pytest.mark.parametrize(
        "rep", ("alt", "permtab", "forest", "arcs", "bintrees", "perm")
    )
    def test_roundtrip_through_every_representation(self, capsys, monkeypatch, rep):
        code, there, _ = run(
            capsys, monkeypatch, ["convert", "--from", "alt", "--to", rep], T0_COMPACT
        )
        assert code == 0
        code, back, _ = run(
            capsys, monkeypatch, ["convert", "--from", rep, "--to", "alt"], there
        )
        assert code == 0 and back.strip() == T0_COMPACT

    def test_signedperm_roundtrip(self, capsys, monkeypatch):
        code, there, _ = run(
            capsys, monkeypatch, ["convert", "--from", "alt", "--to", "signedperm"], "ED|"
        )
        assert code == 0 and there.strip() == "1'"
        code, back, _ = run(
            capsys, monkeypatch, ["convert", "--from", "signedperm", "--to", "alt"], there
        )
        assert code == 0 and back.strip() == "ED|"

    def test_signedperm_roundtrip_at_150_letters(self, capsys, monkeypatch):
        text = " ".join(f"{a}'" if a % 2 else str(a) for a in range(150, 0, -1))
        code, out, err = run(
            capsys, monkeypatch, ["convert", "--from", "signedperm", "--to", "signedperm"], text
        )
        assert code == 0 and out.strip() == text, err

    def test_signedperm_needs_symmetry(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["convert", "--from", "alt", "--to", "signedperm"], "DE|L1,2"
        )
        assert code == 1 and "not-symmetric" in err

    def test_parse_failure_exits_one(self, capsys, monkeypatch):
        code, _, err = run(
            capsys, monkeypatch, ["convert", "--from", "alt", "--to", "perm"], "garbage"
        )
        assert code == 1

    def test_deep_binary_pair_is_refused_by_the_depth_cap(self, capsys, monkeypatch):
        # Named for the 200-node cap this once hit: it now converts both ways.
        deep = "".join(f"({k} L:- R:" for k in range(1, 3001)) + "-" + ")" * 3000 + " -"
        code, out, err = run(
            capsys, monkeypatch, ["convert", "--from", "bintrees", "--to", "alt"], deep
        )
        assert code == 0 and out == "D" * 3000 + "|\n" and err == ""
        code, out, _ = run(
            capsys, monkeypatch, ["convert", "--from", "alt", "--to", "bintrees"], out
        )
        assert code == 0 and out == deep + "\n"

    def test_many_free_rows_convert_to_binary_trees_and_back(self, capsys, monkeypatch):
        # Each free row is the next sibling, so the right child, of the one
        # before: the min-rooted tree is 1500 levels deep.
        text = "D" * 1500 + "|"
        code, pair, err = run(
            capsys, monkeypatch, ["convert", "--from", "alt", "--to", "bintrees"], text
        )
        assert code == 0 and err == "" and pair.count("(") == 1500
        code, out, _ = run(
            capsys, monkeypatch, ["convert", "--from", "bintrees", "--to", "alt"], pair
        )
        assert code == 0 and out == text + "\n"

    @pytest.mark.parametrize(
        "rep, text",
        [
            ("alt", "DE|L1," + HUGE),
            ("alt", "word=DE\narrows=[1," + HUGE + ",L]"),
            ("permtab", "DE|1," + HUGE),
            ("perm", "0 " + HUGE),
            ("signedperm", HUGE),
            ("signedperm", "1 \u00b2"),
            ("arcs", "points=0.." + HUGE + " arcs="),
            ("forest", "(W " + HUGE + ")"),
            ("bintrees", "(" + HUGE + " L:- R:-) -"),
        ],
        ids=[
            "alt", "alt-record", "permtab", "perm", "signedperm", "signedperm-sup2",
            "arcs", "forest", "bintrees",
        ],
    )
    def test_number_int_refuses_is_a_parse_error(self, capsys, monkeypatch, rep, text):
        code, out, err = run(capsys, monkeypatch, ["convert", "--from", rep, "--to", "alt"], text)
        assert code == 1 and out == "" and err.startswith("error: bad") and "at position" in err

    @pytest.mark.parametrize(
        "rep, text",
        [
            ("alt", "labels=1," + HUGE + "|DE|"),
            ("alt", "word=DE\nlabels=1," + HUGE),
            ("alt", "word=DE\narrows=[1," + HUGE + ",L]"),
            ("alt", "DE|Q" + HUGE),
            ("alt", "word=DE\n" + "x" * 5000),
            ("permtab", "DE|x" + HUGE),
            ("perm", "0 x" + HUGE),
            ("signedperm", "x" + HUGE),
            ("forest", "(W 1) " + "#" * 5000),
            ("bintrees", "- - " + "#" * 5000),
        ],
        ids=[
            "alt-labels", "record-labels", "record-arrow", "alt-arrow", "record-line",
            "permtab-cell", "perm", "signedperm", "forest", "bintrees",
        ],
    )
    def test_parse_error_line_is_short(self, capsys, monkeypatch, rep, text):
        code, out, err = run(capsys, monkeypatch, ["convert", "--from", rep, "--to", "alt"], text)
        assert code == 1 and out == "" and err.startswith("error:") and len(err.strip()) < 100

    def test_huge_arc_point_range_is_refused_before_it_is_built(self, capsys, monkeypatch):
        text = "points=0..%d arcs=" % 10**15
        code, out, err = run(capsys, monkeypatch, ["convert", "--from", "arcs", "--to", "alt"], text)
        assert code == 1 and out == "" and "not-a-tree" in err

    def test_input_that_is_not_utf8_is_a_parse_error(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(b"DE|\xff")
        code, out, err = run(capsys, monkeypatch, ["convert", "--from", "alt", "--to", "perm", str(path)])
        assert code == 1 and out == "" and "utf-8" in err

    def test_missing_input_file_is_a_usage_error(self, capsys, monkeypatch, tmp_path):
        missing = str(tmp_path / "missing")
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["convert", "--from", "perm", "--to", "alt", missing])
        assert exc.value.code == 2
        assert missing in capsys.readouterr().err


class TestSplitMerge:
    def test_split_then_merge(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["split"], T0_COMPACT)
        assert code == 0
        assert out.splitlines()[0] == "{1} :: E|"
        code, merged, _ = run(capsys, monkeypatch, ["merge"], out)
        assert code == 0 and merged.strip() == T0_COMPACT

    @pytest.mark.parametrize(
        "text, line, position",
        [
            ("DE|L1,2\n  DE|X1\n", 2, 5),
            ("\n{1} :: E|\n  {2,3} :: DE|X1\n", 3, 14),
            ("DE|L1,2\n\t\n{2} ::  ED|Y\n", 3, 11),
        ],
        ids=["indented", "after-a-head", "head-then-spaces"],
    )
    def test_merge_error_names_the_line_and_its_position(
        self, capsys, monkeypatch, text, line, position
    ):
        # The position counts in the line as given, leading space and head included.
        code, out, err = run(capsys, monkeypatch, ["merge"], text)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and f"(at line {line}, position {position})" in err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("DE|L1,2\n\nDE|L1,2;U1,2\n", "duplicate-cell: two arrows on cell (1,2) (at line 3)"),
            ("E|\nDE|L2,1\n", "arrow-off-shape: L arrow on nonexistent cell (2,1) (at line 2)"),
            (
                "{1} :: labels=1|D|\n  {2} :: labels=2|E|\nlabels=2,3|DE|L2,3\n",
                "label-collision: labels [2] appear on both sides (at line 3)",
            ),
        ],
        ids=["duplicate-cell", "off-shape", "label-collision"],
    )
    def test_every_merge_error_names_its_line(self, capsys, monkeypatch, text, message):
        code, out, err = run(capsys, monkeypatch, ["merge"], text)
        assert code == 1 and out == ""
        assert err == f"error: {message}\n"

    def test_split_then_merge_every_small_tableau(self, capsys, monkeypatch):
        for n in range(1, 5):  # the empty tableau splits into no line
            for t in all_tableaux(n):
                text = render_tableau(t)
                code, out, _ = run(capsys, monkeypatch, ["split"], text)
                assert code == 0
                code, merged, _ = run(capsys, monkeypatch, ["merge"], out)
                assert code == 0 and merged == text + "\n", text

    @pytest.mark.parametrize(
        "text, line, position",
        [
            ("{1,2} :: DE|L1,2\n  {x} :: E|\n", 2, 3),
            ("{1,,2} :: DE|L1,2\n", 1, 1),
            ("{1,2 :: DE|L1,2\n", 1, 0),
            ("E|\n 1 :: E|\n", 2, 1),
        ],
        ids=["bad-label", "empty-label", "unclosed", "no-braces"],
    )
    def test_a_malformed_head_is_a_parse_error_at_its_place(
        self, capsys, monkeypatch, text, line, position
    ):
        code, out, err = run(capsys, monkeypatch, ["merge"], text)
        assert code == 1 and out == ""
        assert err.startswith("error: bad ")
        assert err.endswith(f"(at line {line}, position {position})\n")

    def test_a_parse_error_in_the_body_comes_before_one_in_the_head(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["merge"], "{x} :: DE|X1\n")
        assert code == 1 and out == ""
        assert err.startswith("error: bad arrow") and err.endswith("(at line 1, position 10)\n")

    @pytest.mark.parametrize(
        "text, line, head, labels",
        [
            ("{5,6} :: DE|L1,2\n", 1, "{5,6}", "{1,2}"),
            ("{2,1} :: DE|L1,2\n", 1, "{2,1}", "{1,2}"),
            ("{1} :: E|\n{2,3} :: labels=2,4|DE|L2,4\n", 2, "{2,3}", "{2,4}"),
            ("{} :: E|\n", 1, "{}", "{1}"),
        ],
        ids=["other-labels", "out-of-order", "second-line", "empty-head"],
    )
    def test_a_head_must_list_the_labels_of_its_tableau(
        self, capsys, monkeypatch, text, line, head, labels
    ):
        code, out, err = run(capsys, monkeypatch, ["merge"], text)
        assert code == 1 and out == ""
        assert err == (
            f"error: head-mismatch: head '{head}' does not list the labels '{labels}'"
            f" of its tableau (at line {line})\n"
        )

    def test_split_empty(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["split"], "")
        assert code == 0 and out.strip() == ""


class TestEnumerateCount:
    def test_enumerate(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["enumerate", "--n", "2"])
        assert code == 0
        assert out.splitlines() == ["DD|", "DE|", "DE|L1,2", "DE|U1,2", "ED|", "EE|"]

    def test_count(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["count", "--n", "2"])
        lines = out.splitlines()
        assert code == 0
        assert "2\t0\t1\t1\t1" in lines
        assert "#total\t2\t6" in lines

    def test_count_beyond_the_enumeration_cap(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["count", "--n", "12"])
        assert code == 0 and out.splitlines()[-1] == "#total\t12\t6227020800"
        code, out, _ = run(capsys, monkeypatch, ["count", "--n", "24"])
        assert code == 0 and out.splitlines()[-1] == f"#total\t24\t{math.factorial(25)}"
        for n in ("25", HUGE[:3000]):
            code, out, err = run(capsys, monkeypatch, ["count", "--n", n])
            assert code == 1 and out == "" and "ALTAB_MAX_COUNT_N" in err
            assert err.startswith("error:") and len(err.strip().encode()) < 200

    def test_cap_exits_one(self, capsys, monkeypatch):
        monkeypatch.setenv("ALTAB_MAX_N", "3")
        code, _, err = run(capsys, monkeypatch, ["enumerate", "--n", "5"])
        assert code == 1 and "cap" in err

    @pytest.mark.parametrize(
        "var, argv, stdin",
        [
            ("ALTAB_MAX_N", ["enumerate", "--n", "2"], ""),
            ("ALTAB_MAX_WEIGHT_N", ["asep", "--n", "2"], ""),
            ("ALTAB_MAX_CHAIN_N", ["verify", "--suite", "asep", "--n", "1"], ""),
            ("ALTAB_MAX_COUNT_N", ["count", "--n", "2"], ""),
        ],
    )
    def test_a_cap_that_is_not_an_integer_exits_one(self, capsys, monkeypatch, var, argv, stdin):
        monkeypatch.setenv(var, "abc")
        code, out, err = run(capsys, monkeypatch, argv, stdin)
        assert code == 1 and out == "" and err.startswith("error: " + var)


class TestVerify:
    def test_counts_suite_mentions_totals(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify", "--suite", "counts", "--n", "4"])
        assert code == 0
        assert "A(4)=120 PASS" in out
        assert "FAIL" not in out

    def test_trivial_bijections(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys, monkeypatch, ["verify", "--suite", "bijections", "--n", "0"]
        )
        assert code == 0 and "FAIL" not in out

    def test_asep_suite(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify", "--suite", "asep", "--n", "2"])
        assert code == 0 and "FAIL" not in out
        assert "corner-recursion weights equal enumeration at n=2 PASS" in out

    def test_asep_suite_lines_are_unchanged(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify", "--suite", "asep", "--n", "6"])
        want = []
        for n in range(7):
            want.append(f"corner-recursion weights equal enumeration at n={n} PASS")
            for triple in ("(1,1/2,1/3)", "(1/2,1,1)", "(1/3,2/3,1/2)"):
                want.append(f"stationary law at n={n}, (q,a,b)={triple} PASS")
        assert code == 0 and out.splitlines() == [*want, "28/28 checks passed"]

    def test_series_suite_up_to_the_count_cap(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify", "--suite", "series", "--n", "24"])
        assert code == 0 and out.splitlines()[-1] == "11/11 checks passed"

    def test_negative_size_is_a_usage_error(self, capsys, monkeypatch):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["verify", "--suite", "all", "--n", "-1"])
        assert exc.value.code == 2

    def test_the_suite_choices_are_the_suite_table_and_all(self, monkeypatch):
        def choices():
            verbs = build_parser()._subparsers._group_actions[0].choices
            return next(a for a in verbs["verify"]._actions if a.dest == "suite").choices

        assert choices() == ("bijections", "counts", "series", "asep", "all")
        monkeypatch.setitem(checks.SUITES, "new", ((), lambda n, *_: []))
        assert choices() == ("bijections", "counts", "series", "asep", "new", "all")

    @pytest.mark.parametrize(
        "suite, n, var",
        (
            ("counts", "10", "ALTAB_MAX_N"),
            ("all", "10", "ALTAB_MAX_N"),
            ("all", "7", "ALTAB_MAX_CHAIN_N"),
            ("asep", "7", "ALTAB_MAX_CHAIN_N"),
            ("series", "25", "ALTAB_MAX_COUNT_N"),
        ),
    )
    def test_oversized_suite_is_refused_before_any_work(
        self, capsys, monkeypatch, suite, n, var
    ):
        def no_enumeration(*args):
            raise AssertionError(f"counted or enumerated {args[0]!r:.40} before refusing")

        # The oracles call ``fillings`` through their own binding.
        monkeypatch.setattr("alttab.enumeration.fillings", no_enumeration)
        monkeypatch.setattr("alttab.oracles.fillings", no_enumeration)
        monkeypatch.setattr("alttab.enumeration._bidiagonal_pass", no_enumeration)
        # The oracles reach the corner recursion through ``_corner_table``;
        # ``_bidiagonal_pass`` stays patched there so that a binding of it is caught.
        monkeypatch.setattr("alttab.oracles._bidiagonal_pass", no_enumeration, raising=False)
        monkeypatch.setattr("alttab.enumeration._corner_table", no_enumeration)
        monkeypatch.setattr("alttab.oracles._corner_table", no_enumeration)
        monkeypatch.setattr("alttab.enumeration._insert_label", no_enumeration)
        code, out, err = run(capsys, monkeypatch, ["verify", "--suite", suite, "--n", n])
        assert code == 1 and out == "" and var in err


# ``alttab verify --suite all --n 3``, line for line.
VERIFY_ALL_3 = """\
merge of split components restores the tableau PASS
forest encoding round trip PASS
forest equals the cut/split construction PASS
arc diagram agrees with the forest route PASS
arc diagram decodes back to the forest PASS
permutation-tableau round trip PASS
parse of render is the identity PASS
permutation encoding round trip PASS
insertion algorithm matches the forest bijection PASS
transposition is an involution PASS
binary-tree pair round trip PASS
binary pair equals the divide construction PASS
free cells equal arc out-crossings PASS
forests validate PASS
letter statistics transport PASS
permutation-tableau statistics transport PASS
A(0)=1 PASS
A(1)=2 PASS
A(2)=6 PASS
A(3)=24 PASS
count table equals enumeration and the corner recursion at n=0 PASS
count table equals enumeration and the corner recursion at n=1 PASS
count table equals enumeration and the corner recursion at n=2 PASS
count table equals enumeration and the corner recursion at n=3 PASS
generator sets agree at n=0 PASS
generator sets agree at n=1 PASS
generator sets agree at n=2 PASS
generator sets agree at n=3 PASS
permutation generator count at n=0 PASS
permutation generator count at n=1 PASS
permutation generator count at n=2 PASS
permutation generator count at n=3 PASS
free-cell-free count at n=0 is 1 PASS
free-cell-free count at n=1 is 2 PASS
free-cell-free count at n=2 is 5 PASS
free-cell-free count at n=3 is 14 PASS
free-cell-free diagrams have no crossings PASS
decorated count at n=0 is 1 PASS
decorated count at n=1 is 2 PASS
decorated count at n=2 is 8 PASS
decorated count at n=3 is 48 PASS
symmetric tableaux of size 0: 1 PASS
symmetric tableaux of size 2: 2 PASS
cut/block cardinality chain at n=0 PASS
cut/block cardinality chain at n=1 PASS
all tableaux vs 1/(1-z)^2 PASS
no free rows vs 1/(1-z) PASS
column-packed vs -log(1-z) PASS
no-free-row row counts at u=2 PASS
no-free-row row counts at u=1/2 PASS
refined counts at (u,x,y)=(2,1,1) PASS
refined counts at (u,x,y)=(1,2,3) PASS
refined counts at (u,x,y)=(3,2,5) PASS
free-line polynomial equals rising product PASS
derivative of no-free-row series equals full series PASS
second derivative of packed series equals full series PASS
corner-recursion weights equal enumeration at n=0 PASS
stationary law at n=0, (q,a,b)=(1,1/2,1/3) PASS
stationary law at n=0, (q,a,b)=(1/2,1,1) PASS
stationary law at n=0, (q,a,b)=(1/3,2/3,1/2) PASS
corner-recursion weights equal enumeration at n=1 PASS
stationary law at n=1, (q,a,b)=(1,1/2,1/3) PASS
stationary law at n=1, (q,a,b)=(1/2,1,1) PASS
stationary law at n=1, (q,a,b)=(1/3,2/3,1/2) PASS
corner-recursion weights equal enumeration at n=2 PASS
stationary law at n=2, (q,a,b)=(1,1/2,1/3) PASS
stationary law at n=2, (q,a,b)=(1/2,1,1) PASS
stationary law at n=2, (q,a,b)=(1/3,2/3,1/2) PASS
corner-recursion weights equal enumeration at n=3 PASS
stationary law at n=3, (q,a,b)=(1,1/2,1/3) PASS
stationary law at n=3, (q,a,b)=(1/2,1,1) PASS
stationary law at n=3, (q,a,b)=(1/3,2/3,1/2) PASS
72/72 checks passed
"""


class TestVerifyOutput:
    def test_all_suites_at_n3_line_for_line(self, capsys, monkeypatch):
        code, out, err = run(capsys, monkeypatch, ["verify", "--suite", "all", "--n", "3"])
        assert code == 0 and err == ""
        assert out.splitlines() == VERIFY_ALL_3.splitlines()
        assert len(out.splitlines()) == 73

    def test_all_suites_at_n5(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["verify", "--suite", "all", "--n", "5"])
        lines = out.splitlines()
        assert code == 0 and len(lines) == 96 and lines[-1] == "95/95 checks passed"
        assert all(line.endswith(" PASS") for line in lines[:-1])

    @pytest.mark.parametrize(
        "suite, n, digest",
        [
            ("all", "5", "8ce2fd6721fc2992c1635a036fa82a04abcba26849d39355a7e8ef9d4727b600"),
            ("counts", "6", "648609d8af59b4442650bc4bd15cbf962289aacd221435e0d9195a4747e0cbf2"),
        ],
    )
    def test_the_report_is_byte_identical(self, capsys, monkeypatch, suite, n, digest):
        # The sha256 of each report as printed when the count and asep
        # suites walked each size beside the bijection battery's walk.
        code, out, _ = run(capsys, monkeypatch, ["verify", "--suite", suite, "--n", n])
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


class TestLongArguments:
    """A huge numeric argument is echoed cut to 20 characters."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "x" + HUGE],
            ["enumerate", "--n", "x" + HUGE],
            ["asep", "--n", "x" + HUGE],
            ["asep", "--n", "1", "--q", "x" + HUGE],
            ["asep", "--n", "1", "--alpha", HUGE + "/0"],
            ["asep", "--n", "1", "--beta", "x" + HUGE],
            ["asep", "--n", "1", "--q", HUGE[:3000]],
            ["verify", "--suite", "all", "--n", "x" + HUGE],
            ["verify", "--suite", "all", "--n", "-" + HUGE[:3000]],
            ["convert", "--from", "perm", "--to", "perm", "--separator", "x" + HUGE],
        ],
        ids=[
            "count-n", "enumerate-n", "asep-n", "asep-q", "asep-alpha", "asep-beta",
            "asep-q-digits", "verify-n", "verify-negative-n", "convert-separator",
        ],
    )
    def test_usage_error_line_is_short(self, capsys, monkeypatch, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, argv, "0 1")
        assert exc.value.code == 2
        last = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error:" in last and len(last.encode()) < 200

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", HUGE[:3000]],
            ["enumerate", "--n", HUGE[:3000]],
            ["asep", "--n", HUGE[:3000]],
            ["asep", "--n", "-" + HUGE[:3000]],
            ["asep", "--n", "1", "--q", HUGE[:32]],  # as many digits as a rate may have
            ["asep", "--n", "1", "--alpha", HUGE[:31] + "/7"],
            ["verify", "--suite", "all", "--n", HUGE[:3000]],
            ["convert", "--from", "perm", "--to", "perm", "--separator", HUGE[:3000]],
        ],
        ids=[
            "count-cap", "enumerate-cap", "asep-cap", "asep-negative", "asep-q", "asep-alpha",
            "verify-cap", "convert-separator",
        ],
    )
    def test_error_line_is_short(self, capsys, monkeypatch, argv):
        code, out, err = run(capsys, monkeypatch, argv, "0 1")
        assert code == 1 and out == ""
        assert err.startswith("error:") and len(err.strip().encode()) < 200


class TestAsciiNumbers:
    """Numbers on the command line are ASCII, as in every text format, though
    ``int`` and ``Fraction`` read more."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "--n", "\uff13"],
            ["count", "--n", "1_0"],
            ["count", "--n", "+3"],
            ["count", "--n", " 3"],
            ["count", "--n", "3 "],
            ["enumerate", "--n", "\u0663"],
            ["asep", "--n", "\u0663"],
            ["verify", "--suite", "all", "--n", "1_0"],
            ["convert", "--from", "perm", "--to", "perm", "--separator", "1_0"],
            ["convert", "--from", "perm", "--to", "perm", "--separator", "+1"],
        ],
    )
    def test_an_integer_argument_is_ascii_digits(self, capsys, monkeypatch, argv):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, argv, "0 1")
        assert exc.value.code == 2 and "not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ("--q", "--alpha", "--beta"))
    @pytest.mark.parametrize(
        "rate",
        [
            "1_0/30", "\u0663/4", "1/\u0663", "0.5_0", "\uff11",
            "5e-1", "1e-20000", "+1/2", "-1", " 1/2", "1/2 ", ".5", "5.", "1/2/3", "1.5/2", "",
        ],
    )
    def test_a_rate_is_ascii_without_underscores(self, capsys, monkeypatch, flag, rate):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["asep", "--n", "2", flag, rate])
        assert exc.value.code == 2 and "not a rational number" in capsys.readouterr().err

    def test_ascii_numbers_are_still_read(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["count", "--n", "3"])
        assert code == 0 and out.splitlines()[-1] == "#total\t3\t24"
        argv = ["asep", "--n", "2", "--q", "1/2", "--alpha", "0.5", "--beta", "1"]
        code, out, _ = run(capsys, monkeypatch, argv)
        assert code == 0 and len(out.splitlines()) == 4
        code, out, err = run(capsys, monkeypatch, ["count", "--n", "-1"])  # read, then refused
        assert code == 1 and out == "" and "bad-size" in err


class TestNegativeLabels:
    @pytest.mark.parametrize(
        "rep, text",
        [
            ("forest", "(W -1 (B 2))"),
            ("bintrees", "(-1 L:(2 L:- R:-) R:-) -"),
            ("arcs", "points=-2..0 arcs=(-2,0)(-1,0)"),
        ],
    )
    def test_a_negative_label_exits_one(self, capsys, monkeypatch, rep, text):
        code, out, err = run(capsys, monkeypatch, ["convert", "--from", rep, "--to", "alt"], text)
        assert code == 1 and out == "" and err.startswith("error:")


class TestAsepRender:
    def test_asep_output(self, capsys, monkeypatch):
        code, out, _ = run(
            capsys,
            monkeypatch,
            ["asep", "--n", "1", "--q", "1", "--alpha", "1/2", "--beta", "1/3"],
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "o 2/5 [0.400000]"
        assert lines[1] == "* 3/5 [0.600000]"

    def test_the_law_at_twelve_sites_is_byte_identical(self, capsys, monkeypatch):
        # The sha256 of this output as the corner recursion printed it when
        # every word with a DE took a corner step.
        argv = ["asep", "--n", "12", "--q", "1/3", "--alpha", "2/5", "--beta", "5/7"]
        code, out, _ = run(capsys, monkeypatch, argv)
        assert code == 0 and len(out.splitlines()) == 4096
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "129b5987ebadb4670dd0f4d519814313ac2aff3e49671eddd40331282f0bb856"
        )

    def test_a_probability_too_long_to_print_is_an_error(self, capsys, monkeypatch):
        # The rates pass their digit bound and range check, but the weights
        # they make have more digits than the interpreter converts to text
        # at its lowest limit, 640, which PYTHONINTMAXSTRDIGITS may set.
        ones = "1" * 30
        argv = ["asep", "--n", "8", "--q", f"1/{ones}3", "--alpha", f"1/{ones}7"]
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            code, out, err = run(capsys, monkeypatch, [*argv, "--beta", f"1/{ones}9"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 1 and out == ""
        assert err.startswith("error:") and "state oooooooo" in err and len(err.encode()) < 200

    @pytest.mark.parametrize("flag", ("--q", "--alpha", "--beta"))
    def test_a_rate_has_at_most_the_bound_of_digits(self, capsys, monkeypatch, flag):
        # 32 digits, which the law at 12 sites takes about a second over.
        at_bound = ("0." + "1" * 31, "1" * 16 + "/" + "3" * 16)
        for rate in at_bound:
            code, out, _ = run(capsys, monkeypatch, ["asep", "--n", "2", flag, rate])
            assert code == 0 and len(out.splitlines()) == 4
        for rate in ("0." + "1" * 32, "1" * 16 + "/" + "3" * 17, "0." + "1" * 2000):
            with pytest.raises(SystemExit) as exc:
                run(capsys, monkeypatch, ["asep", "--n", "8", flag, rate])
            err = capsys.readouterr().err
            assert exc.value.code == 2 and f"{flag[2:]}: a rate has at most 32 digits" in err

    @pytest.mark.parametrize("flag", ("--q", "--alpha", "--beta"))
    def test_asep_bad_rate_is_a_usage_error(self, capsys, monkeypatch, flag):
        with pytest.raises(SystemExit) as exc:
            run(capsys, monkeypatch, ["asep", "--n", "2", flag, "1/0"])
        assert exc.value.code == 2
        assert "not a rational number" in capsys.readouterr().err

    def test_render_grid(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["render", "--style", "grid"], "DE|L1,2")
        assert code == 0 and out == "  2\n1 <\n"

    def test_render_arcs(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["render", "--style", "arcs"], T0_COMPACT)
        assert code == 0
        assert out.strip().count("(") == 14

    def test_render_forest(self, capsys, monkeypatch):
        code, out, _ = run(capsys, monkeypatch, ["render", "--style", "forest"], T0_COMPACT)
        assert code == 0 and len(out.strip().splitlines()) == 7


# ---------------------------------------------------------------------------
# Fuzzing: every parser the CLI reaches, fed arbitrary and nearly valid text.

VERBS = [["convert", "--from", rep] for rep in REPS] + [
    ["stats"],
    ["stats", "--format", "permtab"],
    ["split"],
    ["merge"],
]

# Every character of every text format, so that random text gets past the
# first token more often than arbitrary unicode does.
ALPHABET = "DELUWBR|,;=[]()-'.: \n0123456789labelswordarrowspointsc"

# Valid inputs of every format read by the fuzzed verbs, where edits start.
SAMPLES = [
    T0_COMPACT,
    "labels=2,5|DE|L2,5",
    "word=DE\narrows=[1,2,L]",
    "labels=0,1,2,3,4|DDDEE|0,3;2,3;2,4",
    "DEE|1,2;1,3",
    "(B 1) (B 2) (W 4 (B 9 (W 6 (B 8)) (W 7)))",
    "points=0..3 arcs=(0,2)(0,3)(1,3)",
    "(1 L:- R:-) (2 L:- R:-)",
    SIGMA0_TEXT,
    "3 1' 2",
    "{1} :: E|",
]


@st.composite
def edited_samples(draw):
    """A sample with a few random cuts and insertions."""
    text = draw(st.sampled_from(SAMPLES))
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        at = draw(st.integers(min_value=0, max_value=len(text)))
        cut = draw(st.integers(min_value=0, max_value=3))
        text = text[:at] + draw(st.text(ALPHABET, max_size=4)) + text[at + cut :]
    return text


def main_in_process(argv, stdin):
    """Exit code, stdout and stderr of the CLI run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    verb=st.sampled_from(VERBS),
    to=st.sampled_from(REPS),
    text=st.one_of(st.text(max_size=30), st.text(ALPHABET, max_size=30), edited_samples()),
)
def test_fuzzed_input_exits_cleanly(verb, to, text):
    argv = verb + ["--to", to] if verb[0] == "convert" else verb
    code, _, err = main_in_process(argv, text)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [["asep", "--n", "12", "--q", "1/3", "--alpha", "2/5", "--beta", "5/7"], ["enumerate", "--n", "7"]],
    ids=["asep", "enumerate"],
)
def test_a_reader_that_stops_early_gets_no_traceback(argv):
    # As ``alttab ... | head -1``: the output is far longer than a pipe holds,
    # so the writer is still writing when the reader closes its end.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    proc = subprocess.Popen(
        [sys.executable, "-m", "alttab", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 141
    assert err == b""
