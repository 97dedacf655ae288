"""Layout of the package: the oracles live in one module that only the
verification battery imports, the battery walks each size once and shares
one oracle memo per size, and the public names stay put."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import json
import math
import sys
import weakref
from pathlib import Path

import pytest

import alttab
from alttab import checks, core, decomposition, enumeration, oracles, trees
from alttab.checks import BIJECTIONS
from alttab.cli import main
from alttab.core import AltTableau, relabel
from alttab.enumeration import shape_words
from alttab.errors import _shown_value

PACKAGE = Path(alttab.__file__).parent
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

# Each reference construction with the module that used to define it.
MOVED = {
    "trees": (
        "_to_forest_by_cut",
        "_tree_rec",
        "_from_forest_by_block",
        "_from_tree_rec",
        "_binary_pair_by_divide",
        "_bin_rec",
        "_binary_pair_inv_by_block",
        "_from_bin_rec",
    ),
    "decomposition": ("_split_by_closure", "_divide_by_closure"),
    "permutations": ("word_to_tree", "_word_to_tree", "word_to_forest"),
    "enumeration": ("weight_poly_by_fillings", "all_perm_tableaux"),
}

EXPORTS = [
    "AltTableau", "ArcDiagram", "Arrow", "AsepParams", "BinAltTree", "CountTable",
    "DomainError", "FreeStats", "MarkedTableau", "ParseError", "PermTableau",
    "PlaneAltForest", "PlaneAltTree", "ResourceLimitError", "SignedPerm", "TableauError",
    "ValidationError", "all_tableaux", "all_via_perm", "arc_diagram", "arcs_to_forest",
    "asep_distribution", "binary_pair", "binary_pair_inv", "block", "chain_stationary",
    "closure", "count_table", "cut", "decorated_bijection", "decorated_bijection_inv",
    "decorated_count", "divide", "empty_tableau", "forest_to_arcs", "forest_word",
    "formula_report", "free_stats", "from_forest", "from_perm_tableau", "from_permutation",
    "from_signed_permutation", "from_tree", "insertion_steps", "is_decorated", "merge",
    "merge_all", "out_crossings", "packed_class", "parse_tableau", "perm_stats", "relabel",
    "render_tableau", "restrict", "split", "standard_tableau", "standardize",
    "symmetric_tableaux", "to_forest", "to_perm_tableau", "to_permutation",
    "to_permutation_by_insertion", "to_signed_permutation", "to_tree", "transpose",
    "validate_alt", "validate_perm_tableau", "weight_poly",
]


def _imports_oracles(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name == "alttab.oracles" for a in node.names)
    if isinstance(node, ast.ImportFrom):
        if node.module in ("oracles", "alttab.oracles"):
            return True
        return node.module in (None, "alttab") and any(a.name == "oracles" for a in node.names)
    return False


def test_only_checks_imports_the_oracles():
    importers = sorted(
        path.name
        for path in PACKAGE.glob("*.py")
        if any(map(_imports_oracles, ast.walk(ast.parse(path.read_text()))))
    )
    assert importers == ["checks.py"]


def _imported_modules(tree: ast.AST) -> list[str]:
    """The top-level name of every module an import in ``tree`` names, with
    relative imports as the package's own name."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names += [a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names.append("alttab" if node.level else node.module.partition(".")[0])
    return names


def test_the_package_imports_only_the_standard_library():
    imported = {
        path.name: set(_imported_modules(ast.parse(path.read_text())))
        for path in PACKAGE.glob("*.py")
    }
    assert len(imported) >= 12 and any("alttab" in names for names in imported.values())
    allowed = sys.stdlib_module_names | {"alttab"}
    outside = {name: sorted(names - allowed) for name, names in imported.items()}
    assert {name: names for name, names in outside.items() if names} == {}


def test_moved_oracles_are_gone_from_their_old_modules():
    count = 0
    for module, names in MOVED.items():
        old = importlib.import_module(f"alttab.{module}")
        for name in names:
            assert not hasattr(old, name), f"alttab.{module}.{name}"
            assert hasattr(oracles, name) or hasattr(oracles, name.lstrip("_")), name
            count += 1
    assert count == 15


def test_bijection_battery_walks_each_size_once(monkeypatch):
    walked = []

    def counting(n):
        walked.append(n)
        return real(n)

    real = checks.all_tableaux
    monkeypatch.setattr(checks, "all_tableaux", counting)
    results = checks.run_suite("bijections", 4)
    assert walked == [0, 1, 2, 3, 4]
    assert [c.name for c in results] == [name for name, _, _ in BIJECTIONS]
    assert all(c.passed for c in results)


def test_bijection_battery_builds_each_image_once_per_tableau(monkeypatch):
    walked = []
    real_walk = checks.all_tableaux

    def walking(n):
        for t in real_walk(n):
            walked.append(t)  # keeps every tableau alive, so ids stay distinct
            yield t

    monkeypatch.setattr(checks, "all_tableaux", walking)
    built = {"_to_forest": [], "_arc_diagram": [], "_binary_pair": []}
    for name, sources in built.items():
        real = getattr(trees, name)
        monkeypatch.setattr(
            trees, name, lambda t, real=real, sources=sources: sources.append(id(t)) or real(t)
        )
    assert all(c.passed for c in checks.run_suite("bijections", 5))
    assert len(walked) == 873  # (n+1)! tableaux for n <= 5
    for name, sources in built.items():
        assert sorted(sources) == sorted(map(id, walked)), name


def test_forests_validate_checks_each_forest_afresh(monkeypatch):
    # The forest remembered on a tableau is marked checked by the round trip
    # that decodes it, so the property checks a fresh copy: one run of the
    # plane-tree rules per tableau.
    inside, runs = [False], []
    real = trees._plane_violations
    monkeypatch.setattr(
        trees, "_plane_violations", lambda *args: runs.append(inside[0]) or real(*args)
    )

    def watched(name, prop):
        def run(t, memo):
            inside[0] = name == "forests validate"
            try:
                return prop(t, memo)
            finally:
                inside[0] = False

        return run

    battery = tuple((name, bound, watched(name, prop)) for name, bound, prop in BIJECTIONS)
    monkeypatch.setattr(checks, "BIJECTIONS", battery)
    assert all(c.passed for c in checks.run_suite("bijections", 5))
    assert runs.count(True) == 873  # (n+1)! tableaux for n <= 5


def test_count_battery_walks_each_size_once_per_generator(monkeypatch):
    walked = {"all_tableaux": [], "all_via_perm": []}
    for name, sizes in walked.items():
        real = getattr(checks, name)
        monkeypatch.setattr(
            checks, name, lambda n, real=real, sizes=sizes: sizes.append(n) or real(n)
        )
    # The oracles call ``fillings`` through their own binding, so a second
    # walk through them is counted too.
    filled = []
    real_fillings = enumeration.fillings
    counting = lambda word: filled.append(word) or real_fillings(word)  # noqa: E731
    monkeypatch.setattr(enumeration, "fillings", counting)
    monkeypatch.setattr(oracles, "fillings", counting)
    results = checks.run_suite("counts", 5)
    assert walked == {"all_tableaux": [0, 1, 2, 3, 4, 5], "all_via_perm": [0, 1, 2, 3, 4, 5]}
    assert sorted(filled) == sorted(w for n in range(6) for w in shape_words(n))
    assert len(filled) == 63
    assert len(results) == 44 and all(c.passed for c in results)


@pytest.mark.parametrize("n", range(6))
def test_all_gives_the_suites_run_alone(n):
    alone = [c for name in checks.SUITES for c in checks.run_suite(name, n)]
    assert checks.run_suite("all", n) == alone


@pytest.mark.parametrize("suite", ["all", "bijections", "counts", "asep", "series"])
def test_each_size_is_walked_once_and_its_statistics_worked_out_once(monkeypatch, suite):
    # Every suite that reads the walk, alone or under ``all``, shares one
    # walk of each size that fills the tallies; the series suite walks none,
    # and the walk carries the battery only when its suite is asked for.
    sizes = [] if suite == "series" else [0, 1, 2, 3, 4]
    tested = []
    battery = tuple(
        (name, bound, lambda t, memo, prop=prop: tested.append(t) or prop(t, memo))
        for name, bound, prop in BIJECTIONS
    )
    monkeypatch.setattr(checks, "BIJECTIONS", battery)
    walked: list[AltTableau] = []  # keeps every tableau alive, so ids stay distinct
    drawn = []
    real_walk = checks.all_tableaux

    def walking(n):
        drawn.append(n)
        for t in real_walk(n):
            walked.append(t)
            yield t

    worked_out: dict[int, int] = {}
    real_stats = core._free_stats

    def counting(t):
        worked_out[id(t)] = worked_out.get(id(t), 0) + 1
        return real_stats(t)

    monkeypatch.setattr(checks, "all_tableaux", walking)
    monkeypatch.setattr(enumeration, "all_tableaux", walking)
    monkeypatch.setattr(core, "_free_stats", counting)
    assert all(c.passed for c in checks.run_suite(suite, 4))
    assert drawn == sizes
    assert len(walked) == sum(math.factorial(n + 1) for n in sizes)
    assert all(worked_out.get(id(t)) == 1 for t in walked)
    assert bool(tested) == (suite in ("all", "bijections"))


@pytest.mark.parametrize(
    "suite",
    ["nope", None, "All", ["counts"], 3, "x" * 100],
    ids=["name", "none", "case", "list", "int", "long"],
)
def test_an_unknown_suite_is_refused_before_any_cap_or_walk(monkeypatch, suite):
    monkeypatch.setattr(checks, "check_cap", lambda *args: pytest.fail("checked a cap"))
    monkeypatch.setattr(checks, "_walk", lambda *args: pytest.fail("walked"))
    with pytest.raises(alttab.DomainError) as err:
        checks.run_suite(suite, 10**6)
    assert err.value.code == "bad-suite"
    known = "bijections, counts, series, asep, all"
    assert err.value.message == f"unknown suite {_shown_value(suite)}, not one of {known}"


def test_the_tallied_weights_equal_the_fillings_oracle():
    for n, tally in enumerate(checks._walk(6, ())[1]):
        words = list(shape_words(n))
        assert sorted(tally.by_word) == sorted(words)
        for w in words:
            assert tally.weight(w) == oracles.weight_poly_by_fillings(w), w


def test_a_failing_battery_leaves_every_count_and_asep_line(monkeypatch):
    # Every property fails on the first tableau, so the battery runs none
    # after it and the tallies work out every statistic themselves.
    suites = ("counts", "series", "asep")
    expected = [c.line() for name in suites for c in checks.run_suite(name, 4)]
    battery = tuple((name, bound, lambda t, memo: False) for name, bound, _ in BIJECTIONS)
    monkeypatch.setattr(checks, "BIJECTIONS", battery)
    lines = [c.line() for c in checks.run_suite("all", 4)]
    first = alttab.render_tableau(alttab.empty_tableau())
    assert lines[: len(BIJECTIONS)] == [
        f"{name} FAIL fails on {first}" for name, _, _ in BIJECTIONS
    ]
    assert lines[len(BIJECTIONS) :] == expected


def test_a_shared_memo_changes_no_oracle_result():
    # One memo per size for both oracles, as the battery shares it: the cut
    # oracle up to n = 6, the divide oracle up to n = 5.
    for n in range(7):
        memo: dict = {}
        for t in alttab.all_tableaux(n):
            assert oracles.to_forest_by_cut(t, memo) == oracles.to_forest_by_cut(t)
            if n <= 5:
                assert oracles.binary_pair_by_divide(t, memo) == oracles.binary_pair_by_divide(t)
        assert len(memo) > 0 or n == 0


def _holds_a_tableau(value) -> bool:
    if isinstance(value, AltTableau):
        return True
    return isinstance(value, (tuple, frozenset)) and any(map(_holds_a_tableau, value))


def test_the_memo_keeps_no_tableau_alive(monkeypatch):
    # A battery-style walk at n = 5 with one memo for both oracles: every
    # key is made of fields alone, and every tableau of the walk, and every
    # cut the oracles make of it, is freed when the calls return.
    real_cut = oracles.cut
    cuts: list[weakref.ref] = []

    def recording(t, axis):
        rest = real_cut(t, axis)
        cuts.append(weakref.ref(rest))
        return rest

    monkeypatch.setattr(oracles, "cut", recording)
    memo: dict = {}
    walked: list[weakref.ref] = []
    for t in alttab.all_tableaux(5):
        assert oracles.to_forest_by_cut(t, memo) == alttab.to_forest(t)
        assert oracles.binary_pair_by_divide(t, memo) == alttab.binary_pair(t)
        walked.append(weakref.ref(t))
    del t
    assert len(walked) == 720 and len(memo) == 876 and len(cuts) > 0
    assert not any(map(_holds_a_tableau, memo))
    assert [ref for ref in walked + cuts if ref() is not None] == []


def test_the_generator_sets_compare_labels(monkeypatch):
    # One tableau of the permutation generator, moved up by one label, has
    # the word and arrows of the one it replaces, so only the set check sees it.
    real = checks.all_via_perm

    def shifted(n):
        walk = real(n)
        if n == 3:
            t = next(walk)
            yield relabel(t, [l + 1 for l in t.labels])
        yield from walk

    monkeypatch.setattr(checks, "all_via_perm", shifted)
    failed = [c.line() for c in checks.run_suite("counts", 4) if not c.passed]
    assert failed == ["generator sets agree at n=3 FAIL"]


def test_a_wrong_total_fails_its_count_line(monkeypatch):
    real = checks.count_table

    def padded(n):
        table = real(n)
        return alttab.CountTable(n, {**table.counts, (9, 9, 9): 1}) if n == 2 else table

    monkeypatch.setattr(checks, "count_table", padded)
    lines = [c.line() for c in checks.run_suite("counts", 3)]
    assert "A(2)=7 FAIL expected 6" in lines
    assert "A(3)=24 PASS" in lines


def test_a_crossing_fails_the_crossing_line_on_the_first_free_cell_free_tableau(monkeypatch):
    # Every diagram of four or more points crosses: the first tableau of the
    # walk of length 2 or more with no free cell is the counterexample.
    real = checks.crossings
    monkeypatch.setattr(
        checks, "crossings", lambda d: frozenset({(1, 2)}) if len(d.points) > 3 else real(d)
    )
    first = next(
        t for n in range(2, 4) for t in alttab.all_tableaux(n) if not alttab.free_stats(t).fcell
    )
    lines = [c.line() for c in checks.run_suite("counts", 3) if not c.passed]
    assert lines == [
        f"free-cell-free diagrams have no crossings FAIL fails on {alttab.render_tableau(first)}"
    ]


@pytest.mark.parametrize(
    "rec, name, roots, kids",
    [
        (
            "_tree_rec",
            "forest equals the cut/split construction",
            lambda t: alttab.to_forest(t).trees,
            trees._plane_kids,
        ),
        (
            "_bin_rec",
            "binary pair equals the divide construction",
            lambda t: [b for b in alttab.binary_pair(t) if b is not None],
            trees._bin_kids,
        ),
    ],
    ids=["cut", "divide"],
)
def test_a_wrong_root_label_still_fails_the_battery(monkeypatch, capsys, rec, name, roots, kids):
    # Each subproblem of two labels gets its root label raised by 100, when
    # it is solved and when it is served from the memo, so the first tableau
    # of the walk whose image has a subtree of two nodes is the counterexample.
    real = getattr(oracles, rec)

    def wrong(t, *args):
        tree = real(t, *args)
        return dataclasses.replace(tree, label=tree.label + 100) if len(t) == 2 else tree

    monkeypatch.setattr(oracles, rec, wrong)
    first = next(
        t
        for n in range(5)
        for t in alttab.all_tableaux(n)
        if any(node.size() == 2 for node in decomposition._postorder(roots(t), kids))
    )
    assert main(["verify", "--suite", "bijections", "--n", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "FAIL" in line] == [
        f"{name} FAIL fails on {alttab.render_tableau(first)}"
    ]


@pytest.mark.parametrize("raises", [False, True])
def test_the_battery_empties_each_memo_after_its_size(monkeypatch, raises):
    # Every memo the battery hands the cut oracle, and its largest size.
    memos: dict[int, dict] = {}
    largest: dict[int, int] = {}
    real = checks.to_forest_by_cut

    def recording(t, memo):
        if raises and len(t) == 3 and memo:
            raise RuntimeError("a property raised")
        memos[id(memo)] = memo
        forest = real(t, memo)
        largest[id(memo)] = max(largest.get(id(memo), 0), len(memo))
        return forest

    monkeypatch.setattr(checks, "to_forest_by_cut", recording)
    if raises:
        with pytest.raises(RuntimeError):
            checks.run_suite("bijections", 4)
    else:
        assert all(c.passed for c in checks.run_suite("bijections", 4))
    assert len(memos) == (4 if raises else 5)  # one per size, sizes 0..3 or 0..4
    assert max(largest.values()) > 0
    assert all(not memo for memo in memos.values())


def test_the_formula_report_lives_in_checks_only():
    for name in ("FormulaCheck", "FormulaReport", "formula_report"):
        assert not hasattr(enumeration, name), f"alttab.enumeration.{name}"
        assert hasattr(checks, name), name
    assert alttab.formula_report is checks.formula_report


def test_bijection_battery_reports_each_first_counterexample(monkeypatch):
    # A transpose that breaks on every tableau with two arrows or more fails
    # one check, at the first such tableau of the walk, and no other.
    real = checks.transpose
    broken = lambda t: alttab.empty_tableau() if len(t.arrows) >= 2 else real(t)  # noqa: E731
    monkeypatch.setattr(checks, "transpose", broken)
    first = next(t for n in range(5) for t in alttab.all_tableaux(n) if len(t.arrows) >= 2)
    failed = [c for c in checks.run_suite("bijections", 4) if not c.passed]
    assert [(c.name, c.detail) for c in failed] == [
        ("transposition is an involution", f"fails on {alttab.render_tableau(first)}")
    ]


def test_the_battery_draws_at_most_one_block_ahead(monkeypatch):
    # The k-th tableau drawn (from 1) is seen by a property while at most
    # one block beyond it has been drawn, so no size is ever listed whole.
    drawn = [0]
    index: dict[int, int] = {}
    kept = []  # keeps every tableau alive, so ids stay distinct
    real_walk = checks.all_tableaux

    def counting(n):
        for t in real_walk(n):
            drawn[0] += 1
            index[id(t)] = drawn[0]
            kept.append(t)
            yield t

    ahead = []

    def watched(prop):
        return lambda t, memo: ahead.append(drawn[0] - index[id(t)]) or prop(t, memo)

    battery = tuple((name, bound, watched(prop)) for name, bound, prop in BIJECTIONS)
    monkeypatch.setattr(checks, "all_tableaux", counting)
    monkeypatch.setattr(checks, "BIJECTIONS", battery)
    assert all(c.passed for c in checks.run_suite("bijections", 5))
    assert drawn[0] == 873 and len(ahead) == 16 * 873
    assert 0 <= min(ahead) and max(ahead) == checks._BLOCK - 1


def test_each_property_reports_its_first_failure_across_blocks(monkeypatch):
    # At n = 5 the walk's tableaux 10 and 100 lie in different blocks; one
    # property fails on both, another only on tableaux past the first block.
    walk = list(alttab.all_tableaux(5))
    assert 10 // checks._BLOCK != 100 // checks._BLOCK
    failing = {
        "transposition is an involution": {walk[100], walk[10]},
        "forests validate": {walk[200], walk[100]},
    }
    seen = {name: [] for name in failing}

    def failing_on(name, prop):
        def patched(t, memo):
            if name not in failing:
                return prop(t, memo)
            seen[name].append(t)
            return t not in failing[name] and prop(t, memo)

        return patched

    battery = tuple((name, bound, failing_on(name, prop)) for name, bound, prop in BIJECTIONS)
    monkeypatch.setattr(checks, "BIJECTIONS", battery)
    failed = [(c.name, c.detail) for c in checks.run_suite("bijections", 5) if not c.passed]
    assert failed == [
        ("transposition is an involution", f"fails on {alttab.render_tableau(walk[10])}"),
        ("forests validate", f"fails on {alttab.render_tableau(walk[100])}"),
    ]
    # A property that has failed is not run again.
    assert seen["transposition is an involution"][-1] == walk[10]
    assert seen["forests validate"][-1] == walk[100]


def test_public_names_are_pinned():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    names = sorted(
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    )
    assert names == EXPORTS
    assert all(hasattr(alttab, name) for name in EXPORTS)


def test_the_benchmark_traces_public_names_where_they_are_defined():
    # The benchmark's tracer wraps the public functions and classes each
    # module defines and its per-layer metrics name them, so a traced name
    # that moves or turns private makes every traced run raise KeyError.
    names = [m["name"].split(".") for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    traced = [name for name in names if name[0] != "trace"]
    assert len(traced) > 40
    for layer, *path, stat in traced:
        module = importlib.import_module(f"alttab.{layer}")
        if not path:
            continue  # a whole layer
        obj = module
        for part in path:
            assert not part.startswith("_"), path
            obj = vars(obj)[part]
        assert vars(module)[path[0]].__module__ == module.__name__, path
        if stat == "new":
            assert inspect.isclass(obj) and "__init__" in vars(obj), path
        elif stat == "yielded":
            assert inspect.isgeneratorfunction(obj), path
        else:
            assert inspect.isfunction(obj), path


# The only functions that may build a tableau without the constructor's
# checks: each one's labels, word and arrows hold by construction.
ASSEMBLERS = {
    ("core", "validate_alt"),
    ("core", "transpose"),
    ("core", "_mirrored"),
    ("core", "relabel"),
    ("core", "from_perm_tableau"),
    ("decomposition", "cut"),
    ("decomposition", "block"),
    ("decomposition", "restrict"),
    ("decomposition", "_parts"),
    ("decomposition", "merge_all"),
    ("decomposition", "_tableau_from_edges"),
    ("enumeration", "all_tableaux"),
}


class _Uses(ast.NodeVisitor):
    """Where a name is read: the innermost enclosing function of each use
    (``None`` at module level) and whether the module imports it."""

    def __init__(self, name: str):
        self.name = name
        self.scope: list[str] = []
        self.found: set[str | None] = set()
        self.imported = False

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    def _use(self) -> None:
        self.found.add(self.scope[-1] if self.scope else None)

    def visit_Name(self, node: ast.Name) -> None:
        if node.id == self.name:
            self._use()

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr == self.name:
            self._use()
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        self.imported |= any(a.name == self.name for a in node.names)


def test_only_the_listed_builders_skip_the_constructor_checks():
    uses: set[tuple[str, str | None]] = set()
    importers = set()
    for path in PACKAGE.glob("*.py"):
        visitor = _Uses("_assembled")
        visitor.visit(ast.parse(path.read_text()))
        uses |= {(path.stem, where) for where in visitor.found}
        if visitor.imported:
            importers.add(path.stem)
    assert uses == ASSEMBLERS
    assert importers == {"decomposition", "enumeration"}
    assert "_assembled" not in EXPORTS and not hasattr(alttab, "_assembled")


def test_only_the_walk_driver_draws_every_tableau():
    # Every suite of ``checks`` reads the exhaustive walk through ``_walk``.
    visitor = _Uses("all_tableaux")
    visitor.visit(ast.parse((PACKAGE / "checks.py").read_text()))
    assert visitor.found == {"_walk"}


def test_one_path_runs_every_suite():
    # Only ``run_suite`` walks, and ``SUITES`` is the one table keyed by
    # suite name, so a suite run alone and under ``all`` take one path.
    tree = ast.parse((PACKAGE / "checks.py").read_text())
    visitor = _Uses("_walk")
    visitor.visit(tree)
    assert visitor.found == {"run_suite"}
    keyed = [
        ast.unparse(stmt.targets[0] if isinstance(stmt, ast.Assign) else stmt.target)
        for stmt in tree.body
        if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        and isinstance(stmt.value, ast.Dict)
        and any(isinstance(k, ast.Constant) and k.value in checks.SUITES for k in stmt.value.keys)
    ]
    assert keyed == ["SUITES"]


def _scopes(tree: ast.AST) -> dict[str, list[ast.AST]]:
    """The nodes of each function of a module by qualified name, ``""`` for
    the module's own code; a function's nodes leave out those of the
    functions defined in it."""
    scopes: dict[str, list[ast.AST]] = {}

    def visit(node: ast.AST, scope: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                inner = name if not isinstance(child, ast.ClassDef) else scope
                visit(child, inner, name + ".")
            else:
                scopes.setdefault(scope, []).append(child)
                visit(child, scope, prefix)

    visit(tree, "", "")
    return scopes


def _sites(found) -> set[tuple[str, str]]:
    """Each (module, function) of the package with a node for which
    ``found(node, nodes of its function)`` holds."""
    return {
        (path.stem, scope)
        for path in sorted(PACKAGE.glob("*.py"))
        for scope, nodes in _scopes(ast.parse(path.read_text())).items()
        if any(found(node, nodes) for node in nodes)
    }


def test_one_integer_test():
    # ``errors._integral`` is the integer test; ``SignedPerm`` keeps its own,
    # which accepts ``bool``.
    def type_is_int(node, _) -> bool:
        return (
            isinstance(node, ast.Compare)
            and ast.unparse(node.left).startswith("type(")
            and any(ast.unparse(c) == "int" for c in node.comparators)
        )

    assert _sites(type_is_int) == {
        ("errors", "_integral"),
        ("permutations", "SignedPerm.__post_init__"),
    }


def test_one_postorder_walk():
    # The walk that fills a list on a stack and reverses it is written once.
    def filled_in_a_while_loop(nodes) -> set[str]:
        return {
            call.func.value.id
            for loop in nodes
            if isinstance(loop, ast.While)
            for call in ast.walk(loop)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute)
            and call.func.attr in ("append", "extend")
            and isinstance(call.func.value, ast.Name)
        }

    def reverses_a_filled_list(node, nodes) -> bool:
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            name = ast.unparse(node.func.value) if node.func.attr == "reverse" else None
        elif isinstance(node, ast.Subscript) and ast.unparse(node.slice) == "::-1":
            name = ast.unparse(node.value)
        else:
            return False
        return name in filled_in_a_while_loop(nodes)

    assert _sites(reverses_a_filled_list) == {("decomposition", "_postorder")}


def test_no_module_raises_assertion_error():
    # A validator that reports a failure is the authority on it: no decoder
    # guards it with an error of its own.
    raised = [
        (path.stem, node.lineno)
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise)
        and node.exc is not None
        and "AssertionError" in {n.id for n in ast.walk(node.exc) if isinstance(n, ast.Name)}
    ]
    assert raised == []


def _self_calls(tree: ast.AST) -> set[str]:
    """Every function in ``tree`` that calls itself by name, with calls in
    nested functions counted for the nested function only."""
    found = set()

    def visit(node: ast.AST, scope: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Name)
                and child.func.id == scope
            ):
                found.add(scope)
            visit(child, scope)

    visit(tree, None)
    return found


# The only recursive functions: the paper's reference constructions, bounded
# by ``oracles.RECURSION_BOUND``, and the filling backtracker, whose depth is
# the cell count that the enumeration cap bounds.
RECURSIVE = {
    ("oracles", "_tree_rec"),
    ("oracles", "_from_tree_rec"),
    ("oracles", "_bin_rec"),
    ("oracles", "_from_bin_rec"),
    ("oracles", "_word_to_tree"),
    ("oracles", "place"),
    ("enumeration", "place"),
}


def test_no_production_function_recurses():
    recursive = {
        (path.stem, name)
        for path in PACKAGE.glob("*.py")
        for name in _self_calls(ast.parse(path.read_text()))
    }
    assert recursive == RECURSIVE


@pytest.mark.parametrize("color", ["B", "W"])
def test_a_big_terminal_letter_is_a_domain_error(color):
    # The letter and the word are shown as error messages show numbers.
    word = (10**5000, 0) if color == "B" else (0, 10**5000)
    with pytest.raises(alttab.DomainError) as err:
        oracles.word_to_tree(word, color)
    assert err.value.code == "bad-terminal-letter"
    assert "<a number too long to print>" in str(err.value)


def test_the_empty_word_encodes_no_tree():
    with pytest.raises(alttab.DomainError) as err:
        oracles.word_to_tree((), "W")
    assert str(err.value) == "bad-terminal-letter: empty word encodes no tree"


def test_recursive_oracles_refuse_beyond_their_bound():
    t = alttab.standard_tableau("D" * (oracles.RECURSION_BOUND + 1))
    word = tuple(range(oracles.RECURSION_BOUND + 2))
    for oracle, *args in [
        (oracles.to_forest_by_cut, t),
        (oracles.from_forest_by_block, alttab.to_forest(t)),
        (oracles.binary_pair_by_divide, t),
        (oracles.binary_pair_inv_by_block, alttab.binary_pair(t)),
        (oracles.word_to_tree, word[::-1], "W"),
        (oracles.word_to_forest, word),
    ]:
        with pytest.raises(alttab.ResourceLimitError, match=f"oracle {oracle.__name__} "):
            oracle(*args)
