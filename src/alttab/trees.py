"""Tree and arc-diagram encodings of alternative tableaux.

Three equivalent pictures of the recursive decomposition:

* plane alternative trees/forests: bicolored labeled plane trees where white
  vertices are minimal with black children in decreasing label order and
  black vertices are maximal with white children in increasing order;
* alternative arc diagrams: points 0..n+1 with one arc per arrow cell plus
  virtual arcs to 0 (free columns) and n+1 (free rows) and the arc (0, n+1);
* binary alternative trees: left children maximal, right children minimal.

All three are read straight off the arrows: the forest edges are the arrow
cells and its roots the free lines (``decomposition._arrow_forest``), and the
binary pair is the forest's first-child/next-sibling form.

Each decoder lists its input once and takes both its check and its output
from that one listing.  The rules of a plane tree are stated once, in
:func:`_plane_violations`, and those of a binary tree in
:func:`_bin_violations`: one bottom-up pass over a listing of the nodes.
``from_forest`` runs it on its preorder listing of the nodes (only when the
forest's pass is not remembered) and reads the edges off the same listing,
and ``from_tree`` is ``from_forest`` of the one-tree forest;
``binary_pair_inv`` lists both trees once, each node with the kind it must
have and its parent in the forest; ``arcs_to_forest`` lists the points once,
makes the nodes bottom-up and runs the pass on the list of nodes it made.
Only a failing input is listed again, to report its violations.  The
builders (``to_forest``, ``binary_pair``, ``arcs_to_forest``, unpickling)
make nodes through :func:`_plane_node` and :func:`_bin_node`, which set the
fields without the dataclass constructor.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import lt
from typing import Callable, Container, Iterable, Mapping

from .core import _NUMBER, _NUMBER_RE, _VALID, AltTableau, _check_text, _parse_int, _remembered, _shown
from .decomposition import Node, _arrow_forest, _postorder, _tableau_from_edges
from .errors import DomainError, ParseError, ValidationError, Violation, _shown_number, _shown_value

WHITE = "W"
BLACK = "B"

MIN_ROOTED = "min"
MAX_ROOTED = "max"

_new = object.__new__
_set = object.__setattr__


def _flat_text(root: object, parts: Callable[[Node], list]) -> str:
    """The text of a tree whose nodes spell as ``parts(node)``, a list of
    strings and child nodes; open nodes wait on a stack, not the call stack."""
    out: list[str] = []
    stack = [root]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(parts(item)))
    return "".join(out)


class _Hashed:
    """Stands in for a child whose hash is known, so that hashing a node's
    fields calls no ``__hash__`` below it."""

    __slots__ = ("value",)

    def __init__(self, value: int):
        self.value = value

    def __hash__(self) -> int:
        return self.value


def _hashed(*fields: object) -> _Hashed:
    """A node maker for :func:`_plane_tree` and :func:`_bin_tree` whose node
    is the stand-in of the dataclass hash ``hash(fields)``."""
    return _Hashed(hash(fields))


def _plane_kids(node: PlaneAltTree) -> tuple[PlaneAltTree, ...]:
    return node.children


def _plane_node(color: str, label: int, children: tuple[PlaneAltTree, ...]) -> PlaneAltTree:
    """``PlaneAltTree(color, label, children)``, its fields set without the
    dataclass constructor, as ``core._assembled`` sets a tableau's: only for
    builders, whose ``children`` is a tuple of nodes."""
    node = _new(PlaneAltTree)
    _set(node, "color", color)
    _set(node, "label", label)
    _set(node, "children", children)
    return node


def _plane_key(t: PlaneAltTree) -> list[tuple[str, int, int]]:
    """The (color, label, number of children) of every node, in postorder."""
    return [(n.color, n.label, len(n.children)) for n in _postorder((t,), _plane_kids)]


def _plane_tree(key: list[tuple[str, int, int]], make: Callable = _plane_node):
    """The tree of a :func:`_plane_key`, each node made as
    ``make(color, label, children)``."""
    built: list = []
    for color, label, count in key:
        cut = len(built) - count
        kids = tuple(built[cut:])
        del built[cut:]
        built.append(make(color, label, kids))
    return built.pop()


class _TreeValue:
    """``==``, ``hash``, ``pickle``, ``copy``, ``labels`` and ``size`` of both
    tree types, read off each class's ``_kids``, ``_key`` and ``_tree``.

    A tree value's key is the flat list of its nodes in postorder, each node
    as its fields with its children given by their number (plane trees) or
    by whether each is there (binary trees): the list describes the tree
    completely.  ``==`` compares keys; ``hash`` folds the key bottom-up into
    the hash the dataclass would generate; ``pickle`` and ``copy`` rebuild the
    tree from it with a stack, through ``_tree``.  So none of them recurses,
    at any depth.  Each class spells out the dataclass ``repr`` with a stack.
    """

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return self._tree(self._key(self), _hashed).value

    def __reduce__(self) -> tuple:
        return self._tree, (self._key(self),)

    def labels(self) -> frozenset[int]:
        return frozenset(node.label for node in _postorder((self,), self._kids))

    def size(self) -> int:
        return len(_postorder((self,), self._kids))


@dataclass(frozen=True, eq=False, repr=False)
class PlaneAltTree(_TreeValue):
    color: str  # WHITE or BLACK
    label: int
    children: tuple[PlaneAltTree, ...] = ()

    _kids = staticmethod(_plane_kids)
    _key = staticmethod(_plane_key)
    _tree = staticmethod(_plane_tree)

    def __repr__(self) -> str:
        def parts(n: PlaneAltTree) -> list:
            kids = [x for c in n.children for x in (", ", c)][1:]
            close = ",))" if len(n.children) == 1 else "))"
            name = type(n).__qualname__
            return [f"{name}(color={n.color!r}, label={n.label!r}, children=(", *kids, close]

        return _flat_text(self, parts)


@dataclass(frozen=True)
class PlaneAltForest:
    """Set of plane alternative trees; stored sorted by root label."""

    trees: tuple[PlaneAltTree, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "trees", tuple(sorted(self.trees, key=lambda t: t.label)))

    def labels(self) -> frozenset[int]:
        return frozenset(node.label for node in _postorder(self.trees, _plane_kids))

    def size(self) -> int:
        return len(_postorder(self.trees, _plane_kids))


def validate_tree(t: PlaneAltTree) -> None:
    """Check labels, colors, extremality and child ordering; raises listing
    violations.  Labels must be distinct and non-negative.

    Nodes are checked in preorder; the children of a node with a bad color
    are not checked.  One preorder listing of the nodes checked, then one
    bottom-up pass over it (:func:`_plane_violations`).
    """
    order, kinds, _ = _plane_listing((t,))
    repeats: set[int] = set()  # positions, counted from the end of ``order``
    if len(kinds) != len(order):
        seen: set[int] = set()
        last = len(order) - 1
        for k, node in enumerate(order):
            if node.label in seen:
                repeats.add(last - k)
            seen.add(node.label)
    bad = _plane_violations(reversed(order), repeats)
    if bad:
        raise ValidationError(bad)


def validate_forest(f: PlaneAltForest) -> None:
    """Check that the trees share no label and each is valid.

    Runs the check once per forest: a pass is remembered in ``f.__dict__``
    (outside the dataclass field), a failure is not.  The check is the one
    the decoders run (:func:`_forest_edges`).
    """
    if _VALID not in f.__dict__:
        _forest_edges(f)


def _plane_listing(
    trees: tuple[PlaneAltTree, ...],
) -> tuple[list[PlaneAltTree], dict[int, str], list[tuple[int, int]]]:
    """The nodes :func:`validate_tree` checks (none below a node of bad
    color), in preorder; each listed label's step (``D`` white, ``E``
    otherwise), so labels repeat when there are fewer steps than nodes; and
    the (parent, child) edges."""
    order: list[PlaneAltTree] = []
    kinds: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    stack = list(trees[::-1])
    while stack:
        node = stack.pop()
        order.append(node)
        label, color, kids = node.label, node.color, node.children
        if color == WHITE:
            kinds[label] = "D"
        else:
            kinds[label] = "E"
            if color != BLACK:
                continue
        for c in reversed(kids):
            edges.append((label, c.label))
            stack.append(c)
    return order, kinds, edges


def _forest_edges(f: PlaneAltForest) -> tuple[dict[int, str], list[tuple[int, int]]]:
    """Each label's step and the (parent, child) edges of ``f``, read off one
    listing of its nodes: the one statement of the forest rule.  Unless a
    pass is remembered, the same listing is checked first (distinct labels,
    then the shared pass), and a pass is remembered.  A forest that fails is
    listed again only to report it: a label in two trees, else the
    violations of its first failing tree."""
    order, kinds, edges = _plane_listing(f.trees)
    if _VALID not in f.__dict__:
        if len(kinds) != len(order) or _plane_violations(reversed(order)):
            tree_of: dict[int, int] = {}
            for k, t in enumerate(f.trees):
                for node in _postorder((t,), _plane_kids):
                    if tree_of.setdefault(node.label, k) != k:
                        raise ValidationError([Violation("duplicate-label", "trees share labels")])
            for t in f.trees:
                validate_tree(t)
        f.__dict__[_VALID] = True
    return kinds, edges


def _plane_violations(
    bottom_up: Iterable[PlaneAltTree], repeats: Container[int] = ()
) -> list[Violation]:
    """Every violation of the nodes :func:`validate_tree` checks, given as a
    preorder listing reversed; they are reported in preorder.  ``repeats``
    are the positions in ``bottom_up`` of the labels listed earlier.  The one
    statement of the plane-tree rules: every check of a tree or forest runs
    it, and :func:`arcs_to_forest` runs it on the nodes it has just made.

    One bottom-up pass: each node comes right after its subtrees, so the
    smallest and largest labels of its children's subtrees are on top of a
    stack.  The subtree below a node of bad color is read in full for its
    extremes.  Each node's violations are found last check first, since the
    list is reversed at the end.
    """
    found: list[Violation] = []

    def bad(code: str, before: str, after: str = "") -> None:  # the node's label in between
        found.append(Violation(code, f"{before}{_shown_number(label)}{after}"))

    spans: list[tuple[int, int]] = []  # (smallest, largest) label of each subtree
    for k, node in enumerate(bottom_up):
        label, color, kids = node.label, node.color, node.children
        lo = hi = label
        if color != WHITE and color != BLACK:
            bad("bad-color", f"color {_shown_value(color)} at ")
            for below in _postorder(kids, _plane_kids):
                lo, hi = min(lo, below.label), max(hi, below.label)
        elif kids:
            kid_lo, kid_hi = spans.pop()
            for _ in range(len(kids) - 1):
                c_lo, c_hi = spans.pop()
                if c_lo < kid_lo:
                    kid_lo = c_lo
                if c_hi > kid_hi:
                    kid_hi = c_hi
            if kid_lo < lo:
                lo = kid_lo
            if kid_hi > hi:
                hi = kid_hi
            if color == WHITE:
                if kid_lo <= label:
                    bad("not-minimal", "white ", " is not minimal")
                if len(kids) > 1:
                    for a, b in zip(kids, kids[1:]):
                        if a.label <= b.label:
                            bad("bad-order", "children of white ", " not decreasing")
                            break
                for c in kids:
                    if c.color != BLACK:
                        bad("bad-color", "white ", " has a white child")
                        break
            else:
                if kid_hi >= label:
                    bad("not-maximal", "black ", " is not maximal")
                if len(kids) > 1:
                    for a, b in zip(kids, kids[1:]):
                        if a.label >= b.label:
                            bad("bad-order", "children of black ", " not increasing")
                            break
                for c in kids:
                    if c.color != WHITE:
                        bad("bad-color", "black ", " has a black child")
                        break
        spans.append((lo, hi))
        if label < 0:
            bad("label-order", "negative label ")
        if k in repeats:
            bad("duplicate-label", "label ", " repeats")
    found.reverse()
    return found


def _colors(t: AltTableau) -> dict[int, str]:
    return {l: WHITE if c == "D" else BLACK for l, c in zip(t.labels, t.word)}


def _plane_trees(
    roots: list[int], children: Mapping[int, list[int]], color: Mapping[int, str]
) -> tuple[PlaneAltTree, ...]:
    """Build the trees below ``roots`` bottom-up, in the forest's postorder."""
    built: dict[int, PlaneAltTree] = {}
    for label in _postorder(roots, children.__getitem__):
        kids = children[label]
        built[label] = _plane_node(color[label], label, tuple(map(built.pop, kids)) if kids else ())
    return tuple(built[r] for r in roots)


def to_tree(t: AltTableau) -> PlaneAltTree:
    """Encode a packed tableau as a plane alternative tree.

    A row-packed tableau becomes a white root carrying its top-row label with
    the components of the cut tableau as subtrees; column-packed dually.
    """
    children, roots = _arrow_forest(t)
    if len(roots) != 1:
        raise DomainError("not-packed", "tableau is not packed")
    return _plane_trees(roots, children, _colors(t))[0]


def from_tree(tree: PlaneAltTree) -> AltTableau:
    """Inverse of :func:`to_tree`: :func:`from_forest` of the one-tree forest."""
    return from_forest(PlaneAltForest((tree,)))


def to_forest(t: AltTableau) -> PlaneAltForest:
    """One tree per packed component of the tableau, built once per tableau
    and remembered on it."""
    return _remembered(t, "_forest", _to_forest)


def _to_forest(t: AltTableau) -> PlaneAltForest:
    children, roots = _arrow_forest(t)
    return PlaneAltForest(_plane_trees(roots, children, _colors(t)))


def from_forest(f: PlaneAltForest) -> AltTableau:
    """Inverse of :func:`to_forest`: the forest edges become the arrows."""
    return _tableau_from_edges(*_forest_edges(f))


# ---------------------------------------------------------------------------
# Arc diagrams


@dataclass(frozen=True)
class ArcDiagram:
    points: tuple[int, ...]
    arcs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "arcs", tuple(sorted(self.arcs)))


def validate_arc_diagram(d: ArcDiagram) -> None:
    """Check the three defining conditions: in/out exclusivity, tree shape,
    and every non-extremal arc topmost on exactly one side.

    Runs the check once per diagram: a pass is remembered in ``d.__dict__``,
    a failure is not.
    """
    if _VALID in d.__dict__:
        return
    bad: list[Violation] = []
    points = d.points
    if not all(map(lt, points, points[1:])):
        raise ValidationError([Violation("bad-points", "points not strictly increasing")])
    pset = set(points)
    for i, j in d.arcs:
        if i >= j or i not in pset or j not in pset:
            bad.append(Violation("bad-arc", f"arc {_shown_number((i, j))} off the points"))
    if bad:
        raise ValidationError(bad)
    outs = {i for i, _ in d.arcs}
    ins = {j for _, j in d.arcs}
    for p in sorted(outs & ins):
        detail = f"point {_shown_number(p)} has both incoming and outgoing arcs"
        bad.append(Violation("in-and-out", detail))
    # Tree on the whole point set: one arc fewer than points, and connected,
    # that is, every arc joins two parts (union-find, halving the paths).
    if len(d.arcs) != len(points) - 1:
        bad.append(Violation("not-a-tree", f"{len(d.arcs)} arcs on {len(points)} points"))
    else:
        part = {p: p for p in points}
        unions = 0
        for i, j in d.arcs:  # i and j climb to the roots of their parts
            while part[i] != i:
                part[i] = i = part[part[i]]
            while part[j] != j:
                part[j] = j = part[part[j]]
            if i != j:
                part[i] = j
                unions += 1
        if unions != len(d.arcs):
            bad.append(Violation("not-a-tree", "arcs do not connect all points"))
    if points:
        extremal = (points[0], points[-1])
        right, left = _extreme_ends(d)
        for i, j in d.arcs:
            if (i, j) == extremal:
                continue
            sides = int(right[i] == j) + int(left[j] == i)
            if sides != 1:
                detail = f"arc {_shown_number((i, j))} is topmost on {sides} sides, expected 1"
                bad.append(Violation("topmost", detail))
    if bad:
        raise ValidationError(bad)
    d.__dict__[_VALID] = True


def _extreme_ends(d: ArcDiagram) -> tuple[dict[int, int], dict[int, int]]:
    """Each point's largest right end and smallest left end.

    An arc (i, j) is topmost at its left end when j is the largest right end
    of i, and topmost at its right end when i is the smallest left end of j.
    """
    # The arcs are sorted, so the last arc written for an end wins.
    right = {i: j for i, j in d.arcs}
    left = {j: i for i, j in reversed(d.arcs)}
    return right, left


def arc_diagram(t: AltTableau) -> ArcDiagram:
    """Direct arc encoding on points 0..n+1 (general labels are standardized).

    Arrow cells give arcs, free columns attach to 0, free rows to n+1, and
    the arc (0, n+1) is always present.  Built once per tableau and
    remembered on it.
    """
    return _remembered(t, "_arc_diagram", _arc_diagram)


def _arc_diagram(t: AltTableau) -> ArcDiagram:
    _, roots = _arrow_forest(t)
    n = len(t)
    rank = {l: k for k, l in enumerate(t.labels, 1)}
    kinds = t.kind_of
    arcs = [(rank[a.row], rank[a.col]) for a in t.arrows]
    arcs.extend((0, rank[r]) if kinds[r] == "E" else (rank[r], n + 1) for r in roots)
    arcs.append((0, n + 1))
    return ArcDiagram(tuple(range(n + 2)), tuple(arcs))


def forest_to_arcs(f: PlaneAltForest) -> ArcDiagram:
    """Arc encoding of a forest on labels 1..n: tree edges plus virtual arcs."""
    kinds, edges = _forest_edges(f)
    labels = sorted(kinds)
    n = len(labels)
    if labels != list(range(1, n + 1)):
        raise DomainError("label-gap", f"labels {_shown_number(labels)} are not 1..{n}")
    arcs: list[tuple[int, int]] = [(0, n + 1)]
    arcs.extend((0, t.label) if t.color == BLACK else (t.label, n + 1) for t in f.trees)
    arcs.extend((min(e), max(e)) for e in edges)
    return ArcDiagram(tuple(range(n + 2)), tuple(arcs))


def arcs_to_forest(d: ArcDiagram) -> PlaneAltForest:
    """Inverse of :func:`forest_to_arcs`: drop the virtual arcs and recolor.

    A point is white when all its arcs leave to the right, black otherwise;
    points that were tied to 0 or n+1 become roots.  The points are listed in
    preorder once; the nodes are made bottom-up in that order and the shared
    pass runs on the list of them, so the forest comes out checked without a
    second walk.
    """
    validate_arc_diagram(d)
    points = d.points
    if len(points) < 2:
        raise DomainError("bad-points", "diagram needs at least the two virtual points")
    lo, hi = points[0], points[-1]
    color = dict.fromkeys(points[1:-1], BLACK)
    neighbors: dict[int, list[int]] = {p: [] for p in color}
    roots = []
    for i, j in d.arcs:
        if i == lo:
            if j != hi:
                roots.append(j)
            continue
        color[i] = WHITE  # i has an outgoing arc
        if j == hi:
            roots.append(i)
        else:
            neighbors[i].append(j)
            neighbors[j].append(i)
    # A valid diagram holds the arc (lo, hi), so each part of the forest is
    # tied to lo or hi once: one root each, and a node's children are its
    # neighbors less its parent, which is taken off their lists as each is
    # reached.  The arcs are sorted, so each point's neighbors come in
    # increasing order.
    roots.sort()
    order = []
    stack = roots[::-1]
    while stack:  # preorder
        p = stack.pop()
        order.append(p)
        kids = neighbors[p]
        if color[p] == WHITE:
            kids.reverse()
        for q in kids:
            neighbors[q].remove(p)
        stack.extend(reversed(kids))
    built: dict[int, PlaneAltTree] = {}
    made = []
    for p in reversed(order):
        kids = neighbors[p]
        node = built[p] = _plane_node(color[p], p, tuple(map(built.pop, kids)) if kids else ())
        made.append(node)
    forest = PlaneAltForest(tuple(map(built.pop, roots)))
    if _plane_violations(made):  # the points are distinct labels
        validate_forest(forest)
    forest.__dict__[_VALID] = True
    return forest


def crossings(d: ArcDiagram) -> frozenset[tuple[int, int]]:
    """All crossing pairs, reported as the middle pair (i, j)."""
    out = set()
    for a in d.arcs:
        for b in d.arcs:
            if a[0] < b[0] < a[1] < b[1]:
                out.add((b[0], a[1]))
    return frozenset(out)


def out_crossings(d: ArcDiagram) -> frozenset[tuple[int, int]]:
    """Crossings whose arcs are topmost at the two middle endpoints.

    For the diagram of a tableau these are exactly the free cells.
    """
    right, left = _extreme_ends(d)
    out = set()
    for a in d.arcs:
        if left[a[1]] != a[0]:
            continue
        for b in d.arcs:
            if a[0] < b[0] < a[1] < b[1] and right[b[0]] == b[1]:
                out.add((b[0], a[1]))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Binary alternative trees


def _bin_kids(node: BinAltTree) -> tuple[BinAltTree, ...]:
    left, right = node.left, node.right
    if left is None:
        return () if right is None else (right,)
    return (left,) if right is None else (left, right)


def _bin_node(
    label: int, left: BinAltTree | None, right: BinAltTree | None, kind: str
) -> BinAltTree:
    """``BinAltTree(label, left, right, kind)``, its fields set without the
    dataclass constructor: only for builders, as :func:`_plane_node`."""
    node = _new(BinAltTree)
    _set(node, "label", label)
    _set(node, "left", left)
    _set(node, "right", right)
    _set(node, "kind", kind)
    return node


def _bin_key(t: BinAltTree) -> list[tuple[int, str, bool, bool]]:
    """The (label, kind, has left, has right) of every node, in postorder."""
    walk = _postorder((t,), _bin_kids)
    return [(n.label, n.kind, n.left is not None, n.right is not None) for n in walk]


def _bin_tree(key: list[tuple[int, str, bool, bool]], make: Callable = _bin_node):
    """The tree of a :func:`_bin_key`, each node made as
    ``make(label, left, right, kind)``."""
    built: list = []
    for label, kind, has_left, has_right in key:
        right = built.pop() if has_right else None
        left = built.pop() if has_left else None
        built.append(make(label, left, right, kind))
    return built.pop()


@dataclass(frozen=True, eq=False, repr=False)
class BinAltTree(_TreeValue):
    label: int
    left: BinAltTree | None = None
    right: BinAltTree | None = None
    kind: str = MIN_ROOTED  # extremality of this node within its subtree

    _kids = staticmethod(_bin_kids)
    _key = staticmethod(_bin_key)
    _tree = staticmethod(_bin_tree)

    def __repr__(self) -> str:
        def parts(n: BinAltTree) -> list:
            left, right = ("None" if c is None else c for c in (n.left, n.right))
            head = f"{type(n).__qualname__}(label={n.label!r}, left="
            return [head, left, ", right=", right, f", kind={n.kind!r})"]

        return _flat_text(self, parts)


def validate_bin_tree(t: BinAltTree | None, kind: str) -> None:
    """Left children must be maximal, right children minimal; the root per
    ``kind``; labels must be non-negative.

    Nodes are checked in preorder; a node's extremality ignores descendants
    that carry its own label.  One preorder listing with the kind each node
    must have, then one bottom-up pass (:func:`_bin_violations`).
    """
    order: list[tuple[BinAltTree, str, None]] = []
    stack = [] if t is None else [(t, kind, None)]
    while stack:
        item = stack.pop()
        order.append(item)
        node = item[0]
        if node.right is not None:
            stack.append((node.right, MIN_ROOTED, None))
        if node.left is not None:
            stack.append((node.left, MAX_ROOTED, None))
    bad = _bin_violations(reversed(order))
    if bad:
        raise ValidationError(bad)


def _bin_violations(bottom_up: Iterable[tuple[BinAltTree, str, object]]) -> list[Violation]:
    """Every violation of the (node, kind it must have, anything) entries of
    a preorder listing, given in reverse, reported in that preorder.  The one
    statement of the binary-tree rules, as :func:`_plane_violations` is of
    the plane-tree ones: each node's subtree span is read off a stack of the
    spans of the subtrees done, whichever child is listed first."""
    bad: list[Violation] = []
    spans: list[tuple[int, int]] = []  # (smallest, largest) label of each subtree
    for node, want, _ in bottom_up:
        label = node.label
        lo = hi = label
        for child in (node.left, node.right):
            if child is not None:
                c_lo, c_hi = spans.pop()
                if c_lo < lo:
                    lo = c_lo
                if c_hi > hi:
                    hi = c_hi
        spans.append((lo, hi))
        if want == MIN_ROOTED and lo < label:
            bad.append(Violation("not-minimal", f"node {_shown_number(label)} is not minimal"))
        if want == MAX_ROOTED and hi > label:
            bad.append(Violation("not-maximal", f"node {_shown_number(label)} is not maximal"))
        if node.kind != want:
            marked = f"node {_shown_number(label)} marked {_shown_number(node.kind)}"
            bad.append(Violation("bad-kind", f"{marked}, expected {want}"))
        if label < 0:
            bad.append(Violation("label-order", f"negative label {_shown_number(label)}"))
    bad.reverse()  # each node's violations were found last check first
    return bad


def binary_pair(t: AltTableau) -> tuple[BinAltTree | None, BinAltTree | None]:
    """Encode any tableau as (min-rooted tree, max-rooted tree).

    The pair is the first-child/next-sibling form of the forest: the white
    trees by increasing root give the min-rooted tree and the black trees by
    decreasing root the max-rooted one.  A white node's left child is its
    first child and its right child its next sibling; a black node's are
    the other way round.  Built once per tableau and remembered on it.
    """
    return _remembered(t, "_binary_pair", _binary_pair)


def _binary_pair(t: AltTableau) -> tuple[BinAltTree | None, BinAltTree | None]:
    children, roots = _arrow_forest(t)
    kinds = t.kind_of
    whites = [r for r in roots if kinds[r] == "D"]
    blacks = [r for r in reversed(roots) if kinds[r] == "E"]
    sibling: dict[int, int] = {}
    for line in (whites, blacks, *children.values()):
        sibling.update(zip(line, line[1:]))
    order = whites + blacks
    for label in order:  # breadth first: children and later siblings come after
        order.extend(children[label])
    built: dict[int | None, BinAltTree | None] = {None: None}
    for label in reversed(order):
        kids = children[label]
        first = built[kids[0]] if kids else None
        after = built[sibling.get(label)]
        if kinds[label] == "D":
            built[label] = _bin_node(label, first, after, MIN_ROOTED)
        else:
            built[label] = _bin_node(label, after, first, MAX_ROOTED)
    return built[whites[0] if whites else None], built[blacks[0] if blacks else None]


def binary_pair_inv(pair: tuple[BinAltTree | None, BinAltTree | None]) -> AltTableau:
    b_min, b_max = pair
    return _binary_tableau(((b_min, MIN_ROOTED), (b_max, MAX_ROOTED)))


def _binary_tableau(roots: tuple[tuple[BinAltTree | None, str], ...]) -> AltTableau:
    """The tableau of the binary trees of ``roots``, each given with the kind
    its root must have, read off one listing: (node, kind it must have,
    label of its parent in the forest) for every node, the last tree first,
    each node before its subtrees, with each label's step and the forest
    edges.  A min node's first child in the forest is its left child and its
    next sibling its right child; a max node's are the other way round; the
    next sibling's subtree is listed first.  The shared pass checks the
    listing: trees that fail are reported by :func:`validate_bin_tree`, in
    order; then the first label listed twice is a ``label-collision``."""
    order: list[tuple[BinAltTree, str, int | None]] = []
    kinds: dict[int, str] = {}
    edges: list[tuple[int, int]] = []
    stack = [(tree, kind, None) for tree, kind in roots if tree is not None]
    while stack:
        item = stack.pop()
        order.append(item)
        node, want, parent = item
        label, left, right = node.label, node.left, node.right
        if parent is not None:
            edges.append((parent, label))
        if want == MIN_ROOTED:
            kinds[label] = "D"
            if left is not None:
                stack.append((left, MAX_ROOTED, label))
            if right is not None:
                stack.append((right, MIN_ROOTED, parent))
        else:
            kinds[label] = "E"
            if right is not None:
                stack.append((right, MIN_ROOTED, label))
            if left is not None:
                stack.append((left, MAX_ROOTED, parent))
    if _bin_violations(reversed(order)):
        for tree, kind in roots:
            validate_bin_tree(tree, kind)
    if len(kinds) != len(order):
        seen: set[int] = set()
        for node, _, _ in order:
            if node.label in seen:
                label = _shown_number(node.label)
                raise DomainError("label-collision", f"label {label} appears twice")
            seen.add(node.label)
    return _tableau_from_edges(kinds, edges)


# ---------------------------------------------------------------------------
# Text formats


def render_tree(t: PlaneAltTree) -> str:
    def parts(n: PlaneAltTree) -> list:
        return [f"({n.color} {n.label}", *(x for c in n.children for x in (" ", c)), ")"]

    return _flat_text(t, parts)


def render_forest(f: PlaneAltForest) -> str:
    return " ".join(render_tree(t) for t in f.trees)


_TOKEN_RE = re.compile(rf"\(|\)|[A-Za-z]+|{_NUMBER}|\Z")


def _tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):  # the last match is the empty one at the end
        gap = text[pos : m.start()]
        if gap.strip():  # reported where the junk starts, past the whitespace
            raise ParseError(f"unexpected {_shown(gap.strip())}", m.start() - len(gap.lstrip()))
        tokens.append((m.group(), m.start()))
        pos = m.end()
    return tokens[:-1]


def parse_forest(text: str) -> PlaneAltForest:
    """Parse whitespace-separated s-expressions like ``(W 4 (B 9))``."""
    tokens = _tokenize(_check_text(text))

    def expect(idx: int, pred: Callable[[str], bool], what: str) -> tuple[str, int]:
        if idx >= len(tokens) or not pred(tokens[idx][0]):
            pos = tokens[idx][1] if idx < len(tokens) else (tokens[-1][1] + 1 if tokens else 0)
            raise ParseError(f"expected {what}", pos)
        return tokens[idx]

    trees: list[PlaneAltTree] = []
    # Open nodes, innermost last: color, label text, its position, children.
    open_nodes: list[tuple[str, str, int, list[PlaneAltTree]]] = []
    idx = 0
    while idx < len(tokens) or open_nodes:
        if open_nodes and (idx == len(tokens) or tokens[idx][0] != "("):
            expect(idx, lambda s: s == ")", "')'")
            idx += 1
            color, label, pos, children = open_nodes.pop()
            tree = PlaneAltTree(color, _parse_int(label, pos), tuple(children))
            (open_nodes[-1][3] if open_nodes else trees).append(tree)
            continue
        expect(idx, lambda s: s == "(", "'('")
        color, _ = expect(idx + 1, lambda s: s in (WHITE, BLACK), "color W or B")
        label, pos = expect(idx + 2, _NUMBER_RE.fullmatch, "label")
        open_nodes.append((color, label, pos, []))
        idx += 3
    forest = PlaneAltForest(tuple(trees))
    validate_forest(forest)
    return forest


def render_arcs(d: ArcDiagram) -> str:
    pts = f"{d.points[0]}..{d.points[-1]}" if d.points else ""
    return "points=" + pts + " arcs=" + "".join(f"({i},{j})" for i, j in d.arcs)


_ARC = rf"\({_NUMBER},{_NUMBER}\)"
_ARC_RE = re.compile(_ARC)
_ARCS_RE = re.compile(rf"points={_NUMBER}\.\.{_NUMBER} arcs=((?:{_ARC})*)$")


def parse_arcs(text: str) -> ArcDiagram:
    """Parse ``points=a..b arcs=(i,j)...``; whitespace around the text is
    ignored, and a :class:`ParseError` gives its position in ``text``: a
    number too long to convert is reported where its arc starts."""
    _check_text(text)
    m = _ARCS_RE.match(text, len(text) - len(text.lstrip()), len(text.rstrip()))
    if not m:
        raise ParseError("expected 'points=a..b arcs=(i,j)...'", 0)
    lo, hi = _parse_int(m.group(1), m.start(1)), _parse_int(m.group(2), m.start(2))
    arcs = [
        (_parse_int(a[1], a.start()), _parse_int(a[2], a.start()))
        for a in _ARC_RE.finditer(text, m.start(3), m.end(3))
    ]
    # A tree has one arc fewer than points: checked before the range is built,
    # so the text bounds the point count.
    if hi - lo != len(arcs):
        raise ValidationError(
            [Violation("not-a-tree", f"{len(arcs)} arcs on {max(hi - lo + 1, 0)} points")]
        )
    d = ArcDiagram(tuple(range(lo, hi + 1)), tuple(arcs))
    validate_arc_diagram(d)
    return d


def render_bin_tree(t: BinAltTree | None) -> str:
    def parts(n: BinAltTree) -> list:
        return [f"({n.label} L:", n.left or "-", " R:", n.right or "-", ")"]

    return _flat_text(t or "-", parts)


def render_bin_pair(pair: tuple[BinAltTree | None, BinAltTree | None]) -> str:
    return f"{render_bin_tree(pair[0])} {render_bin_tree(pair[1])}"


def parse_bin_pair(text: str) -> tuple[BinAltTree | None, BinAltTree | None]:
    """Parse two binary trees (min-rooted then max-rooted), ``-`` for empty."""
    first, idx = _parse_bin_at(_check_text(text), 0, MIN_ROOTED)
    second, idx = _parse_bin_at(text, idx, MAX_ROOTED)
    if text[idx:].strip():
        raise ParseError(f"trailing input {_shown(text[idx:].strip())}", idx)
    validate_bin_tree(first, MIN_ROOTED)
    validate_bin_tree(second, MAX_ROOTED)
    return first, second


_BIN_LABEL_RE = re.compile(rf"\s*{_NUMBER}\s*L:")
_BIN_RIGHT_RE = re.compile(r"\s*R:")
_SPACE_RE = re.compile(r"\s*")
_UNREAD = object()  # the left subtree of an open node, before it is read


def _parse_bin_at(text: str, idx: int, kind: str) -> tuple[BinAltTree | None, int]:
    """The binary tree of the given root kind at ``idx``, and the index after it."""
    # Open nodes, innermost last: label, kind and left subtree.
    open_nodes: list[list] = []
    while True:
        idx = _SPACE_RE.match(text, idx).end()
        if idx < len(text) and text[idx] == "-":
            tree, idx = None, idx + 1
        else:
            if idx >= len(text) or text[idx] != "(":
                raise ParseError("expected '(' or '-'", idx)
            m = _BIN_LABEL_RE.match(text, idx + 1)
            if not m:
                raise ParseError("expected '<label> L:'", idx + 1)
            open_nodes.append([_parse_int(m.group(1), m.start(1)), kind, _UNREAD])
            idx, kind = m.end(), MAX_ROOTED
            continue
        # ``tree`` is whole: it closes every open node whose right subtree it
        # ends, then is the left subtree of the next one.
        while open_nodes and open_nodes[-1][2] is not _UNREAD:
            label, node_kind, left = open_nodes.pop()
            idx = _SPACE_RE.match(text, idx).end()
            if idx >= len(text) or text[idx] != ")":
                raise ParseError("expected ')'", idx)
            tree, idx = BinAltTree(label, left, tree, node_kind), idx + 1
        if not open_nodes:
            return tree, idx
        open_nodes[-1][2] = tree
        m = _BIN_RIGHT_RE.match(text, idx)
        if not m:
            raise ParseError("expected 'R:'", idx)
        idx, kind = m.end(), MIN_ROOTED
