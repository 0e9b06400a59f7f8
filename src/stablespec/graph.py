"""Mixed-graph data structures: ADMGs, MAGs and PAGs with per-endpoint marks.

Graphs are immutable values: every operation that changes structure returns
a new graph. Edge endpoints carry one of three marks (tail, arrow, circle);
the graph kind restricts which marks and parallel edges are allowed.

Because a graph never changes, facts derived from it (visibility, buckets,
identified expressions, ...) are computed once and kept in the graph's own
memo (``MixedGraph.memo``), keyed by the content of the other arguments,
and handed out as the frozensets and tuples the memo holds. The adjacency
index is built with the graph: for each vertex, one entry per edge at it
with the neighbour and the marks at both ends.

The mask index (``MixedGraph.masks``) is built on first use. Bit i stands
for the i-th vertex name in sorted order, so the lowest set bit of a vertex
set is its smallest name; for each vertex it holds the neighbour masks that
the closures and walks read. Every closure by edge marks (ancestors,
possible ancestors, definite c-components, buckets) is one loop, ``reach``,
over one of those masks, and an induced subgraph is a scope mask that the
loop does not leave. A test of one vertex against a whole-graph closure
("is v an ancestor of z") needs no loop: the index also keeps, per step
kind and built on first use, a membership table with one mask per vertex
(``VertexMasks.reached_by``). Such a table of every vertex's closure is one
depth-first pass over strongly connected components (``closures``), not
one loop per vertex. Graphs derived by mutilation or orientation keep the
vertex set, so their masks number the vertices alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from graphlib import CycleError, TopologicalSorter
from itertools import count
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

T = TypeVar("T")


class GraphError(ValueError):
    """Invalid graph structure or an unknown vertex in a query."""


# Endpoint marks are plain strings: cheap to hash and compare.
TAIL = "-"
ARROW = ">"
CIRCLE = "o"


@dataclass(frozen=True)
class Edge:
    a: str
    b: str
    mark_at_a: str
    mark_at_b: str

    def __post_init__(self):
        if self.a == self.b:
            raise GraphError(f"self-loop at {self.a!r}")

    def mark_at(self, v: str) -> str:
        if v == self.a:
            return self.mark_at_a
        if v == self.b:
            return self.mark_at_b
        raise GraphError(f"{v!r} is not an endpoint of {self}")

    def other(self, v: str) -> str:
        if v == self.a:
            return self.b
        if v == self.b:
            return self.a
        raise GraphError(f"{v!r} is not an endpoint of {self}")

    @property
    def is_directed(self) -> bool:
        """Tail-arrow edge (a directed edge in either orientation)."""
        ma, mb = self.mark_at_a, self.mark_at_b
        return (ma == TAIL and mb == ARROW) or (ma == ARROW and mb == TAIL)

    @property
    def is_bidirected(self) -> bool:
        return self.mark_at_a == ARROW and self.mark_at_b == ARROW

    def tail_end(self) -> str:
        if not self.is_directed:
            raise GraphError(f"{self} is not a directed edge")
        return self.a if self.mark_at_a == TAIL else self.b

    def head_end(self) -> str:
        if not self.is_directed:
            raise GraphError(f"{self} is not a directed edge")
        return self.b if self.mark_at_b == ARROW else self.a

    def canonical(self) -> "Edge":
        """Same edge with endpoints in sorted name order."""
        if self.a <= self.b:
            return self
        return Edge(self.b, self.a, self.mark_at_b, self.mark_at_a)


def directed(a: str, b: str) -> Edge:
    """a --> b"""
    return Edge(a, b, TAIL, ARROW)


def bidirected(a: str, b: str) -> Edge:
    """a <-> b"""
    return Edge(a, b, ARROW, ARROW)


class MixedGraph:
    """A mixed graph over named vertices, tagged as ADMG, MAG or PAG.

    Invariants enforced at construction:
      * MAG/PAG: at most one edge per vertex pair, ADMG: at most one
        directed plus at most one bidirected edge per pair;
      * ADMG/MAG: no circle marks, and the directed part is acyclic;
      * ADMG: every edge is directed or bidirected.
    """

    __slots__ = ("kind", "vertices", "edges", "_adj", "_cache", "_masks")

    def __init__(self, vertices: Sequence[str], edges: Iterable[Edge], kind: str):
        if kind not in ("ADMG", "MAG", "PAG"):
            raise GraphError(f"unknown graph kind {kind!r}")
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise GraphError("duplicate vertex names")
        edges = tuple(e.canonical() for e in edges)
        entries: dict[str, list[tuple[str, Edge, str, str]]] = {v: [] for v in vertices}
        for e in edges:
            if e.a not in entries or e.b not in entries:
                raise GraphError(f"edge {e} references unknown vertex")
            entries[e.a].append((e.b, e, e.mark_at_a, e.mark_at_b))
            entries[e.b].append((e.a, e, e.mark_at_b, e.mark_at_a))
        self.kind = kind
        self.vertices = vertices
        self.edges = edges
        # sorted by neighbour name; the sort is stable, so parallel ADMG
        # edges keep their order in ``edges``
        self._adj = {v: tuple(sorted(es, key=itemgetter(0))) for v, es in entries.items()}
        self._cache: dict = {}
        self._masks: VertexMasks | None = None
        self._validate(entries)

    def _validate(self, entries: dict[str, list[tuple[str, Edge, str, str]]]):
        # entries in edge order, so an error names the pair found first
        for v, nbrs in entries.items():
            between: dict[str, list[Edge]] = {}
            for w, e, _, _ in nbrs:
                between.setdefault(w, []).append(e)
            for w, es in between.items():
                if len(es) == 1:
                    continue
                if self.kind in ("MAG", "PAG"):
                    raise GraphError(f"multiple edges between {v} and {w} in a {self.kind}")
                n_dir = sum(e.is_directed for e in es)
                n_bi = sum(e.is_bidirected for e in es)
                if n_dir > 1 or n_bi > 1 or n_dir + n_bi < len(es):
                    raise GraphError(f"invalid parallel edges between {v} and {w} in an ADMG")
        if self.kind in ("ADMG", "MAG"):
            for e in self.edges:
                if CIRCLE in (e.mark_at_a, e.mark_at_b):
                    raise GraphError(f"circle mark in a {self.kind}: {e}")
            # iterative, so chains longer than the recursion limit build
            try:
                TopologicalSorter({v: self.parents(v) for v in self.vertices}
                                  ).prepare()
            except CycleError:
                raise GraphError(f"directed cycle in a {self.kind}") from None
        if self.kind == "ADMG":
            for e in self.edges:
                if not (e.is_directed or e.is_bidirected):
                    raise GraphError(f"ADMG edge must be directed or bidirected: {e}")

    def memo(self, key: Hashable, compute: Callable[[], T]) -> T:
        """compute(), evaluated once per graph and key.

        The key must identify the fact by content (names, frozensets,
        tuples, expression nodes, which are hash-consed), never by
        ``id()``, and the value must be immutable, since every later caller
        shares it.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    def masks(self) -> "VertexMasks":
        """The graph's mask index, built on the first call."""
        if self._masks is None:
            self._masks = VertexMasks(self)
        return self._masks

    # -- basic queries -------------------------------------------------

    def check_vertices(self, vs: Iterable[str]):
        """Raise GraphError naming each vertex of vs not in the graph."""
        self.masks().mask(vs)

    def adjacency(self, v: str) -> tuple[tuple[str, Edge, str, str], ...]:
        """The index entry of v: one ``(neighbour, edge, mark at v, mark at
        neighbour)`` per edge at v, sorted by neighbour name, built once
        with the graph."""
        return self._adj[v]

    def adjacent(self, u: str, v: str) -> bool:
        return any(w == v for w, _, _, _ in self._adj[u])

    def edges_between(self, u: str, v: str) -> list[Edge]:
        return [e for w, e, _, _ in self._adj[u] if w == v]

    def edge(self, u: str, v: str) -> Edge:
        es = self.edges_between(u, v)
        if len(es) != 1:
            raise GraphError(f"expected exactly one edge between {u} and {v}, found {len(es)}")
        return es[0]

    def edges_at(self, v: str) -> list[Edge]:
        return [e for _, e, _, _ in self._adj[v]]

    def parents(self, v: str) -> set[str]:
        """Vertices u with a directed edge u --> v."""
        return {w for w, _, here, there in self._adj[v] if here == ARROW and there == TAIL}

    def children(self, v: str) -> set[str]:
        return {w for w, _, here, there in self._adj[v] if here == TAIL and there == ARROW}

    def ancestors(self, vs: Iterable[str]) -> frozenset[str]:
        """Reflexive closure under directed (tail-arrow) edges."""
        ix = self.masks()
        return ix.names_of(reach(ix.pa, ix.mask(vs), ix.all))

    # -- equality / hashing -------------------------------------------

    def _key(self):
        return (self.kind, self.vertices, frozenset(self.edges))

    def __eq__(self, other):
        return isinstance(other, MixedGraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"MixedGraph({self.kind}, |V|={len(self.vertices)}, |E|={len(self.edges)})"


# -- vertex masks ----------------------------------------------------------


class VertexMasks:
    """Bitmask index of one graph's vertices and neighbour marks.

    Bit i stands for ``names[i]``, the i-th vertex name in sorted order.
    Each list holds, per bit position, the mask of neighbours across an
    edge whose marks (at the vertex, at the neighbour) are:

      * ``pa``: arrow, tail (parents);
      * ``ppa``: arrow, not arrow (possible parents);
      * ``pch``: not arrow, arrow (possible children);
      * ``ch_plus``: tail or circle, arrow or circle;
      * ``noarrow``: any, not arrow (the possible-ancestor step);
      * ``at``: any, arrow (an arrowhead at the neighbour);
      * ``bi``: arrow, arrow;
      * ``cc``: circle, circle.

    ``reached_by(kind)`` is the membership table of the whole-graph
    closures along one of those lists, built on its first call.
    """

    __slots__ = ("names", "bit", "all", "pa", "ppa", "pch", "ch_plus",
                 "noarrow", "at", "bi", "cc", "_tables")

    def __init__(self, g: MixedGraph):
        self.names = tuple(sorted(g.vertices))
        self.bit = {v: 1 << i for i, v in enumerate(self.names)}
        self.all = (1 << len(self.names)) - 1
        lists = {k: [0] * len(self.names) for k in _STEPS}
        for i, v in enumerate(self.names):
            for w, _, here, there in g.adjacency(v):
                b = self.bit[w]
                for k, step in _STEPS.items():
                    if step(here, there):
                        lists[k][i] |= b
        for k, masks in lists.items():
            setattr(self, k, masks)
        self._tables: dict[str, tuple[int, ...]] = {}

    def reached_by(self, kind: str) -> tuple[int, ...]:
        """Per bit position i, the mask of the vertices v whose closure
        ``reach(nbrs, 1 << v, all)`` along the list ``kind`` holds i: with
        ``pa`` the descendants of i, with ``noarrow`` its possible
        descendants, i itself included. A closure in the whole graph is the
        union of its seed bits' closures, so i is in ``reach(nbrs, z,
        all)`` iff ``z & table[i]``. Entry i is i's closure along the
        reversed list, so the table is built on the first call per kind by
        one ``closures`` pass over the reversed list, and kept on the
        index."""
        table = self._tables.get(kind)
        if table is None:
            rev = [0] * len(self.names)
            for v, m in enumerate(getattr(self, kind)):
                for i in positions(m):
                    rev[i] |= 1 << v
            table = self._tables[kind] = tuple(closures(rev, self.all))
        return table

    def mask(self, vs: Iterable[str]) -> int:
        """The mask of the named vertices; GraphError names unknown ones."""
        bit, m = self.bit, 0
        for v in vs:
            try:
                m |= bit[v]
            except KeyError:
                # an iterator resumes after v, a collection starts again
                unknown = {v}.union(u for u in vs if u not in bit)
                raise GraphError(f"unknown vertices: {sorted(unknown)}"
                                 ) from None
        return m

    def names_of(self, m: int) -> frozenset[str]:
        names = self.names
        return frozenset(names[i] for i in positions(m))


_STEPS: dict[str, Callable[[str, str], bool]] = {
    "pa": lambda here, there: here == ARROW and there == TAIL,
    "ppa": lambda here, there: here == ARROW and there != ARROW,
    "pch": lambda here, there: here != ARROW and there == ARROW,
    "ch_plus": lambda here, there: here != ARROW and there != TAIL,
    "noarrow": lambda here, there: there != ARROW,
    "at": lambda here, there: there == ARROW,
    "bi": lambda here, there: here == ARROW and there == ARROW,
    "cc": lambda here, there: here == CIRCLE and there == CIRCLE,
}


def positions(m: int):
    """The bit positions of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def reach(nbrs: Sequence[int], seed: int, scope: int) -> int:
    """seed plus every vertex of scope reached from it along the neighbour
    masks nbrs without leaving scope."""
    out = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = nbrs[low.bit_length() - 1] & scope & ~out
        out |= new
        frontier |= new
    return out


def closures(nbrs: Sequence[int], scope: int) -> list[int]:
    """Per bit position v, ``reach(nbrs, 1 << v, scope)`` for v in scope,
    and 0 for v outside it, from one iterative depth-first search
    (Tarjan's). The members of a strongly connected component share one
    closure: the component plus the closures of the vertices it steps to,
    whose components the search finishes first. So the table costs one OR
    per edge, not one walk per vertex."""
    out = [0] * len(nbrs)    # 0 until v's component is finished
    num = [-1] * len(nbrs)   # discovery number; -1 while unvisited
    low = [0] * len(nbrs)
    order, stack, walk = count(), [], []

    def visit(v):
        num[v] = low[v] = next(order)
        stack.append(v)
        walk.append((v, positions(nbrs[v] & scope)))

    for root in positions(scope):
        if num[root] < 0:
            visit(root)
        while walk:
            v, succ = walk[-1]
            for w in succ:
                if num[w] < 0:
                    visit(w)
                    break
                if not out[w] and num[w] < low[v]:   # w is on the stack
                    low[v] = num[w]
            else:
                walk.pop()
                if walk and low[v] < low[walk[-1][0]]:
                    low[walk[-1][0]] = low[v]
                if low[v] == num[v]:   # v is the root of a component
                    comp = 0
                    while not comp >> v & 1:
                        comp |= 1 << stack.pop()
                    step = 0
                    for w in positions(comp):
                        step |= nbrs[w]
                    closure = comp
                    for w in positions(step & scope & ~comp):
                        closure |= out[w]
                    for w in positions(comp):
                        out[w] = closure
    return out


def blocks(nbrs: Sequence[int], scope: int) -> list[int]:
    """scope partitioned into closures along nbrs inside scope, ordered by
    their lowest bit (smallest name)."""
    out = []
    while scope:
        block = reach(nbrs, scope & -scope, scope)
        out.append(block)
        scope &= ~block
    return out


def possible_ancestors(g: MixedGraph, target: Iterable[str]) -> frozenset[str]:
    """All X with a possibly directed path from X to some member of target.

    A path is possibly directed from X when no arrowhead along it points
    back towards X. Reflexive: the target set is always included.
    """
    ix = g.masks()
    return ix.names_of(reach(ix.noarrow, ix.mask(target), ix.all))


# -- mutilation ------------------------------------------------------------

REMOVE_INTO = "RemoveInto"
REMOVE_VISIBLE_OUT_OF = "RemoveVisibleOutOf"


def mutilate(g: MixedGraph, mode: str, x: Iterable[str],
             visibility_in: MixedGraph | None = None) -> MixedGraph:
    """Delete edges into x, or visible directed edges out of x.

    ``visibility_in`` names the graph in which edge visibility is judged
    for RemoveVisibleOutOf (default: ``g`` itself); callers that derive a
    MAG from a PAG pass the original PAG here.
    """
    # deferred: separation imports graph at module level
    from .separation import visible_edges

    xs = set(x)
    g.check_vertices(xs)
    if mode == REMOVE_INTO:
        keep = [e for e in g.edges
                if not ((e.a in xs and e.mark_at_a == ARROW)
                        or (e.b in xs and e.mark_at_b == ARROW))]
    elif mode == REMOVE_VISIBLE_OUT_OF:
        # edges compare by their canonical ends and marks, so this finds
        # the directed edges of g that are visible in visibility_in
        vis = visible_edges(visibility_in if visibility_in is not None else g)
        keep = [e for e in g.edges
                if not (e in vis and e.tail_end() in xs)]
    else:
        raise GraphError(f"unknown mutilation mode {mode!r}")
    return MixedGraph(g.vertices, keep, g.kind)


# -- text format -----------------------------------------------------------

_GLYPH = {(TAIL, ARROW): "-->", (ARROW, ARROW): "<->",
          (CIRCLE, ARROW): "o->", (CIRCLE, CIRCLE): "o-o",
          (CIRCLE, TAIL): "o--"}


def serialize(g: MixedGraph) -> str:
    """One header line ``vars: A,B,...`` then one edge per line, sorted.

    The header splits on commas and an edge line on whitespace, so a
    vertex name that is empty or holds whitespace or a comma raises
    ``GraphError`` naming it.
    """
    for v in g.vertices:
        if v.split() != [v] or "," in v:
            raise GraphError(f"vertex name {v!r} cannot be written in the "
                             f"graph text format: it is empty or holds "
                             f"whitespace or a comma")
    lines = ["vars: " + ",".join(g.vertices)]
    rendered = []
    for e in g.edges:
        marks = (e.mark_at_a, e.mark_at_b)
        if marks in _GLYPH:
            rendered.append(f"{e.a} {_GLYPH[marks]} {e.b}")
        elif (marks[1], marks[0]) in _GLYPH:
            rendered.append(f"{e.b} {_GLYPH[(marks[1], marks[0])]} {e.a}")
        else:
            raise GraphError(f"edge {e} has no text form")
    lines.extend(sorted(rendered))
    return "\n".join(lines) + "\n"


_PARSE = {"-->": (TAIL, ARROW), "<->": (ARROW, ARROW), "o->": (CIRCLE, ARROW),
          "o-o": (CIRCLE, CIRCLE), "o--": (CIRCLE, TAIL), "<--": (ARROW, TAIL),
          "<-o": (ARROW, CIRCLE), "--o": (TAIL, CIRCLE)}


def parse(text: str, kind: str = "PAG") -> MixedGraph:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("vars:"):
        raise GraphError("missing 'vars:' header line")
    vertices = [v.strip() for v in lines[0][len("vars:"):].split(",") if v.strip()]
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[1] not in _PARSE:
            raise GraphError(f"cannot parse edge line {ln!r}")
        a, glyph, b = parts
        ma, mb = _PARSE[glyph]
        edges.append(Edge(a, b, ma, mb))
    return MixedGraph(vertices, edges, kind)
