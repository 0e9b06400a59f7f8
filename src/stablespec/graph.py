"""Mixed-graph data structures: ADMGs, MAGs and PAGs with per-endpoint marks.

Graphs are immutable values: every operation that changes structure returns
a new graph. Edge endpoints carry one of three marks (tail, arrow, circle);
the graph kind restricts which marks and parallel edges are allowed.

Because a graph never changes, facts derived from it (visibility, induced
subgraphs, buckets, ...) are computed once and kept in the graph's own memo
(``MixedGraph.memo``), keyed by the content of the other arguments, and
handed out as the frozensets and tuples the memo holds. The adjacency index
is built with the graph: for each vertex, one entry per edge at it with the
neighbour and the marks at both ends, so closures and separation walks read
marks without calling into ``Edge``.

Every closure by edge marks (ancestors, possible ancestors, definite
c-components, buckets) is one walk, ``_walk``, from one vertex across the
edges whose marks pass a step test.
"""

from __future__ import annotations

from dataclasses import dataclass
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

    __slots__ = ("kind", "vertices", "edges", "_adj", "_cache")

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
            if self._directed_part_cyclic():
                raise GraphError(f"directed cycle in a {self.kind}")
        if self.kind == "ADMG":
            for e in self.edges:
                if not (e.is_directed or e.is_bidirected):
                    raise GraphError(f"ADMG edge must be directed or bidirected: {e}")

    def _directed_part_cyclic(self) -> bool:
        state = {v: 0 for v in self.vertices}  # 0 unseen, 1 open, 2 done

        def visit(v: str) -> bool:
            state[v] = 1
            for w in self.children(v):
                if state[w] == 1 or (state[w] == 0 and visit(w)):
                    return True
            state[v] = 2
            return False

        return any(state[v] == 0 and visit(v) for v in self.vertices)

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

    # -- basic queries -------------------------------------------------

    def check_vertices(self, vs: Iterable[str]):
        adj = self._adj
        for v in vs:
            if v not in adj:
                # an iterator resumes after v, a collection starts again
                unknown = {v}.union(u for u in vs if u not in adj)
                raise GraphError(f"unknown vertices: {sorted(unknown)}")

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
        return _closure(self, "ancestors", vs, _into_from_tail)

    def possible_parents(self, v: str) -> set[str]:
        """u with an edge u *-> v whose mark at u is tail or circle."""
        return {w for w, _, here, there in self._adj[v] if here == ARROW and there != ARROW}

    def possible_children(self, v: str) -> set[str]:
        return {w for w, _, here, there in self._adj[v] if there == ARROW and here != ARROW}

    # -- derived graphs ------------------------------------------------

    def induced(self, vs: Iterable[str]) -> "MixedGraph":
        keep = frozenset(vs)
        self.check_vertices(keep)
        return self.memo(("induced", keep), lambda: MixedGraph(
            [v for v in self.vertices if v in keep],
            [e for e in self.edges if e.a in keep and e.b in keep],
            self.kind))

    def replace_edges(self, edges: Iterable[Edge]) -> "MixedGraph":
        return MixedGraph(self.vertices, edges, self.kind)

    # -- equality / hashing -------------------------------------------

    def _key(self):
        return (self.kind, self.vertices, frozenset(self.edges))

    def __eq__(self, other):
        return isinstance(other, MixedGraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"MixedGraph({self.kind}, |V|={len(self.vertices)}, |E|={len(self.edges)})"


# -- graphical closures ----------------------------------------------------


def possible_ancestors(g: MixedGraph, target: Iterable[str]) -> frozenset[str]:
    """All X with a possibly directed path from X to some member of target.

    A path is possibly directed from X when no arrowhead along it points
    back towards X. Reflexive: the target set is always included.
    """
    return _closure(g, "possible_ancestors", target, _no_arrow_there)


# closure steps, from the marks at the current vertex and at the next

def _into_from_tail(here: str, there: str) -> bool:
    return here == ARROW and there == TAIL


def _no_arrow_there(here: str, there: str) -> bool:
    return there != ARROW


def _bidirected(here: str, there: str) -> bool:
    return here == ARROW and there == ARROW


def _circle_circle(here: str, there: str) -> bool:
    return here == CIRCLE and there == CIRCLE


def _closure(g: MixedGraph, name: str, vs: Iterable[str],
             step: Callable[[str, str], bool]) -> frozenset[str]:
    """The union of each member's closure, each walked once per graph.

    Exact because whether a walk may cross an edge depends only on the
    edge's marks, not on where the walk started.
    """
    vs = set(vs)
    g.check_vertices(vs)
    return frozenset().union(*[g.memo((name, v), lambda: _walk(g, v, step))
                               for v in vs])


def _walk(g: MixedGraph, v: str, step: Callable[[str, str], bool]
          ) -> frozenset[str]:
    """v and every vertex reached from it across edges whose marks (at the
    current vertex, at the next) satisfy step."""
    out = {v}
    frontier = [v]
    while frontier:
        for w, _, here, there in g.adjacency(frontier.pop()):
            if w not in out and step(here, there):
                out.add(w)
                frontier.append(w)
    return frozenset(out)


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
    from .separation import visible_edges  # deferred: avoids an import cycle

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
    return g.replace_edges(keep)


# -- text format -----------------------------------------------------------

_GLYPH = {(TAIL, ARROW): "-->", (ARROW, ARROW): "<->",
          (CIRCLE, ARROW): "o->", (CIRCLE, CIRCLE): "o-o",
          (CIRCLE, TAIL): "o--"}


def serialize(g: MixedGraph) -> str:
    """One header line ``vars: A,B,...`` then one edge per line, sorted."""
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
