"""Vertex groupings used by the identification machinery.

Buckets (circle-path closures), possible c-components over invisible edges,
regions, a deterministic bucket order, and the PAG-to-MAG orientation.

Each grouping has one implementation over the graph's mask index
(``graph.VertexMasks``), in which an induced subgraph g[c] is the scope
mask of c: the mask functions (``_pc``, ``_region``, ``_bucket_order``,
``graph.blocks``) take masks and return masks or memoized facts, and
identification calls them directly. The public functions are where vertex
names become masks; buckets, bucket orders and pc-components are computed
once per graph and returned as the frozensets the graph's memo holds, a
list-valued fact as a new list of them.
"""

from __future__ import annotations

from graphlib import CycleError, TopologicalSorter
from typing import Iterable, Sequence

from .graph import (
    ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph, VertexMasks, blocks,
    positions, reach,
)
from .separation import visible_edges


def _require_pag(g: MixedGraph):
    if g.kind != "PAG":
        raise GraphError(f"buckets requires a PAG, got {g.kind}")


def buckets(g: MixedGraph) -> list[frozenset[str]]:
    """Partition of the vertices into circle-path-connected blocks.

    Two vertices share a block iff joined by a path of circle-circle edges.
    Blocks are returned sorted by their smallest vertex name.
    """
    _require_pag(g)
    ix = g.masks()
    return list(g.memo(("buckets",), lambda: tuple(
        ix.names_of(b) for b in blocks(ix.cc, ix.all))))


def invisible(g: MixedGraph) -> tuple[int, ...]:
    """Per bit position of g's mask index, the neighbours joined to that
    vertex by an edge that is not visible in g; computed once per graph."""
    def build():
        vis = visible_edges(g)
        ix = g.masks()
        return tuple(sum(ix.bit[w] for w, e, _, _ in g.adjacency(v)
                         if e not in vis)
                     for v in ix.names)
    return g.memo(("invisible",), build)


def pc_component(g: MixedGraph, seed: Iterable[str]) -> frozenset[str]:
    """Closure of seed under collider paths made of invisible edges.

    Vertices joined to the seed by a path whose non-endpoints are all
    colliders and whose edges are all invisible.
    """
    ix = g.masks()
    s = ix.mask(seed)
    return g.memo(("pc_component", s), lambda: ix.names_of(
        _pc(ix, invisible(g), s, ix.all)))


def _pc(ix: VertexMasks, inv: Sequence[int], seed: int, scope: int) -> int:
    """pc-component of seed in the subgraph on scope, inv the invisible
    neighbour masks.

    A seed vertex leaves by any invisible edge; an inner vertex of a
    collider path is entered and left by arrowheads at it, and two
    arrowheads on one edge make it bidirected. So the path's inner vertices
    are the bidirected closure of the seed's invisible neighbours with an
    arrowhead at them, and each of them adds its invisible neighbours
    across edges with an arrowhead at it.
    """
    ppa, bi, at = ix.ppa, ix.bi, ix.at
    out = rest = seed
    inner = 0
    while rest:
        low = rest & -rest
        rest ^= low
        i = low.bit_length() - 1
        step = inv[i] & scope
        out |= step
        inner |= step & at[i]
    frontier = inner
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        i = low.bit_length() - 1
        out |= inv[i] & (ppa[i] | bi[i]) & scope
        new = bi[i] & scope & ~inner
        inner |= new
        frontier |= new
    return out


def region(g: MixedGraph, a: Iterable[str], c: Iterable[str]) -> set[str]:
    """Union of the buckets of g[c] that meet the pc-component of a in g[c]."""
    a, c = set(a), set(c)
    if not a <= c:
        raise GraphError("region requires a to be a subset of c")
    ix = g.masks()
    cm = ix.mask(c)
    inv = invisible(g)
    _require_pag(g)
    return set(ix.names_of(_region(ix, inv, ix.mask(a), cm)))


def _region(ix: VertexMasks, inv: Sequence[int], a: int, c: int) -> int:
    """``region`` on masks: the buckets of g[c] meeting a bucket of the
    pc-component are its circle-circle closure inside c."""
    return reach(ix.cc, _pc(ix, inv, a, c), c)


def bucket_partial_order(g: MixedGraph, scope: Iterable[str]
                         ) -> list[frozenset[str]]:
    """Buckets of g[scope] in a topological order of possible parenthood.

    No bucket contains a possible ancestor of an earlier bucket. Ties are
    broken by the smallest vertex name in the bucket. A learned PAG whose
    possible-parent edges between buckets close a cycle has no such order
    and raises GraphError.
    """
    ix = g.masks()
    s = ix.mask(scope)
    _require_pag(g)
    return list(_bucket_order(g, ix, s))


def _bucket_order(g: MixedGraph, ix: VertexMasks, scope: int
                  ) -> tuple[frozenset[str], ...]:
    """``bucket_partial_order`` on a scope mask, computed once per graph
    and scope."""
    def build():
        of = {}
        for b in blocks(ix.cc, scope):
            for i in positions(b):
                of[i] = b
        sorter = TopologicalSorter()
        for v in g.vertices:   # the order a subgraph's vertices had
            if ix.bit[v] & scope:
                i = ix.bit[v].bit_length() - 1
                sorter.add(of[i], *(of[j] for j in positions(ix.ppa[i] & scope)
                                    if of[j] != of[i]))
        try:
            sorter.prepare()
        except CycleError as err:
            cycle = ", ".join(sorted("{" + ",".join(sorted(ix.names_of(b)))
                                     + "}" for b in set(err.args[1])))
            raise GraphError("cyclic bucket order: possible-parent edges close "
                             f"a cycle through the buckets {cycle}") from None
        # layered order: all minimal buckets first, then the next layer,
        # with ties broken by the smallest name, the lowest bit
        order: list[frozenset[str]] = []
        while sorter.is_active():
            layer = sorted(sorter.get_ready(), key=lambda b: b & -b)
            order.extend(ix.names_of(b) for b in layer)
            sorter.done(*layer)
        return tuple(order)
    return g.memo(("bucket_partial_order", scope), build)


def _mcs_order(adj: dict[str, set[str]],
               priority: set[str]) -> list[str] | None:
    """Maximum cardinality search order, ties broken for priority vertices.

    None unless the order is perfect (earlier neighbors of each vertex form
    a clique), which holds exactly when the graph is chordal.
    """
    remaining = set(adj)
    weight = {v: 0 for v in adj}
    order = []
    while remaining:
        v = min(remaining, key=lambda u: (-weight[u], u not in priority, u))
        order.append(v)
        remaining.discard(v)
        for w in adj[v] & remaining:
            weight[w] += 1
    pos = {v: i for i, v in enumerate(order)}
    for v in order:
        earlier = [w for w in adj[v] if pos[w] < pos[v]]
        for i, w1 in enumerate(earlier):
            for w2 in earlier[i + 1:]:
                if w2 not in adj[w1]:
                    return None
    return order


def _acyclic_mag(vertices, edges: list[Edge]) -> MixedGraph | None:
    """The MAG with these edges, or None when they close a directed cycle,
    the one MAG condition that pag_to_mag's edges can break."""
    try:
        return MixedGraph(vertices, edges, "MAG")
    except GraphError:
        return None


def class_mag(g: MixedGraph) -> MixedGraph:
    """``pag_to_mag(g, ())``, built once per PAG.

    Markov-equivalent MAGs share their m-separations (Zhang 2008), so this
    one member of g's class answers every separation query on g.
    """
    return g.memo(("class_mag",), lambda: pag_to_mag(g, ()))


def pag_to_mag(g: MixedGraph, preserve_into: Iterable[str]) -> MixedGraph:
    """A MAG in g's equivalence class keeping g's arrowheads into preserve_into.

    Circle-arrow edges become directed; each circle-circle component is
    oriented into a DAG with no new unshielded colliders, with circle edges
    at preserve_into vertices pointing out of those vertices.

    A PAG learned from finite data need not be valid: a circle component
    may not be chordal, or orienting one may close a directed cycle. No MAG
    in its class exists then. Such a component, or on a cycle every circle
    edge, becomes undirected (tail-tail), so each vertex on it stays a
    non-collider, as in the PAG's definite-status reading.
    """
    if g.kind != "PAG":
        raise GraphError(f"pag_to_mag requires a PAG, got {g.kind}")
    preserve = set(preserve_into)
    g.check_vertices(preserve)
    edges = []
    for e in g.edges:
        marks = {e.mark_at_a, e.mark_at_b}
        if marks == {CIRCLE, ARROW}:
            head = e.a if e.mark_at_a == ARROW else e.b
            edges.append(Edge(e.other(head), head, TAIL, ARROW))
        elif marks == {CIRCLE, TAIL}:
            raise GraphError(f"circle-tail edge unsupported (selection bias): {e}")
        elif marks != {CIRCLE}:  # circle-circle edges are oriented below
            edges.append(e)
    oriented = []
    for block in buckets(g):
        adj = {v: {w for w, _, here, there in g.adjacency(v)
                   if here == CIRCLE and there == CIRCLE} for v in block}
        order = _mcs_order(adj, preserve)
        pos = {v: i for i, v in enumerate(order or sorted(block))}
        for v in block:
            for w in adj[v]:
                if pos[v] < pos[w]:
                    oriented.append(Edge(v, w, TAIL, ARROW if order else TAIL))
    mag = _acyclic_mag(g.vertices, edges + oriented)
    if mag is None:
        mag = _acyclic_mag(g.vertices, edges + [
            Edge(e.a, e.b, TAIL, TAIL) for e in oriented])
    if mag is None:
        raise GraphError("no MAG has the marks of this PAG: its arrowheads "
                         "close a directed cycle")
    for x in preserve:
        pag_in = {e.other(x) for e in g.edges_at(x) if e.mark_at(x) == ARROW}
        mag_in = {e.other(x) for e in mag.edges_at(x) if e.mark_at(x) == ARROW}
        if pag_in != mag_in:
            raise GraphError(
                f"cannot preserve edges into {x}: conflicting requirements")
    return mag
