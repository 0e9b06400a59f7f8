"""Vertex groupings used by the identification machinery.

Buckets (circle-path closures), possible c-components over invisible edges,
bidirected-closure c-components, regions, a deterministic bucket order, and
the PAG-to-MAG orientation.
"""

from __future__ import annotations

from typing import Iterable

from .graph import ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph
from .separation import visible_edge_set


def buckets(g: MixedGraph) -> list[set[str]]:
    """Partition of the vertices into circle-path-connected blocks.

    Two vertices share a block iff joined by a path of circle-circle edges.
    Blocks are returned sorted by their smallest vertex name.
    """
    if g.kind != "PAG":
        raise GraphError(f"buckets requires a PAG, got {g.kind}")
    return [set(b) for b in g.memo(("buckets",), lambda: _buckets(g))]


def _buckets(g: MixedGraph) -> tuple[frozenset[str], ...]:
    block = {v: {v} for v in g.vertices}
    for e in g.edges:
        if e.mark_at_a == CIRCLE and e.mark_at_b == CIRCLE:
            ba, bb = block[e.a], block[e.b]
            if ba is not bb:
                ba |= bb
                for v in bb:
                    block[v] = ba
    uniq = {id(b): b for b in block.values()}
    return tuple(frozenset(b) for b in sorted(uniq.values(), key=min))


def pc_component(g: MixedGraph, seed: Iterable[str],
                 visibility_in: MixedGraph | None = None) -> set[str]:
    """Closure of seed under collider paths made of invisible edges.

    Vertices joined to the seed by a path whose non-endpoints are all
    colliders and whose edges are all invisible. When g is an induced
    subgraph, pass the parent graph as ``visibility_in`` so edges keep the
    visibility status they have there.
    """
    seed = frozenset(seed)
    g.check_vertices(seed)
    vis = visible_edge_set(visibility_in if visibility_in is not None else g)
    return set(g.memo(("pc_component", seed, vis),
                      lambda: _pc_component(g, seed, vis)))


def _pc_component(g: MixedGraph, seed: frozenset[str],
                  vis: frozenset[Edge]) -> frozenset[str]:
    adjacency = g.adjacency
    out = set(seed)
    # state = (vertex, arrived with an arrowhead at it), None at the seed;
    # interior vertices must be colliders
    frontier: list[tuple[str, bool | None]] = [(v, None) for v in sorted(seed)]
    seen = set(frontier)
    while frontier:
        v, into = frontier.pop()
        for w, e, here, there in adjacency(v):
            if e in vis:
                continue
            if into is not None and not (into and here == ARROW):
                continue
            out.add(w)
            state = (w, there == ARROW)
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return frozenset(out)


def definite_c_component(g: MixedGraph, seed: Iterable[str]) -> set[str]:
    """Closure of seed under bidirected (arrow-arrow) edges."""
    out = set(seed)
    g.check_vertices(out)
    adjacency = g.adjacency
    frontier = list(out)
    while frontier:
        for w, _, here, there in adjacency(frontier.pop()):
            if here == ARROW and there == ARROW and w not in out:
                out.add(w)
                frontier.append(w)
    return out


def region(g: MixedGraph, a: Iterable[str], c: Iterable[str]) -> set[str]:
    """Union of the buckets of g[c] that meet the pc-component of a in g[c]."""
    a, c = set(a), set(c)
    if not a <= c:
        raise GraphError("region requires a to be a subset of c")
    sub = g.induced(c)
    pc = pc_component(sub, a, visibility_in=g)
    out: set[str] = set()
    for b in buckets(sub):
        if b & pc:
            out |= b
    return out


def bucket_partial_order(g: MixedGraph, scope: Iterable[str]) -> list[set[str]]:
    """Buckets of g[scope] in a topological order of possible parenthood.

    No bucket contains a possible ancestor of an earlier bucket. Ties are
    broken by the smallest vertex name in the bucket. A learned PAG whose
    possible-parent edges between buckets close a cycle has no such order
    and raises GraphError.
    """
    sub = g.induced(scope)
    return [set(b) for b in sub.memo(("bucket_partial_order",),
                                     lambda: _bucket_order(sub))]


def _bucket_order(sub: MixedGraph) -> tuple[frozenset[str], ...]:
    blocks = buckets(sub)
    of = {v: i for i, b in enumerate(blocks) for v in b}
    succ: list[set[int]] = [set() for _ in blocks]
    n_pred = [0] * len(blocks)
    for e in sub.edges:
        for child, parent in ((e.a, e.b), (e.b, e.a)):
            if e.mark_at(child) == ARROW and e.mark_at(parent) != ARROW:
                i, j = of[parent], of[child]
                if i != j and j not in succ[i]:
                    succ[i].add(j)
                    n_pred[j] += 1
    # layered order: all minimal buckets first, then the next layer, with
    # lexicographic tie-breaks inside a layer
    done = 0
    layer = sorted((i for i in range(len(blocks)) if n_pred[i] == 0),
                   key=lambda i: min(blocks[i]))
    order = []
    while layer:
        nxt = []
        for i in layer:
            order.append(blocks[i])
            done += 1
            for j in succ[i]:
                n_pred[j] -= 1
                if n_pred[j] == 0:
                    nxt.append(j)
        layer = sorted(nxt, key=lambda i: min(blocks[i]))
    if done != len(blocks):
        # the unplaced buckets, less those only downstream of a cycle
        left = {i for i in range(len(blocks)) if n_pred[i]}
        while sinks := {i for i in left if not succ[i] & left}:
            left -= sinks
        cycle = ", ".join(sorted("{" + ",".join(sorted(blocks[i])) + "}"
                                 for i in left))
        raise GraphError("cyclic bucket order: possible-parent edges close "
                         f"a cycle through the buckets {cycle}")
    return tuple(frozenset(b) for b in order)


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
    circle_adj: dict[str, set[str]] = {v: set() for v in g.vertices}
    edges = []
    for e in g.edges:
        marks = {e.mark_at_a, e.mark_at_b}
        if marks == {CIRCLE}:
            circle_adj[e.a].add(e.b)
            circle_adj[e.b].add(e.a)
        elif marks == {CIRCLE, ARROW}:
            head = e.a if e.mark_at_a == ARROW else e.b
            edges.append(Edge(e.other(head), head, TAIL, ARROW))
        elif marks == {CIRCLE, TAIL}:
            raise GraphError(f"circle-tail edge unsupported (selection bias): {e}")
        else:
            edges.append(e)
    oriented = []
    for block in buckets(g):
        adj = {v: circle_adj[v] for v in block}
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
