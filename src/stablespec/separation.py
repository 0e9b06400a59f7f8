"""Path separation procedures on mixed graphs.

Covers m-connection in ADMGs and MAGs (fast reachability, plus path
enumeration kept as its oracle) and edge visibility, one vertex search per
directed edge. The program reads a PAG's separations by ``m_connected`` in
one MAG of its class; definite-status path enumeration in the PAG
(``definite_connecting_paths``) is kept only as the test oracle for that.
"""

from __future__ import annotations

from typing import Iterable

from .graph import ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph


def m_connected(g: MixedGraph, x: str, y: str, z: Iterable[str]) -> bool:
    """True iff an m-connecting path between x and y exists given z.

    Colliders must be ancestors of z (reflexive), non-colliders must be
    outside z. Kind must be ADMG or MAG.
    """
    if g.kind not in ("ADMG", "MAG"):
        raise GraphError(f"m_connected requires an ADMG or MAG, got {g.kind}")
    if x == y:
        raise GraphError("x and y must differ")
    z = set(z)
    g.check_vertices((x, y, *z))
    if x in z or y in z:
        raise GraphError("x and y must not be in z")
    anz = g.ancestors(z)
    adjacency = g.adjacency
    # state = (vertex, whether the edge we arrived by has an arrowhead at
    # it); which edges may leave a vertex depends on nothing else
    frontier: list[tuple[str, bool]] = [(x, False)]
    seen = set(frontier)
    while frontier:
        v, into = frontier.pop()
        for w, _, here, there in adjacency(v):
            if v != x:
                if into and here == ARROW:
                    if v not in anz:
                        continue
                elif v in z:
                    continue
            if w == y:
                return True
            state = (w, there == ARROW)
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return False


def _simple_paths(g: MixedGraph, x: str, y: str):
    """All simple paths from x to y as lists of edges (depth-first order)."""
    path_edges: list[Edge] = []
    on_path = {x}

    def walk(v: str):
        for e in g.edges_at(v):
            w = e.other(v)
            if w == y:
                yield path_edges + [e]
            elif w not in on_path:
                path_edges.append(e)
                on_path.add(w)
                yield from walk(w)
                on_path.discard(w)
                path_edges.pop()

    yield from walk(x)


def _path_vertices(x: str, edges: list[Edge]) -> list[str]:
    out = [x]
    for e in edges:
        out.append(e.other(out[-1]))
    return out


def m_connected_bruteforce(g: MixedGraph, x: str, y: str, z: Iterable[str]) -> bool:
    """Oracle variant of m_connected: enumerate all simple paths.

    An ADMG or MAG has no circle marks, so every inner vertex of a path has
    a definite status and its definite-status connecting paths are exactly
    its m-connecting paths.
    """
    if g.kind not in ("ADMG", "MAG"):
        raise GraphError(f"m_connected requires an ADMG or MAG, got {g.kind}")
    if x == y:
        raise GraphError("x and y must differ")
    z = set(z)
    g.check_vertices({x, y} | z)
    if x in z or y in z:
        raise GraphError("x and y must not be in z")
    return bool(definite_connecting_paths(g, x, y, z))


# -- definite-status paths in PAGs ----------------------------------------


def _definite_status(g: MixedGraph, e_in: Edge, e_out: Edge, v: str) -> str | None:
    """Classify v on a path segment: 'collider', 'noncollider' or None.

    Definite non-collider: a tail at v on either edge, or circles at v on
    both edges with the two neighbors non-adjacent (unshielded triple).
    """
    m_in, m_out = e_in.mark_at(v), e_out.mark_at(v)
    if m_in == ARROW and m_out == ARROW:
        return "collider"
    if m_in == TAIL or m_out == TAIL:
        return "noncollider"
    if m_in == CIRCLE and m_out == CIRCLE:
        if not g.adjacent(e_in.other(v), e_out.other(v)):
            return "noncollider"
    return None


def definite_connecting_paths(g: MixedGraph, x: str, y: str,
                              z: Iterable[str]) -> list[list[Edge]]:
    """All definite-status m-connecting simple paths from x to y given z.

    A path connects when every definite non-collider is outside z and every
    collider is an ancestor of z (ancestry via directed edges, reflexive).
    """
    z = set(z)
    g.check_vertices({x, y} | z)
    anz = g.ancestors(z) if z else set()
    out = []
    for edges in _simple_paths(g, x, y):
        verts = _path_vertices(x, edges)
        ok = True
        for i in range(1, len(verts) - 1):
            v = verts[i]
            status = _definite_status(g, edges[i - 1], edges[i], v)
            if status is None:
                ok = False
            elif status == "collider":
                ok = v in anz
            else:
                ok = v not in z
            if not ok:
                break
        if ok:
            out.append(edges)
    return out


# -- edge visibility -------------------------------------------------------


def visible_edges(g: MixedGraph) -> frozenset[Edge]:
    """Directed edges A --> B provably unconfounded in every class member.

    A --> B is visible when some C not adjacent to B has an edge into A, or
    a collider path into A whose inner vertices are all parents of B
    (Zhang 2008). Computed once per graph; the frozenset's hash is cached,
    so it also serves as a content key for facts that depend on another
    graph's visibility.
    """
    if g.kind not in ("PAG", "MAG"):
        raise GraphError(f"visible_edges requires a PAG or MAG, got {g.kind}")
    return g.memo(("visible_edges",), lambda: _visible_edges(g))


def _visible_edges(g: MixedGraph) -> frozenset[Edge]:
    return frozenset(e for e in g.edges if e.is_directed
                     and _visible(g, e.tail_end(), e.head_end()))


def _visible(g: MixedGraph, a: str, b: str) -> bool:
    """Search from a across bidirected edges into parents of b: the inner
    vertices of a collider path into a. a --> b is visible when a vertex
    not adjacent to b has an edge into a reached vertex."""
    adjacency = g.adjacency
    near_b = {w for w, _, _, _ in adjacency(b)}
    parents_b = g.parents(b)
    reached = {a}
    frontier = [a]
    while frontier:
        for w, _, here, there in adjacency(frontier.pop()):
            if here != ARROW:
                continue
            if w not in near_b:
                return True
            if there == ARROW and w in parents_b and w not in reached:
                reached.add(w)
                frontier.append(w)
    return False
