"""Path separation procedures on mixed graphs.

Covers m-connection in ADMGs and MAGs, by reachability over the graph's
mask index, and edge visibility, one mask closure per directed edge. The
program reads a PAG's separations by ``m_connected`` in one MAG of its
class; definite-status path enumeration in the PAG
(``definite_connecting_paths``) is kept only as the test oracle for that.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .graph import (
    ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph, VertexMasks, positions,
    reach,
)


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
    ix = g.masks()
    ix.mask((x, y, *z))
    if x in z or y in z:
        raise GraphError("x and y must not be in z")
    return connected(ix, ix.reached_by("pa"), ix.bit[x].bit_length() - 1,
                     ix.bit[y], ix.mask(z))


def connected(ix: VertexMasks, de: Sequence[int], x: int, y: int,
              z: int) -> bool:
    """``m_connected`` on the masks of an ADMG or MAG: ``de`` the index's
    descendant table ``ix.reached_by("pa")``, which a caller fetches once
    per index, x the bit position of the start, y the mask of the ends, z
    the conditioning mask.

    The walk's state is (vertex, whether the edge it arrived by has an
    arrowhead at it); which edges may leave a vertex depends on nothing
    else. ``into`` and ``out`` hold the states reached each way. The start
    leaves by every edge, so both of its states count as reached. A vertex
    is an ancestor of z iff z meets its descendants, read from ``de``: the
    walk computes no closure of z.
    """
    bi, ppa, pch, at, noarrow = ix.bi, ix.ppa, ix.pch, ix.at, ix.noarrow
    xb = 1 << x
    into = new_in = at[x]
    out = new_out = noarrow[x]
    if (into | out) & y:
        return True
    into |= xb
    out |= xb
    while new_in or new_out:
        if new_in:
            low = new_in & -new_in
            new_in ^= low
            i = low.bit_length() - 1
            if low & z:              # a collider in z: arrowheads only
                step_in, step_out = bi[i], ppa[i]
            elif z & de[i]:          # an ancestor of z: any edge
                step_in, step_out = at[i], noarrow[i]
            else:                    # a non-collider: no arrowhead here
                step_in, step_out = pch[i], noarrow[i] & ~ppa[i]
        else:
            low = new_out & -new_out
            new_out ^= low
            if low & z:
                continue
            i = low.bit_length() - 1
            step_in, step_out = at[i], noarrow[i]
        if (step_in | step_out) & y:
            return True
        step_in &= ~into
        step_out &= ~out
        into |= step_in
        out |= step_out
        new_in |= step_in
        new_out |= step_out
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
    """Per directed edge a --> b, one reach from a across bidirected edges
    into parents of b: a and the inner vertices of its collider paths. The
    edge is visible when a vertex not adjacent to b has an edge into a
    reached vertex."""
    ix = g.masks()
    into = [p | q for p, q in zip(ix.ppa, ix.bi)]   # edges with a head at i

    def visible(a: int, b: int) -> bool:
        far = ~(ix.noarrow[b] | ix.at[b])
        return any(into[i] & far
                   for i in positions(reach(ix.bi, a, ix.pa[b] | a)))

    return frozenset(e for e in g.edges if e.is_directed and visible(
        ix.bit[e.tail_end()], ix.bit[e.head_end()].bit_length() - 1))
