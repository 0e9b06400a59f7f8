"""Reference procedures that only the tests call: definite-status separation
in PAGs, edge visibility by enumerating collider paths, the MAG of an ADMG
by exhaustive search for separating sets, target decomposition with its
argument checks, equal-count binning of continuous columns, and small graph
constructors."""

from itertools import combinations
from typing import Iterable

import numpy as np

from stablespec.data import DataTable
from stablespec.graph import ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph
from stablespec.identify import _decompose
from stablespec.separation import (
    _path_vertices, _simple_paths, definite_connecting_paths, m_connected,
)


def circle_arrow(a: str, b: str) -> Edge:
    """a o-> b"""
    return Edge(a, b, CIRCLE, ARROW)


def with_kind(g: MixedGraph, kind: str) -> MixedGraph:
    """g's vertices and edges under another kind tag."""
    return MixedGraph(g.vertices, g.edges, kind)


def definite_m_separated(g: MixedGraph, x: Iterable[str], y: Iterable[str],
                         z: Iterable[str]) -> bool:
    """True iff no definite-status m-connecting path joins x and y given z.

    Oracle for separation read in a MAG of g's class: it enumerates every
    simple path.
    """
    x, y, z = set(x), set(y), set(z)
    if x & y or x & z or y & z:
        raise GraphError("x, y and z must be pairwise disjoint")
    g.check_vertices(x | y | z)
    return not any(definite_connecting_paths(g, a, b, z)
                   for a in sorted(x) for b in sorted(y))


def visible_by_definition(g: MixedGraph) -> set[Edge]:
    """Oracle for ``visible_edges``: the directed edges A --> B for which
    some C, not adjacent to B, has a path C *-> V1 <-> ... <-> Vk <-> A
    (k >= 0) into A whose every inner vertex Vi is a collider on it and a
    parent of B (Zhang 2008). It enumerates every simple path from every
    such C to A."""
    def witness(path: list[Edge], c: str, a: str, parents_b: set[str]):
        verts = _path_vertices(c, path)
        return path[-1].mark_at(a) == ARROW and all(
            verts[i] in parents_b
            and path[i - 1].mark_at(verts[i]) == ARROW
            and path[i].mark_at(verts[i]) == ARROW
            for i in range(1, len(verts) - 1))

    out = set()
    for e in g.edges:
        if not e.is_directed:
            continue
        a, b = e.tail_end(), e.head_end()
        parents_b = g.parents(b)
        if any(witness(path, c, a, parents_b)
               for c in g.vertices if c not in (a, b) and not g.adjacent(c, b)
               for path in _simple_paths(g, c, a)):
            out.add(e)
    return out


def mag_of_admg(g: MixedGraph) -> MixedGraph:
    """The MAG over the same vertices encoding g's m-separations and ancestry.

    Two vertices are adjacent iff no subset of the others m-separates them;
    the edge is directed along ancestry, bidirected otherwise.
    """
    if g.kind != "ADMG":
        raise GraphError(f"mag_of_admg requires an ADMG, got {g.kind}")
    edges = []
    verts = list(g.vertices)
    for i, a in enumerate(verts):
        for b in verts[i + 1:]:
            rest = [v for v in verts if v not in (a, b)]
            separated = any(
                not m_connected(g, a, b, set(s))
                for k in range(len(rest) + 1)
                for s in combinations(rest, k)
            )
            if separated:
                continue
            if a in g.ancestors({b}):
                edges.append(Edge(a, b, TAIL, ARROW))
            elif b in g.ancestors({a}):
                edges.append(Edge(b, a, TAIL, ARROW))
            else:
                edges.append(Edge(a, b, ARROW, ARROW))
    return MixedGraph(g.vertices, edges, "MAG")


def decompose_targets(p: MixedGraph, t: Iterable[str],
                      z: Iterable[str]) -> list[tuple[set[str], set[str]]]:
    """Split t into component-wise pieces (t_i, z_i) whose interventional
    factors can be identified separately."""
    t, z = set(t), set(z)
    if t & z:
        raise GraphError("t and z must be disjoint")
    p.check_vertices(t | z)
    return list(_decompose(p, t, z))


def quantile_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Interior cut points giving roughly equal-count bins."""
    qs = np.linspace(0, 1, bins + 1)[1:-1]
    return np.quantile(values, qs)


def discretize(table: DataTable, bins: int,
               edges: dict[str, np.ndarray] | None = None):
    """Bin every continuous column into equal-count levels.

    Returns the binned table and the per-column edges used, so test data
    can reuse the training cuts.
    """
    edges = dict(edges or {})
    cols, kinds = {}, {}
    for name in table.names:
        col = table.column(name)
        if table.is_discrete(name):
            cols[name] = col
            kinds[name] = table.levels(name)
            continue
        if name not in edges:
            edges[name] = quantile_edges(col, bins)
        cols[name] = np.searchsorted(edges[name], col).astype(float)
        kinds[name] = bins
    return DataTable(cols, kinds, table.env_column), edges
