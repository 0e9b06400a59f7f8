"""Reference procedures that only the tests call: definite-status separation
in PAGs, edge visibility by enumerating collider paths, Possible-D-SEP and
skeleton blocks by enumerating simple paths, the MAG of an ADMG by
exhaustive search for separating sets, target decomposition with its
argument checks, the search's order of conditioning sets on names, the
sets that fci asks of one query, exact interventional probabilities of a
discrete SCM, Spearman rank correlation, equal-count binning of
continuous columns, and small graph constructors.

The ``*_by_sets`` procedures are the set-based forms of the program's mask
loops: closures, pc-components, regions, the m-separation walk and target
decomposition, on vertex-name sets and induced subgraphs, which ``induced``
builds as graphs of their own; ``possible_parents`` and
``possible_children`` read one vertex's neighbours from the adjacency
index."""

from collections import deque
from itertools import combinations
from typing import Iterable, Mapping, Sequence

import numpy as np

from stablespec.data import DataTable
from stablespec.graph import (
    ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph, positions,
)
from stablespec.identify import SearchContext
from stablespec.scm import DiscreteSCM
from stablespec.separation import (
    _path_vertices, _simple_paths, definite_connecting_paths, m_connected,
    visible_edges,
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
    simple path. An ADMG or MAG has no circle marks, so every inner vertex
    of a path has a definite status, and this is also the oracle for
    ``m_connected``.
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


def possible_d_sep_by_paths(marks) -> list[int]:
    """Oracle for ``fci._possible_d_sep`` on a mark store: y is in x's set
    when a simple path joins them on which every inner vertex is a collider
    or has adjacent neighbors on the path (Spirtes, Glymour & Scheines
    2000). It enumerates the paths from every vertex, over sets of
    positions, and gives each vertex's set as a mask."""
    adj = [set(positions(row)) for row in marks.adj]
    out = [set(adj[v]) for v in range(len(adj))]
    for x in range(len(adj)):
        queue = deque((n, (x, n)) for n in sorted(adj[x]))
        seen = set()
        while queue:
            current, path = queue.popleft()
            for nxt in sorted(adj[current] - set(path)):
                a, b, c = path[-2], current, nxt
                collider = marks.mark(a, b) == ARROW and \
                    marks.mark(c, b) == ARROW
                if collider or c in adj[a]:
                    out[x].add(nxt)
                    out[nxt].add(x)
                    key = (current, nxt, frozenset(path))
                    if key not in seen:
                        seen.add(key)
                        queue.append((nxt, path + (nxt,)))
    return [sum(1 << v for v in vs) for vs in out]


def blocks_by_paths(adj: dict[str, set[str]]) -> dict[frozenset, frozenset]:
    """Oracle for ``fci._blocks``: the block of each edge a-b of the
    undirected graph ``adj`` holds a, b and every vertex of every simple
    a-b path other than the edge itself. It enumerates those paths."""
    out = {}
    for a in adj:
        for b in adj[a]:
            if b < a:
                continue
            on = {a, b}
            stack = [(a, (a,))]
            while stack:
                current, path = stack.pop()
                for nxt in adj[current] - set(path):
                    if nxt != b:
                        stack.append((nxt, path + (nxt,)))
                    elif len(path) > 1:
                        on.update(path)
            out[frozenset((a, b))] = frozenset(on)
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
    factors can be identified separately: the program's mask decomposition,
    on names, by a context of its own."""
    t, z = set(t), set(z)
    if t & z:
        raise GraphError("t and z must be disjoint")
    ix = p.masks()
    ix.mask(t | z)
    return [(set(ix.names_of(ti)), set(ix.names_of(zi)))
            for ti, zi in SearchContext(p, 0).decompose(ix.mask(t),
                                                        ix.mask(z))]


def subsets_in_order(items: Iterable):
    """All subsets, smaller sizes first, lexicographic within a size: the
    order in which ``stable_candidates`` visits conditioning sets."""
    items = sorted(items)
    for size in range(len(items) + 1):
        for combo in combinations(items, size):
            yield frozenset(combo)


def distinct_subsets(pools: Sequence[Iterable], size: int):
    """The subsets of ``size`` vertices of each of ``pools`` in turn, in
    ``combinations`` order over the sorted pool, each distinct subset once:
    the sets that fci asks of one query, by enumeration."""
    seen = set()
    for pool in pools:
        for s in combinations(sorted(pool), size):
            if frozenset(s) not in seen:
                seen.add(frozenset(s))
                yield s


def interventional_probability(scm: DiscreteSCM, x: Mapping[str, int],
                               y: Mapping[str, int],
                               z: Mapping[str, int] | None = None) -> float:
    """Exact P_x(y | z) by truncated factorization and enumeration."""
    z = dict(z or {})
    joint = scm.joint(intervention=x)
    if z:
        return joint.conditional(dict(y), z)
    return joint.prob(dict(y))


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, tied values sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], len(values)]   # one past each tie group
    group = np.repeat(np.arange(len(first)), last - first)
    ranks = np.empty(len(values))
    ranks[order] = ((first + 1 + last) / 2.0)[group]
    return ranks


def rank_correlation(pred_a: Sequence[float],
                     pred_b: Sequence[float]) -> float:
    """Spearman correlation: Pearson correlation of the average ranks."""
    a = np.asarray(pred_a, dtype=float)
    b = np.asarray(pred_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length lists of at least 2 values")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise ValueError("zero variance in ranks")
    r = np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1]
    return float(np.clip(r, -1.0, 1.0))


# -- set-based references of the mask loops -------------------------------


def induced(g: MixedGraph, vs: Iterable[str]) -> MixedGraph:
    """The subgraph of g on the vertices vs, with every edge of g between
    them; its edges' visibility is judged in it, not in g."""
    keep = set(vs)
    g.check_vertices(keep)
    return MixedGraph([v for v in g.vertices if v in keep],
                      [e for e in g.edges if e.a in keep and e.b in keep],
                      g.kind)


def possible_parents(g: MixedGraph, v: str) -> set[str]:
    """u with an edge u *-> v whose mark at u is tail or circle."""
    return {w for w, _, here, there in g.adjacency(v)
            if here == ARROW and there != ARROW}


def possible_children(g: MixedGraph, v: str) -> set[str]:
    """u with an edge v *-> u whose mark at v is tail or circle."""
    return {w for w, _, here, there in g.adjacency(v)
            if there == ARROW and here != ARROW}


def closure_by_sets(g: MixedGraph, seed: Iterable[str], step) -> set[str]:
    """seed plus every vertex reached from it across edges whose marks (at
    the current vertex, at the next) satisfy step."""
    out = set(seed)
    frontier = list(out)
    while frontier:
        for w, _, here, there in g.adjacency(frontier.pop()):
            if w not in out and step(here, there):
                out.add(w)
                frontier.append(w)
    return out


def buckets_by_sets(g: MixedGraph) -> list[set[str]]:
    """Circle-circle closures, ordered by their smallest name."""
    out: list[set[str]] = []
    for v in sorted(g.vertices):
        if not any(v in b for b in out):
            out.append(closure_by_sets(
                g, {v}, lambda here, there: here == there == CIRCLE))
    return out


def pc_component_by_sets(g: MixedGraph, seed: Iterable[str],
                         visibility_in: MixedGraph | None = None) -> set[str]:
    """Reference for ``components.pc_component``: a walk over (vertex,
    arrived with an arrowhead at it) states, None at the seed, across edges
    not visible in ``visibility_in`` (default g); inner vertices must be
    colliders."""
    vis = visible_edges(visibility_in if visibility_in is not None else g)
    out = set(seed)
    frontier: list[tuple[str, bool | None]] = [(v, None) for v in sorted(out)]
    seen = set(frontier)
    while frontier:
        v, into = frontier.pop()
        for w, e, here, there in g.adjacency(v):
            if e in vis:
                continue
            if into is not None and not (into and here == ARROW):
                continue
            out.add(w)
            state = (w, there == ARROW)
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return out


def region_by_sets(g: MixedGraph, a: Iterable[str],
                   c: Iterable[str]) -> set[str]:
    """Reference for ``components.region``: the buckets of the induced
    subgraph g[c] that meet the pc-component of a in it."""
    sub = induced(g, c)
    pc = pc_component_by_sets(sub, a, visibility_in=g)
    out: set[str] = set()
    for b in buckets_by_sets(sub):
        if b & pc:
            out |= b
    return out


def m_connected_by_sets(g: MixedGraph, x: str, y: str,
                        z: Iterable[str]) -> bool:
    """Reference for ``separation.m_connected``: a walk over (vertex,
    arrived with an arrowhead at it) states, colliders in the ancestors of
    z, non-colliders outside z."""
    z = set(z)
    anz = closure_by_sets(g, z, lambda here, there:
                          here == ARROW and there == TAIL)
    frontier: list[tuple[str, bool]] = [(x, False)]
    seen = set(frontier)
    while frontier:
        v, into = frontier.pop()
        for w, _, here, there in g.adjacency(v):
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


def decompose_by_sets(p: MixedGraph, t: Iterable[str], z: Iterable[str]
                      ) -> list[tuple[set[str], set[str]]]:
    """Reference for ``SearchContext.decompose``, on induced subgraphs: grow a
    piece from the smallest target until pa* of its pc-component and of
    the rest's meet only in z, then split it off with its region."""
    def star(sub, s, nbrs):
        out = set(s)
        for v in s:
            out |= nbrs(sub, v)
        return out

    def pa_star(sub, s):
        return star(sub, s, possible_parents)

    t, z = set(t), set(z)
    pieces = []
    while t:
        scope = t | z
        sub = induced(p, scope)

        def pc(seed):
            return pc_component_by_sets(sub, seed, visibility_in=p)

        x = {min(t)}
        cx = pc(x)
        a = pa_star(sub, cx) & pa_star(sub, pc(scope - cx))
        while not a <= z:
            grown = x | star(sub, a & t, possible_children)
            if grown == x:
                raise RuntimeError("component growth stalled")
            x = grown
            cx = pc(x)
            a = pa_star(sub, cx) & pa_star(sub, pc(scope - cx))
        t1 = cx & t
        t2 = t - t1
        pieces.append((t1, region_by_sets(p, x, scope) - t1))
        t, z = t2, region_by_sets(p, scope - cx, scope) - t2
    return pieces


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
