"""Constraint-based structure learning of a PAG from CI answers.

``fci`` runs the full adjacency search (stable skeleton, then the
possible-d-sep refinement), orients unshielded colliders, and applies the
standard complete orientation rule set to a fixpoint. Background knowledge
can forbid arrowheads into chosen vertices. Possible-D-SEP is a closure
over vertex pairs, polynomial in the number of vertices, and contains the
simple-path definition (Spirtes, Glymour & Scheines 2000), so FCI stays
sound and complete. The possible-d-sep pools of an edge a-b are cut down
to the block (biconnected component) of the skeleton that holds the edge,
as pcalg's ``biCC`` option does (Colombo, Maathuis, Kalisch & Richardson
2012): every vertex of a minimal separating set lies on a cycle through
a-b, so with an exact oracle the learned PAG is the same, and an edge
costs about 2^|pool ∩ block| tests rather than 2^|pool|. The blocks are
computed once, on the skeleton that the phase starts from, a supergraph
of every skeleton within it. ``table_fci`` learns on one table, forbidding
arrowheads into its environment column; ``pooled_fci`` first pools
per-environment datasets under an appended environment indicator column.

``DataOracle`` answers queries with a CI test on a table. Queries on a
pair of the table's environment column and a continuous variable are
answered by ``citest.environment_test``, a test of whether that variable's
conditional differs between environments (intercept, slope or scale); the
chosen test answers all the others, and also the environment pairs that
the environment test cannot fit. ``citest`` routes each set to its test,
so the oracle does not tell the pairs apart. So a mechanism change that
leaves a variable's mean alone, such as a change of scale, still makes the
variable a child of the environment vertex, and a variable constant in one
environment but not in another is a child of it.

An oracle has one method, ``separating_sets(queries)``: for each query
(a, b, pools, size) of one adjacency level, the number of conditioning
sets it decided and the first given which a and b are independent, or
None. The sets of a query are ``_distinct_subsets(pools, size)``, the
subsets of ``size`` vertices of each pool in turn, each distinct subset
once, and the oracle enumerates them itself. ``SeparationOracle`` answers
by m-separation in a known graph. Both adjacency phases are one PC-stable
level-wise search: at each size it reads the conditioning-set pools of
every adjacent pair before it tests any (Colombo & Maathuis 2014), so the
sets of a whole level are known before any is answered, and one call asks
them all, as GPU PC (cuPC) does. ``DataOracle`` puts each query's names at
column positions once, from its pools, and enumerates its sets as
position tuples; it streams them, pair after pair, into stacked calls of
at most ``MAX_BATCH`` sets of ``citest.firsts_at``: batched CI decisions
(see ``citest``), which gather each set's submatrix straight from its
positions. Only a separating set found is put back into names. A pair
decided in one call adds no further sets to the next. A query counts as
one CI test if it is decided: the sets of a pair up to and including the
first independent one.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, filterfalse, islice
from typing import Callable, Iterable, Sequence

from .citest import firsts_at, fisher_z_test
from .data import DataError, DataTable, pool_environments
from .graph import ARROW, CIRCLE, TAIL, Edge, MixedGraph
from .separation import m_connected


@dataclass(frozen=True)
class Knowledge:
    """Background constraints for orientation.

    ``forbidden_into`` lists vertices that may not receive arrowheads.
    """

    forbidden_into: frozenset[str] = frozenset()

    def __init__(self, forbidden_into: Iterable[str] = ()):
        object.__setattr__(self, "forbidden_into", frozenset(forbidden_into))


class SeparationOracle:
    """Exact CI oracle answering queries by m-separation in a known graph."""

    def __init__(self, graph: MixedGraph):
        self.graph = graph

    def separating_sets(self, queries: Sequence[tuple]) -> list[tuple]:
        """For each (a, b, pools, size) of ``queries``, the number of sets
        of ``_distinct_subsets(pools, size)`` tested and the first that
        m-separates a and b (None if none)."""
        out = []
        for a, b, pools, size in queries:
            tests = 0
            for s in _distinct_subsets(pools, size):
                tests += 1
                if not m_connected(self.graph, a, b, set(s)):
                    out.append((tests, s))
                    break
            else:
                out.append((tests, None))
        return out


class DataOracle:
    """CI oracle answering queries by a hypothesis test at level alpha on a
    table.

    A query whose a or b is the table's environment column is answered by
    ``environment_test`` with ``test`` as its fallback (``test`` answers
    it when the other side is discrete or the per-environment regressions
    cannot be fitted); every other query by ``test``. ``citest.firsts_at``
    routes each set to its test. Raises ``ValueError`` unless 0 < alpha <
    1.
    """

    def __init__(self, table: DataTable, test: Callable = fisher_z_test,
                 alpha: float = 0.01):
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be between 0 and 1, not {alpha}")
        self.table = table
        self.test = test
        self.alpha = alpha

    def separating_sets(self, queries: Sequence[tuple]) -> list[tuple]:
        """For each (a, b, pools, size) of ``queries``, the number of sets
        of ``_distinct_subsets(pools, size)`` decided and the first given
        which a and b test independent (None if none); the sets after it
        are not decided.

        A query's names are put at column positions once, from its pools,
        and its sets are enumerated as tuples of positions, in the same
        order; only a separating set found is put back into names. All
        queries form one stream (see ``_stream``): within each stacked
        call, Fisher-z decides its sets with one stacked inverse, the
        environment test with one stacked Cholesky factorization (see
        ``citest``). A set that cannot be tested raises only if its query
        reaches it, and the first such query, in order, raises. A name that
        is not a column of the table raises ``DataError``, and so does a
        query whose a and b are equal or lie in its pools.
        """
        table, at = self.table, self.table.positions
        stream = []
        for a, b, pools, size in queries:
            if a == b:
                raise DataError("a and b must differ")
            if any(a in pool or b in pool for pool in pools):
                raise DataError("a and b must not appear in the "
                                "conditioning set")
            pools = [at(pool) for pool in pools]
            stream.append((*at((a, b)), _distinct_subsets(pools, size)))
        out = _stream(stream, lambda chunk: firsts_at(
            self.test, table, chunk, self.alpha))
        for k, answer in enumerate(out):
            if not isinstance(answer, Exception) and answer[1] is not None:
                out[k] = answer[0], tuple(table.names[v] for v in answer[1])
        error = next((got for got in out if isinstance(got, Exception)),
                     None)
        if error is None:
            return out
        try:
            raise error
        finally:  # its traceback holds this frame: break the cycle
            error = answer = out = None


def _stream(queries: Sequence[tuple], decide: Callable) -> list:
    """For each (a, b, subsets) of ``queries``, the number of sets decided
    and the first independent one (None if none), or the exception raised
    on a set it reaches.

    The sets of all queries, query after query, are cut into calls of
    ``decide`` (``citest.firsts_at``) of at most ``MAX_BATCH`` sets; a
    query cut at the end of one call continues in the next unless it was
    decided. The stream stops at the first call that returns an
    exception: every query before it is decided by then.
    """
    out: list = [(0, None)] * len(queries)
    todo = [(k, a, b, iter(subsets))
            for k, (a, b, subsets) in reversed(list(enumerate(queries)))]
    while todo:
        chunk, room = [], MAX_BATCH
        while todo and room:
            k, a, b, rest = todo[-1]
            sets = list(islice(rest, room))
            if len(sets) < room:
                todo.pop()
            if sets:
                chunk.append((k, a, b, sets))
                room -= len(sets)
        if not chunk:
            break
        got = decide([(a, b, sets) for _, a, b, sets in chunk])
        for (k, _, _, sets), i in zip(chunk, got):
            if isinstance(i, Exception):
                out[k] = i
                return out
            tests = out[k][0]
            if i is None:
                out[k] = (tests + len(sets), None)
            else:
                out[k] = (tests + i + 1, sets[i])
                if todo and todo[-1][0] == k:  # cut, but decided
                    todo.pop()
    return out


class _Marks:
    """Mutable endpoint-mark store during orientation.

    ``self.at[(a, b)]`` is the mark at b on the edge a-b. Marks start as
    circles and may only be refined circle -> tail/arrow. A refined mark
    stays: on finite samples the rules can ask for the other refinement of
    a mark that is already set, and the first one is kept.
    """

    def __init__(self, vertices: Sequence[str],
                 skeleton: Iterable[Iterable[str]], knowledge: Knowledge):
        self.vertices = tuple(vertices)
        self.adj: dict[str, set[str]] = {v: set() for v in vertices}
        self.at: dict[tuple[str, str], str] = {}
        self.forbidden = knowledge.forbidden_into
        for pair in skeleton:
            a, b = sorted(pair)
            self.adj[a].add(b)
            self.adj[b].add(a)
            self.at[(a, b)] = CIRCLE
            self.at[(b, a)] = CIRCLE

    def adjacent(self, a: str, b: str) -> bool:
        return b in self.adj[a]

    def mark(self, a: str, b: str) -> str:
        return self.at[(a, b)]

    def set_mark(self, a: str, b: str, mark: str) -> bool:
        """Refine a circle at b on edge a-b; returns whether it changed."""
        if self.at[(a, b)] != CIRCLE or (mark == ARROW and
                                         b in self.forbidden):
            return False
        self.at[(a, b)] = mark
        return True

    def orient_directed(self, a: str, b: str) -> bool:
        # a tail at a without the arrowhead at b would leave a circle-tail
        # edge, which only selection bias explains; leave both marks alone
        if b in self.forbidden:
            return False
        changed = self.set_mark(b, a, TAIL)
        changed |= self.set_mark(a, b, ARROW)
        return changed

    def to_graph(self) -> MixedGraph:
        edges = []
        for a in self.vertices:
            for b in self.adj[a]:
                if a < b:
                    edges.append(Edge(a, b, self.at[(b, a)], self.at[(a, b)]))
        return MixedGraph(self.vertices, edges, kind="PAG")


# conditioning sets per stacked call of ``DataOracle``, which bounds the
# matrices one call stacks
MAX_BATCH = 256


def _distinct_subsets(pools: Sequence[Sequence], size: int):
    """The subsets of ``size`` vertices of each of ``pools`` in turn, in
    order, each distinct subset once; vertices are names or column
    positions. A pool holds distinct vertices, so a subset of a later pool
    is a repeat iff it lies inside an earlier one."""
    earlier: list[set] = []
    for pool in pools:
        subsets = combinations(pool, size)
        for done in earlier:
            subsets = filterfalse(done.issuperset, subsets)
        yield from subsets
        earlier.append(set(pool))


def _pairs(adj: dict[str, set[str]]) -> list[tuple[str, str]]:
    """The adjacent pairs (a, b) with a < b, in sorted order."""
    return [(a, b) for a in sorted(adj) for b in sorted(adj[a]) if a < b]


def _adjacency_search(ci, adj: dict[str, set[str]],
                      pools: Callable[[str, str], Sequence[Sequence[str]]],
                      size: int, max_cond_size: int | None,
                      sepsets: dict, queries: list[int]):
    """PC-stable level-wise search from ``size`` up to ``max_cond_size``:
    remove from ``adj`` each edge a-b that a subset of ``size`` vertices of
    one of ``pools(a, b)`` separates, and record that subset in
    ``sepsets``. Each size reads the pools of every adjacent pair a < b
    before it tests any; the search stops when every pool is shorter than
    the size."""
    while max_cond_size is None or size <= max_cond_size:
        level = {(a, b): pools(a, b) for a, b in _pairs(adj)}
        if all(len(pool) < size for ps in level.values() for pool in ps):
            return
        answers = ci.separating_sets([(a, b, ps, size)
                                      for (a, b), ps in level.items()])
        for (a, b), (tests, sep) in zip(level, answers):
            queries[0] += tests
            if sep is not None:
                adj[a].discard(b)
                adj[b].discard(a)
                sepsets[frozenset((a, b))] = frozenset(sep)
        size += 1


def _blocks(adj: dict[str, set[str]]) -> dict[frozenset, frozenset]:
    """The block (biconnected component) of each edge of the undirected
    graph ``adj``, as the vertices of its edges: two edges share a block
    iff a simple cycle passes through both. Hopcroft & Tarjan's depth-first
    search, without recursion."""
    order: dict[str, int] = {}
    low: dict[str, int] = {}
    out: dict[frozenset, frozenset] = {}
    edges: list[tuple[str, str]] = []
    for root in adj:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        # (vertex, its parent, its unvisited neighbours, where its tree
        # edge sits on the edge stack)
        frames = [(root, None, iter(adj[root]), 0)]
        while frames:
            v, parent, rest, start = frames[-1]
            for w in rest:
                if w not in order:
                    order[w] = low[w] = len(order)
                    frames.append((w, v, iter(adj[w]), len(edges)))
                    edges.append((v, w))
                    break
                if w != parent and order[w] < order[v]:
                    edges.append((v, w))
                    low[v] = min(low[v], order[w])
            else:
                frames.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= order[parent]:
                    # no edge below v climbs above parent: the edges pushed
                    # since parent-v form its block
                    vertices = frozenset(x for e in edges[start:] for x in e)
                    out.update((frozenset(e), vertices)
                               for e in edges[start:])
                    del edges[start:]
    return out


def _orient_colliders(marks: _Marks, sepsets: dict):
    for a, b in combinations(marks.vertices, 2):
        if marks.adjacent(a, b):
            continue
        sep = sepsets.get(frozenset((a, b)), frozenset())
        for c in sorted(marks.adj[a] & marks.adj[b]):
            if c not in sep:
                marks.set_mark(a, c, ARROW)
                marks.set_mark(b, c, ARROW)


def _possible_d_sep(marks: _Marks) -> dict[str, set[str]]:
    """Possible-D-SEP of each vertex x: the vertex b of every pair (a, b)
    reached from the pairs (x, b), where (a, b) extends to (b, c) when c
    is neither a nor x and b is a collider or a and c are adjacent."""
    out = {}
    for x in marks.vertices:
        stack = [(x, b) for b in marks.adj[x]]
        seen = set(stack)
        while stack:
            a, b = stack.pop()
            for c in marks.adj[b] - {a, x}:
                if (b, c) not in seen and (marks.adjacent(a, c) or (
                        marks.mark(a, b) == ARROW == marks.mark(c, b))):
                    seen.add((b, c))
                    stack.append((b, c))
        out[x] = {b for _, b in seen}
    return out


# -- orientation rules -------------------------------------------------------


def _rule_chain(marks: _Marks) -> bool:
    # a *-> b o-* c with a, c nonadjacent: orient b -> c
    changed = False
    for b in marks.vertices:
        for a in sorted(marks.adj[b]):
            if marks.mark(a, b) != ARROW:
                continue
            for c in sorted(marks.adj[b] - {a}):
                if marks.mark(c, b) == CIRCLE and not marks.adjacent(a, c):
                    changed |= marks.orient_directed(b, c)
    return changed


def _rule_ancestor(marks: _Marks) -> bool:
    # a -> b *-> c or a *-> b -> c, with a *-o c: orient arrowhead at c
    changed = False
    for b in marks.vertices:
        for a in sorted(marks.adj[b]):
            if marks.mark(a, b) != ARROW:
                continue
            for c in sorted(marks.adj[b] - {a}):
                if marks.mark(b, c) != ARROW or not marks.adjacent(a, c):
                    continue
                if marks.mark(a, c) != CIRCLE:
                    continue
                first_directed = marks.mark(b, a) == TAIL
                second_directed = marks.mark(c, b) == TAIL
                if first_directed or second_directed:
                    changed |= marks.set_mark(a, c, ARROW)
    return changed


def _rule_double_collider(marks: _Marks) -> bool:
    # a *-> b <-* c, a *-o d o-* c, a, c nonadjacent, d *-o b: arrow at b
    changed = False
    for a, c in combinations(marks.vertices, 2):
        if marks.adjacent(a, c):
            continue
        shared = marks.adj[a] & marks.adj[c]
        bs = [b for b in shared
              if marks.mark(a, b) == ARROW and marks.mark(c, b) == ARROW]
        ds = [d for d in shared
              if marks.mark(a, d) == CIRCLE and marks.mark(c, d) == CIRCLE]
        for b in bs:
            for d in ds:
                if d != b and marks.adjacent(d, b) and \
                        marks.mark(d, b) == CIRCLE:
                    changed |= marks.set_mark(d, b, ARROW)
    return changed


def _discriminating_paths(marks: _Marks, d: str, b: str, c: str):
    """Simple paths d ... a b whose interior vertices are colliders on the
    path and parents of c. A path is extended past an interior vertex only
    along an edge with an arrowhead at that vertex, so no path is built
    past a non-collider."""
    allowed = {v for v in marks.adj[c]
               if marks.mark(v, c) == ARROW and marks.mark(c, v) == TAIL}
    stack = [(d, (d,))]
    while stack:
        cur, path = stack.pop()
        for nxt in sorted(marks.adj[cur] - set(path)):
            if cur != d and marks.mark(nxt, cur) != ARROW:
                continue
            if nxt == b:
                if len(path) >= 2:
                    yield path + (nxt,)
                continue
            if nxt not in allowed or nxt == c:
                continue
            # an interior vertex has an arrowhead from the path before it
            if marks.mark(cur, nxt) != ARROW:
                continue
            stack.append((nxt, path + (nxt,)))


def _rule_discriminating(marks: _Marks, sepsets: dict) -> bool:
    changed = False
    for c in marks.vertices:
        for b in sorted(marks.adj[c]):
            # need a circle at b on the b-c edge
            if marks.mark(c, b) != CIRCLE:
                continue
            for d in sorted(set(marks.vertices) - {b, c}):
                if marks.adjacent(d, c):
                    continue
                for path in _discriminating_paths(marks, d, b, c):
                    sep = sepsets.get(frozenset((d, c)), frozenset())
                    if b in sep:
                        changed |= marks.orient_directed(b, c)
                    else:
                        a = path[-2]
                        changed |= marks.set_mark(a, b, ARROW)
                        changed |= marks.set_mark(b, a, ARROW)
                        changed |= marks.set_mark(b, c, ARROW)
                        changed |= marks.set_mark(c, b, ARROW)
                    break
    return changed


def _pd_edges(marks: _Marks) -> dict[str, set[str]]:
    """Potentially directed edge relation: x to y usable when the edge has
    no arrowhead at x and no tail at y."""
    out: dict[str, set[str]] = {v: set() for v in marks.vertices}
    for a in marks.vertices:
        for b in marks.adj[a]:
            if marks.mark(b, a) != ARROW and marks.mark(a, b) != TAIL:
                out[a].add(b)
    return out


def _rule_tail_triangle(marks: _Marks) -> bool:
    # a -> b -> c or a -o b -> c, with a o-> c: orient tail at a
    changed = False
    for a in marks.vertices:
        for c in sorted(marks.adj[a]):
            if marks.mark(c, a) != CIRCLE or marks.mark(a, c) != ARROW:
                continue
            for b in sorted(marks.adj[a] & marks.adj[c]):
                if marks.mark(b, a) == TAIL and \
                        marks.mark(a, b) in (ARROW, CIRCLE) and \
                        marks.mark(c, b) == TAIL and \
                        marks.mark(b, c) == ARROW:
                    changed |= marks.set_mark(c, a, TAIL)
                    break
    return changed


def _rule_uncovered_cycle(marks: _Marks) -> bool:
    # a o-> c with an uncovered p.d. path a, mu, ..., c, mu nonadjacent to
    # c: tail at a, which changes no p.d. edge, so pd is computed once
    changed = False
    pd = _pd_edges(marks)
    for a in marks.vertices:
        for c in sorted(marks.adj[a]):
            if marks.mark(c, a) != CIRCLE or marks.mark(a, c) != ARROW:
                continue
            if any(not marks.adjacent(mu, c) and
                   _pd_reaches(marks, pd, a, mu, c)
                   for mu in sorted(pd[a] - {c})):
                changed |= marks.set_mark(c, a, TAIL)
    return changed


def _rule_double_parent(marks: _Marks) -> bool:
    # a o-> c, b -> c <- d, uncovered p.d. paths a..b and a..d whose first
    # steps differ and are nonadjacent: tail at a
    changed = False
    pd = _pd_edges(marks)
    for a in marks.vertices:
        for c in sorted(marks.adj[a]):
            if marks.mark(c, a) != CIRCLE or marks.mark(a, c) != ARROW:
                continue
            parents = [p for p in sorted(marks.adj[c] - {a})
                       if marks.mark(p, c) == ARROW and
                       marks.mark(c, p) == TAIL]
            firsts = sorted(pd[a] - {c})
            if any(mu != omega and not marks.adjacent(mu, omega) and
                   _pd_reaches(marks, pd, a, omega, d)
                   for b, d in combinations(parents, 2)
                   for mu in firsts if _pd_reaches(marks, pd, a, mu, b)
                   for omega in firsts):
                changed |= marks.set_mark(c, a, TAIL)
    return changed


def _pd_reaches(marks: _Marks, pd: dict, a: str, first: str,
                target: str) -> bool:
    """Uncovered p.d. path from a through first to target (first may equal
    target)."""
    if first == target:
        return True
    stack = [(first, (a, first))]
    while stack:
        cur, path = stack.pop()
        for nxt in sorted(pd[cur] - set(path)):
            if marks.adjacent(path[-2], nxt):
                continue
            if nxt == target:
                return True
            stack.append((nxt, path + (nxt,)))
    return False


def fci(ci, variables: Sequence[str], knowledge: Knowledge | None = None,
        max_cond_size: int | None = None,
        report: dict | None = None) -> MixedGraph:
    """Learn a PAG from a conditional-independence oracle.

    ``ci.separating_sets(queries)`` decides the conditioning sets of one
    size of every edge in one call (see the module docstring). The
    returned PAG reflects the complete orientation rule set; rules that
    only fire under selection bias are omitted since undirected and
    circle-tail edges cannot arise without it. A ``report`` dict, when
    given, is filled with the number of CI queries (of an edge, the sets
    up to and including the first independent one), in all and per
    adjacency phase, the separating sets found, and per-rule firing
    counts. A negative ``max_cond_size`` raises ``ValueError``.
    """
    if max_cond_size is not None and max_cond_size < 0:
        raise ValueError(f"max_cond_size must be at least 0, not "
                         f"{max_cond_size}")
    vs = sorted(set(variables))
    knowledge = knowledge or Knowledge()
    queries = [0]
    adj = {v: set(vs) - {v} for v in vs}
    sepsets: dict[frozenset, frozenset] = {}
    _adjacency_search(ci, adj, lambda a, b: (sorted(adj[a] - {b}),
                                             sorted(adj[b] - {a})),
                      0, max_cond_size, sepsets, queries)
    skeleton_tests = queries[0]

    # provisional collider orientation to drive the possible-d-sep closure
    marks = _Marks(vs, _pairs(adj), knowledge)
    _orient_colliders(marks, sepsets)
    pdsep = _possible_d_sep(marks)
    # the phase only removes edges, so these blocks hold every later one's
    blocks = _blocks(adj)

    def pools(a, b):
        block = blocks[frozenset((a, b))] - {a, b}
        return sorted(pdsep[a] & block), sorted(pdsep[b] & block)

    _adjacency_search(ci, adj, pools, 1, max_cond_size, sepsets, queries)

    marks = _Marks(vs, _pairs(adj), knowledge)
    _orient_colliders(marks, sepsets)
    rules = [("chain", _rule_chain), ("ancestor", _rule_ancestor),
             ("double-collider", _rule_double_collider),
             ("discriminating",
              lambda m: _rule_discriminating(m, sepsets)),
             ("tail-triangle", _rule_tail_triangle),
             ("uncovered-cycle", _rule_uncovered_cycle),
             ("double-parent", _rule_double_parent)]
    firings = {name: 0 for name, _ in rules}
    while True:
        changed = False
        for name, rule in rules:
            if rule(marks):
                firings[name] += 1
                changed = True
        if not changed:
            break
    if report is not None:
        report["ci_tests"] = queries[0]
        report["ci_tests_by_phase"] = {
            "skeleton": skeleton_tests,
            "possible_d_sep": queries[0] - skeleton_tests}
        report["sepsets"] = {",".join(sorted(pair)): sorted(s)
                             for pair, s in sorted(sepsets.items(),
                                                   key=lambda kv: sorted(kv[0]))}
        report["rule_firings"] = firings
    return marks.to_graph()


def table_fci(table: DataTable, test: Callable = fisher_z_test,
              alpha: float = 0.01, max_cond_size: int | None = None,
              report: dict | None = None) -> MixedGraph:
    """Learn the PAG over a table's columns, answering queries with a
    ``DataOracle``. The environment indicator has no causes: arrowheads
    into the table's environment column, when it has one, are forbidden.
    """
    env = table.env_column
    knowledge = Knowledge(() if env is None else {env})
    return fci(DataOracle(table, test, alpha), table.names, knowledge,
               max_cond_size, report)


def pooled_fci(datasets: Sequence[DataTable], test: Callable = fisher_z_test,
               alpha: float = 0.01, env_name: str = "E",
               max_cond_size: int | None = None,
               report: dict | None = None) -> MixedGraph:
    """Learn the PAG over the pooled rows plus an environment indicator.

    The datasets are pooled by ``pool_environments``: the pooled table
    holds their rows one dataset after another, without copying them, and
    a discrete column named ``env_name`` records the dataset index.
    ``table_fci`` learns on the pooled table, so arrowheads into that
    column are forbidden, queries on pairs with it use
    ``environment_test`` (with ``test`` as its fallback) and the others use
    ``test`` (see ``DataOracle``).
    """
    return table_fci(pool_environments(datasets, env_name), test, alpha,
                     max_cond_size, report)


def possible_children_of_env(p: MixedGraph, env: str) -> set[str]:
    """Vertices adjacent to env by an edge not pointing into env."""
    p.check_vertices({env})
    return {w for w, _, here, _ in p.adjacency(env) if here != ARROW}
