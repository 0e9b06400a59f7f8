"""Constraint-based structure learning of a PAG from CI answers.

``fci`` runs the full adjacency search (stable skeleton, then the
possible-d-sep refinement), orients unshielded colliders, and applies the
standard complete orientation rule set to a fixpoint. Background knowledge
can forbid arrowheads into chosen vertices. ``pooled_fci`` concatenates
per-environment datasets with an appended environment indicator column.

``DataOracle`` answers queries with a CI test on a table. Queries on a
pair of the table's environment column and a continuous variable go to
``citest.environment_test``, a test of whether that variable's conditional
differs between environments (intercept, slope or scale); the chosen test
answers all the others, and also the environment pairs that the
environment test cannot fit (see ``citest``). So a mechanism change that
leaves a variable's mean alone, such as a change of scale, still makes the
variable a child of the environment vertex, and a variable constant in one
environment but not in another is a child of it.

An oracle is a callable ``ci(a, b, s)`` that answers whether a and b are
independent given s. The adjacency search is PC-stable: at each level it
works from an adjacency snapshot, so all the conditioning sets of one edge at
one size are known before any is answered. An oracle with a method
``first(a, b, subsets)``, returning the index of the first of ``subsets``
that makes a and b independent or None, is asked for them in batches of at
most ``MAX_BATCH``; ``DataOracle`` decides a batch of Fisher-z tests with
one stacked inverse and a batch of environment tests with one stacked
Cholesky factorization. Other oracles are asked one set at a time. Either
way a query counts as one CI test if it is decided: the sets of a batch up to
and including the first independent one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Callable, Iterable, Sequence

from .citest import environment_decisions, fisher_z_test, results
from .data import DataTable, pool_environments
from .graph import (
    ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph,
)
from .separation import m_connected


class InstabilityError(GraphError):
    """Orientation rules derived contradictory marks for an edge."""


@dataclass(frozen=True)
class Knowledge:
    """Background constraints for orientation.

    ``forbidden_into`` lists vertices that may not receive arrowheads.
    """

    forbidden_into: frozenset[str] = frozenset()

    def __init__(self, forbidden_into: Iterable[str] = ()):
        object.__setattr__(self, "forbidden_into", frozenset(forbidden_into))

    def blocks_arrowhead(self, src: str, dst: str) -> bool:
        return dst in self.forbidden_into


class SeparationOracle:
    """Exact CI oracle answering queries by m-separation in a known graph."""

    def __init__(self, graph: MixedGraph):
        self.graph = graph

    def __call__(self, a: str, b: str, s: Iterable[str]) -> bool:
        return not m_connected(self.graph, a, b, set(s))


class DataOracle:
    """CI oracle answering queries by a hypothesis test at level alpha on a
    table.

    A query whose a or b is the table's environment column goes to
    ``environment_test`` with ``test`` as its fallback (``test`` answers
    it when the other side is discrete or the per-environment regressions
    cannot be fitted); every other query goes to ``test``.
    """

    def __init__(self, table: DataTable, test: Callable = fisher_z_test,
                 alpha: float = 0.01):
        self.table = table
        self.test = test
        self.alpha = alpha

    def first(self, a: str, b: str,
              subsets: Sequence[Iterable[str]]) -> int | None:
        """Index of the first of ``subsets`` (all of one size) given which
        a and b test independent; None if none does. The sets after it are
        not tested, so one of them that cannot be tested raises nothing.
        Fisher-z decides the batch with one stacked inverse, the
        environment test with one stacked Cholesky factorization (see
        ``citest``)."""
        table, alpha = self.table, self.alpha
        if table.env_column in (a, b):
            decisions = environment_decisions(table, a, b, subsets, alpha,
                                              self.test)
        else:
            decisions = (r.p_value >= alpha
                         for r in results(self.test, table, a, b, subsets))
        return next((i for i, ind in enumerate(decisions) if ind), None)

    def __call__(self, a: str, b: str, s: Iterable[str]) -> bool:
        return self.first(a, b, [s]) == 0


class _Marks:
    """Mutable endpoint-mark store during orientation.

    ``self.at[(a, b)]`` is the mark at b on the edge a-b. Marks start as
    circles and may only be refined circle -> tail/arrow; a contradictory
    refinement raises InstabilityError.
    """

    def __init__(self, vertices: Sequence[str], skeleton: Iterable[frozenset],
                 knowledge: Knowledge):
        self.vertices = tuple(vertices)
        self.adj: dict[str, set[str]] = {v: set() for v in vertices}
        self.at: dict[tuple[str, str], str] = {}
        self.knowledge = knowledge
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
        """Refine the mark at b on edge a-b; returns whether it changed."""
        cur = self.at[(a, b)]
        if cur == mark:
            return False
        if cur != CIRCLE:
            raise InstabilityError(
                f"conflicting orientation on edge {a} - {b}")
        if mark == ARROW and self.knowledge.blocks_arrowhead(a, b):
            return False
        self.at[(a, b)] = mark
        return True

    def orient_directed(self, a: str, b: str) -> bool:
        # a tail at a without the arrowhead at b would leave a circle-tail
        # edge, which only selection bias explains; leave both marks alone
        if self.knowledge.blocks_arrowhead(a, b):
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


# conditioning sets per call of an oracle's ``first``, which bounds the
# matrices one batch stacks
MAX_BATCH = 256


def _distinct_subsets(pools: Sequence[Sequence[str]], size: int):
    """The subsets of ``size`` vertices of each of ``pools`` in turn, in
    order, each distinct subset once."""
    seen: set[frozenset] = set()
    for pool in pools:
        for s in combinations(pool, size):
            key = frozenset(s)
            if key not in seen:
                seen.add(key)
                yield s


def _separating_set(ci: Callable, a: str, b: str,
                    pools: Sequence[Sequence[str]], size: int,
                    queries: list[int]) -> frozenset | None:
    """The first subset of ``size`` vertices of one of ``pools``, in order,
    that makes a and b independent; each distinct subset is tested once.
    None when no subset does.

    Batches of at most ``MAX_BATCH`` subsets go to ``ci.first`` where
    ``ci`` has one, and to ``ci`` one subset at a time otherwise.
    ``queries[0]`` counts the subsets decided: up to and including the
    first independent one.
    """
    first = getattr(ci, "first", None)
    subsets = _distinct_subsets(pools, size)
    while batch := list(islice(subsets, MAX_BATCH)):
        if first is not None:
            i = first(a, b, batch)
        else:
            i = next((j for j, s in enumerate(batch) if ci(a, b, set(s))),
                     None)
        queries[0] += len(batch) if i is None else i + 1
        if i is not None:
            return frozenset(batch[i])
    return None


def _stable_skeleton(variables: Sequence[str], ci: Callable,
                     max_cond_size: int | None, queries: list[int]):
    """Level-wise adjacency search; all tests at size k use the adjacency
    snapshot taken before size k starts."""
    vs = sorted(variables)
    adj = {v: set(vs) - {v} for v in vs}
    sepsets: dict[frozenset, frozenset] = {}
    limit = len(vs) - 2 if max_cond_size is None else max_cond_size
    level = 0
    while level <= limit:
        snapshot = {v: sorted(adj[v]) for v in vs}
        if all(len(snapshot[v]) - 1 < level for v in vs):
            break
        for a, b in combinations(vs, 2):
            if b not in adj[a]:
                continue
            pools = [[v for v in snapshot[side] if v != other]
                     for side, other in ((a, b), (b, a))]
            sep = _separating_set(ci, a, b, pools, level, queries)
            if sep is not None:
                adj[a].discard(b)
                adj[b].discard(a)
                sepsets[frozenset((a, b))] = sep
        level += 1
    skeleton = {frozenset((a, b)) for a in vs for b in adj[a] if a < b}
    return skeleton, sepsets


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
    """Reachability closure: a path extends through v when v is a collider
    on it or its neighbors on the path are adjacent."""
    out = {v: set(marks.adj[v]) for v in marks.vertices}
    for x in marks.vertices:
        queue = deque((n, (x, n)) for n in sorted(marks.adj[x]))
        seen = set()
        while queue:
            current, path = queue.popleft()
            for nxt in sorted(marks.adj[current] - set(path)):
                a, b, c = path[-2], current, nxt
                collider = marks.mark(a, b) == ARROW and marks.mark(c, b) == ARROW
                if collider or marks.adjacent(a, c):
                    out[x].add(nxt)
                    out[nxt].add(x)
                    key = (current, nxt, frozenset(path))
                    if key not in seen:
                        seen.add(key)
                        queue.append((nxt, path + (nxt,)))
    return out


def _refine_with_d_sep(marks: _Marks, sepsets: dict, ci: Callable,
                       max_cond_size: int | None,
                       queries: list[int]) -> set[frozenset]:
    """Retest every remaining edge against subsets of the possible-d-sep
    sets; returns removed pairs."""
    pdsep = _possible_d_sep(marks)
    removed = set()
    for a in marks.vertices:
        for b in sorted(marks.adj[a]):
            if a >= b or frozenset((a, b)) in removed:
                continue
            pools = [sorted(pdsep[a] - {a, b}), sorted(pdsep[b] - {a, b})]
            upper = max(len(p) for p in pools)
            if max_cond_size is not None:
                upper = min(upper, max_cond_size)
            for size in range(1, upper + 1):
                sep = _separating_set(ci, a, b, pools, size, queries)
                if sep is not None:
                    removed.add(frozenset((a, b)))
                    sepsets[frozenset((a, b))] = sep
                    break
    return removed


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


def fci(ci: Callable, variables: Sequence[str],
        knowledge: Knowledge | None = None,
        max_cond_size: int | None = None,
        report: dict | None = None) -> MixedGraph:
    """Learn a PAG from a conditional-independence oracle.

    ``ci(a, b, s)`` answers whether a and b are independent given s. If
    ``ci`` has a method ``first(a, b, subsets)`` (see the module
    docstring), each edge's conditioning sets of one size go to it in
    batches of at most ``MAX_BATCH``. The returned PAG reflects the
    complete orientation rule set; rules that only fire under selection
    bias are omitted since undirected and circle-tail edges cannot arise
    without it. A ``report`` dict, when given, is filled with the number of
    CI queries (of a batch, the sets up to and including the first
    independent one), the separating sets found, and per-rule firing
    counts.
    """
    vs = sorted(set(variables))
    if len(vs) < 2:
        if report is not None:
            report.update(ci_tests=0, sepsets={}, rule_firings={})
        return MixedGraph(vs, [], kind="PAG")
    knowledge = knowledge or Knowledge()
    queries = [0]
    skeleton, sepsets = _stable_skeleton(vs, ci, max_cond_size, queries)

    # provisional collider orientation to drive the possible-d-sep closure
    marks = _Marks(vs, skeleton, knowledge)
    _orient_colliders(marks, sepsets)
    removed = _refine_with_d_sep(marks, sepsets, ci, max_cond_size,
                                 queries)
    skeleton -= removed

    marks = _Marks(vs, skeleton, knowledge)
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
        report["sepsets"] = {",".join(sorted(pair)): sorted(s)
                             for pair, s in sorted(sepsets.items(),
                                                   key=lambda kv: sorted(kv[0]))}
        report["rule_firings"] = firings
    return marks.to_graph()


def pooled_fci(datasets: Sequence[DataTable], test: Callable = fisher_z_test,
               alpha: float = 0.01, env_name: str = "E",
               max_cond_size: int | None = None,
               report: dict | None = None) -> MixedGraph:
    """Learn the PAG over the pooled rows plus an environment indicator.

    The datasets are pooled by ``pool_environments``: rows are concatenated,
    a discrete column named ``env_name`` records the dataset index, and
    arrowheads into it are forbidden. Queries on pairs with the environment
    column use ``environment_test`` (with ``test`` as its fallback) and the
    others use ``test`` (see ``DataOracle``).
    """
    pooled = pool_environments(datasets, env_name)
    knowledge = Knowledge(forbidden_into={env_name})
    oracle = DataOracle(pooled, test, alpha)
    return fci(oracle, pooled.names, knowledge, max_cond_size, report)


def possible_children_of_env(p: MixedGraph, env: str) -> set[str]:
    """Vertices adjacent to env by an edge not pointing into env."""
    p.check_vertices({env})
    return {w for w, _, here, _ in p.adjacency(env) if here != ARROW}
