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

A learn runs on one index: position i, and bit i of a mask, stand for the
i-th name in sorted order, as in ``graph.VertexMasks``. Adjacency and each
endpoint mark are a mask row per vertex (``_Marks``); the pools,
Possible-D-SEP (a ``graph.reach`` over edge states), the blocks, the
collider step and the rules of Zhang (2008) are mask arithmetic, applied
in name order, the first refined mark winning. Names come back only in the
PAG, the separating sets and the report.

An oracle's one method, ``bind(names)``, called once per learn with the
sorted names, returns ``firsts(rows, counts)``, the contract of
``citest.firsts_at``: rows [a, b, *s] of positions, all s of one size,
``counts`` the number of rows of each query in turn, and per query the
index of its first row whose s separates a and b, None, or the error of
a set it cannot test, returned. ``fci`` alone enumerates, batches and
counts the sets (``_stream``). Both adjacency phases are one PC-stable
level-wise search, which reads the pools of every adjacent pair before it
tests any (Colombo & Maathuis 2014), so one stream asks a whole level, as
GPU PC (cuPC) does. A query (a, b, pools, size) of a level, pools masks,
asks the subsets of ``size`` vertices of each pool in turn, each distinct
subset once, as cached combination-index arrays into the pool's positions,
cached per pool mask (``_subset_rows``); they are cut into calls of
``firsts`` of as many sets as fill ``MAX_BATCH`` * 64 matrix elements,
(|s| + 2)^2 per set, but never fewer than ``MAX_BATCH``, one piece per
query, a call's rows built by one gather, and a pair decided in one call
adds no sets to the next. A query counts as one CI test per set decided:
up to and including its first separating one, which is recorded as a
mask; the first query to reach a set that cannot be tested raises its
error. ``SeparationOracle`` answers by m-separation in a known graph,
each row by ``separation.connected``. ``DataOracle`` answers by a CI test
on a table, the rows put at the table's columns and decided by
``citest.firsts_at`` in stacked calls: ``citest.environment_test`` (does
a variable's conditional differ between environments, in intercept, slope
or scale) on a pair of the environment column and a continuous variable,
the chosen test on the others and on the pairs the environment test
cannot fit; ``citest`` routes each set. So a variable whose scale, or
whose constancy, differs between environments is a child of the
environment vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import (
    accumulate, chain, combinations, count, islice, takewhile,
)
from math import comb
from typing import Callable, Iterable, Sequence

import numpy as np

from .citest import batched_statistics, firsts_at, fisher_z_test
from .data import DataTable, pool_environments
from .graph import (
    ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph, blocks, positions,
    reach,
)
from .separation import connected


@dataclass(frozen=True)
class Knowledge:
    """Background constraints for orientation.

    ``forbidden_into`` lists vertices that may not receive arrowheads.
    """

    forbidden_into: frozenset[str] = frozenset()

    def __init__(self, forbidden_into: Iterable[str] = ()):
        object.__setattr__(self, "forbidden_into", frozenset(forbidden_into))


class SeparationOracle:
    """Exact CI oracle: m-separation in a known ADMG or MAG."""

    def __init__(self, graph: MixedGraph):
        self.graph = graph

    def bind(self, names: Sequence[str]) -> Callable:
        """``firsts`` over ``names`` (see the module docstring): each row's
        set, a mask of the graph's index, tested by ``separation.connected``
        up to its query's first separating one. A graph that is not an ADMG
        or MAG, or a name it lacks, raises ``m_connected``'s GraphError."""
        g = self.graph
        if g.kind not in ("ADMG", "MAG"):
            raise GraphError(f"m_connected requires an ADMG or MAG, "
                             f"got {g.kind}")
        ix = g.masks()
        ix.mask(names)
        de = ix.reached_by("pa")
        bits = np.array([ix.bit[v] for v in names], dtype=object)
        at = np.array([bit.bit_length() - 1 for bit in bits], np.intp)

        def firsts(rows: np.ndarray, counts: Sequence[int]) -> list:
            xs, ys = at[rows[:, 0]].tolist(), bits[rows[:, 1]].tolist()
            zs, out, end = bits[rows[:, 2:]].sum(axis=1).tolist(), [], 0
            for count in counts:
                start, end = end, end + count
                out.append(next((j - start for j in range(start, end)
                                 if not connected(ix, de, xs[j], ys[j],
                                                  zs[j])), None))
            return out

        return firsts


class DataOracle:
    """CI oracle answering queries by ``test`` at level alpha on a table,
    with ``environment_test`` first on the environment pairs (see the
    module docstring). Raises ``ValueError`` unless 0 < alpha < 1 and
    ``citest`` batches ``test``."""

    def __init__(self, table: DataTable, test: Callable = fisher_z_test,
                 alpha: float = 0.01):
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be between 0 and 1, not {alpha}")
        batched_statistics(test)  # raises for a test citest cannot batch
        self.table, self.test, self.alpha = table, test, alpha

    def bind(self, names: Sequence[str]) -> Callable:
        """``firsts`` over ``names``, columns of the table (else
        ``DataError``): ``citest.firsts_at`` on the rows put at their
        columns."""
        table, test, alpha = self.table, self.test, self.alpha
        cols = np.array(table.positions(names), np.intp)

        def firsts(rows: np.ndarray, counts: Sequence[int]) -> list:
            return firsts_at(test, table, cols[rows], counts, alpha)

        return firsts


def _stream(firsts: Callable, queries: Sequence[tuple]) -> list[tuple]:
    """For each query (a, b, pools, size) of one adjacency level, a and b
    positions and pools masks, the number of sets decided and the first
    separating one, as a mask, or None. The query's sets, its
    ``_subset_rows`` blocks, and those of the queries after it are cut
    into calls of ``firsts`` of rows [a, b, *s], one piece of consecutive
    sets per query; a query cut at the end of a call continues in the next
    unless it was decided. A call holds as many rows as fill
    ``MAX_BATCH`` * 64 matrix elements, a row standing for the
    (size + 2)^2 elements of its correlation submatrix, but never fewer
    than ``MAX_BATCH``: so a level of small sets, which PC-stable asks all
    at once, is one call where a cap of ``MAX_BATCH`` rows cut it into
    several, and from size 6 up the cap is ``MAX_BATCH`` rows. The first
    query to reach a set that cannot be tested raises its error: every
    query before it is decided by then."""
    out = [(0, None)] * len(queries)
    size = queries[0][3] if queries else 0
    cap = max(MAX_BATCH, MAX_BATCH * 64 // (size + 2) ** 2)

    def ask(places: list, indexes: list, owners: list[int],
            counts: list[int]) -> bool:
        """Ask one call, of the sets ``indexes`` into ``places``, block by
        block, of the queries ``owners``, ``counts`` sets each; whether its
        last query was decided."""
        sides = []
        for k in owners:
            sides += queries[k][:2]
        lens = list(map(len, indexes))
        starts = list(accumulate(map(len, places[:-1]), initial=0))
        rows = np.empty((sum(lens), size + 2), np.intp)
        rows[:, :2] = np.repeat(np.reshape(sides, (-1, 2)), counts, axis=0)
        rows[:, 2:] = np.concatenate(places)[np.concatenate(indexes) +
                                             np.repeat(starts, lens)[:, None]]
        got = firsts(rows, counts)
        end = 0
        for k, count, i in zip(owners, counts, got):
            start, end = end, end + count
            if isinstance(i, Exception):
                try:
                    raise i
                finally:  # its traceback holds this frame: break the cycle
                    i = got = None
            tests = out[k][0]
            if i is None:
                out[k] = (tests + count, None)
            else:
                out[k] = (tests + i + 1, sum(
                    1 << v for v in rows[start + i, 2:].tolist()))
        return out[k][1] is not None

    # the next call's blocks, as places and index arrays, by query
    places, indexes, owners, counts, room = [], [], [], [], cap
    for k, (_, _, pools, size) in enumerate(queries):
        sets = 0   # the query's sets in the next call
        for at, index in _subset_rows(pools, size):
            while len(index) >= room:   # fill the call and ask it
                places.append(at), indexes.append(index[:room])
                owners.append(k), counts.append(sets + room)
                decided = ask(places, indexes, owners, counts)
                places, indexes, owners, counts = [], [], [], []
                index, room, sets = index[room:], cap, 0
                if decided:   # none of its further sets is asked
                    break
            else:
                if len(index):
                    places.append(at), indexes.append(index)
                    sets += len(index)
                    room -= len(index)
                continue
            break
        if sets:
            owners.append(k), counts.append(sets)
    if owners:
        ask(places, indexes, owners, counts)
    return out


class _Marks:
    """Mutable endpoint-mark store during orientation, as mask rows:
    ``adj[v]`` holds v's neighbours; ``arrow[v]``, ``tail[v]`` and
    ``circle[v]`` the neighbours u whose edge u-v has that mark at v;
    ``arrow_to[u]``, ``tail_to[u]`` and ``circle_to[u]`` the same marks
    from the other end. Marks start as circles and are refined circle ->
    tail/arrow once: on finite samples the rules can ask for the other
    refinement of a set mark, and the first one stays. No arrowhead enters
    ``forbidden``."""

    def __init__(self, adj: Sequence[int], forbidden: int = 0):
        self.adj, self.forbidden = list(adj), forbidden
        self.arrow, self.arrow_to, self.tail, self.tail_to = \
            ([0] * len(adj) for _ in range(4))
        self.circle, self.circle_to = list(adj), list(adj)

    def mark(self, a: int, b: int) -> str:
        """The mark at b on the edge a-b."""
        return ARROW if self.arrow[b] >> a & 1 else \
            TAIL if self.tail[b] >> a & 1 else CIRCLE

    def set_mark(self, a: int, b: int, mark: str) -> bool:
        """Refine a circle at b on edge a-b; returns whether it changed."""
        if not self.circle[b] >> a & 1 or (mark == ARROW and
                                           self.forbidden >> b & 1):
            return False
        at, to = (self.arrow, self.arrow_to) if mark == ARROW else \
            (self.tail, self.tail_to)
        self.circle[b] ^= 1 << a
        self.circle_to[a] ^= 1 << b
        at[b] |= 1 << a
        to[a] |= 1 << b
        return True

    def orient_directed(self, a: int, b: int) -> bool:
        # a tail at a without the arrowhead at b would leave a circle-tail
        # edge, which only selection bias explains; leave both marks alone
        if self.forbidden >> b & 1:
            return False
        return self.set_mark(b, a, TAIL) | self.set_mark(a, b, ARROW)

    def to_graph(self, names: Sequence[str]) -> MixedGraph:
        edges = [Edge(names[a], names[b], self.mark(b, a), self.mark(a, b))
                 for a, b in _pairs(self.adj)]
        return MixedGraph(names, edges, kind="PAG")


# rows per block of ``_index_blocks``, and the fewest rows per call of an
# oracle's ``firsts``; a call holds as many rows as fill MAX_BATCH * 64
# matrix elements (see ``_stream``), which bounds the data oracle's stacked
# matrices
MAX_BATCH = 256


def _subset_rows(pools: Sequence[int], size: int):
    """The subsets of ``size`` positions of each of ``pools`` (masks) in
    turn, in ``combinations`` order, each distinct subset once, in blocks
    of at most ``MAX_BATCH`` rows: pairs of the pool's positions
    (``_places``) and an index array into them, from ``_index_blocks``,
    less the subsets inside an earlier pool (a subset of a later pool is a
    repeat iff it lies inside an earlier one)."""
    for j, pool in enumerate(pools):
        if j and not size:   # the one empty set lies inside the first pool
            return
        m = pool.bit_count()
        if m < size:
            continue
        insides = []   # each earlier pool as a mask over this pool's places
        for e in pools[:j]:
            shared = pool & e
            if shared == pool:
                break
            if shared.bit_count() >= size:
                insides.append(_within(shared, pool))
        else:
            at = _places(pool)
            for index in _index_blocks(m, size, tuple(insides)):
                if len(index):
                    yield at, index


@lru_cache(maxsize=4096)
def _places(pool: int) -> np.ndarray:
    """The positions of the bits of mask ``pool``, lowest first."""
    at = np.fromiter(positions(pool), np.intp, pool.bit_count())
    at.flags.writeable = False   # shared by every caller
    return at


@lru_cache(maxsize=4096)
def _within(shared: int, pool: int) -> int:
    """``shared``, a mask inside ``pool``, over the places of ``pool``: bit
    i set iff the i-th position of ``pool`` is in ``shared``."""
    return sum(1 << i for i, v in enumerate(_places(pool).tolist())
               if shared >> v & 1)


# bytes of the largest combination-index array kept whole (its entries
# take the narrowest unsigned type that holds m): 1 MB, and at most 32 of
# them are kept
CACHED_INDEX = 1 << 20


def _index_blocks(m: int, k: int, insides: tuple[int, ...]):
    """The k-subsets of range(m) inside none of ``insides`` (masks over
    range(m)), in ``combinations`` order, as index arrays of at most
    ``MAX_BATCH`` rows. A lone block is built once, cached; so is the index
    of all k-subsets up to ``CACHED_INDEX`` bytes, cut into blocks as a
    query reaches them; a larger one is built a block at a time."""
    n = comb(m, k)
    if n <= MAX_BATCH:
        return (_small_index(m, k, insides),)
    if n * k * np.min_scalar_type(m).itemsize <= CACHED_INDEX:
        index = _subsets(m, k)
        blocks = (index[i:i + MAX_BATCH] for i in range(0, n, MAX_BATCH))
    else:
        subsets = combinations(range(m), k)
        blocks = takewhile(len, (
            np.fromiter(chain.from_iterable(islice(subsets, MAX_BATCH)),
                        np.intp).reshape(-1, k) for _ in count()))
    return (_outside(block, m, insides) for block in blocks)


@lru_cache(maxsize=32)
def _subsets(m: int, k: int) -> np.ndarray:
    index = np.fromiter(chain.from_iterable(combinations(range(m), k)),
                        np.min_scalar_type(m)).reshape(comb(m, k), k)
    index.flags.writeable = False   # shared by every caller
    return index


@lru_cache(maxsize=1024)
def _small_index(m: int, k: int, insides: tuple[int, ...]) -> np.ndarray:
    index = _outside(_subsets(m, k), m, insides)
    index.flags.writeable = False   # shared by every caller
    return index


def _outside(index: np.ndarray, m: int, insides: tuple[int, ...]):
    for inside in insides:
        members = np.array([inside >> i & 1 for i in range(m)], dtype=bool)
        index = index[~members[index].all(axis=1)]
    return index


def _pairs(adj: Sequence[int]) -> list[tuple[int, int]]:
    """The adjacent pairs (a, b) with a < b, in order."""
    return [(a, b) for a in range(len(adj))
            for b in positions(adj[a] & -(2 << a))]


def _nonadjacent(adj: Sequence[int]) -> list[tuple[int, int]]:
    """The nonadjacent pairs (a, c) with a < c, in order."""
    full = (1 << len(adj)) - 1
    return _pairs([full & ~row & ~(1 << v) for v, row in enumerate(adj)])


def _adjacency_search(firsts: Callable, adj: list[int],
                      pools: Callable[[int, int], tuple[int, ...]],
                      size: int, max_cond_size: int | None,
                      sepsets: dict, queries: list[int]):
    """PC-stable level-wise search from ``size`` up to ``max_cond_size``:
    remove from ``adj`` each edge a-b that a subset of ``size`` vertices of
    one of ``pools(a, b)``, read for every pair a < b first, separates, and
    record it in ``sepsets``; stop when every pool is shorter than size."""
    while max_cond_size is None or size <= max_cond_size:
        level = {(a, b): pools(a, b) for a, b in _pairs(adj)}
        if all(pool.bit_count() < size for ps in level.values()
               for pool in ps):
            return
        answers = _stream(firsts, [(a, b, ps, size)
                                   for (a, b), ps in level.items()])
        for (a, b), (tests, sep) in zip(level, answers):
            queries[0] += tests
            if sep is not None:
                adj[a] &= ~(1 << b)
                adj[b] &= ~(1 << a)
                sepsets[a, b] = sep
        size += 1


def _blocks(adj: Sequence[int]) -> dict[tuple[int, int], int]:
    """The block (biconnected component) of each edge a-b, a < b, of the
    undirected graph ``adj``: the mask of a, b and each v on a cycle
    through a-b. By Menger's theorem v is on one iff no c other than v cuts
    it from a and b: iff for every c, v is c or shares a component of the
    graph without c with a (with b if c is a)."""
    full = (1 << len(adj)) - 1
    # per vertex c, each vertex's component of the graph without c
    part = [[0] * len(adj) for _ in adj]
    for c, row in enumerate(part):
        for piece in blocks(adj, full & ~(1 << c)):
            for x in positions(piece):
                row[x] = piece
    out = {}
    for a, b in _pairs(adj):
        block = full
        for c, row in enumerate(part):
            block &= row[b if c == a else a] | 1 << c
        out[a, b] = block
    return out


def _orient_colliders(marks: _Marks, sepsets: dict):
    adj = marks.adj
    for a, b in _nonadjacent(adj):
        for c in positions(adj[a] & adj[b] & ~sepsets.get((a, b), 0)):
            marks.set_mark(a, c, ARROW)
            marks.set_mark(b, c, ARROW)


def _possible_d_sep(marks: _Marks) -> list[int]:
    """Possible-D-SEP of each vertex x, as a mask: the b of every edge
    state (a, b), bit a n + b, that one ``graph.reach`` from the states (x,
    b) finds, where (a, b) steps to (b, c) when c is neither a nor x (out
    of scope) and b is a collider or a and c are adjacent."""
    adj, arrow, n = marks.adj, marks.arrow, len(marks.adj)
    steps = [0] * (n * n)
    for a in range(n):
        for b in positions(adj[a]):
            # past a collider at b any c, else one adjacent to a
            far = adj[a] | arrow[b] if arrow[b] >> a & 1 else adj[a]
            steps[a * n + b] = (adj[b] & far & ~(1 << a)) << b * n
    ends = sum(1 << a * n for a in range(n))  # the states that end at 0
    everything = (1 << n * n) - 1
    out = []
    for x in range(n):
        reached = reach(steps, adj[x] << x * n, everything & ~(ends << x))
        got = 0
        for a in range(n):
            got |= reached >> a * n
        out.append(got & (1 << n) - 1)
    return out


# -- orientation rules -------------------------------------------------------
# Each rule yields whether each refinement it asks for changed a mark. It
# visits vertices and neighbours in name order and reads the rows as they
# stand, so a mark it refines is seen by the rest of its pass.


def _rule_chain(marks: _Marks):
    # a *-> b o-* c with a, c nonadjacent: orient b -> c
    adj = marks.adj
    for b in range(len(adj)):
        far = 0
        for a in positions(marks.arrow[b]):
            far |= ~adj[a]
        for c in positions(marks.circle[b] & far):
            yield marks.orient_directed(b, c)


def _rule_ancestor(marks: _Marks):
    # a -> b *-> c or a *-> b -> c, with a *-o c: orient arrowhead at c
    tail = marks.tail
    for b in range(len(tail)):
        for a in positions(marks.arrow[b]):
            cs = marks.arrow_to[b] & marks.circle_to[a]
            if not tail[a] >> b & 1:   # else a -> b
                cs &= tail[b]           # b -> c
            for c in positions(cs):
                yield marks.set_mark(a, c, ARROW)


def _rule_double_collider(marks: _Marks):
    # a *-> b <-* c, a *-o d o-* c, a, c nonadjacent, d *-o b: arrow at b
    arrow_to, circle_to = marks.arrow_to, marks.circle_to
    for a, c in _nonadjacent(marks.adj):
        ds = circle_to[a] & circle_to[c]
        for b in positions(arrow_to[a] & arrow_to[c]):
            for d in positions(ds & marks.circle[b]):
                yield marks.set_mark(d, b, ARROW)


def _discriminating_path(marks: _Marks, bidirected: list[int], d: int,
                         b: int, c: int) -> int:
    """The mask of every a that ends a discriminating path d *-> v <-> ...
    <-> a <-* b for c, its inner vertices parents of c: one reach over the
    bidirected edges among c's parents. ``bidirected`` is filled with the
    rows arrow[v] & arrow_to[v] once a path can start; R4's refinements on
    b-c and a-b change none of them among c's parents."""
    inner = marks.arrow[c] & marks.tail_to[c]
    first = inner & marks.arrow_to[d]
    if first and not bidirected:
        bidirected.extend(map(int.__and__, marks.arrow, marks.arrow_to))
    return reach(bidirected, first, inner) & marks.arrow_to[b]


def _rule_discriminating(marks: _Marks, sepsets: dict):
    # discriminating paths d ... a, b, c for b, with b o-* c: b -> c if b
    # is in Sepset(c, d), else a <-> b <-> c for each of their ends a
    adj = marks.adj
    full = (1 << len(adj)) - 1
    for c in range(len(adj)):
        for b in positions(adj[c]):
            bidirected = []
            for d in positions(full & ~adj[c] & ~(1 << c)):
                if not marks.circle[b] >> c & 1:   # need b-c circle at b
                    break
                ends = _discriminating_path(marks, bidirected, d, b, c)
                if ends and sepsets.get((min(c, d), max(c, d)), 0) >> b & 1:
                    yield marks.orient_directed(b, c)
                elif ends:
                    for a in positions(ends):
                        yield marks.set_mark(a, b, ARROW)
                    yield marks.set_mark(b, c, ARROW)
                    yield marks.set_mark(c, b, ARROW)


def _pd_edges(marks: _Marks) -> list[int]:
    """Potentially directed edge relation: x to y usable when the edge has
    no arrowhead at x and no tail at y."""
    return [adj & ~arrow & ~tail_to for adj, arrow, tail_to
            in zip(marks.adj, marks.arrow, marks.tail_to)]


def _rule_tail_triangle(marks: _Marks):
    # a -> b -> c or a -o b -> c, with a o-> c: orient tail at a
    arrow, arrow_to = marks.arrow, marks.arrow_to
    for a in range(len(arrow)):
        for c in positions(marks.circle[a] & arrow_to[a]):
            if marks.tail[a] & (arrow_to[a] | marks.circle_to[a]) & \
                    marks.tail_to[c] & arrow[c]:
                yield marks.set_mark(c, a, TAIL)


def _rule_uncovered_cycle(marks: _Marks):
    # a o-> c with an uncovered p.d. path a, mu, ..., c, mu nonadjacent to
    # c: tail at a, which changes no p.d. edge, so pd is computed once
    adj, pd = marks.adj, _pd_edges(marks)
    for a in range(len(adj)):
        for c in positions(marks.circle[a] & marks.arrow_to[a]):
            if any(_pd_reaches(adj, pd, a, mu, c)
                   for mu in positions(pd[a] & ~adj[c] & ~(1 << c))):
                yield marks.set_mark(c, a, TAIL)


def _rule_double_parent(marks: _Marks):
    # a o-> c, b -> c <- d, uncovered p.d. paths a..b and a..d whose first
    # steps differ and are nonadjacent: tail at a
    adj, pd = marks.adj, _pd_edges(marks)
    for a in range(len(adj)):
        for c in positions(marks.circle[a] & marks.arrow_to[a]):
            parents = marks.arrow[c] & marks.tail_to[c] & ~(1 << a)
            firsts = list(positions(pd[a] & ~(1 << c)))
            if any(mu != omega and not adj[mu] >> omega & 1 and
                   _pd_reaches(adj, pd, a, omega, d)
                   for b in positions(parents)
                   for d in positions(parents & -(2 << b))
                   for mu in firsts if _pd_reaches(adj, pd, a, mu, b)
                   for omega in firsts):
                yield marks.set_mark(c, a, TAIL)


def _pd_reaches(adj: Sequence[int], pd: Sequence[int], a: int, first: int,
                target: int) -> bool:
    """Uncovered p.d. path from a through first to target (which may be
    first), over simple paths: a walk may be uncovered where no path is."""
    if first == target:
        return True
    stack = [(a, first, 1 << a | 1 << first)]
    while stack:
        before, v, path = stack.pop()
        steps = pd[v] & ~path & ~adj[before]
        if steps >> target & 1:
            return True
        stack.extend((v, w, path | 1 << w) for w in positions(steps))
    return False


def fci(ci, variables: Sequence[str], knowledge: Knowledge | None = None,
        max_cond_size: int | None = None,
        report: dict | None = None) -> MixedGraph:
    """Learn a PAG from a conditional-independence oracle ``ci`` (see the
    module docstring). The PAG reflects the complete orientation rule set;
    rules that only fire under selection bias are omitted since undirected
    and circle-tail edges cannot arise without it. A ``report`` dict, when
    given, is filled with the number of CI queries, in all and per
    adjacency phase, the separating sets found, and per-rule firing
    counts. A negative ``max_cond_size`` raises ``ValueError``, and a
    ``knowledge`` vertex not among ``variables`` a ``GraphError``.
    """
    if max_cond_size is not None and max_cond_size < 0:
        raise ValueError(f"max_cond_size must be at least 0, not "
                         f"{max_cond_size}")
    names = tuple(sorted(set(variables)))
    into = (knowledge or Knowledge()).forbidden_into
    if not into <= set(names):
        raise GraphError(f"forbidden_into names unknown vertices: "
                         f"{sorted(into - set(names))}")
    forbidden = sum(1 << i for i, v in enumerate(names) if v in into)
    firsts = ci.bind(names)
    queries = [0]
    adj = [(1 << len(names)) - 1 & ~(1 << v) for v in range(len(names))]
    sepsets: dict[tuple[int, int], int] = {}
    _adjacency_search(firsts, adj,
                      lambda a, b: (adj[a] & ~(1 << b), adj[b] & ~(1 << a)),
                      0, max_cond_size, sepsets, queries)
    skeleton_tests = queries[0]

    # provisional collider orientation to drive the possible-d-sep closure
    marks = _Marks(adj, forbidden)
    _orient_colliders(marks, sepsets)
    pdsep = _possible_d_sep(marks)
    # the phase only removes edges, so these blocks hold every later one's
    block_of = _blocks(adj)

    def pools(a, b):
        block = block_of[a, b] & ~(1 << a | 1 << b)
        return pdsep[a] & block, pdsep[b] & block

    _adjacency_search(firsts, adj, pools, 1, max_cond_size, sepsets, queries)

    marks = _Marks(adj, forbidden)
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
            if any([*rule(marks)]):   # every refinement asked is tried
                firings[name] += 1
                changed = True
        if not changed:
            break
    if report is not None:
        report["ci_tests"] = queries[0]
        report["ci_tests_by_phase"] = {
            "skeleton": skeleton_tests,
            "possible_d_sep": queries[0] - skeleton_tests}
        report["sepsets"] = {f"{names[a]},{names[b]}":
                             [names[v] for v in positions(s)]
                             for (a, b), s in sorted(sepsets.items())}
        report["rule_firings"] = firings
    return marks.to_graph(names)


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
