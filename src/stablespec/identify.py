"""Invariance checking and interventional identification on PAGs.

``invariant_conditional_mag`` decides whether a conditional P(y|z) is
invariant to interventions on a set of variables by m-separation queries in
MAGs derived from the PAG, built once per (PAG, intervened vertex); it is
the checker the program calls. ``invariant_conditional`` enumerates
definite status paths in the PAG and is kept only as the test oracle for
it. ``identify_interventional`` derives a symbolic expression for an
interventional conditional from the observational joint, or reports
failure when the PAG does not determine one; it keeps on the PAG each Q[c]
of the joint and each simplified answer per target and decomposition
pieces meeting the target, failures included.

Both are answered by one implementation on the PAG's mask index
(``graph.VertexMasks``): a ``SearchContext`` holds what the answers for one
PAG and one mutable set share, built on first use, and answers
``invariant`` and ``identify`` for each conditioning set by mask
arithmetic on its tables. A search builds one context and asks it for
every set, so each decomposition step is computed once per search, and a
set's decomposition stops at the piece that covers the target; the public
functions build one per query. Decomposition steps, bucket absorption and
elimination, and Q[c] identification have only mask cores, which call
each other; vertex names become masks once, in the public functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .components import (
    _bucket_order, _pc, _region, class_mag, invisible, pag_to_mag,
)
from .expressions import (
    Factor, ONE, Product, Quotient, SumOver, conditional_of, simplify,
)
from .graph import (
    ARROW, TAIL, GraphError, MixedGraph, REMOVE_INTO, REMOVE_VISIBLE_OUT_OF,
    VertexMasks, blocks, closures, mutilate, positions, possible_ancestors,
    reach,
)
from .separation import connected, definite_connecting_paths, visible_edges


class NotIdentifiable(Exception):
    """Raised internally when no identification rule applies."""


class _Fail:
    """Sentinel result: the query has no unique answer in this PAG. Its one
    instance is ``FAIL``."""

    def __repr__(self):
        return "FAIL"

    def __bool__(self):
        return False


FAIL = _Fail()


@dataclass(frozen=True)
class InvarianceQuery:
    """Is P(y | z) unchanged by interventions on x?"""

    x: frozenset[str]
    y: frozenset[str]
    z: frozenset[str]

    def __init__(self, x: Iterable[str], y: Iterable[str], z: Iterable[str]):
        object.__setattr__(self, "x", frozenset(x))
        object.__setattr__(self, "y", frozenset(y))
        object.__setattr__(self, "z", frozenset(z))
        _require_query(self.x, self.y, self.z, ("xy", "yz"))


def _require_query(x: frozenset[str], y: frozenset[str],
                   z: frozenset[str], pairs=("xy", "yz", "xz")):
    """Raise GraphError naming, for each of the ``pairs`` of sets that
    overlap, both sets and the vertices they share; or, for disjoint sets,
    saying that the target y is empty."""
    sets = {"x": x, "y": y, "z": z}
    role = {"x": "intervened", "y": "target", "z": "given"}
    clashes = [f"{a} ({role[a]}) and {b} ({role[b]}) share "
               + ", ".join(sorted(sets[a] & sets[b]))
               for a, b in pairs if sets[a] & sets[b]]
    if clashes:
        raise GraphError("; ".join(clashes) + "; they must be disjoint")
    if not y:
        raise GraphError("y must be nonempty")


# -- invariance ----------------------------------------------------------


def invariant_conditional(p: MixedGraph, q: InvarianceQuery) -> bool:
    """Test oracle for ``invariant_conditional_mag``: path enumeration.

    For each X: if X ∈ z, every definite status connecting path to y given
    z minus X must leave X through a visible edge; if X is a possible
    ancestor of z, no connecting path to y given z may exist; otherwise
    every connecting path given z must point into X.
    """
    p.check_vertices(q.x | q.y | q.z)
    vis = visible_edges(p)
    poss_an_z = possible_ancestors(p, q.z) if q.z else set()
    for x in sorted(q.x):
        if x in q.z:
            for y in sorted(q.y):
                for path in definite_connecting_paths(p, x, y, q.z - {x}):
                    first = path[0]
                    if not (first.mark_at(x) == TAIL and first in vis):
                        return False
        elif x in poss_an_z:
            for y in sorted(q.y):
                if definite_connecting_paths(p, x, y, q.z):
                    return False
        else:
            for y in sorted(q.y):
                for path in definite_connecting_paths(p, x, y, q.z):
                    if path[0].mark_at(x) != ARROW:
                        return False
    return True


def invariant_conditional_mag(p: MixedGraph, q: InvarianceQuery) -> bool:
    """Is P(y|z) invariant to shifts in x, by m-separation in MAGs?

    For each X the three conditions become separation queries in a class
    member preserving the edges into X: with visible out-edges of X removed
    (X ∈ z), unchanged (X a possible ancestor of z), or with all edges into
    X removed (otherwise). The MAGs depend only on (p, X) and are built
    once per PAG. On a learned PAG that no MAG fits, ``pag_to_mag`` reads
    some circle edges as undirected, and the checker may decline an
    invariance the path oracle grants. Answered by a ``SearchContext`` of
    one query.
    """
    ix = p.masks()
    ix.mask(q.x | q.y | q.z)
    return SearchContext(p, ix.mask(q.x)).invariant(ix.mask(q.y),
                                                    ix.mask(q.z))


# -- identification ---------------------------------------------------------
#
# Each step runs on masks of the PAG's index: the induced subgraph p[s] of
# the identification calculus is the scope mask s, and ``inv`` holds the
# invisible-edge masks of p, so an edge keeps the visibility it has in p.


def _star(nbrs: Sequence[int], s: int, scope: int) -> int:
    """s plus the neighbours of its members along nbrs inside scope: with
    ``ppa`` the pa* of s, with ``pch`` its ch*, with ``ch_plus`` its ch+,
    which counts circle-circle neighbours."""
    out = rest = s
    while rest:
        low = rest & -rest
        rest ^= low
        out |= nbrs[low.bit_length() - 1]
    return out & scope


def _decomposition_step(ix: VertexMasks, inv: Sequence[int], x: int,
                        scope: int) -> list:
    """One step of the decomposition of a target inside scope from the
    seed x: the pc-component cx of x, the possible parents a that pa* of cx
    shares with pa* of the pc-component rest of scope - cx, and rest, as
    [cx, a, rest, None, None]; ``SearchContext.decompose`` fills in the
    regions, the circle-circle closures of cx and rest in scope, on use."""
    cx = _pc(ix, inv, x, scope)
    rest = _pc(ix, inv, scope & ~cx, scope)
    return [cx, _star(ix.ppa, cx, scope) & _star(ix.ppa, rest, scope), rest,
            None, None]


def _absorb(ix: VertexMasks, inv: Sequence[int], t: int, z: int
            ) -> tuple[int, int]:
    """Extend z over the buckets that straddle t ∪ z, or raise
    NotIdentifiable: a straddling bucket can be absorbed only when the
    pc-component of its outside part has no possible parent in t."""
    bks = blocks(ix.cc, ix.all)
    while True:
        tz = t | z
        straddler = next((b for b in bks if b & tz and b & ~tz), None)
        if straddler is None:
            return t, z
        scope = tz | straddler
        cb = _pc(ix, inv, straddler & ~tz, scope)
        if _star(ix.ppa, cb, scope) & t:
            raise NotIdentifiable(f"bucket {sorted(ix.names_of(straddler))} "
                                  "straddles the query scope")
        z |= straddler & ~t


def _eliminate(p: MixedGraph, ix: VertexMasks, inv: Sequence[int], t: int,
               xb: int, q) -> object:
    """Sum the bucket xb out of Q[t] (q): Q[t \\ xb] as quotient-times-sum
    of per-bucket conditionals of q, when the bucket criterion holds."""
    names = ix.names
    for i in positions(xb):
        bad = ix.pch[i] & t & ~xb & _pc(ix, inv, 1 << i, t)
        if bad:
            raise NotIdentifiable(
                f"{names[i]} has possible child {names[next(positions(bad))]}"
                f" in its own possible c-component outside the bucket")
    sx = ix.names_of(reach(ix.bi, xb, t))
    prefix: set[str] = set()
    fs = []
    for b in _bucket_order(p, ix, t):
        if b <= sx:
            fs.append(conditional_of(q, b, set(prefix)))
        prefix |= b
    chain = Product(fs) if len(fs) != 1 else fs[0]
    return Product([Quotient(q, chain), SumOver(ix.names_of(xb), chain)])


def _marginal(p: MixedGraph, ix: VertexMasks, inv: Sequence[int], c: int,
              t: int, q) -> object:
    """Q[c] from Q[t] (q), c inside t, or raise NotIdentifiable."""
    if not c:
        return ONE
    if c == t:
        return q
    bks = blocks(ix.cc, t)
    for b in bks:
        if not b & c:
            cb = _pc(ix, inv, b, t)
            if not cb & _star(ix.ch_plus, b, t) & ~b:
                q2 = _eliminate(p, ix, inv, t, b, q)
                return _marginal(p, ix, inv, c, t & ~b, q2)
    for b in bks:
        if not b & ~c:
            rb = _region(ix, inv, b, c)
            if rb != c:
                rc = _region(ix, inv, c & ~rb, c)
                num = Product([_marginal(p, ix, inv, rb, t, q),
                               _marginal(p, ix, inv, rc, t, q)])
                if rb & rc:
                    return Quotient(num, _marginal(p, ix, inv, rb & rc, t, q))
                return num
    raise NotIdentifiable(f"no rule applies for Q[{sorted(ix.names_of(c))}]")


def identify_interventional(p: MixedGraph, x: Iterable[str],
                            y: Iterable[str], z: Iterable[str]):
    """Expression for P_x(y | z) in terms of the observational joint,
    or the FAIL sentinel when the PAG does not determine one.

    A PAG that no MAG fits (a circle-tail edge, or arrowheads that close a
    directed cycle) raises GraphError before any identification step. With
    x nonempty, answered by a ``SearchContext`` of one query.
    """
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    _require_query(x, y, z)
    ix = p.masks()
    ix.mask(x | y | z)
    if not x:
        class_mag(p)   # raises GraphError when no MAG fits p
        return simplify(Factor(y, z), graph=p)
    return SearchContext(p, ix.mask(x)).identify(ix.mask(y), ix.mask(z))


# -- one context per search ---------------------------------------------------


class SearchContext:
    """The two questions a search asks of a PAG p with mutable vertices m
    (a mask of p's index) for each conditioning set, answered by mask
    arithmetic: ``invariant(y, z)`` and ``identify(y, z)``.

    What the answers share is built on first use and kept for the
    context's life, so a GraphError is raised by the question that first
    needs the fact, as a per-set check would raise it:

      * one invariance row per mutable vertex;
      * the PAG check that a MAG fits p;
      * per vertex v, its possible descendants ``reach(noarrow, v, V - m)``
        outside m, so the closure of a set is an OR of rows;
      * per decomposition step, keyed by (grown seed, scope), the list
        ``_decomposition_step`` returns, its regions filled in on use;
      * per target and decomposition prefix, the answer.

    The step and answer tables are the search's and are freed with it; the
    MAGs, p's invisible-edge masks, Q[c] and simplified answers stay on p's
    memo, shared by every search on p.
    """

    __slots__ = ("p", "ix", "m", "_rows", "_inv", "_closure", "_steps",
                 "_answers")

    def __init__(self, p: MixedGraph, m: int):
        self.p, self.ix, self.m = p, p.masks(), m
        self._rows: tuple[tuple, ...] | None = None
        self._inv = invisible(p)
        self._closure: list[int] | None = None
        self._steps: dict[tuple[int, int], list] = {}
        self._answers: dict[tuple, object] = {}

    def _invariance_rows(self) -> tuple[tuple, ...]:
        """Per mutable vertex X at bit i: (1 << i, i, the mask indexes of a
        class member keeping p's edges into X, of it with the visible
        out-edges of X removed and of it with every edge into X removed,
        each with its descendant table, X's row of p's possible-descendant
        table). The MAGs, kept on p's memo, have p's vertices, so their
        masks number them as p's do."""
        p, names = self.p, self.ix.names

        def mags(x):
            r = pag_to_mag(p, {x})
            return tuple((ix, ix.reached_by("pa")) for ix in (
                r.masks(), mutilate(r, REMOVE_VISIBLE_OUT_OF, {x},
                                    visibility_in=p).masks(),
                mutilate(r, REMOVE_INTO, {x}).masks()))
        pde = self.ix.reached_by("noarrow")
        self._rows = tuple(
            (1 << i, i, *p.memo(("invariance_masks", names[i]),
                                lambda: mags(names[i])), pde[i])
            for i in positions(self.m))
        return self._rows

    def invariant(self, y: int, z: int) -> bool:
        """``invariant_conditional_mag`` for shifts in m on masks. X is a
        possible ancestor of z iff z meets X's possible descendants, a row
        of the table, so no closure of z is computed."""
        rows = self._rows
        if rows is None:
            rows = self._invariance_rows()
        for xb, i, mag, out_cut, in_cut, pde in rows:
            if xb & z:
                (g, de), cond = out_cut, z & ~xb
            elif z & pde:
                (g, de), cond = mag, z
            else:
                (g, de), cond = in_cut, z
            if connected(g, de, i, y, cond):
                return False
        return True

    def identify(self, y: int, z: int):
        """``identify_interventional`` of P_m(y | z) on masks, m nonempty
        and z disjoint from m: the expression, or FAIL, which the
        decomposition's pieces up to the one covering y determine."""
        p, ix, closure = self.p, self.ix, self._closure
        if closure is None:
            class_mag(p)   # raises GraphError when no MAG fits p
            closure = self._closure = closures(ix.noarrow, ix.all & ~self.m)
        d, s = 0, y | z
        while s:
            low = s & -s
            s ^= low
            d |= closure[low.bit_length() - 1]
        key = (y, *self.decompose(d & ~z, z, y))
        answer = self._answers.get(key)
        if answer is None:
            pieces = [piece for piece in key[1:] if piece[0] & y]
            answer = self._answers[key] = p.memo(
                ("identified", y, tuple(pieces)),
                lambda: _identify_pieces(p, ix, self._inv, y, pieces))
        return answer

    def decompose(self, t: int, z: int, target: int | None = None
                  ) -> list[tuple[int, int]]:
        """Split t into component-wise pieces (t_i, z_i) whose
        interventional factors can be identified separately, in order,
        until they cover target (all of t by default): a prefix of t's
        decomposition. A step's region is computed when a piece is split
        off there, the rest's only when the walk goes on."""
        ix, inv, steps = self.ix, self._inv, self._steps
        left = t if target is None else target
        pieces = []
        while t:
            scope = t | z
            x = t & -t   # the smallest name of t
            while True:
                step = steps.get((x, scope))
                if step is None:
                    step = steps[x, scope] = _decomposition_step(ix, inv, x,
                                                                 scope)
                if not step[1] & ~z:
                    break
                grown = x | _star(ix.pch, step[1] & t, scope)
                if grown == x:
                    raise RuntimeError(
                        "component growth stalled; malformed graph?")
                x = grown
            cx, _, rest, region_x, region_rest = step
            if region_x is None:
                region_x = step[3] = reach(ix.cc, cx, scope)
            t1 = cx & t
            pieces.append((t1, region_x & ~t1))
            left &= ~t1
            if not left:
                break
            t &= ~t1
            if region_rest is None:
                region_rest = step[4] = reach(ix.cc, rest, scope)
            z = region_rest & ~t
        return pieces


def _identify_pieces(p: MixedGraph, ix: VertexMasks, inv: Sequence[int],
                     y: int, pieces: list[tuple[int, int]]):
    """Simplified product of P(d_i ∩ y | z_i, d_i - y) over the pieces that
    meet y, or FAIL."""
    try:
        absorbed = [_absorb(ix, inv, di, zi) for di, zi in pieces]
        factors = []
        for di, zi in absorbed:
            e = _joint_marginal(p, ix, inv, di | zi)
            factors.append(Quotient(SumOver(ix.names_of(di & ~y), e),
                                    SumOver(ix.names_of(di), e)))
    except NotIdentifiable:
        return FAIL
    return simplify(Product(factors), graph=p)


def _joint_marginal(p: MixedGraph, ix: VertexMasks, inv: Sequence[int],
                    c: int):
    """Q[c] from the observational joint, identified once per PAG and c;
    raises NotIdentifiable when it cannot be."""
    def compute():
        try:
            return _marginal(p, ix, inv, c, ix.all,
                             Factor(frozenset(p.vertices)))
        except NotIdentifiable:
            return FAIL
    e = p.memo(("joint_marginal", c), compute)
    if e is FAIL:
        raise NotIdentifiable(
            f"no rule applies for Q[{sorted(ix.names_of(c))}]")
    return e
