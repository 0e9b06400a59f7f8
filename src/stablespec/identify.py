"""Invariance checking and interventional identification on PAGs.

``invariant_conditional_mag`` decides whether a conditional P(y|z) is
invariant to interventions on a set of variables by m-separation queries in
MAGs derived from the PAG, built once per (PAG, intervened vertex); it is
the checker the program calls. ``invariant_conditional`` enumerates
definite status paths in the PAG and is kept only as the test oracle for
it. ``identify_interventional`` derives a symbolic expression for an
interventional conditional from the observational joint, or reports
failure when the PAG does not determine one. A search asks it for every
conditioning set, and the answers repeat, so it keeps on the PAG each
Q[c] of the joint and each simplified answer per target and decomposition
pieces meeting the target, failures included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .components import (
    bucket_partial_order, buckets, class_mag, definite_c_component,
    pag_to_mag, pc_component, region,
)
from .expressions import (
    Factor, ONE, Product, Quotient, SumOver, conditional_of, simplify,
)
from .graph import (
    ARROW, CIRCLE, TAIL, GraphError, MixedGraph,
    REMOVE_INTO, REMOVE_VISIBLE_OUT_OF, mutilate, possible_ancestors,
)
from .separation import (
    definite_connecting_paths, m_connected, visible_edges,
)


class NotIdentifiable(Exception):
    """Raised internally when no identification rule applies."""


class _Fail:
    """Sentinel result: the query has no unique answer in this PAG."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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
        if self.x & self.y or self.y & self.z:
            raise GraphError("require x ∩ y = y ∩ z = ∅")


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


def _invariance_mags(p: MixedGraph, x: str):
    """A class member keeping p's edges into x, then the same MAG with the
    visible out-edges of x removed and with every edge into x removed."""
    def build():
        r = pag_to_mag(p, {x})
        return (r, mutilate(r, REMOVE_VISIBLE_OUT_OF, {x}, visibility_in=p),
                mutilate(r, REMOVE_INTO, {x}))
    return p.memo(("invariance_mags", x), build)


def invariant_conditional_mag(p: MixedGraph, q: InvarianceQuery) -> bool:
    """Is P(y|z) invariant to shifts in x, by m-separation in MAGs?

    For each X the three conditions become separation queries in a class
    member preserving the edges into X: with visible out-edges of X removed
    (X ∈ z), unchanged (X a possible ancestor of z), or with all edges into
    X removed (otherwise). The MAGs depend only on (p, X) and are built
    once per PAG. On a learned PAG that no MAG fits, ``pag_to_mag`` reads
    some circle edges as undirected, and the checker may decline an
    invariance the path oracle grants.
    """
    p.check_vertices(q.x | q.y | q.z)
    poss_an_z = possible_ancestors(p, q.z) if q.z else set()
    for x in sorted(q.x):
        mag, out_cut, in_cut = _invariance_mags(p, x)
        if x in q.z:
            g, cond = out_cut, q.z - {x}
        elif x in poss_an_z:
            g, cond = mag, q.z
        else:
            g, cond = in_cut, q.z
        for y in sorted(q.y):
            if m_connected(g, x, y, cond):
                return False
    return True


# -- identification ---------------------------------------------------------


def _pa_star(g: MixedGraph, s: Iterable[str]) -> set[str]:
    """s plus possible parents connected by an edge into a member of s
    (circle-circle edges do not count)."""
    out = set(s)
    for v in set(s):
        out |= g.possible_parents(v)
    return out


def _ch_star(g: MixedGraph, s: Iterable[str]) -> set[str]:
    out = set(s)
    for v in set(s):
        out |= g.possible_children(v)
    return out


def _ch_plus(g: MixedGraph, s: Iterable[str]) -> set[str]:
    """s plus every possible child, counting circle-circle neighbors."""
    out = set(s)
    for v in set(s):
        for w, _, here, there in g.adjacency(v):
            if here in (TAIL, CIRCLE) and there in (ARROW, CIRCLE):
                out.add(w)
    return out


def _decompose(p: MixedGraph, t: set[str], z: set[str]):
    """Split t into component-wise pieces (t_i, z_i) whose interventional
    factors can be identified separately, one at a time: the pieces
    partition t, so a caller may stop once those it needs are covered."""
    while t:
        scope = t | z
        sub = p.induced(scope)

        def pc(seed):
            return pc_component(sub, seed, visibility_in=p) if seed else set()

        x = {min(t)}
        cx = pc(x)
        a = _pa_star(sub, cx) & _pa_star(sub, pc(scope - cx))
        while not a <= z:
            grown = x | _ch_star(sub, a & t)
            if grown == x:
                raise RuntimeError("component growth stalled; malformed graph?")
            x = grown
            cx = pc(x)
            a = _pa_star(sub, cx) & _pa_star(sub, pc(scope - cx))
        t1 = cx & t
        t2 = t - t1
        yield t1, region(p, x, scope) - t1
        rest_seed = scope - cx
        t, z = t2, (region(p, rest_seed, scope) - t2) if rest_seed else set()


def absorb_buckets(p: MixedGraph, t: Iterable[str],
                   z: Iterable[str]) -> tuple[set[str], set[str]]:
    """Extend z over buckets that straddle t ∪ z, or fail.

    A straddling bucket can be absorbed only when the pc-component of its
    outside part has no possible parent in t.
    """
    t, z = set(t), set(z)
    p.check_vertices(t | z)
    while True:
        straddler = None
        for b in buckets(p):
            if b & (t | z) and not b <= (t | z):
                straddler = b
                break
        if straddler is None:
            return t, z
        scope = t | z | straddler
        sub = p.induced(scope)
        outside = straddler - (t | z)
        cb = pc_component(sub, outside, visibility_in=p)
        if _pa_star(sub, cb) & t:
            raise NotIdentifiable(
                f"bucket {sorted(straddler)} straddles the query scope")
        z |= straddler - t


def eliminate_bucket(p: MixedGraph, t: Iterable[str],
                     x_bucket: Iterable[str], q) -> object:
    """Sum a bucket out of Q[t]: Q[t \\ x_bucket] as quotient-times-sum of
    per-bucket conditionals of q, when the bucket criterion holds."""
    t, x_bucket = set(t), set(x_bucket)
    p.check_vertices(t)
    if not x_bucket <= t:
        raise GraphError("x_bucket must lie inside t")
    sub = p.induced(t)
    for zv in sorted(x_bucket):
        cz = pc_component(sub, {zv}, visibility_in=p)
        bad = (sub.possible_children(zv) - x_bucket) & cz
        if bad:
            raise NotIdentifiable(
                f"{zv} has possible child {sorted(bad)[0]} in its own "
                f"possible c-component outside the bucket")
    order = bucket_partial_order(p, t)
    sx = definite_c_component(sub, x_bucket)
    prefix: set[str] = set()
    fs = []
    for b in order:
        if b <= sx:
            fs.append(conditional_of(q, b, set(prefix)))
        prefix |= b
    chain = Product(fs) if len(fs) != 1 else fs[0]
    return Product([Quotient(q, chain), SumOver(x_bucket, chain)])


def identify_marginal(p: MixedGraph, c: Iterable[str], t: Iterable[str],
                      q) -> object:
    """Compute Q[c] from Q[t] (q) in the PAG p, or raise NotIdentifiable."""
    c, t = frozenset(c), frozenset(t)
    if not c <= t:
        raise GraphError("c must be a subset of t")
    if not c:
        return ONE
    if c == t:
        return q
    sub = p.induced(t)
    bks = buckets(sub)
    for b in bks:
        if b <= t - c:
            cb = pc_component(sub, b, visibility_in=p)
            if cb & _ch_plus(sub, b) <= b:
                q2 = eliminate_bucket(p, t, b, q)
                return identify_marginal(p, c, t - b, q2)
    for b in bks:
        if b <= c:
            rb = region(p, b, c)
            if rb != c:
                rc = region(p, c - rb, c)
                num = Product([identify_marginal(p, rb, t, q),
                               identify_marginal(p, rc, t, q)])
                if rb & rc:
                    return Quotient(num, identify_marginal(p, rb & rc, t, q))
                return num
    raise NotIdentifiable(f"no rule applies for Q[{sorted(c)}]")


def identify_interventional(p: MixedGraph, x: Iterable[str],
                            y: Iterable[str], z: Iterable[str]):
    """Expression for P_x(y | z) in terms of the observational joint,
    or the FAIL sentinel when the PAG does not determine one.

    A PAG that no MAG fits (a circle-tail edge, or arrowheads that close a
    directed cycle) raises GraphError before any identification step.
    """
    x, y, z = frozenset(x), frozenset(y), frozenset(z)
    if x & y or y & z or x & z:
        raise GraphError("x, y and z must be pairwise disjoint")
    p.check_vertices(x | y | z)
    if not y:
        raise GraphError("y must be nonempty")
    class_mag(p)   # raises GraphError when no MAG fits p
    if not x:
        return simplify(Factor(y, z), graph=p)
    sub = p.induced(frozenset(p.vertices) - x)
    d = possible_ancestors(sub, (y | z) - x) - z
    # the pieces partition d ⊇ y, so those after the last one meeting y
    # do not matter
    pieces, left = [], set(y)
    for di, zi in _decompose(p, set(d), set(z)):
        if di & y:
            pieces.append((frozenset(di), frozenset(zi)))
            left -= di
            if not left:
                break
    key = ("identified", y, tuple(pieces))
    return p.memo(key, lambda: _identify_pieces(p, y, pieces))


def _identify_pieces(p: MixedGraph, y: frozenset[str],
                     pieces: list[tuple[frozenset[str], frozenset[str]]]):
    """Simplified product of P(d_i ∩ y | z_i, d_i - y) over the pieces that
    meet y, or FAIL."""
    try:
        absorbed = [absorb_buckets(p, di, zi) for di, zi in pieces]
        factors = []
        for di, zi in absorbed:
            e = _joint_marginal(p, frozenset(di | zi))
            factors.append(Quotient(SumOver(di - y, e), SumOver(di, e)))
    except NotIdentifiable:
        return FAIL
    return simplify(Product(factors), graph=p)


def _joint_marginal(p: MixedGraph, c: frozenset[str]):
    """Q[c] from the observational joint, identified once per PAG and c;
    raises NotIdentifiable when it cannot be."""
    def compute():
        v = frozenset(p.vertices)
        try:
            return identify_marginal(p, c, v, Factor(v))
        except NotIdentifiable:
            return FAIL
    e = p.memo(("joint_marginal", c), compute)
    if e is FAIL:
        raise NotIdentifiable(f"no rule applies for Q[{sorted(c)}]")
    return e
