"""Symbolic density expressions produced by the identification algorithm.

An expression is a tree over conditional factors of the observational joint,
products, quotients and marginalizing sums, built from hash-consed nodes
(``Expression``), so equal subtrees are one object. ``simplify`` rewrites a
tree into a small canonical form using exact probability identities plus
the conditional independences of the PAG it is identified on, read as
m-separations in one MAG of its class, which all members share.
"""

from __future__ import annotations

import math
import weakref
from functools import reduce
from typing import Iterable, Mapping

import numpy as np

from .components import bucket_partial_order, class_mag
from .graph import MixedGraph
from .separation import m_connected


class ExpressionError(ValueError):
    """Malformed expression or an impossible evaluation."""


class Expression:
    """A node of an expression tree, hash-consed (Filliâtre & Conchon 2006).

    Building a node whose class and normalized fields equal those of a live
    node returns that node, so equality is identity and hashing is O(1).
    Scope, free and mentioned variables are computed when a node is built.
    The table holds nodes weakly: a node no one references leaves it.
    """

    __slots__ = ("_scope", "_free", "_mentioned", "__weakref__")
    _interned: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def __new__(cls, *args, **kwargs):
        fields = cls._normalize(*args, **kwargs)
        key = (cls, *fields)
        node = Expression._interned.get(key)
        if node is None:
            node = object.__new__(cls)
            names = cls.__slots__ + Expression.__slots__[:3]
            for name, value in zip(names, fields + cls._derive(*fields)):
                object.__setattr__(node, name, value)
            Expression._interned[key] = node
        return node

    def __setattr__(self, name, *value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


def _expressions(*items) -> tuple:
    """The items, each checked to be an expression."""
    for e in items:
        if not isinstance(e, Expression):
            raise ExpressionError(f"not an expression: {e!r}")
    return items


class Constant(Expression):
    __slots__ = ("value",)

    @staticmethod
    def _normalize(value):
        return (float(value),)

    @staticmethod
    def _derive(value):
        return frozenset(), frozenset(), frozenset()


class Factor(Expression):
    """Conditional of the observational joint: P(targets | given)."""

    __slots__ = ("targets", "given")

    @staticmethod
    def _normalize(targets: Iterable[str], given: Iterable[str] = ()):
        targets, given = frozenset(targets), frozenset(given)
        if not targets:
            raise ExpressionError("factor needs at least one target")
        if targets & given:
            raise ExpressionError("targets and given overlap")
        return targets, given

    @staticmethod
    def _derive(targets, given):
        return targets, targets | given, targets | given


class Product(Expression):
    __slots__ = ("factors",)

    @staticmethod
    def _normalize(factors: Iterable):
        return (_expressions(*factors),)

    @staticmethod
    def _derive(factors):
        return (frozenset().union(*(f._scope for f in factors)),
                frozenset().union(*(f._free for f in factors)),
                frozenset().union(*(f._mentioned for f in factors)))


class Quotient(Expression):
    __slots__ = ("numerator", "denominator")

    @staticmethod
    def _normalize(numerator, denominator):
        return _expressions(numerator, denominator)

    @staticmethod
    def _derive(num, den):
        return (num._scope - den._scope, num._free | den._free,
                num._mentioned | den._mentioned)


class SumOver(Expression):
    __slots__ = ("variables", "child")

    @staticmethod
    def _normalize(variables: Iterable[str], child):
        return frozenset(variables), *_expressions(child)

    @staticmethod
    def _derive(variables, child):
        return (child._scope - variables, child._free - variables,
                child._mentioned | variables)


ONE = Constant(1.0)


def conditional_of(expr, targets: Iterable[str], given: Iterable[str]):
    """P(targets | given) of the distribution expr represents.

    Built as a quotient of two marginalizing sums over expr's scope.
    """
    targets, given = frozenset(targets), frozenset(given)
    if targets & given:
        raise ExpressionError("targets and given overlap")
    sc = scope(expr)
    if not targets <= sc or not given <= sc:
        raise ExpressionError("conditional asks for variables outside scope")
    num = SumOver(sc - targets - given, expr)
    if not given:
        return num
    return Quotient(num, SumOver(sc - given, expr))


def scope(expr) -> frozenset[str]:
    """The variables the expression is a distribution over."""
    return _expressions(expr)[0]._scope


def free_vars(expr) -> frozenset[str]:
    return _expressions(expr)[0]._free


def variables(expr) -> frozenset[str]:
    """Every variable the expression mentions, free or summed out."""
    return _expressions(expr)[0]._mentioned


# -- evaluation ------------------------------------------------------------


def tabulate(expr, joint) -> tuple[tuple[str, ...], np.ndarray]:
    """(names, values): the expression at every assignment of its free
    variables (sorted names, an axis each) under an exact discrete joint.

    One table operation per node (Koller & Friedman 2009, ch. 9), on arrays
    with an axis per joint variable, of length 1 where the node does not
    depend on it. A factor is 0 where its given has probability 0 (such
    terms arise multiplied by a vanishing prefix factor); a quotient 0/0 is
    0 and x/0 is nan for x != 0; a summed variable the child does not
    depend on multiplies by its cardinality."""
    names = sorted(joint.names)
    full = joint.table.transpose([joint.names.index(v) for v in names])
    cards = dict(zip(names, full.shape))
    done: dict[Expression, np.ndarray] = {}

    def axes(variables, what: str) -> tuple[int, ...]:
        unknown = sorted(set(variables) - set(cards))
        if unknown:
            raise ExpressionError(f"cannot {what} unknown variables {unknown}")
        return tuple(i for i, v in enumerate(names) if v in variables)

    def marginal(keep) -> np.ndarray:
        kept = axes(keep, "evaluate")
        return full.sum(axis=tuple(i for i in range(len(names))
                                   if i not in kept), keepdims=True)

    def quotient(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        num, den = np.broadcast_arrays(num, den)
        out = np.divide(num, den, out=np.zeros(num.shape), where=den != 0)
        out[(den == 0) & (num != 0)] = np.nan
        return out

    def tab(e) -> np.ndarray:
        if e not in done:
            done[e] = compute(e)
        return done[e]

    def compute(e) -> np.ndarray:
        if isinstance(e, Constant):
            return np.full([1] * len(names), float(e.value))
        if isinstance(e, Factor):
            num = marginal(e.targets | e.given)
            # P(t, g) / P(g), and P(t, g) is zero wherever P(g) is
            return quotient(num, marginal(e.given)) if e.given else num
        if isinstance(e, Product):
            return reduce(np.multiply, map(tab, e.factors),
                          np.ones([1] * len(names)))
        if isinstance(e, Quotient):
            return quotient(tab(e.numerator), tab(e.denominator))
        if isinstance(e, SumOver):
            summed = axes(e.variables, "sum over")
            scale = math.prod(cards[v] for v in e.variables
                              - free_vars(e.child))
            return tab(e.child).sum(axis=summed, keepdims=True) * scale
        raise ExpressionError(f"not an expression: {e!r}")

    free = tuple(sorted(free_vars(expr)))
    return free, tab(expr).reshape([cards[v] for v in free])


def evaluate(expr, joint, assignment: Mapping[str, int]) -> float:
    """``tabulate(expr, joint)`` at one assignment of the free variables; a
    nonzero numerator over a zero denominator is an error."""
    missing = free_vars(expr) - set(assignment)
    if missing:
        raise ExpressionError(f"unbound variables {sorted(missing)}")
    names, values = tabulate(expr, joint)
    value = float(values[tuple(assignment[v] for v in names)])
    if math.isnan(value):
        raise ExpressionError("zero denominator with nonzero numerator")
    return value


# -- rendering -------------------------------------------------------------


def to_text(expr) -> str:
    if isinstance(expr, Constant):
        return f"{expr.value:g}"
    if isinstance(expr, Factor):
        t = ",".join(sorted(expr.targets))
        if expr.given:
            return f"P({t} | {','.join(sorted(expr.given))})"
        return f"P({t})"
    if isinstance(expr, Product):
        return " * ".join(_paren(f) for f in expr.factors) or "1"
    if isinstance(expr, Quotient):
        return f"{_paren(expr.numerator)} / {_paren(expr.denominator)}"
    if isinstance(expr, SumOver):
        return f"sum_{{{','.join(sorted(expr.variables))}}} {_paren(expr.child)}"
    raise ExpressionError(f"not an expression: {expr!r}")


def _paren(expr) -> str:
    s = to_text(expr)
    if isinstance(expr, (Product, Quotient, SumOver)):
        return f"({s})"
    return s


def to_json(expr):
    if isinstance(expr, Constant):
        return {"kind": "constant", "value": expr.value}
    if isinstance(expr, Factor):
        return {"kind": "factor", "targets": sorted(expr.targets),
                "given": sorted(expr.given)}
    if isinstance(expr, Product):
        return {"kind": "product",
                "factors": [to_json(f) for f in expr.factors]}
    if isinstance(expr, Quotient):
        return {"kind": "quotient", "numerator": to_json(expr.numerator),
                "denominator": to_json(expr.denominator)}
    if isinstance(expr, SumOver):
        return {"kind": "sum", "variables": sorted(expr.variables),
                "child": to_json(expr.child)}
    raise ExpressionError(f"not an expression: {expr!r}")


def from_json(obj):
    kind = obj["kind"]
    if kind == "constant":
        return Constant(obj["value"])
    if kind == "factor":
        return Factor(obj["targets"], obj["given"])
    if kind == "product":
        return Product([from_json(f) for f in obj["factors"]])
    if kind == "quotient":
        return Quotient(from_json(obj["numerator"]),
                        from_json(obj["denominator"]))
    if kind == "sum":
        return SumOver(obj["variables"], from_json(obj["child"]))
    raise ExpressionError(f"unknown expression kind {kind!r}")


# -- simplification --------------------------------------------------------


MAX_PASSES = 60   # simplify stops here even short of a fixed point


def simplify(expr, graph: MixedGraph):
    """Rewrite to a compact canonical form.

    Every rewrite is an exact identity of the represented quantity: product
    and quotient flattening with cancellation, marginalization of sums,
    chain-rule expansion of multi-bucket factors, chain collapse inside
    sums, and removal of conditioning variables that are separated from the
    targets in the PAG ``graph``. The PAG's separations are read in
    ``class_mag(graph)``; a PAG that no MAG fits raises GraphError, and so
    does an expression that mentions a variable outside the PAG.

    A pass rewrites each node once, bottom-up, and passes repeat until the
    expression is a fixed point. One rewrite step depends only on the node
    and the PAG, so it is memoized in the PAG's memo, where every
    expression identified on that PAG shares it.
    """
    graph.check_vertices(variables(expr))

    def rewrite(e):
        return graph.memo(("rewrite", e), lambda: _rewrite(e, graph, rewrite))

    for _ in range(MAX_PASSES):
        new = rewrite(expr)
        if new is expr:
            break
        expr = new
    return _canonical(expr)


def _independent(graph, a, b, z) -> bool:
    """a ⟂ b | z in the PAG ``graph``, read once per graph and question."""
    a, b, z = frozenset(a), frozenset(b), frozenset(z)

    def separated():
        mag = class_mag(graph)
        return not any(m_connected(mag, x, y, z) for x in a for y in b)
    return graph.memo(("independent", a, b, z), separated)


def _rewrite_factor(f: Factor, graph: MixedGraph):
    # drop separated conditioning variables, one at a time
    given = set(f.given)
    changed = True
    while changed and given:
        changed = False
        for v in sorted(given):
            rest = given - {v}
            if _independent(graph, f.targets, {v}, rest):
                given = rest
                changed = True
                break
    f = Factor(f.targets, given)
    expansion = _chain_expand(f, graph)
    return expansion if expansion is not None else f


def _chain_expand(f: Factor, graph):
    """P(t | g) as a product of per-bucket conditionals along the bucket
    order of the induced subgraph on t ∪ g. Returns None when t sits inside
    a single bucket."""
    order = bucket_partial_order(graph, f.targets | f.given)
    blocks = [b & f.targets for b in order if b & f.targets]
    if len(blocks) <= 1:
        return None
    out = []
    seen: set[str] = set()
    for b in blocks:
        out.append(Factor(b, f.given | seen))
        seen |= b
    return Product(out)


def _split_fraction(expr) -> tuple[list, list]:
    """Flatten into (numerator atoms, denominator atoms)."""
    if isinstance(expr, Product):
        num, den = [], []
        for f in expr.factors:
            n, d = _split_fraction(f)
            num += n
            den += d
        return num, den
    if isinstance(expr, Quotient):
        n1, d1 = _split_fraction(expr.numerator)
        n2, d2 = _split_fraction(expr.denominator)
        return n1 + d2, d1 + n2
    if isinstance(expr, Constant) and expr.value == 1.0:
        return [], []
    return [expr], []


def _cancel(num: list, den: list) -> tuple[list, list]:
    den = list(den)
    out_num = []
    for a in num:
        if a in den:
            den.remove(a)
        else:
            out_num.append(a)
    return out_num, den


def _build_fraction(num: list, den: list):
    def prod(atoms):
        if not atoms:
            return ONE
        if len(atoms) == 1:
            return atoms[0]
        return Product(atoms)

    if not den:
        return prod(num)
    return Quotient(prod(num), prod(den))


def _sum_rules(s: SumOver, graph):
    bound = set(s.variables)
    child = s.child
    if not bound:
        return child
    if isinstance(child, SumOver):
        return SumOver(bound | child.variables, child.child)
    if isinstance(child, Constant):
        return s
    num, den = _split_fraction(child)
    pulled_num = [a for a in num if not (free_vars(a) & bound)]
    inner = [a for a in num if free_vars(a) & bound]
    pulled_den = [a for a in den if not (free_vars(a) & bound)]
    inner_den = [a for a in den if free_vars(a) & bound]
    if not inner_den:
        inner, bound = _marginalize(inner, bound, graph)
        if not bound:
            return _build_fraction(pulled_num + inner, pulled_den)
    # a bound variable left inside a denominator blocks marginalization
    body = SumOver(bound, _build_fraction(inner, inner_den))
    return _build_fraction(pulled_num + [body], pulled_den)


def _marginalize(atoms: list, bound: set, graph):
    """Repeatedly eliminate bound variables that occur as the target of a
    single factor (plain marginalization) or that chain two factors."""
    atoms = list(atoms)
    bound = set(bound)
    changed = True
    while changed:
        changed = False
        for v in sorted(bound):
            holders = [a for a in atoms if v in free_vars(a)]
            if len(holders) == 1 and isinstance(holders[0], Factor) \
                    and v in holders[0].targets:
                f = holders[0]
                atoms.remove(f)
                rest = f.targets - {v}
                if rest:
                    atoms.append(Factor(rest, f.given))
                bound.discard(v)
                changed = True
                break
        if changed:
            continue
        merged = _chain_collapse(atoms, bound, graph)
        if merged is not None:
            atoms, bound = merged
            changed = True
    return atoms, bound


def _chain_collapse(atoms, bound, graph):
    """sum_t1 P(t1|g1) P(t2|g1,t1) = P(t2|g1), allowing g1 to grow by
    variables separated from t1."""
    for i, f1 in enumerate(atoms):
        if not isinstance(f1, Factor) or not f1.targets <= bound:
            continue
        others = atoms[:i] + atoms[i + 1:]
        for j, f2 in enumerate(others):
            if not isinstance(f2, Factor):
                continue
            if not _is_chain_partner(f1, f2, graph):
                continue
            rest = others[:j] + others[j + 1:]
            if any(f1.targets & free_vars(a) for a in rest):
                continue
            new = Factor(f2.targets, f2.given - f1.targets)
            return rest + [new], bound - f1.targets
    return None


def _is_chain_partner(f1: Factor, f2: Factor, graph) -> bool:
    """True when sum over f1.targets of f1 * f2 collapses to a single
    conditional: f2 conditions on f1's targets and on a superset of f1's
    conditioning set, any surplus being separated from f1's targets."""
    if not f1.targets <= f2.given:
        return False
    base = f2.given - f1.targets
    if not f1.given <= base:
        return False
    extra = base - f1.given
    if extra and not _independent(graph, f1.targets, extra, f1.given):
        return False
    return True


def _rewrite(expr, graph, rewrite):
    """Rewrite one node; ``rewrite`` rewrites its children."""
    if isinstance(expr, Constant):
        return expr
    if isinstance(expr, Factor):
        return _rewrite_factor(expr, graph)
    if isinstance(expr, SumOver):
        child = rewrite(expr.child)
        return _sum_rules(SumOver(expr.variables, child), graph)
    if isinstance(expr, Product):
        num, den = _split_fraction(Product(map(rewrite, expr.factors)))
    elif isinstance(expr, Quotient):
        num, den = _split_fraction(Quotient(rewrite(expr.numerator),
                                            rewrite(expr.denominator)))
    else:
        raise ExpressionError(f"not an expression: {expr!r}")
    num, den = _cancel(num, den)
    value = math.prod(a.value for a in num if isinstance(a, Constant))
    for c in (a for a in den if isinstance(a, Constant)):
        if c.value == 0:
            raise ExpressionError("zero constant in a denominator")
        value /= c.value
    num = [a for a in num if not isinstance(a, Constant)]
    den = [a for a in den if not isinstance(a, Constant)]
    if value != 1.0:
        num = [Constant(value)] + num
    return _build_fraction(num, den)


def _sort_key(expr):
    if isinstance(expr, Constant):
        return (0, str(expr.value))
    if isinstance(expr, Factor):
        return (1, sorted(expr.targets), sorted(expr.given))
    if isinstance(expr, SumOver):
        return (2, sorted(expr.variables), _sort_key(expr.child))
    if isinstance(expr, Product):
        return (3, [_sort_key(f) for f in expr.factors])
    return (4, _sort_key(expr.numerator), _sort_key(expr.denominator))


def _canonical(expr):
    if isinstance(expr, Product):
        parts = sorted((_canonical(f) for f in expr.factors), key=_sort_key)
        if not parts:
            return ONE
        if len(parts) == 1:
            return parts[0]
        return Product(parts)
    if isinstance(expr, Quotient):
        return Quotient(_canonical(expr.numerator),
                        _canonical(expr.denominator))
    if isinstance(expr, SumOver):
        return SumOver(expr.variables, _canonical(expr.child))
    return expr
