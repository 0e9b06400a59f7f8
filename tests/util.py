"""Shared fixtures and random-graph generators for the test suite."""

import importlib.util
import math
import random
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np

from stablespec.components import invisible
from stablespec.data import DataTable
from stablespec.fci import _distinct_subsets
from stablespec.graph import ARROW, CIRCLE, TAIL, Edge, MixedGraph, parse
from stablespec.scm import LinearGaussianSCM

# Running example: a five-variable system with one latent confounder.
# The PAG below is what structure learning recovers for the ADMG further
# down; both are frozen fixtures used throughout the suite.

PAG_TEXT = """\
vars: E,X1,X2,X3,Y
E o-> X1
X1 --> X2
X1 <-> Y
X3 o-> Y
Y --> X2
"""

ADMG_TEXT = """\
vars: E,X1,X2,X3,Y
E --> X1
X1 --> X2
X1 <-> Y
X3 --> Y
Y --> X2
"""

# Sparse ADMGs whose searches have interventional candidates with sums,
# quotients and multi-variable factors in their expressions; each entry is
# (ADMG text, target, mutable vertex).
ORACLE_ADMGS = {
    "six": ("""\
vars: V0,V1,V2,V3,V4,V5
V0 --> V4
V0 <-> V3
V1 --> V0
V1 --> V2
V2 --> V3
V3 <-> V4
V5 --> V3
V5 --> V4
""", "V2", "V4"),
    "seven": ("""\
vars: V0,V1,V2,V3,V4,V5,V6
V0 --> V1
V0 --> V3
V0 --> V4
V1 --> V5
V2 --> V1
V2 <-> V4
V2 <-> V6
V3 --> V5
V6 --> V0
""", "V4", "V2"),
}


# An 8-vertex PAG (oracle FCI on a random ADMG) with visible edges, circle
# marks and both conditional and interventional candidates for V0 | V2.
PAG8 = """\
vars: V0,V1,V2,V3,V4,V5,V6,V7
V0 --> V4
V0 --> V5
V0 <-> V7
V1 o-> V0
V1 o-> V3
V2 --> V5
V2 <-> V3
V2 <-> V7
V3 --> V5
V3 <-> V4
V6 o-> V3
"""

# The oracle PAG of a sparse random 10-vertex ADMG (draw (10, 0) of the
# benchmark corpus generator), queried for V6 with V4 mutable: many
# conditioning sets share identification pieces and separation questions.
PAG10 = """\
vars: V0,V1,V2,V3,V4,V5,V6,V7,V8,V9
V2 --> V1
V2 <-> V9
V3 o-> V7
V3 o-> V8
V4 <-> V9
V5 --> V2
V5 o-> V4
V5 o-> V7
V5 o-> V8
V6 o-> V9
V7 --> V2
V9 --> V1
"""


def example_pag() -> MixedGraph:
    return parse(PAG_TEXT, "PAG")


def example_admg() -> MixedGraph:
    return parse(ADMG_TEXT, "ADMG")


def on_masks(g: MixedGraph, *vertex_sets):
    """g's mask index, its invisible-edge masks and the mask of each vertex
    set: the arguments the mask cores of ``components`` and ``identify``
    take, from vertex names; GraphError names unknown vertices."""
    ix = g.masks()
    return (ix, invisible(g), *(ix.mask(s) for s in vertex_sets))


def complete_pag(names) -> MixedGraph:
    """The PAG with a circle-circle edge between every two of ``names``. It
    separates nothing and has one bucket, so ``simplify`` on it applies only
    the rewrites that hold in every joint."""
    names = sorted(names)
    return MixedGraph(names, [Edge(a, b, CIRCLE, CIRCLE)
                              for a, b in combinations(names, 2)], "PAG")


def random_admg(rng, max_vertices: int = 7, min_vertices: int = 2,
                p_directed: float = 0.25, p_bidirected: float = 0.15,
                p_both: float = 0.1) -> MixedGraph:
    """Random ADMG; direction always low index to high index, so acyclic."""
    n = rng.randint(min_vertices, max_vertices)
    names = [f"V{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            r = rng.random()
            if r < p_directed:
                edges.append(Edge(names[i], names[j], TAIL, ARROW))
            elif r < p_directed + p_bidirected:
                edges.append(Edge(names[i], names[j], ARROW, ARROW))
            elif r < p_directed + p_bidirected + p_both:
                edges.append(Edge(names[i], names[j], TAIL, ARROW))
                edges.append(Edge(names[i], names[j], ARROW, ARROW))
    return MixedGraph(names, edges, "ADMG")


class PerSetOracle:
    """CI oracle whose ``separating_sets`` asks ``independent(a, b, s)`` of
    one conditioning set at a time."""

    def __init__(self, independent):
        self.independent = independent

    def separating_sets(self, queries):
        out = []
        for a, b, pools, size in queries:
            tests, found = 0, None
            for s in _distinct_subsets(pools, size):
                tests += 1
                if self.independent(a, b, set(s)):
                    found = s
                    break
            out.append((tests, found))
        return out


def first_index(oracle, a, b, subsets):
    """Index of the first of ``subsets`` (sets of one size) given which
    ``oracle`` finds a and b independent, None if none: a query of one
    pair whose pools are the sets themselves, each in ascending order of
    name, so that it asks them in order, a repeated set once."""
    subsets = [sorted(s) for s in subsets]
    size = len(subsets[0]) if subsets else 0
    [(tests, found)] = oracle.separating_sets([(a, b, subsets, size)])
    return None if found is None else tests - 1


def at_positions(table, names):
    """``names`` at the column positions of ``table``: a column name as its
    position, and a list or tuple of names, nested to any depth, as a tuple
    of positions. So a query ``(a, b, [s, ...])`` of names becomes one that
    ``citest.firsts_at`` takes, and a list of rows ``[*s, x]``, once passed
    to ``np.array``, the rows that ``citest._residual_variances`` takes."""
    if isinstance(names, str):
        return table.positions([names])[0]
    return tuple(at_positions(table, name) for name in names)


def exact_table(n=1000, seed=35):
    """A table without environments whose statistics are exact: integer
    columns, each a half and its negation, so every mean is 0 and every
    Gram entry an exact integer. {m} separates a and b; c is constant, and
    d and e are equal, so a correlation matrix holding both is exactly
    singular."""
    rng = np.random.default_rng(seed)
    half = {name: rng.integers(-20, 21, size=n) for name in "mfgd"}
    half["a"] = half["m"] + rng.integers(-20, 21, size=n)
    half["b"] = half["m"] + half["g"] + rng.integers(-20, 21, size=n)
    cols = {name: np.concatenate([v, -v]).astype(float)
            for name, v in half.items()}
    cols["e"] = cols["d"].copy()
    cols["c"] = np.full(2 * n, 3.0)
    return DataTable(cols)


def independence_oracle(facts: dict[str, str]) -> PerSetOracle:
    """CI oracle that answers independent exactly for the listed facts.

    Keys are two vertex names written together ("AB"), values the vertex
    names of the one separating set ("" for the empty set).
    """
    table = {frozenset(pair): frozenset(sep) for pair, sep in facts.items()}
    return PerSetOracle(
        lambda a, b, s: table.get(frozenset((a, b))) == frozenset(s))


def bench_inputs():
    """``bench/inputs.py``, loaded by path: the benchmark's seeded input
    generators, such as ``wide_scm``, which draws the systems that the
    learn-wide benchmark learns."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def linear_scm(rng, g: MixedGraph) -> LinearGaussianSCM:
    """Linear-Gaussian model of ADMG g without intercepts.

    One latent parent per bidirected edge, coefficients of size 0.5 to 1.5
    with random signs, unit noise.
    """
    coefficients = {v: {} for v in g.vertices}
    latents = []
    for e in g.edges:
        if e.is_bidirected:
            u = f"L_{e.a}_{e.b}"
            latents.append(u)
            pairs = ((e.a, u), (e.b, u))
        else:
            pairs = ((e.head_end(), e.tail_end()),)
        for child, parent in pairs:
            coefficients[child][parent] = \
                rng.choice((-1, 1)) * rng.uniform(0.5, 1.5)
    order, remaining = list(latents), list(g.vertices)
    while remaining:  # the first vertex whose parents are all placed
        v = next(u for u in remaining
                 if all(p in order for p in coefficients[u]))
        order.append(v)
        remaining.remove(v)
    return LinearGaussianSCM(tuple(order), coefficients,
                             {v: 1.0 for v in order}, tuple(g.vertices))


def environment_tables(rng, g: MixedGraph, n: int, n_envs: int = 3):
    """Samples of ``linear_scm(rng, g)`` in n_envs environments; the
    intercepts of one or two vertices differ between environments."""
    scm = linear_scm(rng, g)
    shifted = rng.sample(sorted(g.vertices), rng.randint(1, 2))
    tables = []
    for k in range(n_envs):
        intercepts = {v: rng.uniform(-2, 2) for v in shifted} if k else {}
        tables.append(DataTable(replace(scm, intercepts=intercepts).sample(
            n, rng.randrange(2 ** 31))))
    return tables


# Draw 23 of ``pooled_draws``, at 1,000 rows per environment: on its tables
# the orientation rules ask for both refinements of one mark.
CONFLICT_ADMG = """\
vars: V0,V1,V2,V3,V4,V5
V0 --> V4
V1 --> V2
V1 --> V3
V1 --> V5
V2 --> V3
V2 --> V4
V2 <-> V4
V4 --> V5
"""


def pooled_draws(count: int):
    """(ADMG, tables) of the first ``count`` draws of a stream of random
    ADMGs with 3 to 7 vertices, sampled by ``environment_tables`` at 100,
    300 or 1,000 rows per environment."""
    rng = random.Random(5)
    for _ in range(count):
        g = random_admg(rng, max_vertices=7, min_vertices=3)
        n = rng.choice((100, 300, 1000))
        yield g, environment_tables(rng, g, n)
        # the stream also draws a target and a mutable vertex per ADMG
        rng.sample(sorted(g.vertices), 2)


def near_copy(share: float, n: int = 2000) -> DataTable:
    """A table where the share of var(a) that s leaves unexplained is
    ``share``: a = s + c e, with e centred and orthogonal to s."""
    rng = np.random.default_rng(7)
    s = rng.normal(size=n)
    s -= s.mean()
    e = rng.normal(size=n)
    e -= e.mean()
    e -= (e @ s) / (s @ s) * s
    s, e = s / np.linalg.norm(s), e / np.linalg.norm(e)
    a = s + math.sqrt(share / (1.0 - share)) * e
    return DataTable({"a": a, "b": rng.normal(size=n), "s": s})
