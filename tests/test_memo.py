"""Facts memoized on an immutable MixedGraph equal the facts computed cold.

Every derived fact is computed once per graph and kept in the graph's memo.
These tests compare each memoized fact on a graph whose memo is already
warm with the same fact on an equal graph freshly parsed from its text,
check that memoized facts are handed out as immutable values, and count the work one search does: edge visibility and the
invariance checker's MAGs are each computed at most once per graph, no
path is enumerated, and graph closures and m-separation read edge marks
from the graph's indexes, not through ``Edge`` methods. One
``stable_candidates`` call also identifies each Q[c] of the joint once,
simplifies once per distinct set of pieces meeting the target, walks the
MAG once per distinct separation question of ``simplify``, builds each
graph's mask index at most once, builds no induced subgraph, and computes
each decomposition step once.
"""

import random
from itertools import combinations, permutations

import pytest

import stablespec.graph as graph_module
from stablespec import components, expressions, identify, separation
from stablespec.components import (
    _bucket_order, _pc, bucket_partial_order, buckets, class_mag,
    pc_component,
)
from stablespec.expressions import to_json
from stablespec.fci import SeparationOracle, fci
from stablespec.graph import (
    ARROW, TAIL, Edge, GraphError, parse, possible_ancestors, reach,
    serialize,
)
from stablespec.identify import (
    FAIL, InvarianceQuery, identify_interventional, invariant_conditional_mag,
)
from stablespec.search import InvarianceSpec, stable_candidates
from stablespec.separation import m_connected, visible_edges
from oracles import closure_by_sets, definite_m_separated, induced
from util import PAG8, PAG10, example_pag, on_masks, random_admg


def random_pag(seed):
    rng = random.Random(seed)
    admg = random_admg(rng, max_vertices=6, min_vertices=4)
    return fci(SeparationOracle(admg), admg.vertices)


def subsets(vs):
    return [frozenset(c) for k in range(len(vs) + 1)
            for c in combinations(sorted(vs), k)]


def fresh(g):
    """An equal graph with an empty memo."""
    return parse(serialize(g), g.kind)


def warm(fact):
    """fact() twice: the first call fills the memo, the second reads it."""
    first, second = fact(), fact()
    assert first == second
    return second


def answer(expr):
    """An identification result in comparable form."""
    return "FAIL" if expr is FAIL else to_json(expr)


def scoped_pc(g, seed, scope):
    """The pc-component of seed in g[scope], visibility judged in g."""
    ix, inv, s, c = on_masks(g, seed, scope)
    return ix.names_of(_pc(ix, inv, s, c))


def into_from_tail(here, there):
    return here == ARROW and there == TAIL


def no_arrow_there(here, there):
    return there != ARROW


@pytest.mark.parametrize("seed", range(8))
class TestCachedEqualsCold:
    def test_visible_edges(self, seed):
        g = random_pag(seed)
        assert warm(lambda: visible_edges(g)) == visible_edges(fresh(g))

    def test_induced(self, seed):
        # an induced subgraph g[s] is the scope mask of s: the bucket order
        # of a scope is memoized under its mask, so names in any order
        # read one fact, equal to that of a fresh graph and made of the
        # buckets of the graph induced on s
        g = random_pag(seed)
        for s in subsets(g.vertices):
            ix, _, m = on_masks(g, s)
            order = warm(lambda: _bucket_order(g, ix, m))
            assert list(order) == bucket_partial_order(fresh(g), s)
            assert sorted(order, key=min) == buckets(induced(g, s))
        ix, _, m = on_masks(g, ["V1", "V0"])
        assert _bucket_order(g, ix, m) is \
            _bucket_order(g, ix, ix.mask({"V0", "V1"}))

    def test_buckets_and_order(self, seed):
        g = random_pag(seed)
        assert warm(lambda: buckets(g)) == buckets(fresh(g))
        for s in subsets(g.vertices):
            assert warm(lambda: bucket_partial_order(g, s)) == \
                bucket_partial_order(fresh(g), s)

    def test_pc_component(self, seed):
        g = random_pag(seed)
        for seed_set in subsets(g.vertices)[1:]:
            assert warm(lambda: pc_component(g, seed_set)) == \
                pc_component(fresh(g), seed_set)
        for scope in subsets(g.vertices)[1:]:
            v = {min(scope)}
            assert warm(lambda: scoped_pc(g, v, scope)) == \
                scoped_pc(fresh(g), v, scope)

    def test_pc_component_keyed_by_visibility_graph(self, seed):
        # the same scope and seed, with visibility judged in the graph
        # induced on the scope and in the whole graph: two different facts,
        # the first memoized on the induced graph, the second read from the
        # whole graph's memoized invisible-edge masks
        g = random_pag(seed)
        for scope in subsets(g.vertices)[1:]:
            sub, v = induced(g, scope), {min(scope)}
            own = warm(lambda: pc_component(sub, v))
            inherited = warm(lambda: scoped_pc(g, v, scope))
            assert own == pc_component(fresh(sub), v)
            assert inherited == scoped_pc(fresh(g), v, scope)

    def test_definite_m_separated(self, seed):
        g = random_pag(seed)
        for a, b in combinations(g.vertices, 2):
            for z in subsets(set(g.vertices) - {a, b}):
                assert warm(lambda: definite_m_separated(g, {a}, {b}, z)) \
                    == definite_m_separated(fresh(g), {a}, {b}, z)
            with pytest.raises(GraphError):
                definite_m_separated(g, {a}, {b}, {a})

    def test_invariance_checker(self, seed):
        # every x, y and z ⊆ V - {y}: x in z, x a possible ancestor of z,
        # and neither
        g = random_pag(seed)
        for x, y in permutations(g.vertices, 2):
            for z in subsets(set(g.vertices) - {y}):
                q = InvarianceQuery({x}, {y}, z)
                assert warm(lambda: invariant_conditional_mag(g, q)) == \
                    invariant_conditional_mag(fresh(g), q)

    def test_identify_interventional(self, seed):
        # every z of every (x, y) on one warm PAG, the z in shuffled order,
        # so that later queries read pieces and Q[c] that earlier ones stored
        g = random_pag(seed)
        rng = random.Random(seed)
        for x, y in permutations(g.vertices, 2):
            zs = subsets(set(g.vertices) - {x, y})
            rng.shuffle(zs)
            for z in zs:
                assert answer(identify_interventional(g, {x}, {y}, z)) == \
                    answer(identify_interventional(fresh(g), {x}, {y}, z))

    def test_closures(self, seed):
        # the mask closure equals a walk over names from the whole set
        g = random_pag(seed)
        for h in (g, class_mag(g)):
            sets = subsets(h.vertices)
            random.Random(seed).shuffle(sets)
            for s in sets:
                assert warm(lambda: h.ancestors(s)) == \
                    closure_by_sets(h, s, into_from_tail)
                assert warm(lambda: possible_ancestors(h, s)) == \
                    closure_by_sets(h, s, no_arrow_there)


class TestMemoizedFactsAreImmutable:
    def test_mutation_raises(self):
        # sets are frozensets; a list-valued fact is a new list each call
        g = random_pag(3)
        scope = frozenset(g.vertices[:-1])

        def facts():
            return (visible_edges(g), buckets(g),
                    bucket_partial_order(g, scope), pc_component(g, {"V0"}),
                    scoped_pc(g, {"V0"}, scope))

        before = facts()
        vis, bs, order, pc, cc = facts()
        assert vis is visible_edges(g)
        assert pc is pc_component(g, {"V0"})
        with pytest.raises(AttributeError):
            vis.add(object())
        with pytest.raises(AttributeError):
            bs[0].add("V_extra")
        bs.append({"V_extra"})
        with pytest.raises(AttributeError):
            order[0].clear()
        order.reverse()
        with pytest.raises(AttributeError):
            pc.add("V_extra")
        with pytest.raises(AttributeError):
            cc.add("V_extra")
        assert facts() == before

    def test_closure_mutation_raises(self):
        g = random_pag(3)
        mag = class_mag(g)
        v = g.vertices[-1]
        before = (mag.ancestors({v}), possible_ancestors(g, {v}))
        with pytest.raises(AttributeError):
            mag.ancestors({v}).add("V_extra")
        with pytest.raises(AttributeError):
            possible_ancestors(g, {v}).clear()
        assert (mag.ancestors({v}), possible_ancestors(g, {v})) == before


def candidate_record(candidates):
    return [(c.kind, sorted(c.conditioning_set), to_json(c.expression))
            for c in candidates]


# (PAG text, mutable set, target)
SEARCHES = [(PAG8, {"V2"}, "V0"), (PAG10, {"V4"}, "V6")]
SEARCH_IDS = ["PAG8", "PAG10"]


class TestSearchWork:
    def test_visibility_computed_once_per_graph(self, monkeypatch):
        pag = parse(PAG8)
        computed = []
        uncached = separation._visible_edges

        def spy(g):
            computed.append(serialize(g))
            return uncached(g)

        monkeypatch.setattr(separation, "_visible_edges", spy)
        spec = InvarianceSpec(pag, {"V2"})
        first = stable_candidates(spec, "V0")
        kinds = {c.kind for c in first}
        assert kinds == {"conditional", "interventional"}
        assert computed
        assert len(computed) == len(set(computed))
        n_computed = len(computed)
        second = stable_candidates(spec, "V0")
        assert len(computed) == n_computed
        assert candidate_record(second) == candidate_record(first)

    def test_mags_built_once_per_pag_and_vertex(self, monkeypatch):
        pag = parse(PAG8)
        built = []
        uncached = components.pag_to_mag

        def spy(g, preserve_into):
            built.append((serialize(g), frozenset(preserve_into)))
            return uncached(g, preserve_into)

        monkeypatch.setattr(components, "pag_to_mag", spy)
        monkeypatch.setattr(identify, "pag_to_mag", spy)
        spec = InvarianceSpec(pag, {"V2"})
        first = stable_candidates(spec, "V0")
        assert built
        assert len(built) == len(set(built))
        n_built = len(built)
        second = stable_candidates(spec, "V0")
        assert len(built) == n_built
        assert candidate_record(second) == candidate_record(first)

    def test_no_path_is_enumerated(self, monkeypatch):
        # path enumeration is the test oracle only: the search and
        # identification read separations in MAGs
        calls = []
        uncached = separation.definite_connecting_paths

        def spy(*args):
            calls.append(args)
            return uncached(*args)

        monkeypatch.setattr(separation, "definite_connecting_paths", spy)
        monkeypatch.setattr(identify, "definite_connecting_paths", spy)
        for pag, mutable, target in ((example_pag(), {"X1"}, "Y"),
                                     (parse(PAG8), {"V2"}, "V0")):
            kinds = {c.kind for c in stable_candidates(
                InvarianceSpec(pag, mutable), target)}
            assert "interventional" in kinds
            given = set(pag.vertices) - mutable - {target}
            assert identify_interventional(pag, mutable, {target}, given)
        assert calls == []

    def test_graph_queries_read_marks_from_the_index(self, monkeypatch):
        # closures and m-separation read each edge's marks from the
        # adjacency index built with the graph, not through Edge methods
        pag = parse(PAG8)
        mag = class_mag(pag)
        for g in (pag, mag):
            visible_edges(g)  # warm-up: visibility is memoized per graph
        calls = []
        for name in ("mark_at", "other"):
            method = getattr(Edge, name)

            def spy(e, v, method=method):
                calls.append((e, v))
                return method(e, v)

            monkeypatch.setattr(Edge, name, spy)
        for a, b in combinations(mag.vertices, 2):
            for z in ((), ("V3",), ("V4", "V5")):
                if a not in z and b not in z:
                    m_connected(mag, a, b, z)
        for g in (pag, mag):
            for v in g.vertices:
                g.ancestors({v})
                possible_ancestors(g, {v})
                ix, _, m = on_masks(g, {v})
                reach(ix.bi, m, ix.all)   # the definite c-component
                pc_component(g, {v})
        assert calls == []

    def test_same_candidates_as_a_fresh_graph(self):
        pag = parse(PAG8)
        spec = InvarianceSpec(pag, {"V2"})
        stable_candidates(spec, "V0")
        warm_run = stable_candidates(spec, "V0")
        cold_run = stable_candidates(InvarianceSpec(parse(PAG8), {"V2"}), "V0")
        assert candidate_record(warm_run) == candidate_record(cold_run)

    @pytest.mark.parametrize("text, mutable, target", SEARCHES,
                             ids=SEARCH_IDS)
    def test_joint_marginal_identified_once_per_c(self, monkeypatch, text,
                                                  mutable, target):
        # Q[c] = _marginal(p, ix, inv, c, V, Factor(V)) depends on c alone;
        # the recursive calls inside _marginal do not count
        top, depth = [], [0]
        uncached = identify._marginal

        def spy(p, ix, inv, c, t, q):
            if not depth[0]:
                top.append(c)
            depth[0] += 1
            try:
                return uncached(p, ix, inv, c, t, q)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(identify, "_marginal", spy)
        stable_candidates(InvarianceSpec(parse(text), mutable), target)
        assert top
        assert len(top) == len(set(top))

    @pytest.mark.parametrize("text, mutable, target", SEARCHES,
                             ids=SEARCH_IDS)
    def test_decomposition_step_computed_once(self, monkeypatch, text,
                                              mutable, target):
        # the search's context keeps each step by (grown seed, scope); the
        # table is the search's, so a second search computes its steps anew
        steps = []
        uncached = identify._decomposition_step

        def spy(ix, inv, x, scope):
            steps.append((x, scope))
            return uncached(ix, inv, x, scope)

        monkeypatch.setattr(identify, "_decomposition_step", spy)
        pag = parse(text)
        found = stable_candidates(InvarianceSpec(pag, mutable), target)
        assert any(c.kind == "interventional" for c in found)
        first = list(steps)
        assert first and len(first) == len(set(first))
        steps.clear()
        stable_candidates(InvarianceSpec(pag, mutable), target)
        assert steps == first

    @pytest.mark.parametrize("text, mutable, target", SEARCHES,
                             ids=SEARCH_IDS)
    def test_simplify_once_per_piece_key(self, monkeypatch, text, mutable,
                                         target):
        # the product identify_interventional simplifies is fixed by y and
        # the decomposition pieces that meet y
        inputs = []
        uncached = identify.simplify

        def spy(expr, graph):
            inputs.append(expr)
            return uncached(expr, graph=graph)

        monkeypatch.setattr(identify, "simplify", spy)
        found = stable_candidates(InvarianceSpec(parse(text), mutable),
                                  target)
        assert any(c.kind == "interventional" for c in found)
        assert len(inputs) == len(set(inputs))

    @pytest.mark.parametrize("text, mutable, target", SEARCHES,
                             ids=SEARCH_IDS)
    def test_separation_question_walked_once(self, monkeypatch, text,
                                             mutable, target):
        # a question a ⟂ b | z of simplify walks the MAG in one call at most
        walked, open_calls = [], []
        independent = expressions._independent
        walk = expressions.m_connected

        def independent_spy(graph, a, b, z):
            open_calls.append(False)
            try:
                return independent(graph, a, b, z)
            finally:
                if open_calls.pop():
                    walked.append((frozenset(a), frozenset(b), frozenset(z)))

        def walk_spy(*args):
            open_calls[-1] = True
            return walk(*args)

        monkeypatch.setattr(expressions, "_independent", independent_spy)
        monkeypatch.setattr(expressions, "m_connected", walk_spy)
        stable_candidates(InvarianceSpec(parse(text), mutable), target)
        assert walked
        assert len(walked) == len(set(walked))

    @pytest.mark.parametrize("text, mutable, target", SEARCHES,
                             ids=SEARCH_IDS)
    def test_mask_index_built_once_per_graph(self, monkeypatch, text,
                                             mutable, target):
        # closures, pc-components and separation walks read the neighbour
        # masks of each graph's index, built on first use
        built, graphs = [], []
        uncached = graph_module.VertexMasks.__init__

        def spy(ix, g):
            graphs.append(g)   # keeps each id unique while built holds it
            built.append(id(g))
            uncached(ix, g)

        monkeypatch.setattr(graph_module.VertexMasks, "__init__", spy)
        pag = parse(text)
        stable_candidates(InvarianceSpec(pag, mutable), target)
        assert pag in graphs and class_mag(pag) in graphs
        assert len(built) == len(set(built))

    def test_search_builds_no_induced_graph(self, monkeypatch):
        # a subgraph of the identification calculus is a scope mask: one
        # cold search builds only the MAGs of the PAG's class that the
        # invariance checker and simplify read, never a graph on fewer
        # vertices
        pag = parse(PAG10)
        built = []
        uncached = graph_module.MixedGraph.__init__

        def spy(g, vertices, edges, kind):
            uncached(g, vertices, edges, kind)
            built.append(g)

        monkeypatch.setattr(graph_module.MixedGraph, "__init__", spy)
        found = stable_candidates(InvarianceSpec(pag, {"V4"}), "V6")
        assert any(c.kind == "interventional" for c in found)
        assert built
        assert all(g.kind == "MAG" and g.vertices == pag.vertices
                   for g in built)
