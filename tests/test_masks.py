"""The mask loops equal their set-based references.

Closures, pc-components, regions, the m-separation walk and target
decomposition run on each graph's mask index, with an induced subgraph as a
scope mask. Each is compared here with the set-based procedure of
``tests/oracles.py`` that walks names and induced subgraphs: on random PAGs
with random marks, on PAGs that FCI learns from random ADMGs, on their MAGs,
on random scopes, and on a chain longer than the recursion limit. Vertex
names V0..V11 sort as V0, V1, V10, V11, V2, ..., so the bit order is not the
index order.
"""

import random
from itertools import combinations

import pytest

from stablespec.components import (
    _pc, buckets, class_mag, pc_component, region,
)
from stablespec.fci import SeparationOracle, fci
from stablespec.graph import (
    ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph, directed,
    possible_ancestors, reach,
)
from stablespec.separation import m_connected
from oracles import (
    buckets_by_sets, circle_arrow, closure_by_sets, decompose_by_sets,
    decompose_targets, induced, m_connected_by_sets, pc_component_by_sets,
    region_by_sets,
)
from util import on_masks, random_admg

MARKS = (ARROW, TAIL, CIRCLE)
# as in test_graph.TestLongGraphs
CHAIN = [f"V{i}" for i in range(1500)]


def random_marks_pag(rng) -> MixedGraph:
    """A PAG over 3 to 12 vertices with a random skeleton and random marks."""
    names = [f"V{i}" for i in range(rng.randint(3, 12))]
    density = rng.uniform(0.15, 0.5)
    edges = [Edge(a, b, rng.choice(MARKS), rng.choice(MARKS))
             for a, b in combinations(names, 2) if rng.random() < density]
    return MixedGraph(names, edges, "PAG")


def learned_pag(rng) -> MixedGraph:
    admg = random_admg(rng, max_vertices=10, min_vertices=4)
    return fci(SeparationOracle(admg), admg.vertices)


def random_subset(rng, names, p=0.5) -> set[str]:
    return {v for v in names if rng.random() < p}


def into_from_tail(here, there):
    return here == ARROW and there == TAIL


def no_arrow_there(here, there):
    return there != ARROW


def bidirected(here, there):
    return here == ARROW and there == ARROW


@pytest.mark.parametrize("seed", range(4))
class TestAgainstSets:
    def test_closures(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            pag = random_marks_pag(rng)
            assert buckets(pag) == buckets_by_sets(pag)
            graphs = [pag]
            if not any(CIRCLE in (e.mark_at_a, e.mark_at_b) and
                       TAIL in (e.mark_at_a, e.mark_at_b) for e in pag.edges):
                try:
                    graphs.append(class_mag(pag))
                except GraphError:   # arrowheads that close a cycle
                    pass
            for g in graphs:
                for _ in range(5):
                    s = random_subset(rng, g.vertices, 0.3)
                    assert g.ancestors(s) == \
                        closure_by_sets(g, s, into_from_tail)
                    assert possible_ancestors(g, s) == \
                        closure_by_sets(g, s, no_arrow_there)
                    ix, _, m = on_masks(g, s)
                    assert ix.names_of(reach(ix.bi, m, ix.all)) == \
                        closure_by_sets(g, s, bidirected)

    def test_pc_components_and_regions_in_scopes(self, seed):
        rng = random.Random(100 + seed)
        for _ in range(60):
            g = random_marks_pag(rng) if rng.random() < 0.5 else \
                learned_pag(rng)
            seed_set = random_subset(rng, g.vertices, 0.3)
            assert pc_component(g, seed_set) == \
                pc_component_by_sets(g, seed_set)
            for _ in range(5):
                c = random_subset(rng, g.vertices, 0.7)
                a = random_subset(rng, c, 0.3)
                sub = induced(g, c)
                ix, inv, am, cm = on_masks(g, a, c)
                assert ix.names_of(_pc(ix, inv, am, cm)) == \
                    pc_component_by_sets(sub, a, visibility_in=g)
                assert pc_component(sub, a) == pc_component_by_sets(sub, a)
                assert region(g, a, c) == region_by_sets(g, a, c)

    def test_m_separations(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(30):
            admg = random_admg(rng, max_vertices=10, min_vertices=3)
            graphs = [admg]
            pag = fci(SeparationOracle(admg), admg.vertices)
            graphs.append(class_mag(pag))
            for g in graphs:
                for x, y in combinations(g.vertices, 2):
                    z = random_subset(rng, set(g.vertices) - {x, y}, 0.3)
                    assert m_connected(g, x, y, z) == \
                        m_connected_by_sets(g, x, y, z)

    def test_decompositions(self, seed):
        rng = random.Random(300 + seed)
        for _ in range(40):
            p = learned_pag(rng)
            for _ in range(5):
                t = random_subset(rng, p.vertices, 0.4)
                z = random_subset(rng, set(p.vertices) - t, 0.4)
                assert decompose_targets(p, t, z) == \
                    decompose_by_sets(p, t, z)


class TestLongChain:
    def test_directed_chain(self):
        g = MixedGraph(CHAIN, [directed(a, b)
                               for a, b in zip(CHAIN, CHAIN[1:])], "ADMG")
        middle = CHAIN[len(CHAIN) // 2]
        for z in ((), (middle,)):
            assert m_connected(g, CHAIN[0], CHAIN[-1], z) == \
                m_connected_by_sets(g, CHAIN[0], CHAIN[-1], z) == (not z)
        assert g.ancestors({middle}) == \
            closure_by_sets(g, {middle}, into_from_tail)

    def test_collider_chain_pag(self):
        # every inner vertex a collider on invisible edges: one pc-component
        edges = [circle_arrow(CHAIN[0], CHAIN[1])] + [
            Edge(a, b, ARROW, ARROW) for a, b in zip(CHAIN[1:], CHAIN[2:])]
        pag = MixedGraph(CHAIN, edges, "PAG")
        assert pc_component(pag, {CHAIN[0]}) == \
            pc_component_by_sets(pag, {CHAIN[0]}) == set(CHAIN)
        scope = set(CHAIN[:-1])
        assert region(pag, {CHAIN[-2]}, scope) == \
            region_by_sets(pag, {CHAIN[-2]}, scope)
