import random
from itertools import combinations

import pytest

from stablespec.components import class_mag
from stablespec.fci import SeparationOracle, fci, pooled_fci
from stablespec.graph import (
    ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph, directed, parse,
    serialize,
)
from stablespec.separation import m_connected, visible_edges
from oracles import (
    definite_m_separated, mag_of_admg, visible_by_definition, with_kind,
)
from util import environment_tables, example_admg, example_pag, random_admg


class TestMConnected:
    def test_confounded_pair_blocked_marginally(self):
        g = example_admg()
        assert not m_connected(g, "X3", "X1", set())

    def test_collider_conditioning_opens_path(self):
        g = example_admg()
        assert m_connected(g, "X3", "X1", {"X2"})

    def test_isolated_vertices(self):
        g = MixedGraph(["A", "B"], [], "ADMG")
        assert not m_connected(g, "A", "B", set())

    def test_same_vertex_rejected(self):
        with pytest.raises(GraphError):
            m_connected(example_admg(), "Y", "Y", set())

    def test_endpoint_in_z_rejected(self):
        with pytest.raises(GraphError):
            m_connected(example_admg(), "Y", "X1", {"Y"})

    def test_pag_kind_rejected(self):
        with pytest.raises(GraphError):
            m_connected(example_pag(), "E", "Y", set())

    def test_matches_bruteforce_on_random_admgs(self):
        rng = random.Random(20240811)
        for _ in range(40):
            g = random_admg(rng, max_vertices=6)
            vs = list(g.vertices)
            for x, y in combinations(vs, 2):
                rest = [v for v in vs if v not in (x, y)]
                for k in range(len(rest) + 1):
                    for z in combinations(rest, k):
                        assert m_connected(g, x, y, set(z)) != \
                            definite_m_separated(g, {x}, {y}, z), \
                            (g.edges, x, y, z)


class TestDefiniteMSeparated:
    def test_running_example_blocked(self):
        # Both definite-status paths from E to Y pass a collider that is not
        # an ancestor of {X3}, so E and Y are separated given X3.
        assert definite_m_separated(example_pag(), {"E"}, {"Y"}, {"X3"})

    def test_running_example_noncolliders_in_z(self):
        assert definite_m_separated(example_pag(), {"X3"}, {"X2"}, {"Y", "X1"})

    def test_edgeless(self):
        g = MixedGraph(["A", "B"], [], "PAG")
        assert definite_m_separated(g, {"A"}, {"B"}, set())

    def test_non_disjoint_rejected(self):
        with pytest.raises(GraphError):
            definite_m_separated(example_pag(), {"E"}, {"E"}, set())

    def test_circle_circle_unshielded_is_noncollider(self):
        g = parse("vars: A,B,C\nA o-o B\nB o-o C\n", "PAG")
        assert not definite_m_separated(g, {"A"}, {"C"}, set())
        assert definite_m_separated(g, {"A"}, {"C"}, {"B"})

    def test_shielded_circle_triple_has_no_definite_status(self):
        # With A and C adjacent, the only A-C path not through B is direct;
        # the path through B has no definite status and cannot connect.
        g = parse("vars: A,B,C,D\nA o-o B\nB o-o C\nA o-o C\nC o-> D\n", "PAG")
        assert not definite_m_separated(g, {"A"}, {"C"}, set())
        assert definite_m_separated(g, {"A"}, {"D"}, {"C"})

    def test_agrees_with_mag_separation_when_no_circles(self):
        rng = random.Random(77)
        for _ in range(30):
            admg = random_admg(rng, max_vertices=5)
            mag = mag_of_admg(admg)
            pag_view = with_kind(mag, "PAG")
            vs = list(mag.vertices)
            for x, y in combinations(vs, 2):
                rest = [v for v in vs if v not in (x, y)]
                for k in range(len(rest) + 1):
                    for z in combinations(rest, k):
                        assert definite_m_separated(pag_view, {x}, {y}, set(z)) \
                            == (not m_connected(mag, x, y, set(z)))


def separation_queries(g):
    """Every (a, b, z) with a < b and z a subset of the other vertices."""
    for a, b in combinations(sorted(g.vertices), 2):
        rest = sorted(set(g.vertices) - {a, b})
        for k in range(len(rest) + 1):
            for z in combinations(rest, k):
                yield a, b, set(z)


class TestPagSeparationInItsMag:
    """The program reads a PAG's separations by m-separation in
    ``class_mag(p)``; definite-status path enumeration is the oracle."""

    def test_agrees_with_path_enumeration_on_oracle_pags(self):
        # Markov-equivalent MAGs share their m-separations (Zhang 2008)
        rng = random.Random(20261018)
        for _ in range(100):
            admg = random_admg(rng, max_vertices=6, min_vertices=3)
            pag = fci(SeparationOracle(admg), admg.vertices)
            mag = class_mag(pag)
            for a, b, z in separation_queries(pag):
                assert (not m_connected(mag, a, b, z)) == \
                    definite_m_separated(pag, {a}, {b}, z), \
                    (pag.edges, a, b, z)

    def test_never_grants_more_than_enumeration_on_learned_pags(self):
        # a learned PAG need not be valid; where its MAG reads circles as
        # undirected edges it may decline a separation, never grant one
        rng = random.Random(1018)
        checked = 0
        for _ in range(80):
            admg = random_admg(rng, max_vertices=6, min_vertices=3)
            tables = environment_tables(rng, admg, rng.choice((100, 300,
                                                               1000)))
            pag = pooled_fci(tables)
            mag = class_mag(pag)
            for a, b, z in separation_queries(pag):
                if not m_connected(mag, a, b, z):
                    assert definite_m_separated(pag, {a}, {b}, z), \
                        (pag.edges, a, b, z)
                checked += 1
        assert checked > 10000


class TestVisibleEdges:
    def test_running_example(self):
        p = example_pag()
        vis = {(e.tail_end(), e.head_end()) for e in visible_edges(p)}
        assert vis == {("Y", "X2"), ("X1", "X2")}

    def test_lone_directed_edge_invisible(self):
        g = MixedGraph(["X", "Y"], [directed("X", "Y")], "MAG")
        assert visible_edges(g) == set()

    def test_bidirected_witness(self):
        g = parse("vars: X,Y,Z\nZ <-> X\nX --> Y\n", "MAG")
        vis = {(e.tail_end(), e.head_end()) for e in visible_edges(g)}
        assert vis == {("X", "Y")}

    def test_directed_chain_witness(self):
        g = parse("vars: X,Y,Z\nZ --> X\nX --> Y\n", "MAG")
        vis = {(e.tail_end(), e.head_end()) for e in visible_edges(g)}
        assert vis == {("X", "Y")}

    def test_collider_path_clause(self):
        # C <-> V <-> X --> Y with V --> Y: C is not adjacent to Y and
        # reaches X by a collider path through the parent V of Y.
        g = parse("vars: C,V,X,Y\nC <-> V\nV <-> X\nV --> Y\nX --> Y\n", "MAG")
        vis = {(e.tail_end(), e.head_end()) for e in visible_edges(g)}
        assert ("X", "Y") in vis

    def test_isolated_vertex_does_not_change_visibility(self):
        p = example_pag()
        bigger = MixedGraph(list(p.vertices) + ["W"], p.edges, "PAG")
        assert visible_edges(bigger) == visible_edges(p)

    def test_subset_of_directed_edges(self):
        rng = random.Random(3)
        for _ in range(30):
            mag = mag_of_admg(random_admg(rng, max_vertices=6))
            for e in visible_edges(mag):
                assert e.is_directed

    @pytest.mark.parametrize("kind, n_graphs, max_vertices", [
        ("MAG", 150, 8), ("oracle PAG", 150, 7), ("random marks", 600, 8)],
        ids=["MAG", "oracle PAG", "random marks"])
    def test_equals_the_definition(self, kind, n_graphs, max_vertices):
        # dense graphs, so that some edges are visible only by a collider
        # path through parents of B
        rng = random.Random(kind)
        n_by_collider_path = 0
        for _ in range(n_graphs):
            admg = random_admg(rng, max_vertices=max_vertices, min_vertices=3,
                               p_directed=0.4, p_bidirected=0.4, p_both=0.1)
            if kind == "MAG":
                g = mag_of_admg(admg)
            elif kind == "oracle PAG":
                g = fci(SeparationOracle(admg), admg.vertices)
            else:
                pairs = sorted({(e.a, e.b) for e in admg.edges})
                marks = (TAIL, ARROW, ARROW, CIRCLE)
                g = MixedGraph(admg.vertices, [
                    Edge(a, b, rng.choice(marks), rng.choice(marks))
                    for a, b in pairs], "PAG")
            vis = visible_edges(g)
            assert vis == visible_by_definition(g), serialize(g)
            n_by_collider_path += sum(
                not any(here == ARROW and not g.adjacent(w, e.head_end())
                        for w, _, here, _ in g.adjacency(e.tail_end()))
                for e in vis)
        assert n_by_collider_path > 0


class TestMagOfAdmg:
    def test_running_example_is_its_own_mag(self):
        admg = example_admg()
        mag = mag_of_admg(admg)
        assert set(mag.edges) == set(admg.edges)

    def test_latent_chain_gets_inducing_edge(self):
        # A --> B <-> C with B an ancestor of nothing: A and C stay
        # non-adjacent (conditioning on B blocks, B collider opens only
        # given B, but then A-B path... checked by definition).
        g = parse("vars: A,B,C\nA --> B\nB <-> C\n", "ADMG")
        mag = mag_of_admg(g)
        assert mag.adjacent("A", "B") and mag.adjacent("B", "C")
        assert not mag.adjacent("A", "C")

    def test_adjacency_matches_bruteforce_separators(self):
        rng = random.Random(14)
        for _ in range(20):
            g = random_admg(rng, max_vertices=5)
            mag = mag_of_admg(g)
            vs = list(g.vertices)
            for a, b in combinations(vs, 2):
                rest = [v for v in vs if v not in (a, b)]
                separated = any(
                    not m_connected(g, a, b, set(s))
                    for k in range(len(rest) + 1)
                    for s in combinations(rest, k))
                assert mag.adjacent(a, b) == (not separated)
