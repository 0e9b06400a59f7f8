import random
import re
from itertools import combinations

import pytest

from stablespec.components import class_mag, pag_to_mag
from stablespec.fci import SeparationOracle, fci
from stablespec.graph import (
    ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph,
    REMOVE_INTO, REMOVE_VISIBLE_OUT_OF,
    bidirected, directed, mutilate, parse,
    possible_ancestors, serialize,
)
from stablespec.separation import m_connected
from oracles import circle_arrow, definite_m_separated, mag_of_admg
from util import ADMG_TEXT, PAG_TEXT, example_admg, example_pag, random_admg


class TestConstruction:
    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Edge("A", "A", TAIL, ARROW)

    def test_unknown_vertex_in_edge(self):
        with pytest.raises(GraphError):
            MixedGraph(["A"], [directed("A", "B")], "ADMG")

    def test_circle_mark_rejected_in_mag(self):
        with pytest.raises(GraphError):
            MixedGraph(["A", "B"], [circle_arrow("A", "B")], "MAG")

    def test_directed_cycle_rejected(self):
        with pytest.raises(GraphError):
            MixedGraph(["A", "B"], [directed("A", "B"), directed("B", "A")],
                       "ADMG")

    def test_parallel_edges_rejected_in_mag(self):
        with pytest.raises(GraphError):
            MixedGraph(["A", "B"], [directed("A", "B"), bidirected("A", "B")],
                       "MAG")

    def test_admg_allows_directed_plus_bidirected(self):
        g = MixedGraph(["A", "B"], [directed("A", "B"), bidirected("A", "B")],
                       "ADMG")
        assert len(g.edges_between("A", "B")) == 2

    def test_duplicate_directed_rejected_in_admg(self):
        with pytest.raises(GraphError):
            MixedGraph(["A", "B"], [directed("A", "B"), directed("A", "B")],
                       "ADMG")

    def test_circle_rejected_in_admg(self):
        with pytest.raises(GraphError):
            MixedGraph(["A", "B"], [circle_arrow("A", "B")], "ADMG")

    # each ADMG fault gets its own message; a single edge is not parallel

    def test_admg_parallel_edges_message(self):
        with pytest.raises(GraphError, match="^invalid parallel edges "
                                             "between A and B in an ADMG$"):
            MixedGraph(["A", "B"], [directed("A", "B"), directed("A", "B")],
                       "ADMG")

    def test_admg_circle_mark_message(self):
        with pytest.raises(GraphError, match="^circle mark in a ADMG"):
            MixedGraph(["A", "B"], [circle_arrow("A", "B")], "ADMG")

    def test_admg_undirected_edge_message(self):
        with pytest.raises(GraphError, match="^ADMG edge must be directed "
                                             "or bidirected"):
            MixedGraph(["A", "B"], [Edge("A", "B", TAIL, TAIL)], "ADMG")

    def test_equality_ignores_edge_order(self):
        e1, e2 = directed("A", "B"), bidirected("B", "C")
        g1 = MixedGraph(["A", "B", "C"], [e1, e2], "MAG")
        g2 = MixedGraph(["A", "B", "C"], [e2, e1], "MAG")
        assert g1 == g2 and hash(g1) == hash(g2)


# longer than Python's default recursion limit of 1,000
CHAIN = [f"V{i}" for i in range(1500)]


class TestLongGraphs:
    def test_directed_chain_admg_builds(self):
        g = MixedGraph(CHAIN, [directed(a, b)
                               for a, b in zip(CHAIN, CHAIN[1:])], "ADMG")
        assert g.ancestors({CHAIN[-1]}) == set(CHAIN)

    def test_class_mag_of_a_long_pag(self):
        pag = MixedGraph(CHAIN, [circle_arrow(CHAIN[0], CHAIN[1])] + [
            directed(a, b) for a, b in zip(CHAIN[1:], CHAIN[2:])], "PAG")
        mag = class_mag(pag)
        assert mag.kind == "MAG" and mag.parents(CHAIN[1]) == {CHAIN[0]}

    def test_chain_closed_into_a_cycle_rejected(self):
        with pytest.raises(GraphError, match="^directed cycle in a ADMG$"):
            MixedGraph(CHAIN, [directed(a, b) for a, b in
                               zip(CHAIN, CHAIN[1:] + CHAIN[:1])], "ADMG")


class TestTextFormat:
    def test_round_trip_is_byte_stable(self):
        odd_names = ("vars: E,x_1,Y.2,a-b,(c)\n(c) <-> a-b\nE o-> x_1\n"
                     "x_1 --> Y.2\n")
        for text, kind in ((PAG_TEXT, "PAG"), (ADMG_TEXT, "ADMG"),
                           (odd_names, "PAG")):
            g = parse(text, kind)
            assert serialize(g) == text
            assert parse(serialize(g), kind) == g

    def test_reversed_glyphs_parse(self):
        g = parse("vars: A,B\nB <-- A\n", "ADMG")
        assert g.edge("A", "B") == directed("A", "B")

    @pytest.mark.parametrize("name", ["my x", "z,1", "", "tab\tx", " Y"])
    def test_name_the_format_cannot_hold_rejected(self, name):
        g = MixedGraph(["A", name], [], "PAG")
        with pytest.raises(GraphError, match=re.escape(f"vertex name {name!r}")):
            serialize(g)

    def test_missing_header(self):
        with pytest.raises(GraphError):
            parse("A --> B\n")

    def test_bad_edge_line(self):
        with pytest.raises(GraphError):
            parse("vars: A,B\nA -> B\n")


def index_neighbours(g, kind, v):
    """The neighbours of v in the mask index list ``kind`` (``ppa``:
    possible parents, ``pch``: possible children)."""
    ix = g.masks()
    return ix.names_of(getattr(ix, kind)[ix.names.index(v)])


class TestBasicQueries:
    def test_parents_children(self):
        g = example_admg()
        assert g.parents("X2") == {"X1", "Y"}
        assert g.children("E") == {"X1"}
        assert g.parents("E") == set()

    def test_ancestors_reflexive_closure(self):
        g = example_admg()
        assert g.ancestors({"X2"}) == {"E", "X1", "X2", "X3", "Y"}
        assert g.ancestors({"X3"}) == {"X3"}

    def test_possible_parents_and_children_on_pag(self):
        p = example_pag()
        assert index_neighbours(p, "ppa", "X1") == {"E"}
        assert index_neighbours(p, "pch", "E") == {"X1"}
        assert index_neighbours(p, "ppa", "X2") == {"X1", "Y"}

    def test_ancestors_of_a_generator(self):
        g = MixedGraph(["A", "B"], [directed("A", "B")], "ADMG")
        assert g.ancestors(v for v in ["B"]) == {"A", "B"}


class TestPossibleAncestors:
    def test_running_example_sink(self):
        p = example_pag()
        assert possible_ancestors(p, {"X2"}) == {"E", "X1", "X2", "X3", "Y"}

    def test_running_example_source(self):
        p = example_pag()
        assert possible_ancestors(p, {"X3"}) == {"X3"}

    def test_reflexive_on_edgeless_graph(self):
        g = MixedGraph(["V"], [], "PAG")
        assert possible_ancestors(g, {"V"}) == {"V"}

    def test_unknown_vertex(self):
        with pytest.raises(GraphError):
            possible_ancestors(example_pag(), {"Q"})

    def test_generator_target(self):
        assert possible_ancestors(example_pag(), (v for v in ["X2"])) == \
            {"E", "X1", "X2", "X3", "Y"}

    def test_circle_edges_walkable_both_ways(self):
        g = parse("vars: A,B,C\nA o-o B\nB o-> C\n", "PAG")
        assert possible_ancestors(g, {"C"}) == {"A", "B", "C"}
        assert possible_ancestors(g, {"A"}) == {"A", "B"}


class TestMutilate:
    def test_remove_into_empty_is_identity(self):
        g = example_admg()
        assert mutilate(g, REMOVE_INTO, set()) == g

    def test_remove_into_strips_all_arrowheads_at_x(self):
        mag = mag_of_admg(example_admg())
        cut = mutilate(mag, REMOVE_INTO, {"X1"})
        assert not cut.adjacent("E", "X1")
        assert not cut.adjacent("X1", "Y")
        assert cut.adjacent("X1", "X2")
        for e in cut.edges:
            assert not (e.mark_at("X1") == ARROW if "X1" in (e.a, e.b) else False)

    def test_remove_visible_out_of(self):
        mag = mag_of_admg(example_admg())
        cut = mutilate(mag, REMOVE_VISIBLE_OUT_OF, {"Y"})
        assert not cut.adjacent("Y", "X2")
        assert cut.adjacent("X3", "Y")
        assert cut.adjacent("X1", "Y")

    def test_visibility_judged_in_other_graph(self):
        # In the MAG alone Y --> X2 is still visible (witness X3 --> Y), so
        # passing the PAG as the visibility reference gives the same cut.
        mag = mag_of_admg(example_admg())
        cut = mutilate(mag, REMOVE_VISIBLE_OUT_OF, {"Y"},
                       visibility_in=example_pag())
        assert not cut.adjacent("Y", "X2")

    def test_unknown_mode(self):
        with pytest.raises(GraphError):
            mutilate(example_admg(), "Shuffle", set())

    def test_generator_argument(self):
        for g, mode in ((example_admg(), REMOVE_INTO),
                        (mag_of_admg(example_admg()), REMOVE_VISIBLE_OUT_OF)):
            assert mutilate(g, mode, (v for v in ["Y"])) == \
                mutilate(g, mode, ["Y"]) != g


# -- the adjacency index against the definitions on Edge -------------------


def edges_at_by_definition(g, v):
    return sorted((e for e in g.edges if v in (e.a, e.b)),
                  key=lambda e: e.other(v))


def neighbours_by_marks(g, v, here, there):
    return {e.other(v) for e in edges_at_by_definition(g, v)
            if e.mark_at(v) in here and e.mark_at(e.other(v)) in there}


def closure_by_definition(seed, step):
    """seed plus every vertex reached by repeating step from it."""
    out = set(seed)
    while more := {u for v in out for u in step(v)} - out:
        out |= more
    return out


def index_test_graphs():
    """Random ADMGs, their oracle PAGs and a MAG of each PAG's class."""
    rng = random.Random(20261018)
    for _ in range(25):
        admg = random_admg(rng, max_vertices=6, min_vertices=3)
        pag = fci(SeparationOracle(admg), admg.vertices)
        yield from (admg, pag, pag_to_mag(pag, ()))


class TestAdjacencyIndex:
    def test_queries_equal_their_definitions(self):
        any_mark = (TAIL, ARROW, CIRCLE)
        no_arrow = (TAIL, CIRCLE)
        for g in index_test_graphs():
            def by_marks(here, there):
                return lambda v: neighbours_by_marks(g, v, here, there)

            for v in g.vertices:
                assert g.edges_at(v) == edges_at_by_definition(g, v)
                assert g.parents(v) == by_marks((ARROW,), (TAIL,))(v)
                assert g.children(v) == by_marks((TAIL,), (ARROW,))(v)
                assert index_neighbours(g, "ppa", v) == \
                    by_marks((ARROW,), no_arrow)(v)
                assert index_neighbours(g, "pch", v) == \
                    by_marks(no_arrow, (ARROW,))(v)
            ix = g.masks()
            tables = {kind: ix.reached_by(kind) for kind in ("pa", "noarrow")}
            for kind, table in tables.items():
                assert ix.reached_by(kind) is table
            for k in (1, 2):
                for seed in combinations(g.vertices, k):
                    closures = {
                        "pa": closure_by_definition(
                            seed, by_marks((ARROW,), (TAIL,))),
                        "noarrow": closure_by_definition(
                            seed, by_marks(any_mark, no_arrow))}
                    assert g.ancestors(seed) == closures["pa"]
                    assert possible_ancestors(g, seed) == closures["noarrow"]
                    # one vertex against a closure: a lookup in the table
                    z = ix.mask(seed)
                    for kind, closure in closures.items():
                        for i, v in enumerate(ix.names):
                            assert (v in closure) == \
                                bool(z & tables[kind][i]), (kind, seed, v)

    def test_parallel_edges_keep_their_order(self):
        for first, second in ((directed("A", "B"), bidirected("A", "B")),
                              (bidirected("A", "B"), directed("A", "B"))):
            g = MixedGraph(["A", "B", "C"],
                           [directed("B", "C"), first, second], "ADMG")
            assert g.edges_at("B") == [first, second, directed("B", "C")]
            assert g.edges_between("B", "A") == [first, second]

    def test_m_connected_matches_bruteforce(self):
        for g in index_test_graphs():
            if g.kind == "PAG":
                continue
            for x, y in combinations(g.vertices, 2):
                rest = [v for v in g.vertices if v not in (x, y)]
                for k in range(len(rest) + 1):
                    for z in combinations(rest, k):
                        assert m_connected(g, x, y, z) != \
                            definite_m_separated(g, {x}, {y}, z), \
                            (g.kind, g.edges, x, y, z)
