import random
import re
from itertools import permutations

import pytest

from stablespec.components import (
    _pc, bucket_partial_order, buckets, pag_to_mag, pc_component, region,
)
from stablespec.graph import (
    ARROW, CIRCLE, TAIL, Edge, GraphError, MixedGraph, parse, reach,
)
from oracles import induced, possible_parents, with_kind
from util import example_pag, on_masks, random_admg


def _is_cycle(named: list[frozenset[str]],
              parents: dict[frozenset[str], set[frozenset[str]]]) -> bool:
    """Whether the named buckets, each once, lie on one directed cycle of
    the possible-parent relation between buckets."""
    if len(named) < 2 or len(set(named)) < len(named):
        return False
    first, *rest = named
    return any(all(cycle[i - 1] in parents[cycle[i]]
                   for i in range(len(cycle)))
               for cycle in ([first, *p] for p in permutations(rest)))


class TestBuckets:
    def test_running_example_all_singletons(self):
        p = example_pag()
        assert buckets(p) == [{"E"}, {"X1"}, {"X2"}, {"X3"}, {"Y"}]

    def test_circle_chain_merges(self):
        g = parse("vars: A,B,C,D\nA o-o B\nB o-o C\n", "PAG")
        assert buckets(g) == [{"A", "B", "C"}, {"D"}]

    def test_circle_arrow_does_not_merge(self):
        g = parse("vars: A,B\nA o-> B\n", "PAG")
        assert buckets(g) == [{"A"}, {"B"}]

    def test_is_a_partition(self):
        g = parse("vars: A,B,C,D,E\nA o-o B\nC o-o D\nB o-> C\n", "PAG")
        blocks = buckets(g)
        seen = set()
        for b in blocks:
            assert not (b & seen)
            seen |= b
        assert seen == set(g.vertices)


class TestPcComponent:
    def test_collider_closure_over_invisible_edges(self):
        p = example_pag()
        assert pc_component(p, {"Y"}) == {"Y", "X1", "X3", "E"}

    def test_visible_edges_excluded(self):
        p = example_pag()
        assert pc_component(p, {"X2"}) == {"X2"}

    def test_edgeless(self):
        g = MixedGraph(["A"], [], "PAG")
        assert pc_component(g, {"A"}) == {"A"}

    def test_inherited_visibility(self):
        # In the graph induced on {Y, X2} the edge Y --> X2 has no witness
        # and counts invisible; the scope mask {Y, X2} of the whole graph
        # keeps the visibility the edge has there.
        p = example_pag()
        assert pc_component(induced(p, {"Y", "X2"}), {"Y"}) == {"Y", "X2"}
        ix, inv, y, scope = on_masks(p, {"Y"}, {"Y", "X2"})
        assert ix.names_of(_pc(ix, inv, y, scope)) == {"Y"}


def bidirected_closure(g, seed):
    """The definite c-component of seed: its closure under bidirected
    edges, by the mask loop."""
    ix, _, s = on_masks(g, seed)
    return ix.names_of(reach(ix.bi, s, ix.all))


class TestDefiniteCComponent:
    def test_single_bidirected_edge(self):
        p = example_pag()
        assert bidirected_closure(p, {"Y"}) == {"Y", "X1"}
        assert bidirected_closure(p, {"X2"}) == {"X2"}

    def test_bidirected_chain(self):
        g = parse("vars: A,B,C\nA <-> B\nB <-> C\n", "PAG")
        assert bidirected_closure(g, {"A"}) == {"A", "B", "C"}

    def test_generator_seed(self):
        g = parse("vars: A,B,C\nA <-> B\nB <-> C\n", "PAG")
        assert bidirected_closure(g, (v for v in ["A"])) == {"A", "B", "C"}


class TestRegion:
    def test_running_example(self):
        p = example_pag()
        assert region(p, {"Y"}, {"Y", "X1", "X3"}) == {"Y", "X1", "X3"}

    def test_single_vertex(self):
        assert region(example_pag(), {"X2"}, {"X2"}) == {"X2"}

    def test_visible_edge_limits_region(self):
        assert region(example_pag(), {"Y"}, {"Y", "X2"}) == {"Y"}

    def test_a_not_subset_of_c_rejected(self):
        with pytest.raises(GraphError):
            region(example_pag(), {"Y"}, {"X2"})


class TestBucketPartialOrder:
    def test_running_example_order(self):
        p = example_pag()
        order = bucket_partial_order(p, set(p.vertices))
        pos = {min(b): i for i, b in enumerate(order)}
        assert pos["E"] < pos["X1"]
        assert pos["X3"] < pos["Y"]
        assert pos["X1"] < pos["X2"] and pos["Y"] < pos["X2"]
        assert order == [{"E"}, {"X3"}, {"X1"}, {"Y"}, {"X2"}]

    def test_single_vertex_scope(self):
        assert bucket_partial_order(example_pag(), {"X2"}) == [{"X2"}]

    def test_one_bucket(self):
        g = parse("vars: A,B\nA o-o B\n", "PAG")
        assert bucket_partial_order(g, {"A", "B"}) == [{"A", "B"}]

    def test_scope_restricts(self):
        order = bucket_partial_order(example_pag(), {"X1", "X2", "Y"})
        assert order == [{"X1"}, {"Y"}, {"X2"}]

    def test_equals_the_definition_on_random_marks(self):
        rng = random.Random("bucket order")
        seen = {"acyclic": 0, "cyclic": 0, "shared bucket": 0, "tie": 0}
        for _ in range(400):
            admg = random_admg(rng, max_vertices=8, min_vertices=3,
                               p_directed=0.4, p_bidirected=0.3, p_both=0.1)
            marks = (TAIL, ARROW, ARROW, CIRCLE, CIRCLE)
            g = MixedGraph(admg.vertices, [
                Edge(a, b, rng.choice(marks), rng.choice(marks))
                for a, b in sorted({(e.a, e.b) for e in admg.edges})], "PAG")
            scope = rng.sample(g.vertices, rng.randint(1, len(g.vertices)))
            sub = induced(g, scope)
            of = {v: b for b in buckets(sub) for v in b}
            # the possible-parent buckets of each bucket
            parents = {b: {of[u] for v in b for u in possible_parents(sub, v)}
                       - {b} for b in buckets(sub)}
            try:
                order = bucket_partial_order(g, scope)
            except GraphError as err:
                seen["cyclic"] += 1
                assert str(err).startswith(
                    "cyclic bucket order: possible-parent edges close a "
                    "cycle through the buckets {")
                named = [frozenset(b.split(","))
                         for b in re.findall(r"\{([^}]*)\}", str(err))]
                assert _is_cycle(named, parents), (str(err), sub.edges)
                continue
            seen["acyclic"] += 1
            seen["shared bucket"] += any(len(b) > 1 for b in order)
            assert sorted(order, key=min) == buckets(sub)
            pos = {b: i for i, b in enumerate(order)}
            assert all(pos[p] < pos[b] for b in order for p in parents[b])
            # layer by layer: the unplaced buckets whose possible-parent
            # buckets are all placed, by smallest name
            placed: set[frozenset[str]] = set()
            while len(placed) < len(order):
                layer = sorted((b for b in parents if b not in placed
                                and parents[b] <= placed), key=min)
                assert order[len(placed):len(placed) + len(layer)] == layer
                placed.update(layer)
                seen["tie"] += len(layer) > 1
        assert min(seen.values()) >= 50, seen


class TestPagToMag:
    def test_running_example(self):
        p = example_pag()
        mag = pag_to_mag(p, {"X1"})
        assert mag == parse(
            "vars: E,X1,X2,X3,Y\n"
            "E --> X1\nX1 --> X2\nX1 <-> Y\nX3 --> Y\nY --> X2\n", "MAG")

    def test_circle_pair_deterministic(self):
        g = parse("vars: A,B\nA o-o B\n", "PAG")
        mag = pag_to_mag(g, set())
        assert mag.edge("A", "B").tail_end() == "A"

    def test_preserve_orients_out_of_vertex(self):
        g = parse("vars: A,B\nA o-o B\n", "PAG")
        mag = pag_to_mag(g, {"B"})
        assert mag.edge("A", "B").tail_end() == "B"

    def test_no_circles_is_identity(self):
        g = parse("vars: A,B,C\nA --> B\nB <-> C\n", "PAG")
        assert pag_to_mag(g, set()) == with_kind(g, "MAG")

    def test_no_new_unshielded_colliders(self):
        g = parse("vars: A,B,C\nA o-o B\nB o-o C\n", "PAG")
        mag = pag_to_mag(g, set())
        # A and C are non-adjacent, so B must not become a collider
        assert not (mag.edge("A", "B").mark_at("B") == ARROW
                    and mag.edge("B", "C").mark_at("B") == ARROW)

    def test_impossible_preservation_rejected(self):
        # forcing both ends of an unshielded path to be sources needs a new
        # collider in the middle
        g = parse("vars: A,B,C\nA o-o B\nB o-o C\n", "PAG")
        with pytest.raises(GraphError):
            pag_to_mag(g, {"A", "C"})

    def test_non_chordal_circle_component_stays_undirected(self):
        # a learned PAG may have a chordless circle cycle; any orientation
        # makes a collider where the PAG reads a definite non-collider
        g = parse("vars: A,B,C,D\nA o-o B\nB o-o C\nC o-o D\nA o-o D\n")
        for preserve in (set(), {"A"}):
            mag = pag_to_mag(g, preserve)
            assert len(mag.edges) == 4
            assert all(e.mark_at_a == e.mark_at_b == TAIL for e in mag.edges)

    def test_orientation_closing_a_cycle_stays_undirected(self):
        g = parse("vars: E,V0,V1\nE o-o V0\nE o-o V1\nV1 o-> V0\n")
        # V0 first gives V0 --> E --> V1 --> V0
        mag = pag_to_mag(g, {"V0"})
        assert mag.edge("V1", "V0").head_end() == "V0"
        for w in ("V0", "V1"):
            e = mag.edge("E", w)
            assert e.mark_at_a == e.mark_at_b == TAIL
        # E first closes no cycle, so the circle edges are oriented
        mag = pag_to_mag(g, {"E"})
        assert all(e.is_directed for e in mag.edges)
        assert mag.edge("E", "V0").tail_end() == "E"

    def test_directed_cycle_in_the_pag_rejected(self):
        g = parse("vars: A,B,C\nA --> B\nB --> C\nC o-> A\n")
        with pytest.raises(GraphError, match="close a directed cycle"):
            pag_to_mag(g, set())

    def test_adjacencies_and_preserved_in_edges(self):
        g = parse("vars: A,B,C,D\nA o-o B\nB o-o C\nA o-o C\nC o-> D\n", "PAG")
        for v in g.vertices:
            mag = pag_to_mag(g, {v})
            assert mag.kind == "MAG"
            for e in mag.edges:
                assert CIRCLE not in (e.mark_at_a, e.mark_at_b)
            assert {frozenset((e.a, e.b)) for e in mag.edges} == \
                {frozenset((e.a, e.b)) for e in g.edges}
            pag_in = {e.other(v) for e in g.edges_at(v) if e.mark_at(v) == ARROW}
            mag_in = {e.other(v) for e in mag.edges_at(v) if e.mark_at(v) == ARROW}
            assert pag_in == mag_in
