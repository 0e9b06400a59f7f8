import gc
import hashlib
import json
import math
import random
import re
import time
import tracemalloc
import weakref
from itertools import combinations

import numpy as np
import pytest

from stablespec import citest, fci as fci_module
from stablespec.citest import (
    DegenerateDataError, environment_test, fisher_z_test,
)
from stablespec.components import class_mag
from stablespec.data import DataError, DataTable, pool_environments
from stablespec.fci import (
    DataOracle, Knowledge, SeparationOracle, _Marks, fci,
    pooled_fci, possible_children_of_env,
)
from stablespec.graph import (
    ARROW, CIRCLE, TAIL, GraphError, parse, positions, serialize,
)
from stablespec.scm import shift_benchmark_scm
from stablespec.separation import m_connected
from oracles import (
    blocks_by_paths, distinct_subsets, mag_of_admg, possible_d_sep_by_paths,
    with_kind,
)
from util import (
    CONFLICT_ADMG, PerSetOracle, ask, complete_pag, example_admg,
    example_pag, bench_inputs, exact_table, first_index, independence_oracle,
    pooled_draws, random_admg,
)


# Of 20,000 random_admg draws (Random(11), 3 to 7 vertices), the one on
# which the tail-triangle rule (R8) fires.
TAIL_TRIANGLE_ADMG = """\
vars: V0,V1,V2,V3,V4,V5,V6
V0 --> V2
V0 --> V3
V0 --> V6
V1 --> V2
V1 --> V6
V1 <-> V4
V2 --> V3
V2 --> V4
V2 --> V6
V2 <-> V6
V3 --> V5
V3 <-> V5
V4 --> V6
V4 <-> V5
V5 --> V6
"""
# The smallest of those draws on which the double-parent rule (R10)
# fires; without it, V0 --> V4 keeps a circle at V0.
DOUBLE_PARENT_ADMG = """\
vars: V0,V1,V2,V3,V4
V0 --> V2
V0 --> V3
V0 --> V4
V0 <-> V1
V0 <-> V2
V1 --> V3
V1 <-> V2
V2 --> V4
V3 --> V4
"""


class TestKnowledge:
    def test_forbidden_into(self):
        k = Knowledge(forbidden_into=["E", "E"])
        assert k.forbidden_into == frozenset({"E"})
        assert Knowledge().forbidden_into == frozenset()

    def test_vertices_outside_the_variables_raise(self):
        # a misspelt environment name would otherwise drop the constraint
        admg = example_admg()
        for vs in ({"e"}, {"E", "e", "Q"}):
            with pytest.raises(GraphError, match=re.escape(
                    f"forbidden_into names unknown vertices: "
                    f"{sorted(vs - {'E'})}")):
                fci(SeparationOracle(admg), admg.vertices, Knowledge(vs))


class TestMarks:
    """Two adjacent vertices at positions 0 and 1 (A and B, A and E, B and
    E), each mark a row over them."""

    def test_refined_mark_stays(self):
        # finite samples can ask for both refinements of one mark
        m = _Marks([0b10, 0b01])
        assert m.set_mark(0, 1, TAIL)
        assert not m.set_mark(0, 1, ARROW)
        assert not m.set_mark(0, 1, TAIL)
        assert m.mark(0, 1) == TAIL and m.mark(1, 0) == CIRCLE
        assert (m.tail, m.tail_to, m.circle, m.circle_to) == \
            ([0, 0b01], [0b10, 0], [0b10, 0], [0, 0b01])

    def test_knowledge_blocks_silently(self):
        m = _Marks([0b10, 0b01], forbidden=0b10)
        assert not m.set_mark(0, 1, ARROW)
        assert m.set_mark(1, 0, ARROW)

    def test_blocked_arrowhead_leaves_the_tail_unset(self):
        m = _Marks([0b10, 0b01], forbidden=0b10)
        assert not m.orient_directed(0, 1)
        assert m.mark(1, 0) == CIRCLE and m.mark(0, 1) == CIRCLE


class TestFiniteSampleConflicts:
    def test_conflicting_orientation_keeps_the_first_mark(self):
        # the last draw's rules ask for both refinements of one mark
        for g, tables in pooled_draws(24):
            pag = pooled_fci(tables)
            assert parse(serialize(pag)) == pag
            class_mag(pag)   # raises GraphError where no MAG fits
        assert serialize(g) == CONFLICT_ADMG


class TestFciExactOracle:
    def test_running_example(self):
        admg = example_admg()
        got = fci(SeparationOracle(admg), admg.vertices,
                  Knowledge(forbidden_into={"E"}))
        assert got == example_pag()

    def test_running_example_without_knowledge(self):
        # the collider at X1 is data-identified, so knowledge only protects
        # the mark at E, which stays a circle here anyway
        admg = example_admg()
        got = fci(SeparationOracle(admg), admg.vertices)
        assert got == example_pag()

    def test_chain_gives_circles(self):
        chain = with_kind(parse("vars: A,B,C\nA --> B\nB --> C\n"), "ADMG")
        got = fci(SeparationOracle(chain), chain.vertices)
        assert got == parse("vars: A,B,C\nA o-o B\nB o-o C\n")

    def test_single_variable(self):
        report: dict = {}
        got = fci(PerSetOracle(lambda a, b, s: True), ["A"], report=report)
        assert got.vertices == ("A",)
        assert got.edges == ()
        # the general path runs, so every rule is listed, with no firing
        assert report["ci_tests"] == 0 and report["sepsets"] == {}
        assert report["ci_tests_by_phase"] == {"skeleton": 0,
                                               "possible_d_sep": 0}
        assert set(report["rule_firings"].values()) == {0}

    def test_deterministic(self):
        admg = example_admg()
        a = fci(SeparationOracle(admg), admg.vertices)
        b = fci(SeparationOracle(admg), admg.vertices)
        assert a == b

    def test_sound_marks_and_exact_adjacencies_on_random_admgs(self):
        rng = random.Random(20240815)
        for _ in range(60):
            g = random_admg(rng, max_vertices=6)
            assert_sound(g, fci(SeparationOracle(g), g.vertices))

    @pytest.mark.parametrize("rule, admg", [
        ("tail-triangle", TAIL_TRIANGLE_ADMG),
        ("double-parent", DOUBLE_PARENT_ADMG),
    ])
    def test_rare_rule_fires_soundly(self, rule, admg):
        g = parse(admg, "ADMG")
        report: dict = {}
        pag = fci(SeparationOracle(g), g.vertices, report=report)
        assert report["rule_firings"][rule] > 0
        assert_sound(g, pag)

    def test_chain_rule_into_forbidden_vertex_leaves_circles(self):
        # A *-> B <-* D is a collider and B separates both from E, so the
        # chain rule asks for B --> E, which the knowledge forbids: the edge
        # keeps both circles rather than becoming the circle-tail B --o E
        pag = fci(independence_oracle({"AD": "", "AE": "B", "DE": "B"}),
                  ["A", "B", "D", "E"], Knowledge(forbidden_into={"E"}))
        assert pag == parse("vars: A,B,D,E\nA o-> B\nD o-> B\nB o-o E\n")

    def test_pinned_queries_and_pags(self):
        # what oracle FCI asks and learns on 100 random ADMGs; no floating
        # point enters, so a change here changes the adjacency search or
        # the orientation rules, and must say why. Bounding the
        # possible-d-sep pools by skeleton blocks took 29915 tests to 27091
        rng = random.Random(22)
        tests, texts, found = 0, [], []
        for _ in range(100):
            g = random_admg(rng, max_vertices=8)
            report: dict = {}
            pag = fci(SeparationOracle(g), g.vertices,
                      Knowledge(forbidden_into={g.vertices[0]}), report=report)
            tests += report["ci_tests"]
            assert sum(report["ci_tests_by_phase"].values()) == \
                report["ci_tests"]
            texts.append(serialize(pag))
            found.append([report["sepsets"], report["rule_firings"]])
        assert tests == 27091
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest.startswith("80d4ea8a61f0e275")
        # the separating sets and rule firings of the same draws
        digest = hashlib.sha256(json.dumps(found).encode()).hexdigest()
        assert digest.startswith("8411360928b90eff")

    def test_pinned_data_pags_and_reports(self):
        # what data FCI learns and reports on the first 500 pooled draws:
        # the PAG, the CI-test counts, the separating sets and the rule
        # firings, which a change to the adjacency search, the orientation
        # rules or the oracle's stream would move
        texts = []
        for _, tables in pooled_draws(500):
            report: dict = {}
            pag = pooled_fci(tables, report=report)
            texts.append(serialize(pag) + json.dumps(report))
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest.startswith("fb5e7ca463f5577c")

    def test_knowledge_respected_on_random_admgs(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_admg(rng, max_vertices=5)
            env = g.vertices[0]
            pag = fci(SeparationOracle(g), g.vertices,
                      Knowledge(forbidden_into={env}))
            for e in pag.edges_at(env):
                assert e.mark_at(env) != ARROW


def assert_sound(g, pag):
    """pag has the adjacencies of the MAG of the ADMG g, and each of its
    tails and arrowheads is that MAG's mark."""
    mag = mag_of_admg(g)
    adj = lambda gr: {frozenset((e.a, e.b)) for e in gr.edges}
    assert adj(pag) == adj(mag)
    for e in pag.edges:
        me = next(x for x in mag.edges if {x.a, x.b} == {e.a, e.b})
        for v in (e.a, e.b):
            if e.mark_at(v) in (ARROW, TAIL):
                assert me.mark_at(v) == e.mark_at(v), (g, e, me)


def random_marks(rng: random.Random) -> _Marks:
    """A mark store over 3 to 9 vertices: a random skeleton of random
    density, each of its marks drawn from arrow, tail and circle, the mark
    at b on a-b and then the one at a, per pair a < b."""
    n = rng.randint(3, 9)
    density = rng.uniform(0.2, 0.7)
    skeleton = [p for p in combinations(range(n), 2)
                if rng.random() < density]
    adj = [0] * n
    for a, b in skeleton:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    marks = _Marks(adj)
    for a, b in skeleton:
        for u, v in ((a, b), (b, a)):
            mark = rng.choice((ARROW, TAIL, CIRCLE))
            if mark != CIRCLE:
                marks.set_mark(u, v, mark)
    return marks


class TestPossibleDSep:
    def test_closure_contains_the_path_definition(self):
        rng = random.Random(21)
        queries = 0
        while queries < 10_000:
            marks = random_marks(rng)
            got = fci_module._possible_d_sep(marks)
            want = possible_d_sep_by_paths(marks)
            vertices = range(len(marks.adj))
            for x in vertices:
                assert not want[x] & ~got[x], (marks.arrow, marks.tail, x)
                assert not got[x] >> x & 1
                for y in vertices:
                    assert got[x] >> y & 1 == got[y] >> x & 1, \
                        (marks.arrow, marks.tail, x, y)
            queries += len(marks.adj)

    def test_closure_learns_what_the_path_definition_learns(
            self, monkeypatch):
        # the closure may widen a conditioning pool and so change the CI
        # test count, but not the learned PAG or its separating sets
        def learn():
            out = []
            for _, tables in pooled_draws(200):
                report: dict = {}
                pag = pooled_fci(tables, report=report)
                out.append((serialize(pag), report["sepsets"]))
            return out

        closure = learn()
        monkeypatch.setattr(fci_module, "_possible_d_sep",
                            possible_d_sep_by_paths)
        assert learn() == closure

    def test_dense_skeleton_scales(self):
        # every pair dependent: no edge is removed, and every pool of the
        # possible-d-sep phase holds all the other vertices
        vs = [f"V{i:02d}" for i in range(15)]
        report: dict = {}
        start = time.perf_counter()
        pag = fci(PerSetOracle(lambda a, b, s: False), vs, max_cond_size=1,
                  report=report)
        assert time.perf_counter() - start < 1.0
        assert pag == complete_pag(vs)
        assert report["ci_tests"] == 2835


def blocks_of(adj: dict[str, set[str]]) -> dict[frozenset, frozenset]:
    """``fci._blocks`` of the undirected graph ``adj`` over names, its
    vertices at positions in name order, with each edge and block put
    back into names."""
    names = sorted(adj)
    got = fci_module._blocks([sum(1 << names.index(w) for w in adj[v])
                              for v in names])
    return {frozenset((names[a], names[b])):
            frozenset(names[v] for v in positions(block))
            for (a, b), block in got.items()}


def random_skeleton(rng: random.Random) -> dict[str, set[str]]:
    """An undirected graph over 2 to 9 vertices of random density."""
    vs = [f"V{i}" for i in range(rng.randint(2, 9))]
    density = rng.uniform(0.2, 0.8)
    adj: dict[str, set[str]] = {v: set() for v in vs}
    for a, b in combinations(vs, 2):
        if rng.random() < density:
            adj[a].add(b)
            adj[b].add(a)
    return adj


def components(adj: dict[str, set[str]]) -> int:
    """The number of connected components of ``adj``."""
    seen: set[str] = set()
    count = 0
    for v in adj:
        if v not in seen:
            count += 1
            stack = [v]
            while stack:
                u = stack.pop()
                if u not in seen:
                    seen.add(u)
                    stack.extend(adj[u])
    return count


class TestBlocks:
    def test_cut_vertices_split_blocks(self):
        # two triangles joined at C, a bridge C-F, and an isolated G
        adj = {"A": {"B", "C"}, "B": {"A", "C"}, "C": {"A", "B", "D", "E",
                                                     "F"},
               "D": {"C", "E"}, "E": {"C", "D"}, "F": {"C"}, "G": set()}
        abc, cde = frozenset("ABC"), frozenset("CDE")
        assert blocks_of(adj) == {
            frozenset("AB"): abc, frozenset("AC"): abc,
            frozenset("BC"): abc, frozenset("CD"): cde,
            frozenset("CE"): cde, frozenset("DE"): cde,
            frozenset("CF"): frozenset("CF")}

    def test_matches_the_path_definition(self):
        rng = random.Random(26)
        bridges = isolated = split = 0
        for _ in range(400):
            adj = random_skeleton(rng)
            got = blocks_of(adj)
            assert got == blocks_by_paths(adj), adj
            bridges += sum(len(block) == 2 for block in got.values())
            isolated += sum(not ns for ns in adj.values())
            split += components(adj) > 1
        # the draws cover bridges, isolated vertices and split graphs
        assert min(bridges, isolated, split) >= 50


class TestBlockBound:
    """The possible-d-sep pools of an edge are cut down to its skeleton
    block; with every block holding all the vertices, the phase reads the
    whole pools, as before the bound."""

    @staticmethod
    def unbounded(monkeypatch):
        monkeypatch.setattr(fci_module, "_blocks", lambda adj: {
            pair: (1 << len(adj)) - 1 for pair in fci_module._pairs(adj)})

    def test_oracle_learns_what_the_whole_pools_learn(self, monkeypatch):
        # 400 ADMGs besides the pinned 100, sparse ones among them, whose
        # skeletons split into several blocks
        def learn():
            rng = random.Random(2012)
            out, tests = [], 0
            for _ in range(400):
                scale = rng.uniform(0.2, 1.0)
                g = random_admg(rng, max_vertices=9, p_directed=0.25 * scale,
                                p_bidirected=0.15 * scale,
                                p_both=0.1 * scale)
                report: dict = {}
                pag = fci(SeparationOracle(g), g.vertices,
                          Knowledge(forbidden_into={g.vertices[0]}),
                          report=report)
                out.append((serialize(pag), report["sepsets"]))
                tests += report["ci_tests"]
            return out, tests

        bounded, fewer = learn()
        self.unbounded(monkeypatch)
        whole, more = learn()
        assert bounded == whole
        assert fewer < more

    def test_wide_draw_oracle_tests(self, monkeypatch):
        # the benchmark's wide system at 15 observed variables, learned
        # from its true ADMG; the whole pools took 26138 tests
        inputs = bench_inputs()
        inputs.N_OBSERVED = 15
        inputs.N_LATENT = inputs.N_SHIFTED = 3
        _, admg = inputs.wide_scm(0, 0)
        knowledge = Knowledge(forbidden_into={"E"})

        def learn():
            report: dict = {}
            pag = fci(SeparationOracle(admg), admg.vertices, knowledge,
                      report=report)
            return serialize(pag), report

        pag, report = learn()
        assert report["ci_tests"] <= 24859
        assert report["ci_tests_by_phase"]["possible_d_sep"] <= 17867
        self.unbounded(monkeypatch)
        assert learn()[0] == pag


class TestPossibleChildrenOfEnv:
    def test_running_example(self):
        assert possible_children_of_env(example_pag(), "E") == {"X1"}

    def test_isolated_env(self):
        g = parse("vars: A,E\n")
        assert possible_children_of_env(g, "E") == set()

    def test_marks_decide(self):
        g = parse("vars: A,B,C,E\nE o-> A\nE o-> B\nC <-> E\n")
        assert possible_children_of_env(g, "E") == {"A", "B"}


class TestPooledFci:
    def test_single_dataset_rejected(self):
        d = shift_benchmark_scm(4.0).sample(100, seed=0)
        with pytest.raises(DataError):
            pooled_fci([DataTable(d)])

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            pooled_fci([])

    def test_env_name_collision_rejected(self):
        d = shift_benchmark_scm(4.0).sample(100, seed=0)
        t = DataTable(d)
        with pytest.raises(DataError):
            pooled_fci([t, t], env_name="X1")

    def test_schema_mismatch_rejected(self):
        a = DataTable({"x": [1.0, 2.0]})
        b = DataTable({"y": [1.0, 2.0]})
        with pytest.raises(DataError):
            pooled_fci([a, b])

    def test_identical_distributions_leave_env_isolated(self):
        tables = [DataTable(shift_benchmark_scm(4.0).sample(20000, seed=s))
                  for s in (1, 2)]
        pag = pooled_fci(tables, alpha=0.01)
        assert not pag.edges_at("E")

    def test_mean_shift_attaches_env_without_arrowhead_into_it(self):
        rng = np.random.default_rng(3)
        tables = []
        for shift in (0.0, 2.0):
            x = rng.normal(loc=shift, size=20000)
            y = x + rng.normal(size=20000)
            tables.append(DataTable({"X": x, "Y": y}))
        pag = pooled_fci(tables, alpha=0.01)
        adj = {e.other("E") for e in pag.edges_at("E")}
        assert "X" in adj
        for e in pag.edges_at("E"):
            assert e.mark_at("E") != ARROW

    def test_peak_memory_below_the_pooled_block(self):
        # the learn-wide benchmark's tables, 3 x 20k rows of 10 columns:
        # the pool keeps them as segments, so one Fisher-z run holds less
        # than the k n floats that a pooled copy of their rows would take
        inputs = bench_inputs()
        scms, _ = inputs.wide_scm(7, 2)
        tables = inputs.wide_tables(scms, 20_000, 0)
        block = 8 * (len(tables[0].names) + 1) * sum(t.n_rows for t in tables)
        tracemalloc.start()
        try:
            pooled_fci(tables, fisher_z_test, 0.01, "E")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < block


class TestSettingRanges:
    @staticmethod
    def tables():
        rng = np.random.default_rng(9)
        return [DataTable({"X": rng.normal(size=200),
                           "Y": rng.normal(size=200)}) for _ in range(2)]

    @pytest.mark.parametrize("alpha", [1.5, math.nan, 0.0])
    def test_alpha_outside_the_unit_interval_rejected(self, alpha):
        message = f"alpha must be between 0 and 1, not {alpha}"
        with pytest.raises(ValueError, match=message):
            DataOracle(self.tables()[0], alpha=alpha)
        with pytest.raises(ValueError, match=message):
            pooled_fci(self.tables(), alpha=alpha)

    def test_negative_max_cond_size_rejected(self):
        message = "max_cond_size must be at least 0, not -1"
        with pytest.raises(ValueError, match=message):
            fci(PerSetOracle(lambda a, b, s: False), ["A", "B"],
                max_cond_size=-1)
        with pytest.raises(ValueError, match=message):
            pooled_fci(self.tables(), max_cond_size=-1)


class TestSeparationOracle:
    """The oracle tests each query's sets as masks of the graph's index;
    the answers and faults are those of one ``m_connected`` call per
    set, and it tests no set past a query's first separating one."""

    def test_matches_a_per_set_m_connected_loop(self):
        rng = random.Random(31)
        for _ in range(40):
            g = random_admg(rng, max_vertices=8, min_vertices=3)
            per_set = PerSetOracle(
                lambda a, b, s: not m_connected(g, a, b, s))
            levels = [[] for _ in range(4)]   # one size per stream
            for a, b in combinations(g.vertices, 2):
                rest = [v for v in g.vertices if v not in (a, b)]
                pools = [rng.sample(rest, rng.randint(0, len(rest)))
                         for _ in range(rng.randint(1, 3))]
                for size, queries in enumerate(levels):
                    queries.append((a, b, pools, size))
            for queries in levels:
                assert ask(SeparationOracle(g), queries) == \
                    ask(per_set, queries)

    def test_one_connected_call_per_ci_test(self, monkeypatch):
        # the pinned draws of TestFciExactOracle and the benchmark's wide
        # system at 15 observed variables: fci's stream gives each query at
        # most one piece per call, so each set tested is a CI test counted
        calls = []
        connected = fci_module.connected
        monkeypatch.setattr(fci_module, "connected", lambda *args: (
            calls.append(args) or connected(*args)))
        rng = random.Random(22)
        graphs = [random_admg(rng, max_vertices=8) for _ in range(100)]
        inputs = bench_inputs()
        inputs.N_OBSERVED = 15
        inputs.N_LATENT = inputs.N_SHIFTED = 3
        graphs.append(inputs.wide_scm(0, 0)[1])
        for g in graphs:
            del calls[:]
            report: dict = {}
            fci(SeparationOracle(g), g.vertices,
                Knowledge(forbidden_into={g.vertices[0]}), report=report)
            assert len(calls) == report["ci_tests"]
        assert len(calls) == 24859

    def test_faults_raise_m_connected_errors_up_front(self):
        admg = example_admg()
        good = ("X1", "Y", [["X2"]], 1)
        pag = fci(SeparationOracle(admg), admg.vertices)
        for graph, query, a, b, z in (
                (pag, good, "X1", "Y", ()),
                (admg, ("X1", "Y", [["X2"], ["Q"]], 0), "X1", "Y", {"Q"})):
            with pytest.raises(GraphError) as want:
                m_connected(graph, a, b, z)
            # raised before any set is tested, even at size 0
            with pytest.raises(GraphError) as got:
                ask(SeparationOracle(graph), [good, query])
            assert str(got.value) == str(want.value)


class TestDataOracle:
    def test_wraps_test_decision(self):
        rng = np.random.default_rng(5)
        t = DataTable({"a": rng.normal(size=2000),
                       "b": rng.normal(size=2000)})
        ind = DataOracle(t, alpha=0.01)
        assert first_index(ind, "a", "b", [set()]) == 0

    def test_environment_pairs_go_to_the_environment_test(self):
        # E changes only the scale of X; the chosen test sees none of the
        # queries on an environment pair
        rng = np.random.default_rng(6)
        tables = [DataTable({"X": scale * rng.normal(size=5000),
                             "Y": rng.normal(size=5000)})
                  for scale in (1.0, 2.0)]
        pooled = pool_environments(tables, "E")
        seen = []

        def spy(table, a, b, s):
            seen.append((a, b))
            return fisher_z_test(table, a, b, s)

        ind = DataOracle(pooled, test=spy, alpha=0.01)
        assert first_index(ind, "E", "X", [set()]) is None
        assert first_index(ind, "X", "E", [{"Y"}]) is None
        assert first_index(ind, "E", "Y", [set()]) == 0
        assert seen == []
        assert first_index(ind, "X", "Y", [{"E"}]) == 0
        assert seen == [("X", "Y")]
        assert fisher_z_test(pooled, "E", "X").p_value >= 0.01

    def test_columns_degenerate_in_one_environment(self):
        # at site 0 the flag F never takes level 1 and W is fixed; both
        # mechanisms change there, and a conditioning set holding either
        # cannot be fitted within site 0, so the chosen test answers
        rng = np.random.default_rng(7)
        tables = []
        for site in range(3):
            n = 3000
            f = (rng.random(n) < (0.0 if site == 0 else 0.3)).astype(float)
            w = np.full(n, 0.5) if site == 0 else rng.normal(size=n)
            x = w + f + rng.normal(size=n)
            tables.append(DataTable({"F": f, "W": w, "X": x,
                                     "Y": x + rng.normal(size=n)},
                                    kinds={"F": 2}))
        pooled = pool_environments(tables, "E")
        ind = DataOracle(pooled, alpha=0.01)
        assert first_index(ind, "E", "W", [set()]) is None
        assert first_index(ind, "E", "F", [set()]) is None
        assert first_index(ind, "E", "X", [{"W", "F"}]) == 0
        pag = pooled_fci(tables, alpha=0.01)
        assert possible_children_of_env(pag, "E") == {"F", "W"}

    def test_malformed_queries_are_data_errors(self):
        rng = np.random.default_rng(8)
        t = DataTable({"a": rng.normal(size=200), "b": rng.normal(size=200),
                       "c": rng.normal(size=200)})
        ind = DataOracle(t, alpha=0.01)
        for query, message in (
                (("a", "b", [["c", "Q"]], 1), "no column 'Q'"),
                (("Q", "b", [["c"]], 0), "no column 'Q'")):
            with pytest.raises(DataError, match=message):
                ask(ind, [("a", "b", [["c"]], 1), query])


def wide_pooled(structure_seed, parameter_seed, rows, seed):
    inputs = bench_inputs()
    scms, _ = inputs.wide_scm(structure_seed, parameter_seed)
    return pool_environments(inputs.wide_tables(scms, rows, seed), "E")


class TestPositionLevel:
    """Data FCI puts the learn's names at column positions once, and each
    call's rows at columns by one index; it decides its sets at positions:
    no set is checked or looked up by name. On the learn-wide benchmark's
    seed-0 tables."""

    KNOWLEDGE = Knowledge(forbidden_into={"E"})

    @staticmethod
    def learn(monkeypatch):
        """Learn on the tables with every level's queries, the size of
        every set built from the pools, every ``citest._check_args`` call
        and every name lookup in the table's index recorded."""
        pooled = wide_pooled(7, 2, 20_000, 0)
        asked, pulled, checks, lookups = [], [], [], []

        class Index(dict):
            def __getitem__(self, name):
                lookups.append(name)
                return dict.__getitem__(self, name)

        pooled.index = Index(pooled.index)
        oracle = DataOracle(pooled)
        stream, rows = fci_module._stream, fci_module._subset_rows
        check_args = citest._check_args

        def counted(pools, size):
            for block in rows(pools, size):
                pulled.extend([size] * len(block))
                yield block

        monkeypatch.setattr(fci_module, "_stream", lambda firsts, queries: (
            asked.append(queries) or stream(firsts, queries)))
        monkeypatch.setattr(fci_module, "_subset_rows", counted)
        monkeypatch.setattr(citest, "_check_args", lambda *args: (
            checks.append(args) or check_args(*args)))
        report = {}
        fci(oracle, pooled.names, TestPositionLevel.KNOWLEDGE, report=report)
        return pooled, asked, pulled, checks, lookups, report

    def test_names_are_looked_up_per_learn_not_per_set(self, monkeypatch):
        pooled, levels, pulled, checks, lookups, report = \
            self.learn(monkeypatch)
        assert checks == []
        queries = [q for level in levels for q in level]
        # each name once, and the environment column once per stacked
        # call, of which there are fewer than queries: fewer than mapping
        # the names of each query, let alone of each set built
        names = sum(2 + sum(p.bit_count() for p in pools)
                    for _, _, pools, _ in queries)
        assert len(lookups) <= len(pooled.names) + len(queries) < names < \
            sum(2 + size for size in pulled)
        assert len(pulled) >= report["ci_tests"] > 1000

    def test_position_decisions_equal_the_name_level_tests(
            self, monkeypatch):
        # every set of the two levels that hold the most, decided at
        # positions: each level's environment and other pairs in one
        # ``citest._decisions`` call, as the oracle streams them
        pooled, levels, *_ = self.learn(monkeypatch)
        monkeypatch.undo()
        alpha, at, names = 0.01, pooled.index.__getitem__, sorted(
            pooled.names)

        def sets(pools, size):
            return list(distinct_subsets(
                [[names[i] for i in positions(p)] for p in pools], size))

        tested, on_env = [], 0
        for level in sorted(levels, key=lambda queries: -sum(
                len(sets(pools, size)) for _, _, pools, size in queries))[:2]:
            rows, want = [], []
            for a, b, pools, size in level:
                a, b = names[a], names[b]
                test = environment_test if "E" in (a, b) else fisher_z_test
                for s in sets(pools, size):
                    rows.append((at(a), at(b), *map(at, s)))
                    want.append(test(pooled, a, b, s).p_value >= alpha)
                    on_env += test is environment_test
            batch = citest._decisions(fisher_z_test, pooled,
                                      np.array(rows, dtype=np.intp), alpha)
            got = [bool(d == 1 or d == -1 and batch.resolve(j))
                   for j, d in enumerate(batch.decided.tolist())]
            assert got == want
            tested += got
        assert len(tested) > 500 and 0 < sum(tested) < len(tested)
        assert 0 < on_env < len(tested)


class TestSubsetRows:
    """fci streams a query's sets as rows [a, b, *s] of positions, built
    from combination-index arrays: each distinct subset of a pool once, in
    order, and at most ``MAX_BATCH`` rows per call."""

    def test_rows_are_the_distinct_subsets_in_order(self):
        # pools over up to 30 positions, some long enough that a pool's
        # subsets span several calls, some inside or equal to an earlier
        # one; a and b are positions 30 and 31
        rng = random.Random(36)
        cut = 0
        for _ in range(300):
            n = rng.randint(1, 30)
            pools = [sum(1 << i for i in rng.sample(range(n), rng.randint(
                0, min(n, 14)))) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.2:
                pools.append(pools[0] & rng.getrandbits(n))
            size = rng.randint(0, 5)
            calls = []

            def firsts(rows, counts):
                calls.append((rows, counts))
                return [None] * len(counts)

            got = fci_module._stream(firsts, [(30, 31, pools, size)])
            want = list(distinct_subsets(map(positions, pools), size))
            assert got == [(len(want), None)]
            assert all(len(counts) == 1 and 0 < len(rows) == counts[0]
                       <= fci_module.MAX_BATCH for rows, counts in calls)
            assert [tuple(row) for rows, _ in calls
                    for row in rows.tolist()] == \
                [(30, 31, *subset) for subset in want]
            cut += len(calls) > 1
        assert cut >= 10


class TestBatchedOracle:
    KNOWLEDGE = Knowledge(forbidden_into={"E"})

    @pytest.mark.parametrize("rows", [300, 2000])
    @pytest.mark.parametrize("system", [(7, 2), (3, 5), (11, 2)])
    def test_batches_learn_what_single_queries_learn(self, system, rows):
        for seed in range(3):
            pooled = wide_pooled(*system, rows, seed)
            oracle = DataOracle(pooled)
            batched, looped = {}, {}
            got = fci(oracle, pooled.names, self.KNOWLEDGE, report=batched)
            # the same oracle asked one conditioning set per call
            calls = []
            want = fci(PerSetOracle(lambda a, b, s: calls.append(s) or
                                      first_index(oracle, a, b, [s]) == 0),
                       pooled.names, self.KNOWLEDGE, report=looped)
            assert serialize(got) == serialize(want)
            assert batched == looped
            assert looped["ci_tests"] == len(calls)

    def test_one_screen_factorization_per_call(self, monkeypatch):
        # at 20,000 rows this is the learn-wide benchmark at seed 0
        for rows in (2000, 20_000):
            with monkeypatch.context() as patch:
                self.check_one_factorization_per_call(patch, rows)

    def check_one_factorization_per_call(self, monkeypatch, rows):
        pooled = wide_pooled(7, 2, rows, 0)
        oracle = DataOracle(pooled)
        levels, calls, pulled = [], [], [0]
        screening = [False]
        stream, subset_rows = fci_module._stream, fci_module._subset_rows
        decisions, screen = citest._decisions, citest._fisher_z_screen
        factor, inv = citest.cholesky, np.linalg.inv

        def counted(pools, size):
            for block in subset_rows(pools, size):
                pulled[0] += len(block)
                yield block

        def level(firsts, queries):
            pulled[0], before = 0, len(calls)
            got = stream(firsts, queries)
            levels.append((pulled[0], sum(c["factored"]
                                          for c in calls[before:])))
            return got

        def decide(*args):
            # per call: Fisher-z factorizations, the rows the screen
            # leaves, and the matrices inverted
            calls.append({"factored": 0, "left": 0, "inverted": 0})
            return decisions(*args)

        def screened(*args):
            screening[0] = True
            try:
                got = screen(*args)
            finally:
                screening[0] = False
            calls[-1]["left"] += int((got == -1).sum())
            return got

        def factored(a, *rest):
            calls[-1]["factored"] += screening[0]
            return factor(a, *rest)

        def inverted(m):
            calls[-1]["inverted"] += len(m) if m.ndim == 3 else 1
            return inv(m)

        monkeypatch.setattr(fci_module, "_stream", level)
        monkeypatch.setattr(fci_module, "_subset_rows", counted)
        monkeypatch.setattr(citest, "_decisions", decide)
        monkeypatch.setattr(citest, "_fisher_z_screen", screened)
        monkeypatch.setattr(citest, "cholesky", factored)
        monkeypatch.setattr(np.linalg, "inv", inverted)
        report = {}
        fci(oracle, pooled.names, self.KNOWLEDGE, report=report)
        # at most one stacked factorization of Fisher-z rows per call, and
        # the inverse gets only the rows that the screen leaves
        assert calls and all(c["factored"] <= 1 and
                             c["inverted"] == c["left"] for c in calls)
        # at most one factorization per (phase, size) level and per further
        # MAX_BATCH sets, and each stacks the sets of many pairs
        for pulled, stacked in levels:
            assert stacked <= 1 + pulled // fci_module.MAX_BATCH
        factorizations = sum(c["factored"] for c in calls)
        assert 0 < factorizations <= len(levels) + \
            sum(pulled for pulled, _ in levels) // fci_module.MAX_BATCH
        assert 10 * factorizations < report["ci_tests"]
        assert 10 * sum(c["left"] for c in calls) < report["ci_tests"]

    def test_batches_are_capped(self):
        # a pool of 13 candidates, positions 6 to 18, gives 286 subsets of
        # size 3: more than one call holds them. A pool of three stands
        # for one set, and a repeated pool adds no sets
        long = list(combinations(range(6, 19), 3))
        pool = sum(1 << v for v in range(6, 19))

        def pools(sets):
            return [sum(1 << v for v in s) for s in sets]

        independent = {(0, 2, long[3]), (0, 3, long[100])}
        calls = []

        def firsts(rows, counts):
            rows, out, end = rows.tolist(), [], 0
            calls.append([])
            for count in counts:
                start, end = end, end + count
                (a, b, *_), piece = rows[start], rows[start:end]
                calls[-1].append((a, b, count))
                out.append(next((i for i, (_, _, *s) in enumerate(piece)
                                 if (a, b, tuple(s)) in independent), None))
            return out

        # each of A-C's and A-E's sets is a block of its own, which a call
        # merges into one piece per query
        queries = [(0, 1, [pool], 3), (0, 2, pools(long[:10]), 3),
                   (0, 3, [pool, pool], 3), (0, 4, pools(long[:50]), 3)]
        got = fci_module._stream(firsts, queries)
        cap = fci_module.MAX_BATCH
        # A-B continues in the second call; A-D, decided at its set 100
        # there, adds no further sets to the third
        assert calls == [[(0, 1, cap)],
                         [(0, 1, 286 - cap), (0, 2, 10),
                          (0, 3, cap - (286 - cap) - 10)],
                         [(0, 4, 50)]]
        assert got == [(286, None), (4, pools([long[3]])[0]),
                       (101, pools([long[100]])[0]), (50, None)]

    def test_degenerate_set_raises_only_for_its_own_query(self, monkeypatch):
        t = exact_table()
        oracle = DataOracle(t, alpha=0.05)
        dep, ind = ("f", "g"), ("m", "f")
        calls = []
        firsts = fci_module.firsts_at
        monkeypatch.setattr(fci_module, "firsts_at", lambda *args: (
            calls.append(args) or firsts(*args)))
        constant, singular = ("c", "f"), ("d", "e")
        for bad, message in ((constant, "constant column in correlation "
                              "matrix: c"),
                             (singular, "singular covariance submatrix")):
            del calls[:]
            # the bad set shares one stacked call with the other query and
            # with the independent set before it; each set is a pool of
            # its own, and a repeated one is asked once
            assert ask(oracle, [("a", "b", [dep, ind, bad], 2),
                                ("a", "b", [dep, dep], 2)]) == \
                [(2, tuple(sorted(ind))), (1, None)]
            assert len(calls) == 1
            for queries in ([("a", "b", [dep, dep], 2),
                             ("a", "b", [dep, bad], 2)],
                            [("a", "b", [bad, ind], 2),
                             ("a", "b", [ind], 2)]):
                with pytest.raises(DegenerateDataError, match=message):
                    ask(oracle, queries)
        # the first query, in order, that reaches a bad set raises
        for first, then, message in ((constant, singular, "matrix: c"),
                                     (singular, constant, "singular")):
            with pytest.raises(DegenerateDataError, match=message):
                ask(oracle, [("a", "b", [dep, first], 2),
                             ("a", "b", [then], 2)])

    def test_first_query_to_fail_raises_across_streams(self):
        # C and D are constant: the Fisher-z query on X-C and the
        # environment query on E-D, whose fallback is Fisher-z, both fail,
        # and whichever comes first in the one stream raises
        rng = np.random.default_rng(9)
        tables = [DataTable({"X": rng.normal(size=300),
                             "C": np.full(300, 2.0),
                             "D": np.full(300, 5.0)}) for _ in range(2)]
        oracle = DataOracle(pool_environments(tables, "E"))
        for queries, name in (([("E", "D", [()], 0), ("X", "C", [()], 0)],
                               "D"),
                              ([("X", "C", [()], 0), ("E", "D", [()], 0)],
                               "C")):
            with pytest.raises(DegenerateDataError,
                               match="constant column in correlation "
                                     f"matrix: {name}"):
                ask(oracle, queries)

    def test_oracle_keeps_no_reference_cycle(self):
        # with the cyclic collector off, dropping the oracle and the table
        # frees the table and its cached statistics at once
        rng = np.random.default_rng(9)
        tables = []
        for shift in (0.0, 1.0):
            x = rng.normal(loc=shift, size=500)
            tables.append(DataTable({"X": x, "Y": x + rng.normal(size=500),
                                     "C": np.full(500, 2.0)}))
        gc.disable()
        try:
            table = pool_environments(tables, "E")
            ref = weakref.ref(table)
            oracle = DataOracle(table)
            first_index(oracle, "X", "Y", [[]])
            first_index(oracle, "E", "X", [["Y"]])
            first_index(oracle, "E", "Y", [["X"]])
            try:
                first_index(oracle, "X", "C", [[]])
            except DegenerateDataError:
                pass
            del oracle, table
            assert ref() is None
        finally:
            gc.enable()
