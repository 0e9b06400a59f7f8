import gc
import hashlib
import math
import random
import time
import weakref
from itertools import combinations

import numpy as np
import pytest

from stablespec import fci as fci_module
from stablespec.citest import DegenerateDataError, fisher_z_test
from stablespec.components import class_mag
from stablespec.data import DataError, DataTable, pool_environments
from stablespec.fci import (
    DataOracle, Knowledge, SeparationOracle, _Marks, fci,
    pooled_fci, possible_children_of_env,
)
from stablespec.graph import ARROW, CIRCLE, TAIL, GraphError, parse, serialize
from stablespec.scm import shift_benchmark_scm
from oracles import (
    blocks_by_paths, mag_of_admg, possible_d_sep_by_paths, with_kind,
)
from util import (
    CONFLICT_ADMG, PerSetOracle, complete_pag, example_admg, example_pag,
    bench_inputs, independence_oracle, pooled_draws, random_admg,
)


class TestKnowledge:
    def test_forbidden_into(self):
        k = Knowledge(forbidden_into=["E", "E"])
        assert k.forbidden_into == frozenset({"E"})
        assert Knowledge().forbidden_into == frozenset()


class TestMarks:
    def test_refined_mark_stays(self):
        # finite samples can ask for both refinements of one mark
        m = _Marks(("A", "B"), [frozenset(("A", "B"))], Knowledge())
        assert m.set_mark("A", "B", TAIL)
        assert not m.set_mark("A", "B", ARROW)
        assert not m.set_mark("A", "B", TAIL)
        assert m.mark("A", "B") == TAIL and m.mark("B", "A") == CIRCLE

    def test_knowledge_blocks_silently(self):
        m = _Marks(("A", "E"), [frozenset(("A", "E"))],
                   Knowledge(forbidden_into={"E"}))
        assert not m.set_mark("A", "E", ARROW)
        assert m.set_mark("E", "A", ARROW)

    def test_blocked_arrowhead_leaves_the_tail_unset(self):
        m = _Marks(("B", "E"), [frozenset(("B", "E"))],
                   Knowledge(forbidden_into={"E"}))
        assert not m.orient_directed("B", "E")
        assert m.mark("E", "B") == CIRCLE and m.mark("B", "E") == CIRCLE


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
            mag = mag_of_admg(g)
            pag = fci(SeparationOracle(g), g.vertices)
            adj = lambda gr: {frozenset((e.a, e.b)) for e in gr.edges}
            assert adj(pag) == adj(mag)
            for e in pag.edges:
                me = next(x for x in mag.edges if {x.a, x.b} == {e.a, e.b})
                for v in (e.a, e.b):
                    if e.mark_at(v) in (ARROW, TAIL):
                        assert me.mark_at(v) == e.mark_at(v), (g, e, me)

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
        tests, texts = 0, []
        for _ in range(100):
            g = random_admg(rng, max_vertices=8)
            report: dict = {}
            pag = fci(SeparationOracle(g), g.vertices,
                      Knowledge(forbidden_into={g.vertices[0]}), report=report)
            tests += report["ci_tests"]
            assert sum(report["ci_tests_by_phase"].values()) == \
                report["ci_tests"]
            texts.append(serialize(pag))
        assert tests == 27091
        digest = hashlib.sha256("".join(texts).encode()).hexdigest()
        assert digest.startswith("80d4ea8a61f0e275")

    def test_knowledge_respected_on_random_admgs(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_admg(rng, max_vertices=5)
            env = g.vertices[0]
            pag = fci(SeparationOracle(g), g.vertices,
                      Knowledge(forbidden_into={env}))
            for e in pag.edges_at(env):
                assert e.mark_at(env) != ARROW


def random_marks(rng: random.Random) -> _Marks:
    """A mark store over 3 to 9 vertices: a random skeleton of random
    density, each of its marks drawn from arrow, tail and circle."""
    vs = [f"V{i}" for i in range(rng.randint(3, 9))]
    density = rng.uniform(0.2, 0.7)
    skeleton = [frozenset(p) for p in combinations(vs, 2)
                if rng.random() < density]
    marks = _Marks(vs, skeleton, Knowledge())
    for key in marks.at:
        marks.at[key] = rng.choice((ARROW, TAIL, CIRCLE))
    return marks


class TestPossibleDSep:
    def test_closure_contains_the_path_definition(self):
        rng = random.Random(21)
        queries = 0
        while queries < 10_000:
            marks = random_marks(rng)
            got = fci_module._possible_d_sep(marks)
            want = possible_d_sep_by_paths(marks)
            for x in marks.vertices:
                assert want[x] <= got[x], (marks.at, x)
                assert x not in got[x]
                for y in marks.vertices:
                    assert (y in got[x]) == (x in got[y]), (marks.at, x, y)
            queries += len(marks.vertices)

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
        assert fci_module._blocks(adj) == {
            frozenset("AB"): abc, frozenset("AC"): abc,
            frozenset("BC"): abc, frozenset("CD"): cde,
            frozenset("CE"): cde, frozenset("DE"): cde,
            frozenset("CF"): frozenset("CF")}

    def test_matches_the_path_definition(self):
        rng = random.Random(26)
        bridges = isolated = split = 0
        for _ in range(400):
            adj = random_skeleton(rng)
            got = fci_module._blocks(adj)
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
            frozenset((a, b)): frozenset(adj) for a in adj for b in adj[a]})

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


class TestDataOracle:
    def test_wraps_test_decision(self):
        rng = np.random.default_rng(5)
        t = DataTable({"a": rng.normal(size=2000),
                       "b": rng.normal(size=2000)})
        ind = DataOracle(t, alpha=0.01)
        assert ind.first("a", "b", [set()]) == 0

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
        assert ind.first("E", "X", [set()]) is None
        assert ind.first("X", "E", [{"Y"}]) is None
        assert ind.first("E", "Y", [set()]) == 0
        assert seen == []
        assert ind.first("X", "Y", [{"E"}]) == 0
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
        assert ind.first("E", "W", [set()]) is None
        assert ind.first("E", "F", [set()]) is None
        assert ind.first("E", "X", [{"W", "F"}]) == 0
        pag = pooled_fci(tables, alpha=0.01)
        assert possible_children_of_env(pag, "E") == {"F", "W"}


def wide_pooled(structure_seed, parameter_seed, rows, seed):
    inputs = bench_inputs()
    scms, _ = inputs.wide_scm(structure_seed, parameter_seed)
    return pool_environments(inputs.wide_tables(scms, rows, seed), "E")


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
                                      oracle.first(a, b, [s]) == 0),
                       pooled.names, self.KNOWLEDGE, report=looped)
            assert serialize(got) == serialize(want)
            assert batched == looped
            assert looped["ci_tests"] == len(calls)

    def test_one_inverse_per_batch(self, monkeypatch):
        pooled = wide_pooled(7, 2, 2000, 0)
        oracle = DataOracle(pooled)
        batches, inverses = [], []
        first, inv = oracle.first, np.linalg.inv
        monkeypatch.setattr(oracle, "first", lambda a, b, subsets: (
            batches.append(len(subsets)) or first(a, b, subsets)))
        monkeypatch.setattr(np.linalg, "inv", lambda m: (
            inverses.append(m.shape) or inv(m)))
        report = {}
        fci(oracle, pooled.names, self.KNOWLEDGE, report=report)
        assert 0 < len(inverses) <= len(batches)
        # one inverse per Fisher-z test would be about three in four
        assert 4 * len(inverses) < report["ci_tests"] <= sum(batches)

    def test_batches_are_capped(self):
        # 13 candidates give 286 subsets of size 3, none of them separating
        sizes = []

        class Never:
            def first(self, a, b, subsets):
                sizes.append(len(subsets))
                return None

        pool = [f"C{k:02d}" for k in range(13)]
        queries = [0]
        assert fci_module._separating_set(Never(), "A", "B", [pool, pool], 3,
                                          queries) is None
        assert sizes == [fci_module.MAX_BATCH, 286 - fci_module.MAX_BATCH]
        assert queries == [286]

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
            oracle.first("X", "Y", [[]])
            oracle.first("E", "X", [["Y"]])
            oracle.first("E", "Y", [["X"]])
            try:
                oracle.first("X", "C", [[]])
            except DegenerateDataError:
                pass
            del oracle, table
            assert ref() is None
        finally:
            gc.enable()
