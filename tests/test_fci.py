import gc
import hashlib
import math
import random
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
from stablespec.graph import ARROW, CIRCLE, TAIL, GraphError, parse, serialize
from stablespec.scm import shift_benchmark_scm
from oracles import (
    blocks_by_paths, mag_of_admg, possible_d_sep_by_paths, with_kind,
)
from util import (
    CONFLICT_ADMG, PerSetOracle, complete_pag, example_admg, example_pag,
    bench_inputs, exact_table, first_index, independence_oracle,
    pooled_draws, random_admg,
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
                (("a", "a", [["c"]], 1), "must differ"),
                (("a", "b", [["c"], ["b", "c"]], 1), "must not appear"),
                (("a", "b", [["c", "Q"]], 1), "no column 'Q'"),
                (("Q", "b", [["c"]], 0), "no column 'Q'")):
            with pytest.raises(DataError, match=message):
                ind.separating_sets([("a", "b", [["c"]], 1), query])


def wide_pooled(structure_seed, parameter_seed, rows, seed):
    inputs = bench_inputs()
    scms, _ = inputs.wide_scm(structure_seed, parameter_seed)
    return pool_environments(inputs.wide_tables(scms, rows, seed), "E")


class TestPositionLevel:
    """Data FCI puts each query's names at column positions once and
    decides its sets at positions: no set is checked or looked up by name.
    On the learn-wide benchmark's seed-0 tables."""

    KNOWLEDGE = Knowledge(forbidden_into={"E"})

    @staticmethod
    def learn(monkeypatch):
        """Learn on the tables with every query, the size of every set
        pulled from the pools, every ``citest._check_args`` call and every
        name lookup in the table's index recorded."""
        pooled = wide_pooled(7, 2, 20_000, 0)
        asked, pulled, checks, lookups = [], [], [], []

        class Index(dict):
            def __getitem__(self, name):
                lookups.append(name)
                return dict.__getitem__(self, name)

        pooled.index = Index(pooled.index)
        oracle = DataOracle(pooled)
        separating_sets = oracle.separating_sets
        subsets, check_args = fci_module._distinct_subsets, citest._check_args

        def counted(pools, size):
            for s in subsets(pools, size):
                pulled.append(size)
                yield s

        monkeypatch.setattr(oracle, "separating_sets", lambda queries: (
            asked.append(queries) or separating_sets(queries)))
        monkeypatch.setattr(fci_module, "_distinct_subsets", counted)
        monkeypatch.setattr(citest, "_check_args", lambda *args: (
            checks.append(args) or check_args(*args)))
        report = {}
        fci(oracle, pooled.names, TestPositionLevel.KNOWLEDGE, report=report)
        return pooled, asked, pulled, checks, lookups, report

    def test_names_are_looked_up_per_query_not_per_set(self, monkeypatch):
        _, levels, pulled, checks, lookups, report = self.learn(monkeypatch)
        assert checks == []
        queries = [q for level in levels for q in level]
        # each query's pair and pool names once, and the environment
        # column once per stacked call, of which there are fewer than
        # queries: fewer than mapping the names of each set pulled
        names = sum(2 + sum(map(len, pools)) for _, _, pools, _ in queries)
        assert len(lookups) <= names + len(queries) < \
            sum(2 + size for size in pulled)
        assert len(pulled) >= report["ci_tests"] > 1000

    def test_position_decisions_equal_the_name_level_tests(
            self, monkeypatch):
        # every set of the two levels that hold the most, decided at
        # positions: each level's environment and other pairs in one
        # ``citest._decisions`` call, as the oracle streams them
        pooled, levels, *_ = self.learn(monkeypatch)
        monkeypatch.undo()
        alpha, at = 0.01, pooled.index.__getitem__
        tested, on_env = [], 0
        for level in sorted(levels, key=lambda queries: -sum(
                len(list(fci_module._distinct_subsets(pools, size)))
                for _, _, pools, size in queries))[:2]:
            rows, want = [], []
            for a, b, pools, size in level:
                test = environment_test if "E" in (a, b) else fisher_z_test
                for s in fci_module._distinct_subsets(pools, size):
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

    def test_one_inverse_per_batch(self, monkeypatch):
        # at 20,000 rows this is the learn-wide benchmark at seed 0
        for rows in (2000, 20_000):
            with monkeypatch.context() as patch:
                self.check_one_inverse_per_level(patch, rows)

    def check_one_inverse_per_level(self, monkeypatch, rows):
        pooled = wide_pooled(7, 2, rows, 0)
        oracle = DataOracle(pooled)
        levels, inverses, pulled = [], [], [0]
        separating_sets, inv = oracle.separating_sets, np.linalg.inv
        subsets = fci_module._distinct_subsets

        def counted(pools, size):
            for s in subsets(pools, size):
                pulled[0] += 1
                yield s

        def level(queries):
            pulled[0], before = 0, len(inverses)
            got = separating_sets(queries)
            levels.append((pulled[0], len(inverses) - before))
            return got

        monkeypatch.setattr(oracle, "separating_sets", level)
        monkeypatch.setattr(fci_module, "_distinct_subsets", counted)
        monkeypatch.setattr(np.linalg, "inv", lambda m: (
            inverses.append(m.shape) or inv(m)))
        report = {}
        fci(oracle, pooled.names, self.KNOWLEDGE, report=report)
        # at most one stacked inverse per (phase, size) level and per
        # further MAX_BATCH sets, and each stacks the sets of many pairs
        for pulled, stacked in levels:
            assert stacked <= 1 + pulled // fci_module.MAX_BATCH
        assert 0 < len(inverses) <= len(levels) + \
            sum(pulled for pulled, _ in levels) // fci_module.MAX_BATCH
        assert 10 * len(inverses) < report["ci_tests"]

    def test_batches_are_capped(self):
        # 13 candidates give 286 subsets of size 3: more than one call holds
        pool = [f"C{k:02d}" for k in range(13)]
        long = list(fci_module._distinct_subsets([pool, pool], 3))
        assert len(long) == 286
        independent = {("A", "C", long[3]), ("A", "D", long[100])}
        calls = []

        def decide(chunk):
            calls.append([(a, b, len(sets)) for a, b, sets in chunk])
            return [next((i for i, s in enumerate(sets)
                          if (a, b, s) in independent), None)
                    for a, b, sets in chunk]

        queries = [("A", "B", iter(long)), ("A", "C", iter(long[:10])),
                   ("A", "D", iter(long + long)), ("A", "E", iter(long[:50]))]
        got = fci_module._stream(queries, decide)
        cap = fci_module.MAX_BATCH
        # A-B continues in the second call; A-D, decided at its set 100
        # there, adds no further sets to the third
        assert calls == [[("A", "B", cap)],
                         [("A", "B", 286 - cap), ("A", "C", 10),
                          ("A", "D", cap - (286 - cap) - 10)],
                         [("A", "E", 50)]]
        assert got == [(286, None), (4, long[3]), (101, long[100]),
                       (50, None)]

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
            assert oracle.separating_sets(
                [("a", "b", [dep, ind, bad], 2),
                 ("a", "b", [dep, dep], 2)]) == [(2, ind), (1, None)]
            assert len(calls) == 1
            for queries in ([("a", "b", [dep, dep], 2),
                             ("a", "b", [dep, bad], 2)],
                            [("a", "b", [bad, ind], 2),
                             ("a", "b", [ind], 2)]):
                with pytest.raises(DegenerateDataError, match=message):
                    oracle.separating_sets(queries)
        # the first query, in order, that reaches a bad set raises
        for first, then, message in ((constant, singular, "matrix: c"),
                                     (singular, constant, "singular")):
            with pytest.raises(DegenerateDataError, match=message):
                oracle.separating_sets([("a", "b", [dep, first], 2),
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
                oracle.separating_sets(queries)

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
