import gc
import importlib.util
import random
import weakref
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from stablespec import fci as fci_module
from stablespec.citest import DegenerateDataError, fisher_z_test
from stablespec.data import DataError, DataTable, pool_environments
from stablespec.fci import (
    DataOracle, InstabilityError, Knowledge, SeparationOracle, _Marks, fci,
    pooled_fci, possible_children_of_env,
)
from stablespec.graph import ARROW, CIRCLE, TAIL, GraphError, parse, serialize
from stablespec.scm import shift_benchmark_scm
from oracles import mag_of_admg, with_kind
from util import (
    example_admg, example_pag, independence_oracle, random_admg,
)


class TestKnowledge:
    def test_forbidden_into(self):
        k = Knowledge(forbidden_into={"E"})
        assert k.blocks_arrowhead("A", "E")
        assert not k.blocks_arrowhead("E", "A")


class TestMarks:
    def test_conflicting_orientation_raises(self):
        m = _Marks(("A", "B"), [frozenset(("A", "B"))], Knowledge())
        m.set_mark("A", "B", TAIL)
        with pytest.raises(InstabilityError):
            m.set_mark("A", "B", ARROW)

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
        got = fci(lambda a, b, s: True, ["A"])
        assert got.vertices == ("A",)
        assert got.edges == ()

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

    def test_knowledge_respected_on_random_admgs(self):
        rng = random.Random(7)
        for _ in range(20):
            g = random_admg(rng, max_vertices=5)
            env = g.vertices[0]
            pag = fci(SeparationOracle(g), g.vertices,
                      Knowledge(forbidden_into={env}))
            for e in pag.edges_at(env):
                assert e.mark_at(env) != ARROW


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


class TestDataOracle:
    def test_wraps_test_decision(self):
        rng = np.random.default_rng(5)
        t = DataTable({"a": rng.normal(size=2000),
                       "b": rng.normal(size=2000)})
        ind = DataOracle(t, alpha=0.01)
        assert ind("a", "b", set())

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
        assert not ind("E", "X", set())
        assert not ind("X", "E", {"Y"})
        assert ind("E", "Y", set())
        assert seen == []
        assert ind("X", "Y", {"E"})
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
        assert not ind("E", "W", set())
        assert not ind("E", "F", set())
        assert ind("E", "X", {"W", "F"})
        pag = pooled_fci(tables, alpha=0.01)
        assert possible_children_of_env(pag, "E") == {"F", "W"}


def bench_inputs():
    """``bench/inputs.py``, loaded by path: its ``wide_scm`` draws the
    systems that the learn-wide benchmark learns."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
            # a plain callable is asked one conditioning set at a time
            calls = []
            want = fci(lambda a, b, s: calls.append(s) or oracle(a, b, s),
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
            def __call__(self, a, b, s):
                return False

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
            oracle("X", "Y", set())
            oracle.first("E", "X", [["Y"]])
            oracle.first("E", "Y", [["X"]])
            try:
                oracle("X", "C", set())
            except DegenerateDataError:
                pass
            del oracle, table
            assert ref() is None
        finally:
            gc.enable()
