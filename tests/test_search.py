import os

import numpy as np
import pytest

from stablespec.data import DataError, DataTable, pool_environments
from stablespec.estimate import CandidateModel
from stablespec.expressions import Factor
from stablespec.graph import GraphError, parse
from stablespec.identify import FAIL
from stablespec.scm import shift_benchmark_scm
from stablespec.search import (
    InvarianceSpec, SearchBudgetError, fit_candidates, search_stable_predictor,
    shift_sweep, simulate_benchmark, split_train_validation, stable_candidates,
    subsets_in_order, unstable_baseline, write_sweep_csv,
)
from util import example_pag


def example_spec() -> InvarianceSpec:
    return InvarianceSpec(example_pag(), {"X1"})


def pooled_benchmark_data(n: int = 5000, seed: int = 10) -> DataTable:
    tabs = [DataTable(shift_benchmark_scm(alpha).sample(n, seed=seed + i))
            for i, alpha in enumerate((4.0, 8.0))]
    return pool_environments(tabs, "E")


class TestInvarianceSpec:
    def test_unknown_mutable_vertex_rejected(self):
        with pytest.raises(GraphError):
            InvarianceSpec(example_pag(), {"Q"})

    def test_mutable_set_frozen(self):
        spec = InvarianceSpec(example_pag(), ["X1"])
        assert spec.mutable == frozenset({"X1"})


class TestSubsetsInOrder:
    def test_size_then_lexicographic(self):
        got = list(subsets_in_order({"B", "A", "C"}))
        want = [frozenset(), frozenset("A"), frozenset("B"), frozenset("C"),
                frozenset("AB"), frozenset("AC"), frozenset("BC"),
                frozenset("ABC")]
        assert got == want


class TestStableCandidates:
    def test_full_mode_enumeration(self):
        got = [c.label() for c in
               stable_candidates(example_spec(), "Y", "full", env="E")]
        assert got == [
            "conditional[-]",
            "interventional[-]",
            "interventional[X2]",
            "conditional[X3]",
            "interventional[X3]",
            "interventional[X2,X3]",
        ]

    def test_conditional_only_is_subset_of_full(self):
        full = {c.label() for c in
                stable_candidates(example_spec(), "Y", "full", env="E")}
        cond = {c.label() for c in
                stable_candidates(example_spec(), "Y", "conditional-only",
                                  env="E")}
        assert cond == {"conditional[-]", "conditional[X3]"}
        assert cond < full

    def test_single_env_needs_mutable_set(self):
        with pytest.raises(GraphError):
            stable_candidates(InvarianceSpec(example_pag(), set()), "Y",
                              "single-env")
        with pytest.raises(GraphError):
            stable_candidates(example_spec(), "Y", "single-env", env="E")

    def test_single_env_pool_includes_all_vertices(self):
        # no env vertex is excluded, so E joins the conditioning pool; sets
        # with E stay invariant because the change reaches E only through
        # edges into the mutable vertex
        single = [c.label() for c in
                  stable_candidates(example_spec(), "Y", "single-env")]
        assert single == ["conditional[-]", "conditional[E]",
                          "conditional[X3]", "conditional[E,X3]"]

    def test_unknown_mode_rejected(self):
        with pytest.raises(GraphError):
            stable_candidates(example_spec(), "Y", "fancy")

    def test_budget_error(self):
        with pytest.raises(SearchBudgetError):
            stable_candidates(example_spec(), "Y", "full", env="E",
                              max_observed=2)

    def test_unstable_graph_has_no_candidates(self):
        pag = parse("vars: A,Y\nA o-o Y", "PAG")
        spec = InvarianceSpec(pag, {"A"})
        assert stable_candidates(spec, "Y", "full") == []

    def test_interventional_sets_exclude_mutable(self):
        for c in stable_candidates(example_spec(), "Y", "full", env="E"):
            if c.kind == "interventional":
                assert not c.conditioning_set & c.mutable_set


class TestSplit:
    def test_deterministic(self):
        data = pooled_benchmark_data(500)
        t1, v1 = split_train_validation(data, seed=3)
        t2, v2 = split_train_validation(data, seed=3)
        assert np.array_equal(t1.column("Y"), t2.column("Y"))
        assert np.array_equal(v1.column("Y"), v2.column("Y"))

    def test_sizes_and_disjointness(self):
        data = DataTable({"Y": np.arange(100, dtype=float)})
        train, val = split_train_validation(data, seed=0)
        assert train.n_rows == 80 and val.n_rows == 20
        assert not set(train.column("Y")) & set(val.column("Y"))

    def test_stratified_by_environment(self):
        data = pooled_benchmark_data(500)
        train, val = split_train_validation(data, seed=1)
        assert np.sum(train.column("E") == 0) == 400
        assert np.sum(val.column("E") == 1) == 100

    def test_fraction_validated(self):
        data = DataTable({"Y": np.arange(10, dtype=float)})
        with pytest.raises(DataError):
            split_train_validation(data, seed=0, val_fraction=1.0)


class TestSearch:
    def test_full_mode_prefers_interventional(self):
        data = pooled_benchmark_data(20000)
        best = search_stable_predictor(example_spec(), "Y", data, "full",
                                       seed=0, env="E")
        assert best.label() == "interventional[X2,X3]"
        assert best.validation_loss == pytest.approx(0.1275, abs=0.02)

    def test_conditional_only_winner(self):
        data = pooled_benchmark_data(20000)
        best = search_stable_predictor(example_spec(), "Y", data,
                                       "conditional-only", seed=0, env="E")
        assert best.label() == "conditional[X3]"
        assert best.validation_loss == pytest.approx(0.26, abs=0.02)

    def test_no_candidate_fails(self):
        pag = parse("vars: A,Y\nA o-o Y", "PAG")
        data = DataTable({"A": np.arange(50.0), "Y": np.arange(50.0)})
        got = search_stable_predictor(InvarianceSpec(pag, {"A"}), "Y", data)
        assert got is FAIL
        assert not got

    def test_fit_candidates_scores_everything(self):
        data = pooled_benchmark_data(2000)
        cands = stable_candidates(example_spec(), "Y", "conditional-only",
                                  env="E")
        fitted = fit_candidates(cands, data, "Y", "linear-gaussian", seed=0)
        assert len(fitted) == len(cands)
        assert all(c.validation_loss is not None for c in fitted)

    def test_unstable_baseline_beats_stable_in_sample(self):
        data = pooled_benchmark_data(20000)
        base = unstable_baseline(data, "Y", "linear-gaussian")
        assert base.kind == "unstable"
        assert base.conditioning_set == {"X1", "X2", "X3"}
        best = search_stable_predictor(example_spec(), "Y", data, "full",
                                       seed=0, env="E")
        assert base.validation_loss < best.validation_loss


class TestSimulateAndSweep:
    def test_simulate_deterministic(self):
        a = simulate_benchmark(4.0, 100, seed=5)
        b = simulate_benchmark(4.0, 100, seed=5)
        assert np.array_equal(a.column("X2"), b.column("X2"))
        assert sorted(a.names) == ["X1", "X2", "X3", "Y"]

    def test_simulate_validates_n(self):
        with pytest.raises(DataError):
            simulate_benchmark(4.0, 0, seed=5)

    def test_sweep_rows(self):
        data = pooled_benchmark_data(20000)
        best = search_stable_predictor(example_spec(), "Y", data,
                                       "conditional-only", seed=0, env="E")
        rows = shift_sweep([("cond", best.estimator)], [0.0, 4.0, 17.0],
                           n_test=5000, seed=2)
        assert [r[0] for r in rows] == [0.0, 4.0, 17.0]
        assert all(r[1] == "cond" for r in rows)
        # conditioning on X3 alone is invariant to the shift
        mses = [r[2] for r in rows]
        assert max(mses) - min(mses) < 0.02

    def test_sweep_common_random_numbers(self):
        # identical noise draws across grid points: a model ignoring the
        # shifted variables scores identically everywhere
        data = pooled_benchmark_data(5000)
        best = search_stable_predictor(example_spec(), "Y", data,
                                       "conditional-only", seed=0, env="E")
        rows = shift_sweep([("cond", best.estimator)], [0.0, 17.0],
                           n_test=1000, seed=2)
        assert rows[0][2] == rows[1][2]

    def test_empty_grid_rejected(self):
        with pytest.raises(DataError):
            shift_sweep([], [], 100, 0)

    def test_write_csv(self, tmp_path):
        path = os.path.join(tmp_path, "sweep.csv")
        write_sweep_csv([(4.0, "m", 0.5), (17.0, "m", 1.25)], path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines == ["alpha,model,mse",
                         "4.000000,m,0.500000",
                         "17.000000,m,1.250000"]
