import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stablespec import search
from stablespec.data import DataError, DataTable, pool_environments
from stablespec.estimate import (
    CandidateModel, DiscreteExactModel, EstimationError, LinearGaussianModel,
    validation_loss,
)
from stablespec.expressions import Factor, to_json
from stablespec.fci import (
    Knowledge, SeparationOracle, fci, possible_children_of_env,
)
from stablespec.graph import GraphError, parse, serialize
from stablespec.identify import (
    FAIL, InvarianceQuery, SearchContext, identify_interventional,
    invariant_conditional_mag,
)
from stablespec.scm import LinearGaussianSCM, shift_benchmark_scm
from stablespec.search import (
    InvarianceSpec, SearchBudgetError, fit_candidates, search_stable_predictor,
    shift_sweep, simulate_benchmark, split_train_validation, stable_candidates,
    unstable_candidate, write_sweep_csv,
)
from oracles import subsets_in_order
from util import bench_inputs, example_pag, independence_oracle, random_admg


def population_covariance(alpha: float):
    """Covariance of the observed variables of ``shift_benchmark_scm(alpha)``
    and their positions in it. All intercepts are zero, so every mean is
    zero."""
    scm = shift_benchmark_scm(alpha)
    mean, cov = scm.moments()
    assert not mean.any()
    return cov, {v: i for i, v in enumerate(scm.observed)}


def population_mse(beta, features, alpha: float, target: str = "Y"):
    """Mean squared error of the linear predictor beta . features (mean
    zero, so no intercept) on the benchmark at shift strength alpha."""
    cov, pos = population_covariance(alpha)
    f, y = [pos[v] for v in features], pos[target]
    return float(cov[y, y] - 2 * beta @ cov[f, y] +
                 beta @ cov[np.ix_(f, f)] @ beta)


def population_ols(features, train_alphas=(4.0, 8.0), target: str = "Y"):
    """Least-squares coefficients on the equal-weight pool of the training
    environments' populations."""
    covs = [population_covariance(a) for a in train_alphas]
    pos = covs[0][1]
    pooled = sum(c for c, _ in covs) / len(covs)
    f, y = [pos[v] for v in features], pos[target]
    return np.linalg.solve(pooled[np.ix_(f, f)], pooled[f, y])


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

    @pytest.mark.parametrize("graph", ["example", "learned"])
    def test_each_z_minus_m_identified_once(self, monkeypatch, graph):
        if graph == "example":
            spec, env, target = example_spec(), "E", "Y"
        else:
            # 48 candidates, 16 of them interventional
            g = random_admg(random.Random(6), max_vertices=7, min_vertices=7)
            pag = fci(SeparationOracle(g), g.vertices)
            spec, env, target = InvarianceSpec(pag, {"V0", "V1"}), None, "V4"
        # the search asks its context's per-key entry
        calls, original = [], SearchContext.identify

        def counted(context, y, z):
            calls.append(context.ix.names_of(z))
            return original(context, y, z)

        monkeypatch.setattr(SearchContext, "identify", counted)
        got = stable_candidates(spec, target, "full", env=env)
        observed = set(spec.pag.vertices) - {target, env}
        want = {z - spec.mutable for z in subsets_in_order(observed)
                if not invariant_conditional_mag(
                    spec.pag, InvarianceQuery(spec.mutable, {target}, z))}
        assert len(calls) == len(set(calls)) == len(want)
        assert set(calls) == want
        assert [(c.kind, c.conditioning_set) for c in got] == \
            self.reference(spec, target, env)

    @staticmethod
    def reference(spec, target, env, mode="full"):
        """(kind, conditioning set) of each candidate, with the sets listed
        on names and identification asked for every conditioning set."""
        out = []
        m = spec.mutable
        for z in subsets_in_order(set(spec.pag.vertices) - {target, env}):
            if invariant_conditional_mag(spec.pag,
                                         InvarianceQuery(m, {target}, z)):
                out.append(("conditional", z))
            elif mode == "full" and m and identify_interventional(
                    spec.pag, m, {target}, z - m) is not FAIL and \
                    ("interventional", z - m) not in out:
                out.append(("interventional", z - m))
        return out

    @pytest.mark.parametrize("mode", ["full", "conditional-only",
                                      "single-env"])
    def test_candidate_order_equals_reference(self, mode):
        # random oracle PAGs with 1 to 3 mutable vertices; the reference
        # runs on a fresh copy, so it shares no memo with the search
        rng = random.Random(33)
        kinds = set()
        for _ in range(24):
            g = random_admg(rng, max_vertices=8, min_vertices=6)
            pag = fci(SeparationOracle(g), g.vertices)
            *mutable, target = rng.sample(sorted(pag.vertices),
                                          rng.randint(2, 4))
            got = stable_candidates(InvarianceSpec(pag, mutable), target,
                                    mode)
            want = self.reference(
                InvarianceSpec(parse(serialize(pag)), mutable), target, None,
                mode)
            assert [(c.kind, c.conditioning_set) for c in got] == want
            kinds |= {kind for kind, _ in want}
        assert kinds == ({"conditional", "interventional"} if mode == "full"
                         else {"conditional"})

    @pytest.mark.parametrize("mutable", ["X1", "Y"])
    def test_mutable_target_rejected_naming_both(self, mutable):
        spec = InvarianceSpec(example_pag(), {mutable, "Y"})
        with pytest.raises(GraphError, match=r"target 'Y' is in the "
                           r"mutable set \[.*'Y'.*\]"):
            stable_candidates(spec, "Y")

    def test_interventional_sets_exclude_mutable(self):
        for c in stable_candidates(example_spec(), "Y", "full", env="E"):
            if c.kind == "interventional":
                assert not c.conditioning_set & c.mutable_set


# Prints each search's candidate labels and expressions as JSON.
HASH_SEED_PROBE = """
import json
from stablespec.expressions import to_json
from stablespec.graph import parse
from stablespec.search import InvarianceSpec, stable_candidates
from util import PAG8, PAG_TEXT
print(json.dumps([
    [(c.label(), to_json(c.expression)) for c in stable_candidates(
        InvarianceSpec(parse(text), mutable), target)]
    for text, mutable, target in ((PAG_TEXT, {"X1"}, "Y"),
                                  (PAG8, {"V2"}, "V0"))]))
"""


def test_candidates_do_not_depend_on_hash_seed():
    # memo keys are sets of names; their iteration order follows the hash
    # seed, and the candidates must not
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", HASH_SEED_PROBE],
                             env=env, capture_output=True, text=True,
                             check=True, timeout=120)
        outputs.append(json.loads(run.stdout))
    readme, pag8 = outputs[0]
    assert any(label.startswith("interventional") for label, _ in readme)
    assert any(label.startswith("interventional") for label, _ in pag8)
    assert outputs[1] == outputs[0]


def search_digest(queries) -> str:
    """sha256 of (kind, sorted conditioning set, expression JSON) of every
    candidate of every (PAG, mutable vertex, target) query, in order."""
    records = [[(c.kind, sorted(c.conditioning_set), to_json(c.expression))
                for c in stable_candidates(InvarianceSpec(pag, {mutable}),
                                           target)]
               for pag, mutable, target in queries]
    return hashlib.sha256(json.dumps(records).encode()).hexdigest()


class TestPinnedSearches:
    """What the search finds on the benchmark's oracle PAGs. No floating
    point enters, so a change here changes which sets are invariant or
    identified, or the expressions identified, and must say why."""

    def test_search_sparse_corpus(self):
        inputs = bench_inputs()
        path = Path(inputs.__file__).with_name("sparse_corpus.json")
        queries = [(inputs.oracle_pag(parse(q["admg"], "ADMG")),
                    q["mutable"], q["target"])
                   for q in json.loads(path.read_text())["queries"]]
        assert len(queries) == 10
        assert search_digest(queries).startswith("f5acf50f39b0da8b")

    def test_sparse_draws(self):
        # the draws of bench/corpus.py: seed n * 100_000 + i, then the
        # target and the mutable vertex from the sorted names
        inputs = bench_inputs()
        queries = []
        for n in (6, 8, 10, 12):
            for i in range(3):
                rng = random.Random(n * 100_000 + i)
                admg = inputs.sparse_admg(rng, n)
                target, mutable = rng.sample(sorted(admg.vertices), 2)
                queries.append((inputs.oracle_pag(admg), mutable, target))
        assert search_digest(queries).startswith("2c71566f60abd416")


class TestLearnedPags:
    """Learn a PAG from a CI oracle, then search it. The conditional
    candidates are the sets the path oracle finds invariant."""

    @staticmethod
    def conditional_sets(candidates):
        return [set(c.conditioning_set) for c in candidates
                if c.kind == "conditional"]

    def test_chain_rule_into_the_environment(self):
        # the chain rule asks for B --> E, which the knowledge forbids
        pag = fci(independence_oracle({"AD": "", "AE": "B", "DE": "B"}),
                  ["A", "B", "D", "E"], Knowledge(forbidden_into={"E"}))
        spec = InvarianceSpec(pag, possible_children_of_env(pag, "E"))
        assert spec.mutable == {"B"}
        got = stable_candidates(spec, "A", env="E")
        assert self.conditional_sets(got) == [set(), {"D"}]

    def test_chordless_circle_cycle(self):
        pag = fci(independence_oracle({"AC": "BD", "BD": "AC"}),
                  ["A", "B", "C", "D"])
        assert len(pag.edges) == 4
        spec = InvarianceSpec(pag, {"A"})
        assert self.conditional_sets(stable_candidates(spec, "C")) == \
            [{"B", "D"}, {"A", "B", "D"}]
        assert stable_candidates(spec, "D") == []


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

    def test_equal_expressions_are_fitted_once(self, monkeypatch):
        # README search --graph: conditional[-] and interventional[-], and
        # conditional[X3] and interventional[X3], carry equal expressions
        cands = stable_candidates(example_spec(), "Y", "full", env="E")
        data = pooled_benchmark_data(2000)
        fits, original = [], search.fit_expression

        def counted(expression, *args):
            fits.append(expression)
            return original(expression, *args)

        monkeypatch.setattr(search, "fit_expression", counted)
        fitted = fit_candidates(cands, data, "Y", "linear-gaussian", seed=0)
        assert len(cands) == 6 and len(fits) == 4
        assert len(set(fits)) == len(fits)
        # the same records as fitting every candidate on its own
        alone = [fit_candidates([c], data, "Y", "linear-gaussian", seed=0)[0]
                 for c in cands]
        assert [c.to_json() for c in fitted] == [c.to_json() for c in alone]

    def test_unstable_baseline_beats_stable_in_sample(self):
        data = pooled_benchmark_data(20000)
        base = fit_candidates([unstable_candidate(data, "Y")], data, "Y",
                              "linear-gaussian", seed=0)[0]
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

    def test_n_test_validated(self):
        with pytest.raises(DataError):
            shift_sweep([], [4.0], 0, 0)

    def test_simulate_golden_values(self):
        # the values sampling gave when every variable's noise was drawn
        # and added in one loop, before the draws were split out
        want = {
            "X1": ["-0x1.f7a76ecc87304p-2", "0x1.75be83ec895e0p-2",
                   "0x1.dda309de76169p-3"],
            "X2": ["0x1.1f56fe21d4d3ep-2", "-0x1.15672f962b168p-2",
                   "-0x1.cf41d4f128e27p-3"],
            "X3": ["0x1.1b1a42096294ep-5", "0x1.5088e819d2019p-4",
                   "0x1.0eb1ad71e633bp-5"],
            "Y": ["-0x1.6040d86010696p-1", "0x1.1a8eca3abe718p-1",
                  "0x1.1acb5c02b7070p-2"],
        }
        table = simulate_benchmark(4.0, 3, 1)
        assert {n: [float(x).hex() for x in table.column(n)]
                for n in table.names} == want

    @pytest.fixture(scope="class")
    def sweep_models(self):
        """The README sweep's models: the full and conditional-only
        winners and the unstable baseline, fitted on one split."""
        data = pooled_benchmark_data(5000)
        spec = example_spec()
        *fitted, base = fit_candidates(
            stable_candidates(spec, "Y", "full", "E")
            + [unstable_candidate(data, "Y")], data, "Y", "linear-gaussian",
            0)
        full = search.pick_winner(fitted)
        cond = search.pick_winner([c for c in fitted
                                   if c.kind == "conditional"])
        return [(c.label(), c.estimator) for c in (full, cond, base)]

    @pytest.mark.parametrize("seed", [2, 7])
    def test_sweep_equals_scoring_resampled_rows(self, sweep_models, seed):
        # differential: the quadratic form on the noise's second moments
        # against predicting every row of a fresh sample at each shift
        grid = [-5.0, 0.0, 4.0, 8.0, 17.0]
        rows = shift_sweep(sweep_models, grid, 2000, seed)
        assert [(a, label) for a, label, _ in rows] == \
            [(a, label) for a in grid for label, _ in sweep_models]
        models = dict(sweep_models)
        for alpha, label, mse in rows:
            table = simulate_benchmark(alpha, 2000, seed)
            assert mse == pytest.approx(
                validation_loss(models[label], table, "Y"), rel=1e-12)

    @pytest.mark.parametrize("points", [2, 200])
    def test_sweep_draws_the_noise_once(self, sweep_models, monkeypatch,
                                        points):
        calls = []
        for name in ("noise", "sample"):
            real = getattr(LinearGaussianSCM, name)

            def counted(self, *args, name=name, real=real):
                calls.append(name)
                return real(self, *args)
            monkeypatch.setattr(LinearGaussianSCM, name, counted)
        rows = shift_sweep(sweep_models, list(np.linspace(-5, 17, points)),
                           500, 0)
        assert len(rows) == 3 * points
        assert calls == ["noise"]

    def test_unscorable_models_are_named(self):
        t = DataTable({"X3": np.array([0, 1, 0, 1]),
                       "Y": np.array([0, 1, 1, 0])},
                      kinds={"X3": 2, "Y": 2})
        discrete = DiscreteExactModel.fit(Factor({"Y"}, {"X3"}), t, "Y")
        stranger = LinearGaussianModel("Y", ("Q",), np.array([1.0, 0.0]))
        for label, model in (("tabular", discrete), ("off-benchmark",
                                                       stranger)):
            with pytest.raises(EstimationError, match=label):
                shift_sweep([(label, model)], [4.0], 100, 0)

    def test_population_risk_at_the_strongest_shift(self):
        # pooled OLS of Y on X1, X2, X3 over alpha in {4, 8} (the unstable
        # baseline) against the invariant Y | X3 conditional, at the
        # strongest shift of the sweep grid: fixed by the model's
        # coefficients, whatever the sample size. Acceptance criterion 6
        # asks for a ratio of at least 2 there; with this model's
        # coefficients it stays below 2, so that criterion cannot pass by
        # sampling more (see ROADMAP item 2)
        unstable = ("X1", "X2", "X3")
        beta_u, beta_c = population_ols(unstable), population_ols(("X3",))
        mse_c = population_mse(beta_c, ("X3",), 17.0)
        for alpha in (-5.0, 4.0, 8.0):  # the conditional is invariant
            assert population_mse(beta_c, ("X3",), alpha) == \
                pytest.approx(mse_c, rel=1e-12)
        assert population_mse(beta_u, unstable, 17.0) / mse_c < 2.0

    def test_sweep_agrees_with_population_risk(self):
        # the sweep's test-sample mse of a fixed linear predictor has a
        # relative standard error of sqrt(2 / n_test) (Gaussian residual);
        # allow four of them
        n_test = 10000
        data = pooled_benchmark_data(20000)
        cond = search_stable_predictor(example_spec(), "Y", data,
                                       "conditional-only", seed=0, env="E")
        base = fit_candidates([unstable_candidate(data, "Y")], data, "Y",
                              "linear-gaussian", seed=0)[0]
        rows = shift_sweep([("conditional", cond.estimator),
                            ("unstable", base.estimator)], [4.0, 8.0, 17.0],
                           n_test=n_test, seed=7)
        unstable = ("X1", "X2", "X3")
        want = {"conditional": (population_ols(("X3",)), ("X3",)),
                "unstable": (population_ols(unstable), unstable)}
        tolerance = 4 * np.sqrt(2.0 / n_test)
        for alpha, label, mse in rows:
            beta, features = want[label]
            assert mse == pytest.approx(
                population_mse(beta, features, alpha), rel=tolerance)

    def test_write_csv(self, tmp_path):
        path = os.path.join(tmp_path, "sweep.csv")
        write_sweep_csv([(4.0, "m", 0.5), (17.0, "m", 1.25)], path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines == ["alpha,model,mse",
                         "4.000000,m,0.500000",
                         "17.000000,m,1.250000"]
