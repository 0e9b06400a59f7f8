import json
import random
from dataclasses import replace

import numpy as np
import pytest

from stablespec import estimate
from stablespec.data import MIN_UNEXPLAINED, DataError, DataTable
from stablespec.estimate import (
    CandidateModel, DiscreteExactModel, EstimationError, LinearGaussianModel,
    fit_expression, model_from_json, validation_loss,
)
from stablespec.expressions import (
    Constant, ExpressionError, Factor, Product, Quotient, SumOver, evaluate,
    to_text,
)
from stablespec.fci import SeparationOracle, fci
from stablespec.graph import parse
from stablespec.identify import identify_interventional
from stablespec.scm import DiscreteJoint, DiscreteSCM, shift_benchmark_scm
from stablespec.search import InvarianceSpec, stable_candidates
from oracles import discretize, interventional_probability, rank_correlation
from util import (
    ORACLE_ADMGS, example_admg, example_pag, linear_scm, near_copy,
)

BINARY = {k: 2 for k in ("E", "X1", "X2", "X3", "Y")}


def running_example_expression():
    return identify_interventional(example_pag(), {"X1"}, {"Y"},
                                   {"X2", "X3"})


class TestDiscretize:
    def test_equal_count_bins(self):
        rng = np.random.default_rng(0)
        t = DataTable({"a": rng.normal(size=9000)})
        binned, edges = discretize(t, 3)
        counts = np.bincount(binned.column("a").astype(int))
        assert counts.tolist() == [3000, 3000, 3000]
        assert binned.levels("a") == 3

    def test_edges_reused_for_test_data(self):
        rng = np.random.default_rng(1)
        train = DataTable({"a": rng.normal(size=1000)})
        _, edges = discretize(train, 3)
        test = DataTable({"a": rng.normal(loc=5.0, size=100)})
        binned, _ = discretize(test, 3, edges)
        # shifted data lands almost entirely in the top bin of train's cuts
        assert np.mean(binned.column("a") == 2) > 0.99

    def test_discrete_columns_pass_through(self):
        t = DataTable({"a": [0, 1, 0]}, kinds={"a": 2})
        binned, _ = discretize(t, 3)
        assert binned.levels("a") == 2


class TestDiscreteExact:
    def test_matches_interventional_oracle_within_tv(self):
        scm = DiscreteSCM.random_for_admg(example_admg(), seed=3)
        train = DataTable(scm.sample(50000, seed=4), kinds=BINARY)
        model = DiscreteExactModel.fit(running_example_expression(), train,
                                       "Y")
        worst = 0.0
        for x1 in (0, 1):
            for x2 in (0, 1):
                for x3 in (0, 1):
                    probe = DataTable(
                        {"X1": [float(x1)], "X2": [float(x2)],
                         "X3": [float(x3)]},
                        kinds={"X1": 2, "X2": 2, "X3": 2})
                    got = model.predict_proba(probe)[0]
                    want = np.array([
                        interventional_probability(
                            scm, {"X1": x1}, {"Y": yv},
                            {"X2": x2, "X3": x3}) for yv in (0, 1)])
                    worst = max(worst, 0.5 * np.abs(got - want).sum())
        assert worst <= 0.02

    def test_sums_over_variables_that_are_not_free(self):
        # the identified expression sums out V2 and V5, which are neither
        # free nor the target: the joint must still hold them
        admg = parse("vars: V0,V1,V2,V3,V4,V5\nV0 <-> V4\nV1 --> V3\n"
                     "V1 --> V5\nV1 <-> V2\nV1 <-> V3\nV2 --> V3\n"
                     "V2 <-> V5\nV3 <-> V4\n", "ADMG")
        expr = identify_interventional(
            fci(SeparationOracle(admg), admg.vertices), {"V4"}, {"V3"},
            {"V1"})
        assert to_text(expr) == \
            "(sum_{V2,V5} (P(V1,V2,V5) * P(V3 | V1,V2,V5))) / P(V1)"
        scm = DiscreteSCM.random_for_admg(admg, seed=7)
        train = DataTable(scm.sample(50000, seed=8),
                          kinds={v: 2 for v in admg.vertices})
        model = DiscreteExactModel.fit(expr, train, "V3")
        # the summed-out V2 and V5 need no column in the rows predicted
        got = model.predict_proba(DataTable({"V1": [0.0, 1.0]},
                                            kinds={"V1": 2}))
        for v1, row in enumerate(got):
            for v4 in (0, 1):
                want = [interventional_probability(scm, {"V4": v4},
                                                   {"V3": y}, {"V1": v1})
                        for y in (0, 1)]
                assert 0.5 * np.abs(row - want).sum() <= 0.02

    def test_plain_conditional_matches_frequencies(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 2, 20000)
        y = (a ^ (rng.random(20000) < 0.1)).astype(float)
        t = DataTable({"A": a.astype(float), "Y": y},
                      kinds={"A": 2, "Y": 2})
        m = DiscreteExactModel.fit(Factor({"Y"}, {"A"}), t, "Y")
        probe = DataTable({"A": [0.0, 1.0]}, kinds={"A": 2})
        proba = m.predict_proba(probe)
        assert proba[0, 1] == pytest.approx(0.1, abs=0.02)
        assert proba[1, 1] == pytest.approx(0.9, abs=0.02)

    def test_continuous_columns_rejected(self):
        t = DataTable({"A": [0.5, 1.5], "Y": [0, 1]}, kinds={"Y": 2})
        with pytest.raises(EstimationError):
            DiscreteExactModel.fit(Factor({"Y"}, {"A"}), t, "Y")

    def test_json_round_trip(self):
        scm = DiscreteSCM.random_for_admg(example_admg(), seed=3)
        train = DataTable(scm.sample(2000, seed=4), kinds=BINARY)
        m = DiscreteExactModel.fit(running_example_expression(), train, "Y")
        m2 = model_from_json(m.to_json())
        probe = DataTable({"X1": [1.0], "X2": [0.0], "X3": [1.0]},
                          kinds={"X1": 2, "X2": 2, "X3": 2})
        assert m.predict_proba(probe) == pytest.approx(
            m2.predict_proba(probe))

    def test_unknown_column_is_a_data_error(self):
        t = DataTable({"A": [0, 1], "Y": [1, 0]}, kinds={"A": 2, "Y": 2})
        with pytest.raises(DataError, match="no column 'Q'"):
            DiscreteExactModel.fit(Factor({"Y"}, {"Q"}), t, "Y")

    def test_joint_matches_a_per_row_count(self):
        rng = np.random.default_rng(11)
        n = 3000
        cols = {"A": rng.integers(0, 3, n), "Y": rng.integers(0, 2, n),
                # level 2 of B never occurs, so a third of the cells are empty
                "B": rng.integers(0, 2, n)}
        t = DataTable({k: v.astype(float) for k, v in cols.items()},
                      kinds={"A": 3, "Y": 2, "B": 3})
        m = DiscreteExactModel.fit(Factor({"Y"}, {"A", "B"}), t, "Y")
        assert m.joint.names == ("A", "B", "Y")
        counts = np.ones((3, 3, 2))
        for a, b, y in zip(cols["A"], cols["B"], cols["Y"]):
            counts[a, b, y] += 1.0
        assert (counts[:, 2, :] == 1.0).all()
        np.testing.assert_array_equal(m.joint.table, counts / counts.sum())

    def test_one_table_per_call_whatever_the_row_count(self, monkeypatch):
        scm = DiscreteSCM.random_for_admg(example_admg(), seed=3)
        train = DataTable(scm.sample(2000, seed=4), kinds=BINARY)
        m = DiscreteExactModel.fit(running_example_expression(), train, "Y")
        calls, original = [], estimate.tabulate

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(estimate, "tabulate", counted)
        for n in (1, 2000):
            calls.clear()
            m.predict_proba(train.take(np.arange(n)))
            assert len(calls) == 1

    def test_rows_match_the_normalized_expression(self):
        # the joint orders its variables unlike the expression and holds one
        # the expression does not mention
        rng = np.random.default_rng(6)
        joint = DiscreteJoint(("Y", "B", "A"), rng.random((3, 2, 4)))
        e = Quotient(Product([Factor({"Y"}, {"A"}), Factor({"A"})]),
                     SumOver({"Y"}, Factor({"A", "Y"})))
        m = DiscreteExactModel(e, "Y", joint)
        data = DataTable({"A": rng.integers(0, 4, 50).astype(float),
                          "B": rng.integers(0, 2, 50).astype(float)},
                         kinds={"A": 4, "B": 2})
        proba = m.predict_proba(data)
        assert proba.shape == (50, 3)
        for i in range(50):
            env = {"A": int(data.column("A")[i])}
            vals = [evaluate(e, joint, {**env, "Y": y}) for y in range(3)]
            assert proba[i] == pytest.approx(np.array(vals) / sum(vals),
                                             abs=1e-15)

    def test_zero_total_is_uniform_and_nan_raises_only_when_picked(self):
        # A = 1 never happens
        joint = DiscreteJoint(("A", "Y"), np.array([[0.2, 0.8], [0.0, 0.0]]))
        rows = DataTable({"A": [0.0, 1.0]}, kinds={"A": 2})
        m = DiscreteExactModel(Factor({"Y"}, {"A"}), "Y", joint)
        assert m.predict_proba(rows) == \
            pytest.approx(np.array([[0.2, 0.8], [0.5, 0.5]]))
        bad = DiscreteExactModel(Quotient(Factor({"Y"}), Factor({"A"})), "Y",
                                 joint)
        assert bad.predict_proba(rows.take(np.array([0]))) == \
            pytest.approx(np.array([[0.2, 0.8]]))
        with pytest.raises(ExpressionError, match="zero denominator"):
            bad.predict_proba(rows)

    def test_expression_without_features(self):
        joint = DiscreteJoint(("Y",), np.array([1.0, 3.0]))
        m = DiscreteExactModel(Factor({"Y"}), "Y", joint)
        rows = DataTable({"Z": [0.0, 1.0, 0.0]})
        assert m.predict_proba(rows) == pytest.approx(
            np.array([[0.25, 0.75]] * 3))


class TestLinearGaussian:
    def test_interventional_coefficients_match_closed_form(self):
        # E[Y | do(X1), X2, X3] is the regression of Y on X2* = X2 + X1 and
        # on X3, so X1 and X2 share one coefficient; the population values
        # follow from joint-Gaussian conditioning
        train = DataTable(shift_benchmark_scm(4.0).sample(200000, seed=1))
        m = LinearGaussianModel.fit(running_example_expression(), train, "Y")
        assert m.features == ("X1", "X2", "X3")
        got = dict(zip(m.features, m.coef))
        assert got["X2"] == pytest.approx(2.549, abs=0.05)
        assert got["X1"] == pytest.approx(got["X2"], abs=0.05)
        assert got["X3"] == pytest.approx(0.2451, abs=0.05)

    def test_plain_conditional_recovers_structural_slope(self):
        train = DataTable(shift_benchmark_scm(4.0).sample(200000, seed=1))
        m = LinearGaussianModel.fit(Factor({"Y"}, {"X3"}), train, "Y")
        assert m.coef[0] == pytest.approx(0.5, abs=0.05)
        assert m.coef[1] == pytest.approx(0.0, abs=0.05)

    def test_discrete_columns_rejected(self):
        t = DataTable({"A": [0, 1], "Y": [0.1, 0.2]}, kinds={"A": 2})
        with pytest.raises(EstimationError):
            LinearGaussianModel.fit(Factor({"Y"}, {"A"}), t, "Y")

    def test_rank_deficiency_rejected(self):
        a = np.linspace(0, 1, 50)
        t = DataTable({"A": a, "B": 2 * a, "Y": a + 1})
        with pytest.raises(EstimationError):
            LinearGaussianModel.fit(Factor({"Y"}, {"A", "B"}), t, "Y")

    @pytest.mark.parametrize("factor", [10.0, 0.1])
    def test_givens_at_the_rank_rule(self, factor):
        # s leaves factor * MIN_UNEXPLAINED of var(a) unexplained
        t = near_copy(factor * MIN_UNEXPLAINED)
        expression = Factor({"b"}, {"a", "s"})
        if factor > 1.0:
            m = LinearGaussianModel.fit(expression, t, "b")
            assert m.features == ("a", "s")
        else:
            with pytest.raises(EstimationError, match="collinear givens"):
                LinearGaussianModel.fit(expression, t, "b")

    def test_json_round_trip(self):
        train = DataTable(shift_benchmark_scm(4.0).sample(5000, seed=2))
        m = LinearGaussianModel.fit(running_example_expression(), train, "Y")
        m2 = model_from_json(m.to_json())
        test = DataTable(shift_benchmark_scm(8.0).sample(100, seed=3))
        assert m.predict(test) == pytest.approx(m2.predict(test))
        # an estimator written with residualized auxiliary features has a
        # coefficient per auxiliary feature on top of features + intercept
        old = {"backend": "linear-gaussian", "y": "Y", "features": ["X3"],
               "aux": [{"child": "X2", "parents": ["X1"], "coef": [-1.0]}],
               "coef": [2.5, 0.25, 0.0]}
        with pytest.raises(EstimationError):
            model_from_json(json.dumps(old))

    def test_target_outside_the_expression_rejected(self):
        train = DataTable(shift_benchmark_scm(4.0).sample(1000, seed=2))
        with pytest.raises(EstimationError):
            LinearGaussianModel.fit(Factor({"X3"}), train, "Y")

    def test_unknown_column_is_a_data_error(self):
        train = DataTable(shift_benchmark_scm(4.0).sample(100, seed=2))
        with pytest.raises(DataError, match="no column 'Q'"):
            LinearGaussianModel.fit(Factor({"Y"}, {"Q"}), train, "Y")

    def test_divergent_sum_rejected(self):
        # the summand does not depend on X3, so its integral over X3
        # diverges
        train = DataTable(shift_benchmark_scm(4.0).sample(1000, seed=2))
        with pytest.raises(EstimationError):
            LinearGaussianModel.fit(SumOver({"X3"}, Factor({"Y"})), train,
                                    "Y")

    def test_constant_column_rejected(self):
        t = DataTable({"A": np.full(50, 3.7), "Y": np.linspace(0, 1, 50)})
        with pytest.raises(EstimationError):
            LinearGaussianModel.fit(Factor({"Y"}, {"A"}), t, "Y")


def population_fit(expression, scm, target):
    mean, cov = scm.moments()
    return LinearGaussianModel.from_moments(expression, target, mean, cov,
                                            scm.observed)


def population_regression(scm, target, features):
    """Slopes (by feature) and intercept of the population regression of
    the target on the features."""
    mean, cov = scm.moments()
    pos = {v: i for i, v in enumerate(scm.observed)}
    f, y = [pos[v] for v in features], pos[target]
    beta = np.linalg.solve(cov[np.ix_(f, f)], cov[f, y])
    return dict(zip(features, beta)), mean[y] - beta @ mean[f]


class TestLinearGaussianOracle:
    """The backend fed a linear SCM's population moments returns the exact
    conditional mean of every identified candidate."""

    def test_readme_candidates_are_exact_and_invariant(self):
        spec = InvarianceSpec(example_pag(), {"X1"})
        expr = {c.label(): c.expression
                for c in stable_candidates(spec, "Y", "full", env="E")}
        # Y | X3 has variance 25 * 0.01 + 0.01 = 0.26; X2 + X1 = 0.2 Y +
        # noise of variance 0.01 adds precision 0.2^2 / 0.01
        precision = 1 / 0.26 + 0.2 ** 2 / 0.01
        slope = (0.2 / 0.01) / precision
        want = {"interventional[X2,X3]": (("X1", "X2", "X3"), [
                    slope, slope, (0.5 / 0.26) / precision, 0.0]),
                "conditional[X3]": (("X3",), [0.5, 0.0])}
        for label, (features, coef) in want.items():
            fits = [population_fit(expr[label], shift_benchmark_scm(a), "Y")
                    for a in (-5.0, 4.0, 8.0, 17.0)]
            for m in fits:
                assert m.features == features
                assert m.coef == pytest.approx(fits[0].coef, abs=1e-12)
                assert m.coef == pytest.approx(coef, abs=1e-12)

    def test_equal_expressions_give_equal_fits(self):
        # probability identities of each node kind, read for target Y
        pairs = [
            (Quotient(Factor({"X1", "Y"}), Factor({"Y"})),
             Factor({"X1"}, {"Y"})),
            (Product([Factor({"X3"}), Factor({"Y"}, {"X3"})]),
             Factor({"X3", "Y"})),
            (SumOver({"X1"}, Product([Factor({"X1"}, {"X3"}),
                                      Factor({"Y"}, {"X1", "X3"})])),
             Factor({"Y"}, {"X3"})),
            (Product([Constant(2.0), Factor({"X1"}), Factor({"Y"}, {"X1"})]),
             Factor({"Y", "X1"})),
        ]
        scm = shift_benchmark_scm(4.0)
        for left, right in pairs:
            a, b = (population_fit(e, scm, "Y") for e in (left, right))
            assert a.features == b.features
            assert a.coef == pytest.approx(b.coef, abs=1e-12)

    @pytest.mark.parametrize("draw", sorted(ORACLE_ADMGS))
    def test_every_candidate_matches_the_mutilated_regression(self, draw):
        # interventional[z]: the regression of the target on z and the
        # mutable vertex in the SCM where the mutable vertex has no parents;
        # conditional[z]: the regression on z in the SCM itself
        text, target, mutable = ORACLE_ADMGS[draw]
        admg = parse(text, "ADMG")
        rng = random.Random(3)
        scm = linear_scm(rng, admg)
        scm = replace(scm, intercepts={v: rng.uniform(-2, 2)
                                       for v in admg.vertices})
        mutilated = replace(scm, coefficients={**scm.coefficients,
                                               mutable: {}})
        pag = fci(SeparationOracle(admg), admg.vertices)
        candidates = stable_candidates(InvarianceSpec(pag, {mutable}),
                                       target)
        kinds = [c.kind for c in candidates]
        assert kinds.count("interventional") >= 4
        for c in candidates:
            m = population_fit(c.expression, scm, target)
            if c.kind == "interventional":
                features = sorted(c.conditioning_set | c.mutable_set)
                slopes, intercept = population_regression(
                    mutilated, target, features)
            else:
                features = sorted(c.conditioning_set)
                slopes, intercept = population_regression(
                    scm, target, features)
            got = dict(zip(m.features, m.coef))
            for v in set(features) | set(m.features):
                assert got.get(v, 0.0) == pytest.approx(
                    slopes.get(v, 0.0), abs=1e-9), (c.label(), v)
            assert m.coef[-1] == pytest.approx(intercept, abs=1e-9)


class TestValidationLoss:
    def test_perfect_predictor_is_zero(self):
        t = DataTable({"X": [1.0, 2.0, 3.0], "Y": [2.0, 4.0, 6.0]})
        m = LinearGaussianModel.fit(Factor({"Y"}, {"X"}), t, "Y")
        assert validation_loss(m, t, "Y") == pytest.approx(0.0, abs=1e-20)

    def test_constant_predictor_has_unit_mse(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=20000)
        t = DataTable({"X": np.ones(20000) + rng.normal(size=20000) * 1e-6,
                       "Y": y})

        class Constant:
            def predict(self, data):
                return np.zeros(data.n_rows)

        assert validation_loss(Constant(), t, "Y") == pytest.approx(1.0,
                                                                    abs=0.03)

    def test_conditional_model_loss_matches_closed_form(self):
        # residual variance of Y given X3 is 25 * 0.01 + 0.01 = 0.26
        train = DataTable(shift_benchmark_scm(4.0).sample(50000, seed=1))
        m = LinearGaussianModel.fit(Factor({"Y"}, {"X3"}), train, "Y")
        test = DataTable(shift_benchmark_scm(8.0).sample(50000, seed=9))
        assert validation_loss(m, test, "Y") == pytest.approx(0.26, abs=0.01)

    def test_discrete_loss_is_mean_negative_log_likelihood(self):
        t = DataTable({"Y": [0, 1, 1, 1]}, kinds={"Y": 2})

        class Fixed:
            def predict_proba(self, data):
                return np.tile([0.25, 0.75], (data.n_rows, 1))

        want = -(np.log(0.25) + 3 * np.log(0.75)) / 4
        assert validation_loss(Fixed(), t, "Y") == pytest.approx(want)

    def test_empty_data_rejected(self):
        with pytest.raises(DataError):
            validation_loss(None, DataTable({"Y": np.zeros(0)}), "Y")


class TestRankCorrelation:
    def test_identical_lists(self):
        assert rank_correlation([3.0, 1.0, 2.0], [3.0, 1.0, 2.0]) == 1.0

    def test_reversed_lists(self):
        assert rank_correlation([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0

    def test_matches_manual_computation(self):
        rng = np.random.default_rng(13)
        scores = rng.normal(size=1000)
        noisy = scores + 0.1 * rng.normal(size=1000)
        got = rank_correlation(scores, noisy)
        # no ties among continuous draws, so ranks are the sort positions
        ra = np.argsort(np.argsort(scores))
        rb = np.argsort(np.argsort(noisy))
        want = np.corrcoef(ra, rb)[0, 1]
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(0.9942141702141704, abs=1e-12)

    def test_ties_share_average_rank(self):
        # ranks [1, 2.5, 2.5, 4] and [1, 3, 2, 4]
        want = np.corrcoef([1, 2.5, 2.5, 4], [1, 3, 2, 4])[0, 1]
        got = rank_correlation([0.1, 0.5, 0.5, 0.9], [1.0, 3.0, 2.0, 4.0])
        assert got == pytest.approx(want, abs=1e-15)

    def test_matches_scipy_with_ties(self):
        stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(19)
        for _ in range(20):
            a = rng.integers(0, 5, 200).astype(float)
            b = a + rng.integers(0, 3, 200)
            want = stats.spearmanr(a, b).statistic
            assert rank_correlation(a, b) == pytest.approx(want, abs=1e-12)

    def test_monotone_invariance(self):
        rng = np.random.default_rng(17)
        a = rng.normal(size=300)
        b = rng.normal(size=300)
        base = rank_correlation(a, b)
        assert rank_correlation(np.exp(a), b) == pytest.approx(base)
        assert rank_correlation(a, 3 * b - 7) == pytest.approx(base)

    def test_validation(self):
        with pytest.raises(ValueError):
            rank_correlation([1.0], [1.0])
        with pytest.raises(ValueError):
            rank_correlation([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            rank_correlation([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])


class TestCandidateModel:
    def test_interventional_disjointness(self):
        with pytest.raises(ValueError):
            CandidateModel("interventional", frozenset({"X1"}),
                           frozenset({"X1", "X3"}), Factor({"Y"}))

    def test_json_round_trip(self):
        train = DataTable(shift_benchmark_scm(4.0).sample(2000, seed=2))
        est = LinearGaussianModel.fit(Factor({"Y"}, {"X3"}), train, "Y")
        c = CandidateModel("conditional", frozenset({"X1"}),
                           frozenset({"X3"}), Factor({"Y"}, {"X3"}),
                           est, 0.26)
        c2 = CandidateModel.from_json(c.to_json())
        assert c2.kind == "conditional"
        assert c2.conditioning_set == {"X3"}
        assert c2.expression == c.expression
        assert c2.validation_loss == 0.26

    def test_label(self):
        c = CandidateModel("conditional", frozenset(), frozenset({"X3"}),
                           Factor({"Y"}, {"X3"}))
        assert c.label() == "conditional[X3]"


class TestFitExpressionDispatch:
    def test_unknown_backend(self):
        t = DataTable({"Y": [1.0, 2.0]})
        with pytest.raises(EstimationError):
            fit_expression(Factor({"Y"}), t, "Y", "nope")

    def test_dispatch(self):
        train = DataTable(shift_benchmark_scm(4.0).sample(1000, seed=2))
        m = fit_expression(Factor({"Y"}, {"X3"}), train, "Y",
                           "linear-gaussian")
        assert isinstance(m, LinearGaussianModel)
