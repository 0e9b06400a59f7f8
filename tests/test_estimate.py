import json

import numpy as np
import pytest

from stablespec.data import DataError, DataTable
from stablespec.estimate import (
    CandidateModel, DiscreteExactModel, EstimationError, LinearGaussianModel,
    discretize, fit_expression, model_from_json, quantile_edges,
    rank_correlation, validation_loss,
)
from stablespec.expressions import Factor
from stablespec.identify import identify_interventional
from stablespec.scm import (
    DiscreteSCM, interventional_probability, shift_benchmark_scm,
)
from util import example_admg, example_pag

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


class TestLinearGaussian:
    def test_interventional_coefficients_match_closed_form(self):
        # E[Y | do(X1), X2, X3] reduces to regressing Y on the residualized
        # child X2* = X2 + X1 and on X3; the population coefficients follow
        # from joint-Gaussian conditioning
        train = DataTable(shift_benchmark_scm(4.0).sample(200000, seed=1))
        m = LinearGaussianModel.fit(running_example_expression(), train, "Y")
        assert len(m.aux) == 1
        aux = m.aux[0]
        assert aux.child == "X2" and aux.parents == ("X1",)
        assert aux.coef[0] == pytest.approx(-1.0, abs=0.05)
        got = dict(zip([a.child for a in m.aux] + list(m.features),
                       m.coef[:-1]))
        assert got["X2"] == pytest.approx(2.549, abs=0.05)
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

    def test_json_round_trip(self):
        train = DataTable(shift_benchmark_scm(4.0).sample(5000, seed=2))
        m = LinearGaussianModel.fit(running_example_expression(), train, "Y")
        m2 = model_from_json(m.to_json())
        test = DataTable(shift_benchmark_scm(8.0).sample(100, seed=3))
        assert m.predict(test) == pytest.approx(m2.predict(test))


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
