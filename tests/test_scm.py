import numpy as np
import pytest

from stablespec.scm import (
    DiscreteJoint, DiscreteSCM, LinearGaussianSCM, SCMError,
    UndefinedConditionalError, practice_pattern_scm, shift_benchmark_scm,
)
from oracles import interventional_probability
from util import example_admg


class TestLinearGaussian:
    def test_benchmark_moments(self):
        data = shift_benchmark_scm(4.0).sample(50000, seed=11)
        assert abs(np.var(data["X3"]) - 0.01) < 0.001
        # recover the structural coefficients of X2 by least squares
        A = np.column_stack([data["Y"], data["X1"], np.ones(50000)])
        coef, *_ = np.linalg.lstsq(A, data["X2"], rcond=None)
        assert abs(coef[0] - 0.2) < 0.02
        assert abs(coef[1] + 1.0) < 0.02

    def test_zero_alpha_decouples_x1(self):
        data = shift_benchmark_scm(0.0).sample(20000, seed=5)
        r = np.corrcoef(data["X1"], data["Y"])[0, 1]
        assert abs(r) < 0.02

    def test_single_row(self):
        data = shift_benchmark_scm(4.0).sample(1, seed=1)
        assert sorted(data) == ["X1", "X2", "X3", "Y"]
        assert all(v.shape == (1,) for v in data.values())

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(SCMError):
            LinearGaussianSCM(order=("A",), coefficients={},
                              noise_std={"A": 0.0}, observed=("A",))

    def test_population_moments_by_hand(self):
        # U latent; X = 1 + 2U + N(0, 1), Y = 3 + 0.5X - U + N(0, 0.25)
        scm = LinearGaussianSCM(
            order=("U", "X", "Y"),
            coefficients={"X": {"U": 2.0}, "Y": {"X": 0.5, "U": -1.0}},
            noise_std={"U": 1.0, "X": 1.0, "Y": 0.5}, observed=("Y", "X"),
            intercepts={"X": 1.0, "Y": 3.0})
        mean, cov = scm.moments()
        # var X = 4 + 1 and cov(X, U) = 2, so cov(X, Y) = 0.5 var X - 2
        # and var Y = 0.25 var X - cov(X, U) + 1 + 0.25
        assert mean == pytest.approx([3.5, 1.0], abs=1e-15)
        assert cov == pytest.approx(np.array([[0.5, 0.5], [0.5, 5.0]]),
                                    abs=1e-15)

    def test_population_moments_match_a_large_sample(self):
        scm = shift_benchmark_scm(4.0)
        mean, cov = scm.moments()
        data = scm.sample(200000, seed=4)
        x = np.column_stack([data[v] for v in scm.observed])
        assert x.mean(axis=0) == pytest.approx(mean, abs=0.01)
        assert np.cov(x.T) == pytest.approx(cov, rel=0.02, abs=1e-3)

    def test_determinism(self):
        a = shift_benchmark_scm(4.0).sample(100, seed=3)
        b = shift_benchmark_scm(4.0).sample(100, seed=3)
        assert all(np.array_equal(a[k], b[k]) for k in a)

    def test_sample_is_total_effects_times_noise(self):
        scm = shift_benchmark_scm(17.0)
        noise = scm.noise(50, seed=3)
        data = scm.sample(50, seed=3)
        assert list(noise) == list(scm.order)
        assert np.array_equal(data["X3"], noise["X3"])  # no parents
        x = scm.total_effects() @ np.array(list(noise.values()))
        for i, v in enumerate(scm.order):
            if v in data:
                assert np.allclose(data[v], x[i], rtol=0, atol=1e-12)

    def test_total_effects_invert_i_minus_b(self):
        scm = shift_benchmark_scm(4.0)
        pos = {v: i for i, v in enumerate(scm.order)}
        b = np.zeros((5, 5))
        for child, parents in scm.coefficients.items():
            for p, c in parents.items():
                b[pos[child], pos[p]] = c
        assert scm.total_effects() @ (np.eye(5) - b) == \
            pytest.approx(np.eye(5), abs=1e-12)

    def test_noise_needs_a_sample(self):
        with pytest.raises(SCMError):
            shift_benchmark_scm(4.0).noise(0, seed=1)


class TestDiscreteJoint:
    def test_prob_and_conditional(self):
        # P(A,B) with A fair coin, B = A
        t = np.array([[0.5, 0.0], [0.0, 0.5]])
        j = DiscreteJoint(("A", "B"), t)
        assert j.prob({"A": 1}) == pytest.approx(0.5)
        assert j.conditional({"B": 1}, {"A": 1}) == pytest.approx(1.0)

    def test_zero_probability_conditioning(self):
        # A fair, B = A, C an independent fair coin
        t = np.zeros((2, 2, 2))
        t[0, 0] = t[1, 1] = [0.25, 0.25]
        j = DiscreteJoint(("A", "B", "C"), t)
        with pytest.raises(UndefinedConditionalError):
            j.conditional({"C": 0}, {"A": 0, "B": 1})

    def test_marginal(self):
        t = np.array([[0.1, 0.2], [0.3, 0.4]])
        j = DiscreteJoint(("A", "B"), t)
        m = j.marginal({"B"})
        assert m.names == ("B",)
        assert m.table == pytest.approx([0.4, 0.6])


class TestInterventionalProbability:
    def test_deterministic_chain(self):
        scm = DiscreteSCM(
            order=("X", "Y"), parents={"Y": ("X",)},
            tables={"X": np.array([0.7, 0.3]),
                    "Y": np.array([[1.0, 0.0], [0.0, 1.0]])})
        assert interventional_probability(scm, {"X": 1}, {"Y": 1}) == \
            pytest.approx(1.0)

    def test_pure_confounding_truncates_away(self):
        # X <- U -> Y with X having no effect on Y
        scm = DiscreteSCM(
            order=("U", "X", "Y"), parents={"X": ("U",), "Y": ("U",)},
            tables={"U": np.array([0.5, 0.5]),
                    "X": np.array([[0.9, 0.1], [0.2, 0.8]]),
                    "Y": np.array([[0.3, 0.7], [0.6, 0.4]])},
            observed=("X", "Y"))
        marg = scm.joint().prob({"Y": 1})
        for x in (0, 1):
            assert interventional_probability(scm, {"X": x}, {"Y": 1}) == \
                pytest.approx(marg)

    def test_running_example_regression_value(self):
        scm = DiscreteSCM.random_for_admg(example_admg(), seed=7)
        got = interventional_probability(
            scm, {"X1": 1}, {"Y": 1}, {"X2": 1, "X3": 0})
        assert 0.0 <= got <= 1.0
        # frozen after cross-checking against a 4M-sample Monte Carlo draw
        # from the mutilated mechanism (estimate 0.65248, se 5e-4)
        assert got == pytest.approx(0.6522375315714961, abs=1e-12)

    def test_empty_intervention_is_plain_conditional(self):
        scm = DiscreteSCM.random_for_admg(example_admg(), seed=3)
        joint = scm.joint()
        got = interventional_probability(scm, {}, {"Y": 1}, {"X2": 0})
        assert got == pytest.approx(joint.conditional({"Y": 1}, {"X2": 0}))

    def test_sample_matches_joint(self):
        scm = practice_pattern_scm(1)
        data = scm.sample(200000, seed=2)
        joint = scm.joint()
        freq = np.mean((data["Y"] == 1) & (data["L"] == 1))
        assert freq == pytest.approx(joint.prob({"Y": 1, "L": 1}), abs=0.01)


class TestPracticePattern:
    def test_site_tables(self):
        for site, (p0, p1) in ((1, (0.4, 0.65)), (2, (0.5, 0.5)),
                               (3, (0.65, 0.4))):
            scm = practice_pattern_scm(site)
            assert scm.joint().conditional({"L": 1}, {"Y": 1}) == \
                pytest.approx(p1)
            assert scm.joint().conditional({"L": 1}, {"Y": 0}) == \
                pytest.approx(p0)

    def test_shared_mechanisms_across_sites(self):
        j1 = practice_pattern_scm(1).joint().marginal({"A", "Y", "B"})
        j3 = practice_pattern_scm(3).joint().marginal({"A", "Y", "B"})
        assert j1.table == pytest.approx(j3.table)

    def test_unknown_site(self):
        with pytest.raises(SCMError):
            practice_pattern_scm(4)
