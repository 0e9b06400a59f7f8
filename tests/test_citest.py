import math
import warnings

import numpy as np
import pytest

from stablespec.citest import (
    CITestResult, DegenerateDataError, chi2_sf, degenerate_gaussian_test,
    fisher_z_test, normal_two_sided_p,
)
from stablespec.data import DataError, DataTable


def rowwise_fisher_z(data, a, b, s):
    """Reference Fisher-z test: the correlation matrix of the stacked
    [a, b, *s] rows, recomputed for every test."""
    s = sorted(s)
    n = data.n_rows
    corr = np.corrcoef(data.matrix([a, b, *s]), rowvar=False)
    prec = np.linalg.inv(corr)
    r = -prec[0, 1] / math.sqrt(prec[0, 0] * prec[1, 1])
    r = min(max(r, -1.0 + 1e-12), 1.0 - 1e-12)
    statistic = math.sqrt(n - len(s) - 3) * abs(math.atanh(r))
    return statistic, math.erfc(statistic / math.sqrt(2.0))


class TestFisherZ:
    def test_independent_columns_not_rejected(self):
        rng = np.random.default_rng(1)
        t = DataTable({"a": rng.normal(size=2000), "b": rng.normal(size=2000)})
        assert fisher_z_test(t, "a", "b").p_value > 0.01

    def test_near_copy_rejected(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=2000)
        t = DataTable({"a": a, "b": a + 1e-3 * rng.normal(size=2000)})
        assert fisher_z_test(t, "a", "b").p_value < 1e-6

    def test_conditional_independence_not_rejected(self):
        rng = np.random.default_rng(1)
        s = rng.normal(size=2000)
        t = DataTable({"a": rng.normal(size=2000),
                       "b": s + 0.1 * rng.normal(size=2000), "s": s})
        assert fisher_z_test(t, "a", "b", {"s"}).p_value > 0.01
        # marginally a and b stay dependent through nothing, but b and s do
        assert fisher_z_test(t, "b", "s").p_value < 1e-6

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        t = DataTable({"a": rng.normal(size=500),
                       "b": rng.normal(size=500),
                       "s": rng.normal(size=500)})
        x = fisher_z_test(t, "a", "b", {"s"})
        y = fisher_z_test(t, "b", "a", {"s"})
        assert x.p_value == pytest.approx(y.p_value, abs=1e-12)
        assert x.statistic == pytest.approx(y.statistic, abs=1e-12)

    def test_degenerate_column(self):
        a = np.linspace(0, 1, 100)
        t = DataTable({"a": a, "b": 2 * a, "c": np.random.default_rng(0)
                       .normal(size=100)})
        with pytest.raises(DegenerateDataError):
            fisher_z_test(t, "a", "c", {"b"})

    def test_discrete_column_used_as_numeric(self):
        rng = np.random.default_rng(9)
        a = rng.integers(0, 2, 3000).astype(float)
        t = DataTable({"a": a, "b": a + rng.normal(size=3000)},
                      kinds={"a": 2})
        assert fisher_z_test(t, "a", "b").p_value < 1e-6

    def test_matches_rowwise_reference(self):
        names = ["a", "b", "c", "d", "k", "m"]
        for seed in range(20):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(20, 3000))
            mix = rng.normal(size=(4, 4))
            cont = rng.normal(size=(n, 4)) @ mix
            cols = dict(zip(names[:4], cont.T))
            # discrete columns enter as numeric codes, one tied to "a"
            cols["k"] = (cont[:, 0] > 0).astype(float) + \
                rng.integers(0, 2, n)
            cols["m"] = rng.integers(0, 4, n).astype(float)
            t = DataTable(cols, kinds={"k": 3, "m": 4})
            for _ in range(10):
                a, b, *rest = rng.permutation(names)
                s = list(rest[:rng.integers(0, 4)])
                got = fisher_z_test(t, a, b, s)
                statistic, p = rowwise_fisher_z(t, a, b, s)
                assert got.statistic == pytest.approx(statistic, rel=1e-12,
                                                      abs=1e-12)
                assert got.p_value == pytest.approx(p, rel=1e-12,
                                                    abs=1e-300)

    def test_correlation_computed_once_per_table(self):
        rng = np.random.default_rng(2)
        t = DataTable({"a": rng.normal(size=50), "b": rng.normal(size=50),
                       "c": rng.normal(size=50)})
        fisher_z_test(t, "a", "b")
        corr = t.correlation()
        fisher_z_test(t, "a", "c", {"b"})
        assert t.correlation() is corr
        assert t.drop("c").correlation() is not corr

    def test_constant_column_fails_only_its_tests(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=500)
        t = DataTable({"a": a, "b": a + rng.normal(size=500),
                       "c": np.full(500, 3.0)})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fisher_z_test(t, "a", "b").p_value < 1e-6
            with pytest.raises(DegenerateDataError):
                fisher_z_test(t, "a", "b", {"c"})
            with pytest.raises(DegenerateDataError):
                fisher_z_test(t, "a", "c")
            assert fisher_z_test(t, "b", "a").p_value < 1e-6

    def test_argument_validation(self):
        t = DataTable({"a": [1.0, 2.0, 3.0, 4.0, 5.0],
                       "b": [2.0, 1.0, 4.0, 3.0, 5.0]})
        with pytest.raises(DataError):
            fisher_z_test(t, "a", "a")
        with pytest.raises(DataError):
            fisher_z_test(t, "a", "b", {"a"})

    def test_result_invariants(self):
        with pytest.raises(ValueError):
            CITestResult(p_value=1.5, statistic=0.0, dof=1)
        with pytest.raises(ValueError):
            CITestResult(p_value=0.5, statistic=0.0, dof=0)


class TestDegenerateGaussian:
    def test_binary_independent_of_continuous(self):
        rng = np.random.default_rng(2)
        t = DataTable({"a": rng.integers(0, 2, 5000).astype(float),
                       "b": rng.normal(size=5000)}, kinds={"a": 2})
        assert degenerate_gaussian_test(t, "a", "b").p_value > 0.01

    def test_threshold_dependence_rejected(self):
        rng = np.random.default_rng(2)
        b = rng.normal(size=5000)
        t = DataTable({"a": (b > 0).astype(float), "b": b}, kinds={"a": 2})
        assert degenerate_gaussian_test(t, "a", "b").p_value < 1e-6

    def test_agrees_with_fisher_z_on_continuous(self):
        for seed in range(50):
            rng = np.random.default_rng(seed)
            s = rng.normal(size=800)
            a = 0.2 * seed / 50 * s + rng.normal(size=800)
            b = 0.3 * s + rng.normal(size=800)
            t = DataTable({"a": a, "b": b, "s": s})
            fz = fisher_z_test(t, "a", "b", {"s"}).p_value < 0.01
            dg = degenerate_gaussian_test(t, "a", "b", {"s"}).p_value < 0.01
            assert fz == dg

    def test_dof_is_product_of_widths(self):
        rng = np.random.default_rng(4)
        t = DataTable({"a": rng.integers(0, 3, 1000).astype(float),
                       "b": rng.integers(0, 4, 1000).astype(float)},
                      kinds={"a": 3, "b": 4})
        assert degenerate_gaussian_test(t, "a", "b").dof == 2 * 3

    def test_discrete_conditioning(self):
        # a and b dependent only through the discrete s
        rng = np.random.default_rng(5)
        s = rng.integers(0, 2, 4000).astype(float)
        a = s + 0.5 * rng.normal(size=4000)
        b = 2 * s + 0.5 * rng.normal(size=4000)
        t = DataTable({"a": a, "b": b, "s": s}, kinds={"s": 2})
        assert degenerate_gaussian_test(t, "a", "b").p_value < 1e-6
        assert degenerate_gaussian_test(t, "a", "b", {"s"}).p_value > 0.01

    def test_symmetry(self):
        rng = np.random.default_rng(6)
        t = DataTable({"a": rng.integers(0, 2, 300).astype(float),
                       "b": rng.normal(size=300)}, kinds={"a": 2})
        x = degenerate_gaussian_test(t, "a", "b")
        y = degenerate_gaussian_test(t, "b", "a")
        assert x.p_value == pytest.approx(y.p_value, abs=1e-12)

    def test_singular_embedding(self):
        a = np.linspace(0, 1, 200)
        t = DataTable({"a": a, "b": 3 * a,
                       "c": np.random.default_rng(0).normal(size=200)})
        with pytest.raises(DegenerateDataError):
            degenerate_gaussian_test(t, "a", "c", {"b"})


class TestNullCalibration:
    @pytest.mark.parametrize("test,kinds", [
        (fisher_z_test, {}),
        (degenerate_gaussian_test, {"a": 2}),
    ])
    def test_rejection_rate_near_alpha(self, test, kinds):
        alpha = 0.05
        rejections = 0
        trials = 500
        for seed in range(trials):
            rng = np.random.default_rng(10_000 + seed)
            a = rng.normal(size=400)
            if kinds:
                a = (a > 0).astype(float)
            t = DataTable({"a": a, "b": rng.normal(size=400),
                           "s": rng.normal(size=400)}, kinds=kinds)
            rejections += test(t, "a", "b", {"s"}).p_value < alpha
        rate = rejections / trials
        band = 3 * np.sqrt(alpha * (1 - alpha) / trials)
        assert abs(rate - alpha) < band


class TestClosedFormTails:
    # tabulated critical values, no reference library needed
    @pytest.mark.parametrize("x,dof,p", [
        (3.841458820694124, 1, 0.05),
        (5.991464547107979, 2, 0.05),
        (13.276704135987622, 4, 0.01),
    ])
    def test_chi2_critical_values(self, x, dof, p):
        assert chi2_sf(x, dof) == pytest.approx(p, rel=1e-12)

    def test_normal_critical_value(self):
        assert normal_two_sided_p(2.5758293035489004) == \
            pytest.approx(0.01, rel=1e-12)
        assert normal_two_sided_p(-2.5758293035489004) == \
            pytest.approx(0.01, rel=1e-12)

    def test_edges(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert normal_two_sided_p(0.0) == 1.0
        assert 0.0 <= chi2_sf(1e-300, 12) <= 1.0
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)

    def test_chi2_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        xs = np.concatenate([[0.0, 1e-12, 1e-6], np.linspace(0, 200, 801)])
        for dof in range(1, 13):
            want = stats.chi2.sf(xs, dof)
            got = np.array([chi2_sf(x, dof) for x in xs])
            keep = want > 1e-300
            np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12)

    def test_normal_matches_scipy(self):
        stats = pytest.importorskip("scipy.stats")
        zs = np.linspace(0, 37, 741)
        want = 2.0 * stats.norm.sf(zs)
        got = np.array([normal_two_sided_p(z) for z in zs])
        keep = want > 1e-300
        np.testing.assert_allclose(got[keep], want[keep], rtol=1e-12)
