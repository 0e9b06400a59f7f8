import decimal
import gc
import itertools
import math
import operator
import warnings
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from stablespec import citest, data
from stablespec.citest import (
    CRITICAL_MARGIN, CITestResult, DegenerateDataError, chi2_sf,
    critical_values, degenerate_gaussian_test, environment_test, firsts_at,
    fisher_z_test, normal_two_sided_p,
)
from stablespec.data import DataError, DataTable, pool_environments
from stablespec.fci import DataOracle
from stablespec.scm import shift_benchmark_scm
from util import (
    at_positions, exact_table, first_index, near_copy, stacked,
)


def exact_scatter(data):
    """The centred scatter matrix of the columns of ``data``, in ``names``
    order, scaled by a positive factor per column so that every entry is
    an exact integer: each column is its values' integer numerators over
    one power of two, and n sum x_j x_k - sum x_j sum x_k is summed in
    Python integers. A partial correlation is the same on either scale."""
    numerators = []
    for name in data.names:
        ratios = [x.as_integer_ratio() for x in data.column(name).tolist()]
        den = max(d for _, d in ratios)
        numerators.append([m * (den // d) for m, d in ratios])
    n, sums = data.n_rows, [sum(col) for col in numerators]
    return [[n * sum(map(operator.mul, x, y)) - sx * sy
             for y, sy in zip(numerators, sums)]
            for x, sx in zip(numerators, sums)]


def exact_fisher_z(data, scatter, a, b, s):
    """Reference Fisher-z test: the statistic of a and b given s from the
    exact partial correlation of ``exact_scatter``'s matrix, r^2 as a
    fraction and atanh |r| in 40-digit decimals, clipped as the test clips
    it; and its two-sided normal tail. Rounding the statistic and taking
    ``math.erfc`` adds a relative error of about z^2 1e-16 to the tail."""
    idx = data.positions([*s, a, b])
    m = [[Fraction(scatter[i][j]) for j in idx] for i in idx]
    for k in range(len(s)):   # partial out s, one column at a time
        for i in range(k + 1, len(idx)):
            for j in range(k + 1, len(idx)):
                m[i][j] -= m[i][k] * m[k][j] / m[k][k]
    r2 = m[-1][-2] ** 2 / (m[-2][-2] * m[-1][-1])
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        r = (Decimal(r2.numerator) / r2.denominator).sqrt()
        r = min(r, 1 - Decimal("1e-12"))
        z = ((1 + r) / (1 - r)).ln() / 2 * \
            Decimal(data.n_rows - len(s) - 3).sqrt()
    statistic = float(z)
    return statistic, math.erfc(statistic / math.sqrt(2.0))


def rowwise_embed(data, name):
    """One column as an n x w block; discrete columns one-hot encoded with
    the last level dropped."""
    col = data.column(name)
    if not data.is_discrete(name):
        return col[:, None]
    return (col[:, None] == np.arange(data.levels(name) - 1)).astype(float)


def rowwise_degenerate_gaussian(data, a, b, s):
    """Reference degenerate-Gaussian test on the rows: least-squares
    residuals of the embedded a and b on [1, embedded s], then canonical
    correlations from the SVDs of the residual blocks. Returns (statistic,
    dof)."""
    s = sorted(s)
    n = data.n_rows
    ea, eb = rowwise_embed(data, a), rowwise_embed(data, b)
    es = np.column_stack([np.ones((n, 1))] +
                         [rowwise_embed(data, name) for name in s])
    da, db, ds = ea.shape[1], eb.shape[1], es.shape[1]
    if n <= ds + da + db + 1:
        raise DataError("too few rows for the embedded covariance")

    def residualize(block):
        coef, *_ = np.linalg.lstsq(es, block, rcond=None)
        return block - es @ coef

    qa, sa, _ = np.linalg.svd(residualize(ea), full_matrices=False)
    qb, sb, _ = np.linalg.svd(residualize(eb), full_matrices=False)
    tol = n * np.finfo(float).eps
    ka = int(np.sum(sa > tol * max(sa[0], 1.0)))
    kb = int(np.sum(sb > tol * max(sb[0], 1.0)))
    if ka < da or kb < db:
        raise DegenerateDataError("singular embedded covariance")
    rho = np.linalg.svd(qa.T @ qb, compute_uv=False)
    rho = np.clip(rho, 0.0, 1.0 - 1e-12)
    scale = n - (ds - 1) - 1 - (da + db + 1) / 2.0
    return -scale * float(np.sum(np.log1p(-rho ** 2))), da * db


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
            scatter = exact_scatter(t)
            for _ in range(10):
                a, b, *rest = rng.permutation(names)
                s = list(rest[:rng.integers(0, 4)])
                got = fisher_z_test(t, a, b, s)
                statistic, p = exact_fisher_z(t, scatter, a, b, s)
                assert got.statistic == pytest.approx(statistic, rel=1e-12,
                                                      abs=1e-12)
                # the statistic's relative error, carried through the
                # normal tail: d ln p / dz is about -z
                assert got.p_value == pytest.approx(
                    p, rel=max(statistic, 1.0) ** 2 * 1e-12, abs=1e-300)

    def test_correlation_computed_once_per_table(self):
        rng = np.random.default_rng(2)
        t = DataTable({"a": rng.normal(size=50), "b": rng.normal(size=50),
                       "c": rng.normal(size=50)})
        fisher_z_test(t, "a", "b")
        corr = t.correlation()
        fisher_z_test(t, "a", "c", {"b"})
        assert t.correlation() is corr
        assert t.take(np.arange(50)).correlation() is not corr

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

    @staticmethod
    def mixed_table(rng, n):
        """Continuous columns and discrete ones with 2, 3 and 4 levels, tied
        together; level 1 of "gap" never occurs, and neither does the last
        level of "top"."""
        z = rng.normal(size=(n, 3))
        noise = rng.normal(size=(n, 3))
        cols = {"c1": z[:, 0], "c2": 0.5 * z[:, 0] + z[:, 1],
                "c3": z[:, 2] - 0.3 * z[:, 1],
                "d2": (z[:, 0] + noise[:, 0] > 0).astype(float),
                "d3": np.digitize(z[:, 1] + noise[:, 1], [-0.5, 0.5])
                .astype(float),
                "d4": np.digitize(z[:, 2] + noise[:, 2], [-1.0, 0.0, 1.0])
                .astype(float),
                "gap": 2.0 * rng.integers(0, 2, n),
                "top": rng.integers(0, 2, n).astype(float)}
        kinds = {"d2": 2, "d3": 3, "d4": 4, "gap": 3, "top": 3}
        return DataTable(cols, kinds)

    @pytest.mark.parametrize("n", [200, 1000, 5000, 20000])
    def test_matches_rowwise_reference(self, n):
        rng = np.random.default_rng(n)
        t = self.mixed_table(rng, n)
        queries = [("c1", "d2", []), ("d3", "gap", ["c1"]),
                   ("d4", "c2", ["gap"]), ("d3", "d4", ["top", "c3"]),
                   ("c1", "c3", ["d2", "d3", "d4"]),
                   ("d2", "c3", ["c1", "c2", "gap", "top"])]
        for _ in range(40):
            # "gap" and "top" as a or b are degenerate; keep them to s
            a, b, *rest = rng.permutation(t.names[:6])
            s = [*rest, "gap", "top"]
            queries.append((a, b, list(rng.permutation(s)[:rng.integers(
                0, 5)])))
        answered = 0
        for a, b, s in queries:
            try:
                statistic, dof = rowwise_degenerate_gaussian(t, a, b, s)
            except DataError as exc:
                with pytest.raises(type(exc)):
                    degenerate_gaussian_test(t, a, b, s)
                continue
            got = degenerate_gaussian_test(t, a, b, s)
            assert got.statistic == pytest.approx(statistic, rel=1e-9)
            assert got.dof == dof
            answered += 1
        assert answered >= 40

    def test_same_error_as_rowwise_reference(self):
        rng = np.random.default_rng(3)
        b = rng.normal(size=300)
        t = DataTable({"a": 3 * b, "b": b, "c": rng.normal(size=300),
                       "k": np.full(300, 0.1), "d": rng.integers(0, 4, 300)
                       .astype(float)}, kinds={"d": 4})
        short = t.take(np.arange(8))
        for table, a, b, s, error in [
                (t, "a", "c", ["b"], DegenerateDataError),
                (t, "k", "c", [], DegenerateDataError),
                (t, "c", "k", ["d"], DegenerateDataError),
                (short, "d", "c", ["a", "b"], DataError)]:
            for test in (rowwise_degenerate_gaussian,
                         degenerate_gaussian_test):
                with pytest.raises(error) as info:
                    test(table, a, b, s)
                assert info.type is error

    def test_embedding_built_once_per_table(self, monkeypatch):
        rng = np.random.default_rng(4)
        t = self.mixed_table(rng, 2000)
        builds, original = [], data.embed

        def counted(table):
            builds.append(table.n_rows)
            return original(table)

        monkeypatch.setattr(data, "embed", counted)
        for _ in range(50):
            a, b, *rest = rng.permutation(t.names[:6])
            degenerate_gaussian_test(t, a, b, rest[:rng.integers(0, 4)])
        assert builds == [2000]

    def test_share_just_above_the_rank_rule_answers(self):
        t = near_copy(10 * citest.MIN_UNEXPLAINED)
        result = degenerate_gaussian_test(t, "a", "b", {"s"})
        assert 0.0 <= result.p_value <= 1.0
        statistic, _ = rowwise_degenerate_gaussian(t, "a", "b", ["s"])
        assert result.statistic == pytest.approx(statistic, rel=1e-3)

    def test_share_below_the_rank_rule_is_degenerate(self):
        t = near_copy(0.1 * citest.MIN_UNEXPLAINED)
        with pytest.raises(DegenerateDataError):
            degenerate_gaussian_test(t, "a", "b", {"s"})

    def test_column_collinear_with_s_is_degenerate(self):
        rng = np.random.default_rng(8)
        s = rng.normal(size=500)
        k = rng.integers(0, 3, 500).astype(float)
        t = DataTable({"a": 2 * s - (k == 1) + 1, "b": rng.normal(size=500),
                       "s": s, "k": k}, kinds={"k": 3})
        with pytest.raises(DegenerateDataError):
            degenerate_gaussian_test(t, "a", "b", {"s", "k"})
        assert degenerate_gaussian_test(t, "a", "b", {"s"}).p_value >= 0.0

    def test_discrete_s_with_an_unobserved_level_answers(self):
        rng = np.random.default_rng(9)
        s = 3.0 * rng.integers(0, 2, 3000)  # levels 1 and 2 never occur
        a = s + rng.normal(size=3000)
        b = s + rng.normal(size=3000)
        t = DataTable({"a": a, "b": b, "s": s}, kinds={"s": 4})
        result = degenerate_gaussian_test(t, "a", "b", {"s"})
        statistic, dof = rowwise_degenerate_gaussian(t, "a", "b", ["s"])
        assert result.p_value > 0.01
        assert result.statistic == pytest.approx(statistic, rel=1e-9)
        assert result.dof == dof == 1


def env_table(cols, env, env_name="E"):
    """A table with a discrete environment column of the given codes."""
    env = np.asarray(env, dtype=float)
    return DataTable({**cols, env_name: env},
                     kinds={env_name: max(int(env.max()) + 1, 2)},
                     env_column=env_name)


def rowwise_residual_variances(data, x, s):
    """Reference: lstsq of x on [1, *s] over each environment's rows and
    over all rows, residual sum of squares over the row count."""
    env = data.column(data.env_column)

    def rss(rows):
        design = np.column_stack([np.ones(rows.sum())] +
                                 [data.column(v)[rows] for v in s])
        y = data.column(x)[rows]
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        return float(np.sum((y - design @ coef) ** 2)) / rows.sum()

    per_env = [rss(env == value) for value in np.unique(env)]
    return np.array(per_env), rss(np.ones(data.n_rows, dtype=bool))


def rowwise_kurtosis(data, x, s):
    """Reference: lstsq of x on [1, *s] over each environment's rows,
    E[r^4] / E[r^2]^2 of its residual, averaged over environments weighted
    by rows."""
    env = data.column(data.env_column)
    total = 0.0
    for value in np.unique(env):
        rows = env == value
        design = np.column_stack([np.ones(rows.sum())] +
                                 [data.column(v)[rows] for v in s])
        y = data.column(x)[rows]
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        r2 = (y - design @ coef) ** 2
        total += rows.sum() * np.mean(r2 * r2) / np.mean(r2) ** 2
    return total / data.n_rows


def residual_variances_of(data, x, subsets):
    """``citest._residual_variances`` of x on each conditioning set of
    ``subsets``, given by names: the rows per environment, the
    per-environment variances (one row per set) and the pooled variances."""
    return citest._residual_variances(
        data, np.array(at_positions(data, [[*s, x] for s in subsets])))


def residual_kurtosis_of(data, x, s):
    """``citest._residual_kurtosis`` of x on the set s, given by names."""
    row = np.array(at_positions(data, [*s, x]), dtype=np.intp)
    return citest._residual_kurtosis(data, row[-1], row[:-1])


def binomial_band(trials, p, level):
    """Smallest [lo, hi] holding a Binomial(trials, p) count with
    probability at least ``level``, (1 - level) / 2 cut from each tail."""
    pmf = [math.comb(trials, k) * p ** k * (1 - p) ** (trials - k)
           for k in range(trials + 1)]
    cut = (1.0 - level) / 2.0
    lo, below = 0, 0.0
    while below + pmf[lo] <= cut:
        below += pmf[lo]
        lo += 1
    hi, above = trials, 0.0
    while above + pmf[hi] <= cut:
        above += pmf[hi]
        hi -= 1
    return lo, hi


class TestEnvironmentTest:
    def test_scale_shift_detected_where_fisher_z_is_blind(self):
        # the shift benchmark's environments change only the scale of X1
        # (X1 = alpha U, mean 0 in both); a test linear in E's code misses it
        tabs = [DataTable(shift_benchmark_scm(alpha).sample(50000, seed=i))
                for i, alpha in enumerate((4.0, 8.0))]
        pooled = pool_environments(tabs, "E")
        assert environment_test(pooled, "E", "X1").p_value < 1e-6
        assert fisher_z_test(pooled, "E", "X1").p_value >= 0.01

    def test_non_monotone_mean_shift_detected(self):
        # intercepts 0, d, 0 do not rise with the environment's code
        rng = np.random.default_rng(11)
        env = np.repeat([0, 1, 2], 2000)
        s = rng.normal(size=6000)
        x = 0.8 * s + np.array([0.0, 0.3, 0.0])[env] + rng.normal(size=6000)
        t = env_table({"x": x, "s": s}, env)
        assert environment_test(t, "E", "x", {"s"}).p_value < 1e-6
        assert environment_test(t, "x", "E", {"s"}).p_value < 1e-6

    def test_slope_change_detected(self):
        rng = np.random.default_rng(12)
        env = np.repeat([0, 1], 3000)
        s = rng.normal(size=6000)
        x = np.array([0.5, 0.8])[env] * s + rng.normal(size=6000)
        t = env_table({"x": x, "s": s}, env)
        assert environment_test(t, "E", "x", {"s"}).p_value < 1e-6

    def test_residual_variances_match_rowwise_lstsq(self):
        names = ["a", "b", "c", "d"]
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            n = int(rng.integers(60, 2000))
            env = rng.integers(0, 3, n)  # rows not grouped by environment
            mix = rng.normal(size=(4, 4))
            x = rng.normal(size=(n, 4)) @ mix * (1.0 + env[:, None]) + \
                rng.normal(size=4) * env[:, None]
            t = env_table(dict(zip(names, x.T)), env)
            for _ in range(5):
                v, *rest = rng.permutation(names)
                s = sorted(rest[:rng.integers(0, 4)])
                counts, [per_env], [pooled] = residual_variances_of(t, v, [s])
                want_env, want_pooled = rowwise_residual_variances(t, v, s)
                assert counts.tolist() == \
                    [int(np.sum(env == e)) for e in range(3)]
                np.testing.assert_allclose(per_env, want_env, rtol=1e-10)
                assert pooled == pytest.approx(want_pooled, rel=1e-10)

    def test_residual_kurtosis_matches_rowwise(self):
        # under SAMPLE_ROWS rows per environment, so the sample is every row
        for seed in range(5):
            rng = np.random.default_rng(400 + seed)
            env = rng.integers(0, 3, 900)  # rows not grouped by environment
            s = rng.normal(size=(900, 2))
            x = (s @ np.array([0.5, -1.0]) + rng.laplace(size=900)) * \
                (1.0 + env) + env
            t = env_table({"x": x, "s0": s[:, 0], "s1": s[:, 1]}, env)
            for cond in ([], ["s0"], ["s0", "s1"]):
                assert residual_kurtosis_of(t, "x", cond) == pytest.approx(
                    rowwise_kurtosis(t, "x", cond), rel=1e-9)

    @pytest.mark.parametrize("noise", ["normal", "laplace"])
    def test_statistic_and_dof(self, noise):
        rng = np.random.default_rng(13)
        env = np.repeat([0, 1, 2], 500)
        t = env_table({"x": getattr(rng, noise)(size=1500),
                       "s": rng.normal(size=1500),
                       "r": rng.normal(size=1500)}, env)
        got = environment_test(t, "E", "x", {"s", "r"})
        counts, [per_env], [pooled] = residual_variances_of(t, "x",
                                                            [["r", "s"]])
        within = float(counts @ per_env) / 1500
        location = 1500 * math.log(pooled / within)
        scale = 1500 * math.log(within) - float(counts @ np.log(per_env))
        lr = 1500 * math.log(pooled) - float(counts @ np.log(per_env))
        assert location + scale == pytest.approx(lr, rel=1e-12)
        kurtosis = residual_kurtosis_of(t, "x", ["r", "s"])
        inflation = max((kurtosis - 1.0) / 2.0, 1.0)
        if noise == "laplace":  # kurtosis 6
            assert inflation > 1.5
        assert got.dof == (3 - 1) * (2 + 2)
        assert got.statistic == pytest.approx(location + scale / inflation,
                                              rel=1e-12)
        assert got.p_value == pytest.approx(chi2_sf(got.statistic, got.dof),
                                            rel=1e-12)

    def test_degenerate_within_one_environment_is_a_change(self):
        rng = np.random.default_rng(14)
        env = np.repeat([0, 1], 200)
        s = rng.normal(size=400)
        fixed = np.where(env == 0, 0.1, rng.normal(size=400))
        tied = np.where(env == 0, 2.0 * s, rng.normal(size=400))
        t = env_table({"fixed": fixed, "tied": tied, "s": s}, env)
        for x, cond in (("fixed", []), ("fixed", ["s"]), ("tied", ["s"])):
            counts, [per_env], [pooled] = residual_variances_of(t, x, [cond])
            assert per_env[0] == 0.0 and per_env[1] > 0.0
            got = environment_test(t, "E", x, cond)
            assert got.p_value == 0.0 and got.statistic == math.inf
            assert firsts_at(fisher_z_test, t,
                             *stacked(t, [(x, "E", [cond])]),
                             1e-300) == [None]

    def test_degenerate_in_every_environment_goes_to_the_fallback(self):
        env = np.repeat([0, 1, 2], 100)
        t = env_table({"x": np.array([0.5, 1.5, 0.7])[env]}, env)
        _, [per_env], _ = residual_variances_of(t, "x", [[]])
        assert per_env.tolist() == [0.0, 0.0, 0.0]
        assert environment_test(t, "E", "x") == fisher_z_test(t, "E", "x")

    def test_conditioning_set_constant_within_one_environment(self):
        rng = np.random.default_rng(15)
        env = np.repeat([0, 1], 200)
        s = np.where(env == 0, 0.1, rng.normal(size=400))
        t = env_table({"x": rng.normal(size=400), "s": s}, env)
        _, per_env, pooled = residual_variances_of(t, "x", [["s"]])
        assert np.isnan(per_env).all() and np.isnan(pooled).all()
        assert environment_test(t, "E", "x", {"s"}) == \
            fisher_z_test(t, "E", "x", {"s"})

    @pytest.mark.parametrize("factor", [10.0, 0.1])
    def test_share_at_the_rank_rule(self, factor):
        # both environments hold the same rows, so each leaves the share
        t = near_copy(factor * citest.MIN_UNEXPLAINED)
        pooled = pool_environments([t, t], "E")
        counts, [per_env], [var] = residual_variances_of(pooled, "a",
                                                         [["s"]])
        if factor > 1.0:
            want = factor * citest.MIN_UNEXPLAINED * np.var(t.column("a"))
            np.testing.assert_allclose([*per_env, var], want, rtol=1e-3)
        else:
            assert per_env.tolist() == [0.0, 0.0] and var == 0.0

    def test_singular_submatrix_within_one_environment(self):
        rng = np.random.default_rng(15)
        env = np.repeat([0, 1], 200)
        s = rng.normal(size=400)
        r = rng.normal(size=400)
        r[200:] = 2.0 * s[200:]
        t = env_table({"x": rng.normal(size=400), "s": s, "r": r}, env)
        _, per_env, pooled = residual_variances_of(t, "x", [["r", "s"]])
        assert np.isnan(per_env).all() and np.isnan(pooled).all()
        seen = []

        def spy(data, a, b, s):
            seen.append((a, b, s))
            return fisher_z_test(data, a, b, s)

        assert environment_test(t, "E", "x", {"s", "r"}, fallback=spy) == \
            fisher_z_test(t, "E", "x", {"s", "r"})
        assert seen == [("E", "x", ["r", "s"])]
        assert environment_test(t, "E", "x", {"s"}, fallback=spy).dof == 3
        assert len(seen) == 1

    def test_batch_with_a_set_degenerate_in_one_environment(
            self, monkeypatch):
        # r = 2 s in the second environment only, so {r, s} is collinear
        # there: the stacked factorization of the batch fails and each set
        # is factored alone
        rng = np.random.default_rng(19)
        env = np.repeat([0, 1], 200)
        s, q, r = rng.normal(size=(3, 400))
        r[200:] = 2.0 * s[200:]
        x = 0.5 * s - 0.3 * q + rng.normal(size=400) * (1.0 + env)
        t = env_table({"x": x, "s": s, "q": q, "r": r}, env)
        subsets = [["q", "s"], ["r", "s"], ["q", "r"]]
        alone = [residual_variances_of(t, "x", [c]) for c in subsets]
        assert np.isnan(alone[1][2][0])
        per_set = []
        share = citest._unexplained_share
        monkeypatch.setattr(citest, "_unexplained_share",
                            lambda *args: per_set.append(1) or share(*args))
        counts, per_env, pooled = residual_variances_of(t, "x", subsets)
        assert len(per_set) == len(subsets)
        assert np.isnan(pooled[1])
        for j in (0, 2):
            assert counts.tolist() == alone[j][0].tolist()
            assert per_env[j].tobytes() == alone[j][1][0].tobytes()
            assert pooled[j] == alone[j][2][0]

    def test_too_few_rows_in_an_environment(self):
        rng = np.random.default_rng(16)
        env = np.array([0] * 50 + [1] * 3)
        t = env_table({"x": rng.normal(size=53), "s": rng.normal(size=53)},
                      env)
        with pytest.raises(DataError):
            residual_variances_of(t, "x", [["s"]])  # 3 rows, |S| + 2 = 3
        assert environment_test(t, "E", "x", {"s"}) == \
            fisher_z_test(t, "E", "x", {"s"})
        assert environment_test(t, "E", "x").dof == 2

    def test_discrete_side_goes_to_the_fallback(self):
        rng = np.random.default_rng(18)
        env = np.repeat([0, 1, 2], 300)
        t = env_table({"x": (rng.random(900) < 0.1).astype(float),
                       "s": rng.normal(size=900)}, env)
        t.kinds["x"] = 2
        seen = []

        def spy(data, a, b, s):
            seen.append((a, b, s))
            return degenerate_gaussian_test(data, a, b, s)

        got = environment_test(t, "x", "E", {"s"}, fallback=spy)
        assert got == degenerate_gaussian_test(t, "x", "E", {"s"})
        assert seen == [("x", "E", ["s"])]

    def test_needs_the_environment_column(self):
        rng = np.random.default_rng(17)
        env = np.repeat([0, 1], 50)
        t = env_table({"x": rng.normal(size=100), "s": rng.normal(size=100)},
                      env)
        with pytest.raises(DataError):
            environment_test(t, "x", "s")
        with pytest.raises(DataError):
            environment_test(DataTable({"x": rng.normal(size=100),
                                        "s": rng.normal(size=100)}),
                             "x", "s")
        one = env_table({"x": rng.normal(size=100)}, np.zeros(100))
        with pytest.raises(DegenerateDataError):
            environment_test(one, "E", "x")

    def test_decision_agrees_with_the_p_value(self):
        # firsts_at skips the kurtosis where it cannot change
        # the decision; heavy tails and a small scale change put some
        # decisions where it can
        calls = []
        kurtosis = citest._residual_kurtosis

        def counting(*args):
            calls.append(args)
            return kurtosis(*args)

        citest._residual_kurtosis = counting
        try:
            for seed in range(40):
                rng = np.random.default_rng(500 + seed)
                env = np.repeat([0, 1], 400)
                s = rng.normal(size=800)
                x = 0.5 * s + rng.laplace(size=800) * \
                    np.array([1.0, 1.15])[env]
                t = env_table({"x": x, "s": s}, env)
                for cond in ([], ["s"]):
                    p = environment_test(t, "E", "x", cond).p_value
                    for alpha in (0.001, 0.01, 0.05, 0.2, p, p * 1.001):
                        assert firsts_at(
                            fisher_z_test, t,
                            *stacked(t, [("E", "x", [cond])]),
                            alpha) == [0 if p >= alpha else None]
        finally:
            citest._residual_kurtosis = kurtosis
        # every environment_test call estimates it; some decisions did too
        assert len(calls) > 80

    @pytest.mark.parametrize("noise", ["normal", "laplace", "rare-flag"])
    @pytest.mark.parametrize("size", [0, 2])
    def test_null_rejection_rate_within_binomial_band(self, noise, size):
        # identical environments; Laplace residuals have kurtosis 6, which
        # inflates the scale part 2.5-fold, and a 0/1 flag that is 1 in a
        # tenth of the rows is a discrete column with kurtosis 8
        alpha, trials = 0.05, 200
        rejections = 0
        for seed in range(trials):
            rng = np.random.default_rng(20_000 + seed)
            env = np.repeat([0, 1, 2], 150)
            s = rng.normal(size=(450, 2))
            if noise == "rare-flag":
                x = (rng.random(450) < 0.1).astype(float)
            else:
                x = s @ np.array([0.7, -0.4]) + \
                    getattr(rng, noise)(size=450)
            t = env_table({"x": x, "s0": s[:, 0], "s1": s[:, 1]}, env)
            if noise == "rare-flag":
                t.kinds["x"] = 2
            p = environment_test(t, "E", "x", ["s0", "s1"][:size]).p_value
            rejections += p < alpha
        lo, hi = binomial_band(trials, alpha, 0.999)
        assert lo <= rejections <= hi


def loop_first(independent, subsets):
    """Index of the first conditioning set that ``independent`` accepts,
    asking one set at a time; None if none does."""
    return next((i for i, s in enumerate(subsets) if independent(s)), None)


def outcome(fn):
    """What ``fn()`` returns, or the class and message of what it raises."""
    try:
        return fn()
    except Exception as exc:
        return type(exc), str(exc)


def batch_table(seed, envs=3, n=300):
    """Columns a, b, x and s0..s3 of a random linear system: a and b share
    a parent among the s columns, and x's parent among them carries a
    change of mean between environments, so that batches hold both
    decisions and their first independent set varies."""
    rng = np.random.default_rng(seed)
    env = np.repeat(np.arange(envs), n)
    cols = {f"s{k}": rng.normal(size=envs * n) for k in range(4)}
    shared, other, third = (f"s{k}" for k in rng.permutation(4)[:3])
    cols[third] += 0.3 * env
    cols["a"] = 0.6 * cols[shared] + rng.normal(size=envs * n)
    cols["b"] = 0.6 * cols[shared] + 0.3 * cols[other] + \
        rng.normal(size=envs * n)
    cols["x"] = 0.5 * cols[third] + rng.normal(size=envs * n)
    return env_table(cols, env)


class TestBatches:
    """``DataOracle(...).first`` against the same tests asked one set at a
    time."""

    ALPHA = 0.05

    def fisher_loop(self, t, a, b, subsets):
        return loop_first(
            lambda s: fisher_z_test(t, a, b, s).p_value >= self.ALPHA,
            subsets)

    def environment_loop(self, t, x, subsets, test=fisher_z_test,
                         alpha=ALPHA):
        return loop_first(lambda s: environment_test(
            t, "E", x, s, test).p_value >= alpha, subsets)

    @pytest.mark.parametrize("seed", range(6))
    def test_first_matches_the_loop_on_random_tables(self, seed):
        t = batch_table(seed)
        oracle = DataOracle(t, alpha=self.ALPHA)
        order = np.random.default_rng(seed).permutation
        found = []
        for size in (0, 1, 2, 3):
            subsets = [list(s) for s in itertools.combinations(
                ["s0", "s1", "s2", "s3", "x"], size)]
            subsets = [subsets[i] for i in order(len(subsets))]
            got = first_index(oracle, "a", "b", subsets)
            assert got == self.fisher_loop(t, "a", "b", subsets)
            found.append(got)
            # every statistic of the batch, bit for bit
            statistics, errors = citest._fisher_z_statistics(
                t, citest._positions(t, [("a", "b", *sorted(s))
                                         for s in subsets]))
            assert not errors and statistics.tolist() == \
                [fisher_z_test(t, "a", "b", s).statistic for s in subsets]
            # x is the tested side, so a takes its place in the sets
            env_sets = [["a" if v == "x" else v for v in s] for s in subsets]
            for a, b in (("E", "x"), ("x", "E")):
                got = first_index(oracle, a, b, env_sets)
                assert got == self.environment_loop(t, "x", env_sets)
                found.append(got)
        # some batch was decided past its first set
        assert set(found) - {0, None}

    @pytest.mark.parametrize("seed", range(3))
    def test_environment_decisions_agree_at_each_p_value(self, seed):
        # at alpha = p a set is independent, one step above p it is not;
        # each query holds one set, and all are decided in one batch
        t = batch_table(seed)
        subsets = [[v] for v in ("s0", "s1", "s2", "s3", "a")]
        for j, s in enumerate(subsets):
            p = environment_test(t, "E", "x", s).p_value
            for alpha, want in ((p, 0), (float(np.nextafter(p, 2.0)), None)):
                got = firsts_at(fisher_z_test, t, *stacked(
                    t, [("E", "x", [c]) for c in subsets]), alpha)
                assert got[j] == want

    @pytest.mark.parametrize("seed", range(3))
    def test_fisher_z_decisions_agree_at_each_p_value(self, seed):
        t = batch_table(seed)
        subsets = [[v] for v in ("s0", "s1", "s2", "s3", "x")]
        for j, s in enumerate(subsets):
            p = fisher_z_test(t, "a", "b", s).p_value
            for alpha, want in ((p, 0), (float(np.nextafter(p, 2.0)), None)):
                got = firsts_at(fisher_z_test, t, *stacked(
                    t, [("a", "b", [c]) for c in subsets]), alpha)
                assert got[j] == want

    def test_degenerate_set_raises_only_when_reached(self):
        t = exact_table()
        oracle = DataOracle(t, alpha=self.ALPHA)
        dep, ind = ["f", "g"], ["m", "f"]
        assert fisher_z_test(t, "a", "b", dep).p_value < self.ALPHA
        assert fisher_z_test(t, "a", "b", ind).p_value >= self.ALPHA
        for bad, message in ((["c", "f"], "constant column in correlation "
                              "matrix: c"),
                             (["d", "e"], "singular covariance submatrix")):
            with pytest.raises(DegenerateDataError, match=message):
                fisher_z_test(t, "a", "b", bad)
            assert first_index(oracle, "a", "b", [dep, ind, bad]) == 1
            assert first_index(oracle, "a", "b", [dep, ind, bad, bad]) == 1
            assert outcome(lambda: first_index(oracle, "a", "b",
                                               [dep, bad, ind])) \
                == (DegenerateDataError, message)
            assert outcome(lambda: first_index(oracle, "a", "b",
                                               [bad, ind])) \
                == (DegenerateDataError, message)
            for subsets in ([dep, ind, bad], [dep, bad, ind], [bad, ind],
                            [dep, dep, bad], [dep, dep]):
                assert outcome(lambda: first_index(oracle, "a", "b",
                                                   subsets)) == \
                    outcome(lambda: self.fisher_loop(t, "a", "b", subsets))

    def test_degenerate_fallback_raises_only_when_reached(self):
        # c is constant in every environment, so the environment test
        # cannot fit {c, f} and Fisher-z, its fallback, raises on it; h
        # carries the change in x's mean
        rng = np.random.default_rng(37)
        env = np.repeat([0, 1], 1000)
        h = rng.normal(size=2000) + 0.5 * env
        f, g = rng.normal(size=(2, 2000))
        t = env_table({"x": h + rng.normal(size=2000), "h": h, "f": f,
                       "g": g, "c": np.full(2000, 3.0)}, env)
        oracle = DataOracle(t, alpha=self.ALPHA)
        dep, ind, bad = ["f", "g"], ["f", "h"], ["c", "f"]
        assert environment_test(t, "E", "x", dep).p_value < self.ALPHA
        assert environment_test(t, "E", "x", ind).p_value >= self.ALPHA
        assert first_index(oracle, "E", "x", [dep, ind, bad]) == 1
        with pytest.raises(DegenerateDataError,
                           match="constant column in correlation matrix"):
            first_index(oracle, "E", "x", [dep, bad, ind])
        for subsets in ([dep, ind, bad], [dep, bad, ind], [bad]):
            assert outcome(lambda: first_index(oracle, "E", "x", subsets)) == \
                outcome(lambda: self.environment_loop(t, "x", subsets))

    def test_single_environment_goes_to_the_fallback(self):
        # E is constant, so Fisher-z, the fallback, raises on any set
        t = batch_table(4, envs=1)
        oracle = DataOracle(t, alpha=self.ALPHA)
        subsets = [[v] for v in ("s0", "s1", "s2", "s3", "a")]
        got = outcome(lambda: first_index(oracle, "E", "x", subsets))
        assert got == outcome(lambda: self.environment_loop(t, "x", subsets))
        assert got == outcome(lambda: fisher_z_test(t, "E", "x", ["s0"]))

    @pytest.mark.parametrize("test", [fisher_z_test,
                                      degenerate_gaussian_test])
    def test_discrete_side_goes_to_the_fallback(self, test):
        rng = np.random.default_rng(41)
        env = np.repeat([0, 1, 2], 400)
        s = rng.normal(size=(1200, 3))
        x = (s[:, 0] + rng.normal(size=1200) > 0.3 * env).astype(float)
        t = DataTable({"x": x, "s0": s[:, 0], "s1": s[:, 1], "s2": s[:, 2],
                       "E": env.astype(float)},
                      kinds={"x": 2, "E": 3}, env_column="E")
        oracle = DataOracle(t, test=test, alpha=self.ALPHA)
        for subsets in ([["s1"], ["s2"], ["s0"]], [["s0", "s1"], ["s1", "s2"]],
                        [[]]):
            assert first_index(oracle, "x", "E", subsets) == \
                self.environment_loop(t, "x", subsets, test)

    def test_side_constant_in_one_environment_only(self):
        rng = np.random.default_rng(43)
        env = np.repeat([0, 1, 2], 300)
        s = rng.normal(size=(900, 2))
        x = np.where(env == 0, 1.5, s[:, 0] + rng.normal(size=900))
        t = env_table({"x": x, "s0": s[:, 0], "s1": s[:, 1]}, env)
        subsets = [["s1"], ["s0"]]
        for s in subsets:
            assert environment_test(t, "E", "x", s).p_value == 0.0
        assert first_index(DataOracle(t, alpha=1e-300), "E", "x",
                           subsets) is None
        assert self.environment_loop(t, "x", subsets, alpha=1e-300) is None

    def test_alpha_between_the_tails_estimates_the_kurtosis(
            self, monkeypatch):
        # Laplace noise and a small change of scale put the p-value between
        # the chi-square tails at location + scale and at location alone
        rng = np.random.default_rng(517)
        env = np.repeat([0, 1], 400)
        s = rng.normal(size=(800, 2))
        x = 0.5 * s[:, 0] + rng.laplace(size=800) * np.array([1.0, 1.2])[env]
        t = env_table({"x": x, "s0": s[:, 0], "s1": s[:, 1]}, env)
        parts = citest._environment_parts(t, citest._positions(
            t, [["s0", "x"]]))
        location, scale = float(parts.location[0]), float(parts.scale[0])
        low = chi2_sf(location + scale, parts.dof)
        high = chi2_sf(location, parts.dof)
        alpha = math.sqrt(low * high)
        assert low < alpha < high
        calls = []
        kurtosis = citest._residual_kurtosis
        monkeypatch.setattr(citest, "_residual_kurtosis",
                            lambda t, x, s: calls.append(
                                (t.names[x], [t.names[v] for v in s])) or
                            kurtosis(t, x, s))
        subsets = [["s0"], ["s1"]]
        got = first_index(DataOracle(t, alpha=alpha), "E", "x", subsets)
        assert ("x", ["s0"]) in calls
        assert got == self.environment_loop(t, "x", subsets, alpha=alpha)

    @pytest.mark.parametrize("query, message", [
        (("a", "b", [["c", "d", "e"]]), "too few rows"),   # a batch error
    ])
    def test_kept_error_does_not_keep_the_table_alive(self, query, message):
        # reference counting alone must free the table once the answer and
        # the table are dropped: no cycle runs through the kept error
        rng = np.random.default_rng(5)
        t = DataTable({v: rng.normal(size=6) for v in "abcde"})
        alive = weakref.ref(t)
        gc.disable()
        try:
            got = firsts_at(fisher_z_test, t, *stacked(t, [query]),
                            self.ALPHA)
            assert isinstance(got[0], DataError) and \
                message in str(got[0])
            del got, t
            assert alive() is None
        finally:
            gc.enable()


def decided(test, t, rows, alpha):
    """Each row [a, b, *s] of names decided by one ``citest._decisions``
    call: whether it tests independent, or the class and message of the
    error of a set that cannot be tested."""
    batch = citest._decisions(test, t, np.array(at_positions(t, rows)),
                              alpha)
    out = []
    for j, d in enumerate(batch.decided.tolist()):
        got = d == 1 if d != -1 else citest._caught(batch.resolve, j)
        out.append((type(got), str(got)) if isinstance(got, Exception)
                   else got)
    return out


def routed(test, t, rows, alpha):
    """What ``decided`` should give: each row asked one at a time of
    ``environment_test`` (with ``test`` as its fallback) if a or b is E,
    and of ``test`` otherwise."""
    def one(a, b, *s):
        if "E" in (a, b):
            return environment_test(t, a, b, s, test).p_value >= alpha
        return test(t, a, b, s).p_value >= alpha

    return [outcome(lambda: one(*row)) for row in rows]


class TestFisherZScreen:
    """``firsts_at`` with Fisher-z, which decides every set on one stacked
    Cholesky factor, against ``fisher_z_test`` asked one set at a time."""

    def table(self, n=2000):
        # near is s1 up to a share of 1e-4 of its variance, and twin is a
        # up to a share of 1e-6, both above the rank rule
        rng = np.random.default_rng(38)
        s0, s1, s2, e1, e2, e3, e4 = rng.normal(size=(7, n))
        a = 0.5 * s0 + e1
        return DataTable({"s0": s0, "s1": s1, "s2": s2, "a": a,
                          "b": 0.5 * s0 + 0.05 * s1 + e2,
                          "near": s1 + 1e-2 * e3, "twin": a + 1e-3 * e4,
                          "c": np.full(n, 3.0)})

    def check(self, monkeypatch, t, queries, alpha):
        """Asserts that one ``firsts_at`` call on ``queries`` (a, b, [s,
        ...]) of names decides what the loop decides, an error as the
        error the loop raises; returns the statistics that took their own
        p-value in that call."""
        own, result = [], citest._fisher_z_result

        def spy(statistic):
            own.append(statistic)
            return result(statistic)

        with monkeypatch.context() as patch:
            patch.setattr(citest, "_fisher_z_result", spy)
            got = firsts_at(fisher_z_test, t, *stacked(t, queries), alpha)
        want = [outcome(lambda: loop_first(
            lambda s: fisher_z_test(t, a, b, s).p_value >= alpha, sets))
            for a, b, sets in queries]
        assert [(type(g), str(g)) if isinstance(g, Exception) else g
                for g in got] == want
        return own

    def test_alpha_at_a_p_value_takes_the_bracket_path(self, monkeypatch):
        t = self.table()
        subsets = [["s0"], ["s1"], ["s2"], ["near"]]
        queries = [("a", "b", [s]) for s in subsets]
        for s in subsets:
            statistic = fisher_z_test(t, "a", "b", s).statistic
            p = normal_two_sided_p(statistic)
            for alpha in (p, float(np.nextafter(p, 2.0))):
                # at its own p-value, and a step above, only this set's
                # statistic lies near the critical value
                assert self.check(monkeypatch, t, queries, alpha) == \
                    [statistic]

    def test_near_collinear_and_near_one_rows_match_the_loop(
            self, monkeypatch):
        t = self.table()
        near_collinear = ("a", "b", ["near", "s1"])
        near_one = ("a", "twin", ["s0", "s2"])
        plain = ("a", "b", ["s0", "s2"])
        r = fisher_z_test(t, *near_one[:2], near_one[2]).statistic
        assert math.tanh(r / math.sqrt(t.n_rows - 5)) > 1.0 - 1e-4
        for alpha in (0.01, 0.5):
            assert self.check(monkeypatch, t, [
                (a, b, [s]) for a, b, s in (near_collinear, near_one,
                                            plain)], alpha) == []

    def test_constant_column_is_an_error_of_its_own_query(self,
                                                           monkeypatch):
        t = self.table()
        self.check(monkeypatch, t, [
            ("a", "b", [["c"], ["s0"]]), ("a", "b", [["s0"], ["c"]]),
            ("a", "b", [["s2"]])], 0.05)

    @pytest.mark.parametrize("size", [1, 2])
    def test_rows_at_and_below_the_set_size(self, monkeypatch, size):
        # on five rows, sets of one leave one degree of freedom, n = |s| + 4,
        # and are decided; sets of two leave too few rows, an error of every
        # query of the call
        t = self.table(n=5)
        queries = [("a", "b", [["s0", "s1", "s2"][i:i + size]])
                   for i in range(2)]
        for alpha in (0.01, 0.5, 0.99):
            self.check(monkeypatch, t, queries, alpha)
        if size == 2:
            with pytest.raises(DataError, match="too few rows"):
                fisher_z_test(t, *queries[0][:2], queries[0][2][0])

    def test_set_that_determines_a_side(self, monkeypatch):
        # a = w0 b + w1 c: given {b, c}, a is fixed, so a and d cannot be
        # tested; given {c}, a and b determine each other, |r| = 1
        singular = (DegenerateDataError, "singular covariance submatrix")
        for seed in range(300):
            rng = np.random.default_rng(seed)
            b, c, d, f = rng.normal(size=(4, 500))
            w0, w1 = rng.normal(size=2)
            t = DataTable({"a": w0 * b + w1 * c, "b": b, "c": c,
                           "d": d + b, "f": f})
            assert outcome(lambda: fisher_z_test(t, "a", "d", ["b", "c"])) \
                == singular
            assert fisher_z_test(t, "a", "b", ["c"]).p_value < 1e-40
            # in one batch the error stays with its own query
            queries = [("d", "f", [["b", "c"]]), ("a", "d", [["b", "c"]]),
                       ("a", "d", [["c", "f"], ["b", "c"]]),
                       ("a", "d", [["b", "f"], ["c", "f"]])]
            got = firsts_at(fisher_z_test, t, *stacked(t, queries), 0.05)
            assert [isinstance(g, DegenerateDataError) for g in got] == \
                [False, True, True, False]
            self.check(monkeypatch, t, queries, 0.05)
            self.check(monkeypatch, t, [("a", "b", [["c"]]),
                                        ("a", "b", [["d"], ["f"]])], 0.05)


class TestDecisions:
    """``citest._decisions`` routes each row of one batch to its test."""

    ALPHA = 0.05

    def test_degenerate_gaussian_as_the_test(self):
        # a continuous x on E goes to the environment test, a discrete d on
        # E falls back to the chosen test, and every other pair goes to it
        rng = np.random.default_rng(47)
        env = np.repeat([0, 1, 2], 400)
        s = rng.normal(size=(1200, 2))
        x = s[:, 0] + 0.4 * env + rng.normal(size=1200)
        d = (s[:, 1] + rng.normal(size=1200) > 0.2 * env).astype(float)
        t = DataTable({"x": x, "d": d, "s0": s[:, 0], "s1": s[:, 1],
                       "z": rng.normal(size=1200), "E": env.astype(float)},
                      kinds={"d": 2, "E": 3}, env_column="E")
        rows = [("E", "x", "s0"), ("d", "E", "s1"), ("x", "d", "s0"),
                ("E", "z", "s1"), ("s0", "z", "d"), ("d", "E", "s0")]
        seen = []

        def spy(data, a, b, s):
            seen.append((a, b, *s))
            return degenerate_gaussian_test(data, a, b, s)

        got = decided(spy, t, rows, self.ALPHA)
        assert got == routed(degenerate_gaussian_test, t, rows, self.ALPHA)
        assert True in got and False in got
        # the environment test answers the rows of x and z on E
        assert sorted(seen) == sorted(rows[1:3] + rows[4:])

    def test_discrete_side_of_an_environment_pair_falls_back(self):
        rng = np.random.default_rng(53)
        env = np.repeat([0, 1, 2], 300)
        s = rng.normal(size=900)
        x = 0.5 * s + rng.normal(size=900) * (1.0 + 0.5 * env)
        d = (s + rng.normal(size=900) > 0.0).astype(float)
        t = DataTable({"x": x, "d": d, "s": s, "E": env.astype(float)},
                      kinds={"d": 2, "E": 3}, env_column="E")
        rows = [("E", "d", "s"), ("E", "x", "s"), ("x", "d", "s")]
        for alpha in (self.ALPHA, fisher_z_test(t, "E", "d", ["s"]).p_value):
            got = decided(fisher_z_test, t, rows, alpha)
            assert got == routed(fisher_z_test, t, rows, alpha)
            assert got[0] == \
                (fisher_z_test(t, "E", "d", ["s"]).p_value >= alpha)
        # the scale change of x is seen by the environment test only
        assert decided(fisher_z_test, t, rows[1:2], self.ALPHA) == [False]

    def test_degenerate_set_in_a_mixed_batch_errors_for_its_query_only(self):
        # c is constant: a Fisher-z set holding it, and an environment set
        # holding it, whose fallback is Fisher-z, fail; the other queries of
        # the same stacked call are decided, v's change of scale by the
        # environment test, which sees it where Fisher-z does not
        base = batch_table(2)
        env = base.column("E")
        noise = np.random.default_rng(59).normal(size=base.n_rows)
        t = env_table({**{n: base.column(n) for n in base.names if n != "E"},
                       "c": np.full(base.n_rows, 3.0),
                       "v": noise * (1.0 + env)}, env)
        singles = [[v] for v in ("s0", "s1", "s2", "s3")]
        ind = [s for s in singles
               if fisher_z_test(t, "a", "b", s).p_value >= self.ALPHA]
        dep = [s for s in singles
               if fisher_z_test(t, "a", "b", s).p_value < self.ALPHA]
        assert ind and dep
        bad = ["c"]
        queries = [("a", "b", [*dep, bad, *ind]), ("E", "x", singles),
                   ("a", "b", [*ind, bad]), ("x", "E", [*singles, bad]),
                   ("E", "x", [bad, *singles]), ("a", "b", [*dep, *ind]),
                   ("E", "v", singles)]
        got = firsts_at(fisher_z_test, t, *stacked(t, queries),
                        self.ALPHA)
        error = (DegenerateDataError,
                 "constant column in correlation matrix: c")
        want = []
        for a, b, sets in queries:
            def independent(s, a=a, b=b):
                return routed(fisher_z_test, t, [(a, b, *s)],
                              self.ALPHA)[0]
            first = next((i for i, s in enumerate(sets)
                          if independent(s) is not False), None)
            want.append(first if first is None or
                        independent(sets[first]) is True
                        else independent(sets[first]))
        assert [(type(g), str(g)) if isinstance(g, Exception) else g
                for g in got] == want
        assert want[0] == want[4] == error
        assert sum(w == error for w in want) < len(want)
        assert want[-1] is None and \
            fisher_z_test(t, "E", "v", singles[0]).p_value >= self.ALPHA


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


class TestCriticalValues:
    ALPHAS = (1e-300, 1e-100, 1e-20, 1e-8, 1e-3, 0.01, 0.05, 0.2, 0.5)

    @staticmethod
    def tail(dof):
        if dof == 0:
            return normal_two_sided_p
        return lambda x: chi2_sf(x, dof)

    @pytest.mark.parametrize("dof", range(61))
    def test_bracket_the_tails(self, dof):
        # dof 0 is Fisher-z's two-sided normal tail
        tail = self.tail(dof)
        for alpha in self.ALPHAS:
            low, high = critical_values(alpha, dof)
            assert 0.0 < low < high and high - low <= 1e-8 * high
            assert tail(low) >= alpha * (1.0 + CRITICAL_MARGIN)
            assert tail(high) < alpha * (1.0 - CRITICAL_MARGIN)
            # statistics beyond them, one rounding step and further away
            for step in (1e-16, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5):
                assert tail(low * (1.0 - step)) >= alpha
                assert tail(high * (1.0 + step)) < alpha

    def test_alpha_within_the_margin_of_one(self):
        low, high = critical_values(1.0 - 1e-12, 3)
        assert low == -math.inf and chi2_sf(high, 3) < 1.0 - 1e-12

    def test_p_value_computed_only_at_the_critical_value(self, monkeypatch):
        # alpha is the p-value of one set: only that set's statistic lies
        # between the critical values, and only it takes its own p-value
        t = batch_table(0)
        subsets = [list(s) for s in itertools.combinations(
            ["s0", "s1", "s2", "s3", "x"], 2)]
        queries = [("a", "b", [s]) for s in subsets]
        results = [fisher_z_test(t, "a", "b", s) for s in subsets]
        for alpha in (0.05, results[3].p_value):
            critical_values(alpha, 0)
            calls = []
            tail = citest.normal_two_sided_p
            monkeypatch.setattr(citest, "normal_two_sided_p",
                                lambda z: calls.append(z) or tail(z))
            got = firsts_at(fisher_z_test, t, *stacked(t, queries),
                            alpha)
            monkeypatch.undo()
            assert got == [0 if r.p_value >= alpha else None
                           for r in results]
            assert calls == ([] if alpha == 0.05
                             else [results[3].statistic])
