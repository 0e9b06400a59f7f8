import csv
import gzip
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import stablespec
from stablespec import data
from stablespec.citest import degenerate_gaussian_test
from stablespec.data import (
    COMPRESSED_SUFFIXES, SAMPLE_ROWS, SAVE_BLOCK_ROWS, DataError, DataTable,
    concat_tables, load_csv, pool_environments, save_csv,
)
from stablespec.search import simulate_benchmark, split_train_validation


def exact_moments(columns, rows):
    """The means and the centred Gram matrix of ``columns`` over the rows
    that the mask ``rows`` selects, every sum taken by ``math.fsum``: exact
    but for the rounding of each product and of each sum's result."""
    cols = [c[rows] for c in columns]
    means = np.array([math.fsum(c) / len(c) for c in cols])
    centred = [c - m for c, m in zip(cols, means)]
    return means, np.array([[math.fsum(u * v) for v in centred]
                            for u in centred])


class TestDataTable:
    def test_basic_invariants(self):
        t = DataTable({"a": [1.0, 2.0], "b": [0, 1]}, kinds={"b": 2})
        assert t.n_rows == 2
        assert t.names == ("a", "b")
        assert not t.is_discrete("a")
        assert t.levels("b") == 2

    def test_unknown_name_is_a_data_error(self):
        t = DataTable({"a": [1.0, 2.0], "b": [0, 1]}, kinds={"b": 2})
        for ask in (t.is_discrete, t.levels, t.column):
            with pytest.raises(DataError, match="no column 'Q'"):
                ask("Q")
        with pytest.raises(DataError, match="no column 'Q'"):
            t.positions(["b", "Q"])
        assert t.positions(["b", "a", "b"]) == [1, 0, 1]

    def test_unknown_kind_name_is_a_data_error(self):
        # a misspelt name would leave its discrete column continuous
        with pytest.raises(DataError, match="kinds name columns not in the "
                                            "table: 'y', 'zz'"):
            DataTable({"a": [1.0, 2.0]}, {"zz": 3, "a": 2, "y": 2})

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            DataTable({"a": [1.0], "b": [1.0, 2.0]})

    def test_missing_values_rejected(self):
        with pytest.raises(DataError):
            DataTable({"a": [1.0, np.nan]})

    @pytest.mark.parametrize("values, message", [
        ([1.0, np.inf], "column 'b' has non-finite values"),
        ([-np.inf, np.nan], "column 'b' has missing values"),
    ])
    def test_non_finite_values_name_the_column(self, values, message):
        with pytest.raises(DataError) as exc:
            DataTable({"a": [1.0, 2.0], "b": values})
        assert str(exc.value) == message

    def test_discrete_range_checked(self):
        with pytest.raises(DataError):
            DataTable({"a": [0, 3]}, kinds={"a": 2})
        with pytest.raises(DataError):
            DataTable({"a": [0.5, 1.0]}, kinds={"a": 2})

    def test_env_column_must_be_discrete(self):
        with pytest.raises(DataError):
            DataTable({"a": [1.0, 2.0]}, env_column="a")
        t = DataTable({"e": [0, 1]}, kinds={"e": 2}, env_column="e")
        assert t.env_column == "e"

    def test_take(self):
        t = DataTable({"a": [1.0, 2.0, 3.0], "b": [0, 1, 0]}, kinds={"b": 2})
        taken = t.take(np.array([2, 0]))
        assert taken.column("a").tolist() == [3.0, 1.0]
        assert taken.column("b").tolist() == [0, 0]
        assert taken.kinds == t.kinds

    def test_concat_checks_schema(self):
        t1 = DataTable({"a": [1.0]})
        t2 = DataTable({"a": [2.0]})
        assert concat_tables([t1, t2]).n_rows == 2
        with pytest.raises(DataError):
            concat_tables([t1, DataTable({"b": [1.0]})])

    def test_columns_are_read_only_views(self):
        values = np.array([1.0, 2.0, 3.0])
        t = DataTable({"a": values})
        with pytest.raises(ValueError):
            t.column("a")[0] = 1.0
        assert np.shares_memory(t.column("a"), values)
        assert values.flags.writeable  # the caller's array is not frozen

    def test_correlation_marks_constant_columns(self):
        t = DataTable({"a": [1.0, 2.0, 4.0], "b": [2.0, 4.0, 8.0],
                       "c": [7.0, 7.0, 7.0]})
        corr = t.correlation()
        assert corr[t.index["a"], t.index["b"]] == pytest.approx(1.0)
        assert np.isnan(corr[t.index["c"]]).all()
        assert not np.isnan(corr[:2, :2]).any()

    def test_embedding_and_correlations_agree(self):
        rng = np.random.default_rng(5)
        t = DataTable({"a": rng.normal(size=300), "c": np.full(300, 0.3),
                       "b": rng.normal(size=300)})
        emb = t.embedding()
        # a continuous column embeds as itself
        assert {n: pos.tolist() for n, pos in emb.index.items()} == \
            {n: [i] for n, i in t.index.items()}
        c = t.index["c"]
        nan = np.isnan(emb.correlation)
        assert nan[c].all() and nan[:, c].all() and nan.sum() == 5
        np.testing.assert_allclose(emb.correlation, t.correlations()[0],
                                   rtol=0.0, atol=1e-12)

    def test_moments_match_rowwise_per_environment(self):
        rng = np.random.default_rng(4)
        env = rng.integers(0, 3, 600).astype(float)  # rows not grouped
        a = rng.normal(size=600) * (1.0 + env) + env
        t = DataTable({"a": a, "e": env, "b": a + rng.normal(size=600)},
                      kinds={"e": 3}, env_column="e")
        mom = t.moments()
        x = t.matrix(t.names)
        for g, value in enumerate((0.0, 1.0, 2.0)):
            rows = x[env == value]
            centred = rows - rows.mean(axis=0)
            assert mom.counts[g] == len(rows)
            np.testing.assert_allclose(mom.means[g], rows.mean(axis=0),
                                       rtol=1e-12)
            np.testing.assert_allclose(mom.grams[g], centred.T @ centred,
                                       rtol=1e-10, atol=1e-9)
        centred = x - x.mean(axis=0)
        np.testing.assert_allclose(mom.scatter, centred.T @ centred,
                                   rtol=1e-10, atol=1e-9)
        np.testing.assert_allclose(t.correlation(),
                                   np.corrcoef(x, rowvar=False), rtol=1e-12,
                                   atol=1e-14)
        assert t.moments() is mom

    def test_moments_match_an_exact_reference(self):
        # |mean| / sd is about 1e6, where raw sums of squares would lose
        # twelve digits to cancellation; the rows are not grouped by
        # environment, so moments() sorts them first
        rng = np.random.default_rng(28)
        n = 3000
        env = rng.integers(0, 3, n).astype(float)
        common = rng.normal(size=n)
        cols = {name: 1e6 * (k + 1) + 2.0 * k * env + common +
                rng.normal(size=n) for k, name in enumerate("abc")}
        cols["e"] = env
        t = DataTable(cols, kinds={"e": 3}, env_column="e")
        columns = [t.column(name) for name in t.names]
        mom = t.moments()
        for g, value in enumerate((0.0, 1.0, 2.0)):
            means, gram = exact_moments(columns, env == value)
            np.testing.assert_allclose(mom.means[g], means, rtol=1e-12)
            np.testing.assert_allclose(mom.grams[g], gram, rtol=1e-12)
        mean, scatter = exact_moments(columns, np.ones(n, dtype=bool))
        np.testing.assert_allclose(mom.mean, mean, rtol=1e-12)
        np.testing.assert_allclose(mom.scatter, scatter, rtol=1e-12)
        # the same moments, bit for bit, as the rows sorted beforehand
        grouped = t.take(np.argsort(env, kind="stable")).moments()
        for got, want in zip(mom, grouped):
            np.testing.assert_array_equal(got, want)

    def test_moment_sample_is_evenly_spaced_group_centred_rows(self):
        n = SAMPLE_ROWS + 500  # group 1 is thinned to every other row
        env = np.repeat([1.0, 0.0], [n, 300])  # groups in reverse order
        a = np.arange(n + 300, dtype=float)
        t = DataTable({"a": a, "e": env}, kinds={"e": 2}, env_column="e")
        mom = t.moments()
        assert mom.sample_counts.tolist() == [300, (n + 1) // 2]
        g0, g1 = a[n:], a[:n]
        want = np.concatenate([g0 - g0.mean(), (g1 - g1.mean())[::2]])
        np.testing.assert_allclose(mom.sample[:, t.index["a"]], want)
        assert not mom.sample[:, t.index["e"]].any()

    @pytest.mark.parametrize("pooled", [False, True], ids=["plain", "pool"])
    def test_environment_moments_are_its_codes_and_zeros(self, pooled):
        # the environment column is constant within each group: its means
        # are the codes, and its Gram rows and columns and its sample
        # column exact zeros; the groups differ in size, and the plain
        # table's rows are not grouped, with the column between others
        rng = np.random.default_rng(39)
        sizes = [700, 40, 2 * SAMPLE_ROWS + 9]
        parts = [{"a": rng.normal(5.0 * e, 1.0 + e, n),
                  "b": rng.normal(-3.0, 2.0, n)} for e, n in enumerate(sizes)]
        if pooled:
            t = pool_environments([DataTable(p) for p in parts], "E")
        else:
            order = rng.permutation(sum(sizes))
            cols = {n: np.concatenate([p[n] for p in parts])[order]
                    for n in "ab"}
            t = DataTable({"a": cols["a"], "E": np.repeat(
                [0.0, 1.0, 2.0], sizes)[order], "b": cols["b"]},
                kinds={"E": 3}, env_column="E")
        mom, e = t.moments(), t.index["E"]
        assert mom.counts.tolist() == sizes
        assert mom.means[:, e].tolist() == [0.0, 1.0, 2.0]
        assert mom.mean[e] == (sizes[1] + 2 * sizes[2]) / sum(sizes)
        assert not mom.grams[:, e].any() and not mom.grams[:, :, e].any()
        assert not mom.sample[:, e].any()
        # C-contiguous wherever E stands: the pooled mean and scatter are
        # products of these arrays, and a strided copy sums in another order
        assert all(a.flags.c_contiguous for a in mom)
        # without a drift in E, the pooled scatter is the exact one
        columns = [t.column(name) for name in t.names]
        mean, scatter = exact_moments(columns, np.ones(t.n_rows, bool))
        np.testing.assert_allclose(mom.mean, mean, rtol=1e-13)
        np.testing.assert_allclose(mom.scatter, scatter, rtol=1e-13)

    def test_moments_of_a_table_without_rows_raise(self):
        t = DataTable({"a": [], "b": []})
        with pytest.raises(DataError, match="moments need at least one row"):
            t.moments()
        with pytest.raises(DataError, match="at least two rows"):
            t.correlations()

    def test_table_without_environment_is_one_group(self):
        t = DataTable({"a": [1.0, 2.0, 4.0], "b": [0.0, 1.0, 1.0]})
        assert t.moments().counts.tolist() == [3]
        assert t.correlations().shape == (2, 2, 2)

    def test_group_correlation_marks_columns_constant_in_the_group(self):
        t = DataTable({"a": [1.0, 2.0, 4.0, 3.0, 5.0, 9.0],
                       "c": [0.1, 0.1, 0.1, 1.0, 2.0, 2.5],
                       "e": [0, 0, 0, 1, 1, 1]},
                      kinds={"e": 2}, env_column="e")
        corrs = t.correlations()
        c = t.index["c"]
        assert np.isnan(corrs[1, c]).all()  # group of e = 0
        assert not np.isnan(corrs[2, c, :2]).any()
        assert not np.isnan(corrs[0, c, :2]).any()  # pooled


class TestPoolEnvironments:
    def test_appends_env_column(self):
        t1 = DataTable({"a": [1.0, 2.0]})
        t2 = DataTable({"a": [3.0]})
        pooled = pool_environments([t1, t2], "E")
        assert pooled.names == ("a", "E")
        assert pooled.column("a").tolist() == [1.0, 2.0, 3.0]
        assert pooled.column("E").tolist() == [0.0, 0.0, 1.0]
        assert pooled.levels("E") == 2
        assert pooled.env_column == "E"

    def test_errors(self):
        t = DataTable({"a": [1.0, 2.0]})
        with pytest.raises(DataError, match="two or more"):
            pool_environments([t], "E")
        with pytest.raises(DataError, match="two or more"):
            pool_environments([], "E")
        with pytest.raises(DataError, match="already present"):
            pool_environments([t, t], "a")
        with pytest.raises(DataError, match="schema mismatch"):
            pool_environments([t, DataTable({"b": [1.0]})], "E")

    # ragged environments: 1 row, none, 3 rows, and enough rows that the
    # moment sample keeps every third row
    SIZES = (1, 0, 3, 2 * SAMPLE_ROWS + 5)

    def pooled_and_concatenated(self):
        """The pool of tables of ``SIZES`` rows, and the same rows built as
        one table with an environment column."""
        rng = np.random.default_rng(29)
        tables = [DataTable({"a": rng.normal(size=n) + k,
                             "d": rng.integers(0, 3, n).astype(float),
                             "b": rng.normal(size=n) * (k + 1)},
                            kinds={"d": 3})
                  for k, n in enumerate(self.SIZES)]
        env = np.repeat(np.arange(len(tables), dtype=float), self.SIZES)
        whole = DataTable(
            {**{n: np.concatenate([t.column(n) for t in tables])
                for n in ("a", "d", "b")}, "E": env},
            kinds={"d": 3, "E": len(tables)}, env_column="E")
        return pool_environments(tables, "E"), whole

    @staticmethod
    def assert_same_moments(got, want):
        for field, x, y in zip(data.Moments._fields, got, want):
            assert (x.dtype, x.shape, x.tobytes()) == \
                (y.dtype, y.shape, y.tobytes()), field

    def test_moments_equal_the_concatenated_table_bit_for_bit(self):
        pooled, whole = self.pooled_and_concatenated()
        mom = pooled.moments()
        self.assert_same_moments(mom, whole.moments())
        # the empty table gives no group
        assert mom.counts.tolist() == [1, 3, 2 * SAMPLE_ROWS + 5]
        assert mom.sample_counts.tolist() == \
            [1, 3, math.ceil((2 * SAMPLE_ROWS + 5) / 3)]
        for got, want in zip(pooled.correlations(), whole.correlations()):
            assert got.tobytes() == want.tobytes()

    def test_rows_equal_the_concatenated_table(self):
        pooled, whole = self.pooled_and_concatenated()
        for name in whole.names:
            np.testing.assert_array_equal(pooled.column(name),
                                          whole.column(name))
        assert pooled.column("E") is pooled.column("E")  # built once
        index = np.array([4, 0, 3, 9, 4])
        taken, want = pooled.take(index), whole.take(index)
        for name in whole.names:
            np.testing.assert_array_equal(taken.column(name),
                                          want.column(name))
        self.assert_same_moments(taken.moments(), want.moments())
        np.testing.assert_array_equal(pooled.matrix(pooled.names),
                                      whole.matrix(whole.names))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_split_equals_the_split_of_the_concatenated_table(self, seed):
        pooled, whole = self.pooled_and_concatenated()
        for got, want in zip(split_train_validation(pooled, seed),
                             split_train_validation(whole, seed)):
            assert got.n_rows == want.n_rows
            self.assert_same_moments(got.moments(), want.moments())
            for name in whole.names:
                np.testing.assert_array_equal(got.column(name),
                                              want.column(name))

    def test_embedding_equals_the_concatenated_table_bit_for_bit(
            self, monkeypatch):
        # the design is filled segment by segment, in row order, so its
        # scatter and correlations are those of the concatenated table;
        # no pooled column is built, also by a degenerate-Gaussian test
        pooled, whole = self.pooled_and_concatenated()
        built = []
        pooled_column = data._pooled_column
        monkeypatch.setattr(data, "_pooled_column", lambda tables, name, env:
                            built.append(name) or
                            pooled_column(tables, name, env))
        design, index = data.embed(pooled)
        want_design, want_index = data.embed(whole)
        assert (design.shape, design.tobytes()) == \
            (want_design.shape, want_design.tobytes())
        assert {n: i.tolist() for n, i in index.items()} == \
            {n: i.tolist() for n, i in want_index.items()}
        got, want = pooled.embedding(), whole.embedding()
        assert got.correlation.tobytes() == want.correlation.tobytes()
        assert degenerate_gaussian_test(pooled, "a", "b", ["d"]) == \
            degenerate_gaussian_test(whole, "a", "b", ["d"])
        assert built == [] and pooled._columns == {}

    def test_moments_and_split_build_no_pooled_column(self, monkeypatch):
        pooled, _ = self.pooled_and_concatenated()
        built = []
        pooled_column = data._pooled_column
        monkeypatch.setattr(data, "_pooled_column", lambda tables, name, env:
                            built.append(name) or
                            pooled_column(tables, name, env))
        pooled.moments()
        train, val = split_train_validation(pooled, 0)
        train.moments()
        val.moments()
        assert built == []
        val.column("a")
        val.column("a")
        assert built == ["a"]


def _load_text(tmp_path, text, schema='{"columns": {}}'):
    csv_path = tmp_path / "t.csv"
    with open(csv_path, "w", newline="") as fh:
        fh.write(text)
    schema_path = tmp_path / "t.schema.json"
    schema_path.write_text(schema)
    return load_csv(str(csv_path), str(schema_path))


# (file text, columns read or the error[, schema]) for each case; every
# verdict and message is the one the cell-by-cell csv.reader + float()
# loader gave, except where a comment says otherwise
VERDICTS = {
    "lf": ("a,b\n1,2\n3,4\n", {"a": [1.0, 3.0], "b": [2.0, 4.0]}),
    "crlf": ("a,b\r\n1,2\r\n3,4\r\n", {"a": [1.0, 3.0], "b": [2.0, 4.0]}),
    "cr": ("a,b\r1,2\r3,4\r", {"a": [1.0, 3.0], "b": [2.0, 4.0]}),
    "no final line end": ("a,b\n1,2", {"a": [1.0], "b": [2.0]}),
    "quoted number": ('a,b\n"1.5",2\n', {"a": [1.5], "b": [2.0]}),
    "spaces around numbers": ("a,b\n 1.5 ,\t2 \n", {"a": [1.5], "b": [2.0]}),
    # before: read as numbers, so a search scored candidates on them
    "inf": ("a,b\ninf,-Infinity\n", "non-finite value inf in column 'a', "
            "row 2"),
    "inf after a nan": ("a,b\n1,-inf\nnan,2\n",
                        "non-finite value -inf in column 'b', row 2"),
    "signs and exponents": ("a,b\n+1,.5\n5.,1e5\n",
                            {"a": [1.0, 5.0], "b": [0.5, 1e5]}),
    "quoted header name": ('"x,y",b\n1,2\n', {"x,y": [1.0], "b": [2.0]}),
    # the body starts after the header record's two physical lines
    "header name with a line break": ('"a\nb",c\n1,2\n',
                                      {"a\nb": [1.0], "c": [2.0]}),
    "header name with a line break, crlf": ('"a\r\nb",c\r\n1,2\r\n',
                                            {"a\r\nb": [1.0], "c": [2.0]}),
    "header name with a line break, cr": ('"a\rb",c\r1,2\r',
                                          {"a\rb": [1.0], "c": [2.0]}),
    "bad cell after a two-line header": ('"a\nb",c\n1,2\n3,x\n',
                                         "bad value 'x' in column 'c', "
                                         "row 3"),
    "header only": ("a,b\n", {"a": [], "b": []}),
    "header only, no line end": ("a,b", {"a": [], "b": []}),
    "empty file": ("", "empty CSV"),
    "blank cell": ("a,b\n1,2\n3,\n", "missing value in column 'b', row 3"),
    "blank first cell": ("a,b\n,4\n", "missing value in column 'a', row 2"),
    "whitespace cell": ("a\n1\n  \n", "missing value in column 'a', row 3"),
    "nan cell": ("a,b\n1,2\n3,nan\n", "missing value in column 'b', row 3"),
    "signed NaN cell": ("a,b\n-NaN,2\n", "missing value in column 'a', row 2"),
    "short row": ("a,b\n1,2\n1\n", "row 3 has 1 fields, expected 2"),
    "long row": ("a,b\n1,2,3\n", "row 2 has 3 fields, expected 2"),
    "blank line in body": ("a,b\n1,2\n\n3,4\n",
                           "row 3 has 0 fields, expected 2"),
    "trailing blank line": ("a,b\n1,2\n\n",
                            "row 3 has 0 fields, expected 2"),
    "trailing blank line, crlf": ("a,b\r\n1,2\r\n\r\n",
                                  "row 3 has 0 fields, expected 2"),
    "whitespace line": ("a,b\n1,2\n  \n", "row 3 has 1 fields, expected 2"),
    "nan before a blank line": ("a,b\n1,nan\n\n",
                                "missing value in column 'b', row 2"),
    "blank line before a nan": ("a,b\n1,2\n\n1,nan\n",
                                "row 3 has 0 fields, expected 2"),
    # before: "row 2 has 2 fields, expected 0", and on blank lines only,
    # "a quoted cell spans lines"
    "empty header": ("\n1,2\n", "row 1, the header, is blank: it names no "
                     "columns"),
    "blank lines only": ("\n\n\n", "row 1, the header, is blank: it names "
                         "no columns"),
    # before: a ValueError from float() that named neither row nor column
    "hash cell": ("a,b\n1,#2\n", "bad value '#2' in column 'b', row 2"),
    "text cell": ("a,b\n1,2\n1,abc\n", "bad value 'abc' in column 'b', row 3"),
    # before: accepted as 1000.0; numpy's reader has no digit separators
    "digit separator": ("a,b\n1_000,2\n",
                        "bad value '1_000' in column 'a', row 2"),
    # before: "a,a" read as one column of twice the rows
    "duplicate header name": ("a,a\n1,2\n", "duplicate column 'a' in header"),
    # before: numpy's "zero-size array to reduction operation minimum
    # which has no identity" from the discrete range check
    "header only, discrete column": ("a,k\n", {"a": [], "k": []},
                                     '{"columns": {"k": 2}}'),
    # schemas of the wrong shape; before: an AttributeError, TypeErrors, a
    # ValueError from int() that named no column, and 2.7 read as 2 levels
    "schema not an object": ("a\n1\n", "schema must be a JSON object, got "
                             "[1, 2]", "[1,2]"),
    "columns not an object": ("a\n1\n", 'schema "columns" must be an '
                              "object from column names to kinds, got [1]",
                              '{"columns": [1]}'),
    "env column not a name": ("a\n1\n", 'schema "env_column" must be a '
                              "column name, got 1",
                              '{"columns": {"a": 2}, "env_column": 1}'),
    "kind a list": ("a\n1\n", "column 'a': kind must be 'continuous' or an "
                    "integer level count >= 2, got [0, 1]",
                    '{"columns": {"a": [0, 1]}}'),
    "kind a word": ("a\n1\n", "column 'a': kind must be 'continuous' or an "
                    "integer level count >= 2, got 'discrete'",
                    '{"columns": {"a": "discrete"}}'),
    "kind a fraction": ("a\n1\n", "column 'a': kind must be 'continuous' or "
                        "an integer level count >= 2, got 2.7",
                        '{"columns": {"a": 2.7}}'),
    "kind one level": ("a\n0\n", "column 'a': kind must be 'continuous' or "
                       "an integer level count >= 2, got 1",
                       '{"columns": {"a": 1}}'),
    "kind a boolean": ("a\n1\n", "column 'a': kind must be 'continuous' or "
                       "an integer level count >= 2, got True",
                       '{"columns": {"a": true}}'),
    # before: the kind was dropped and A loaded as continuous
    "kind of an unknown column": ("A\n1\n", "schema names columns not in "
                                  "the CSV header: 'a'",
                                  '{"columns": {"a": 2}}'),
}


def _crlf_across_blocks(text: bytes, block: int) -> bytes:
    """``text``, lines ended by CRLF, with data rows padded by leading
    spaces so that a CRLF pair straddles every multiple of ``block``."""
    header, *rows = text.split(b"\r\n")[:-1]
    out = bytearray(header + b"\r\n")
    longest = max(map(len, rows)) + 2
    assert block > 3 * longest
    for row in rows:
        # spaces that put this row's CR on the last byte of a block
        pad = (len(out) // block + 1) * block - 1 - len(out) - len(row)
        if pad < 2 * longest:
            assert pad >= 0
            row = b" " * pad + row
        out += row + b"\r\n"
    return bytes(out)


@pytest.fixture(scope="module")
def large_csv(tmp_path_factory):
    """A 50,000-row benchmark table and the text ``save_csv`` wrote for it,
    padded so that a CRLF pair straddles every block boundary of the line
    count: about 2.8 MB."""
    table = simulate_benchmark(4.0, 50000, 1)
    csv_path = tmp_path_factory.mktemp("large") / "t.csv"
    save_csv(table, str(csv_path))
    return table, _crlf_across_blocks(csv_path.read_bytes(),
                                      data.COUNT_BLOCK_BYTES)


class TestCSV:
    def test_round_trip(self, tmp_path):
        t = DataTable({"x": [1.25, -0.5], "k": [1, 0]}, kinds={"k": 2},
                      env_column="k")
        csv_path = tmp_path / "t.csv"
        schema_path = tmp_path / "t.schema.json"
        save_csv(t, str(csv_path))
        schema_path.write_text(
            '{"columns": {"x": "continuous", "k": 2}, "env_column": "k"}')
        got = load_csv(str(csv_path), str(schema_path))
        assert got.names == t.names
        assert got.env_column == "k"
        assert got.column("x") == pytest.approx(t.column("x"))

    def test_missing_cell_rejected(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        schema_path = tmp_path / "t.schema.json"
        csv_path.write_text("a,b\n1.0,\n")
        schema_path.write_text('{"columns": {}}')
        with pytest.raises(DataError):
            load_csv(str(csv_path), str(schema_path))

    def test_ragged_row_rejected(self, tmp_path):
        csv_path = tmp_path / "t.csv"
        schema_path = tmp_path / "t.schema.json"
        csv_path.write_text("a,b\n1.0\n")
        schema_path.write_text('{"columns": {}}')
        with pytest.raises(DataError):
            load_csv(str(csv_path), str(schema_path))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("case", sorted(VERDICTS))
    def test_verdict(self, tmp_path, case):
        text, expected, *schema = VERDICTS[case]
        if isinstance(expected, str):
            with pytest.raises(DataError) as exc:
                _load_text(tmp_path, text, *schema)
            assert str(exc.value) == expected
        else:
            table = _load_text(tmp_path, text, *schema)
            assert table.names == tuple(expected)
            assert table.n_rows == len(next(iter(expected.values())))
            for name, values in expected.items():
                assert table.column(name).tolist() == values

    def test_save_bytes(self, tmp_path):
        t = DataTable({"x": [1.25, -0.5, 1e-12, 123456789012.0, 2 / 3],
                       "a,b": [0.1, 1e20, -3.0, 0.0, -0.0],
                       "k": [1, 0, 2, 2, 0]}, kinds={"k": 3})
        save_csv(t, str(tmp_path / "t.csv"))
        assert (tmp_path / "t.csv").read_bytes() == (
            b'x,"a,b",k\r\n1.25,0.1,1\r\n-0.5,1e+20,0\r\n1e-12,-3,2\r\n'
            b'1.23456789e+11,0,2\r\n0.6666666667,-0,0\r\n')

    @pytest.mark.parametrize("n_rows", [0, 1, SAVE_BLOCK_ROWS + 3])
    def test_save_equals_row_by_row_format(self, tmp_path, n_rows):
        rng = np.random.default_rng(n_rows)
        t = DataTable({"x": rng.normal(size=n_rows) * 1e3,
                       'say "a,b"': rng.standard_t(2, size=n_rows),
                       "k": rng.integers(0, 3, size=n_rows)}, kinds={"k": 3})
        save_csv(t, str(tmp_path / "t.csv"))
        with open(tmp_path / "row_by_row.csv", "w", newline="") as fh:
            csv.writer(fh).writerow(t.names)
            for row in t.matrix(t.names).tolist():
                fh.write("%.10g,%.10g,%d\r\n" % tuple(row))
        expected = (tmp_path / "row_by_row.csv").read_bytes()
        assert expected.startswith(b'x,"say ""a,b""",k\r\n')
        assert expected.count(b"\r\n") == n_rows + 1
        assert (tmp_path / "t.csv").read_bytes() == expected

    def test_load_equals_float_per_cell_bit_for_bit(self, tmp_path):
        csv_path = tmp_path / "bench.csv"
        save_csv(simulate_benchmark(4.0, 50000, 1), str(csv_path))
        (tmp_path / "s.json").write_text('{"columns": {}}')
        table = load_csv(str(csv_path), str(tmp_path / "s.json"))
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        expected = np.array([[float(c) for c in row] for row in rows[1:]])
        assert table.names == tuple(rows[0])
        assert expected.shape == (50000, 4)
        assert np.array_equal(table.matrix(table.names), expected)

    @pytest.mark.parametrize("line_end", [b"\r\n", b"\n", b"\r"])
    def test_load_equals_float_of_saved_cells_bit_for_bit(
            self, tmp_path, large_csv, line_end):
        table, text = large_csv
        text = text.replace(b"\r\n", line_end)
        assert len(text) > 2 << 20
        if line_end == b"\r\n":
            block = data.COUNT_BLOCK_BYTES
            assert all(text[k - 1:k + 1] == b"\r\n"
                       for k in range(block, len(text), block))
        (tmp_path / "t.csv").write_bytes(text)
        (tmp_path / "s.json").write_text('{"columns": {}}')
        got = load_csv(str(tmp_path / "t.csv"), str(tmp_path / "s.json"))
        assert got.names == table.names
        for name in table.names:
            expected = [float("%.10g" % x) for x in table.column(name)]
            assert got.column(name).tobytes() == \
                np.array(expected).tobytes()

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_line_count_across_blocks(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(data, "COUNT_BLOCK_BYTES", block)
        rng = np.random.default_rng(block)
        for size in [0, 1, 2, 5, 40, 200]:
            text = rng.choice(list(b"a\r\n"), size=size).astype(
                np.uint8).tobytes()
            for tail in (b"", b"\r", b"\n", b"\r\n", b"a"):
                (tmp_path / "t.csv").write_bytes(text + tail)
                assert data._count_lines(str(tmp_path / "t.csv")) == \
                    len((text + tail).decode().splitlines())

    @pytest.mark.parametrize("suffix", COMPRESSED_SUFFIXES)
    def test_compressed_file_rejected(self, tmp_path, suffix):
        # np.loadtxt would decompress it, but the header and the line count
        # read its raw bytes
        csv_path = tmp_path / f"t.csv{suffix}"
        csv_path.write_bytes(gzip.compress(b"a,b\n1,2\n"))
        (tmp_path / "s.json").write_text('{"columns": {}}')
        with pytest.raises(DataError) as exc:
            load_csv(str(csv_path), str(tmp_path / "s.json"))
        assert str(exc.value) == f"cannot read compressed file " \
            f"{str(csv_path)!r}; decompress it first"

    def test_compressed_suffixes_are_the_ones_numpy_opens(self):
        openers = np.lib._datasource._file_openers
        assert set(openers.keys()) - {None} == set(COMPRESSED_SUFFIXES)

    def test_load_peak_memory_within_two_and_a_half_file_sizes(
            self, tmp_path, large_csv):
        # the rows parsed, their column-major copy and fixed-size buffers;
        # no copy of the file's text
        (tmp_path / "t.csv").write_bytes(large_csv[1])
        (tmp_path / "s.json").write_text('{"columns": {}}')
        size = (tmp_path / "t.csv").stat().st_size
        assert size >= 2_000_000
        tracemalloc.start()
        try:
            load_csv(str(tmp_path / "t.csv"), str(tmp_path / "s.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * size

    def test_import_loads_nothing_beyond_numpy_csv_json(self):
        src = os.path.dirname(os.path.dirname(stablespec.__file__))
        code = ("import sys, numpy, csv, json; before = set(sys.modules); "
                "import stablespec.data; "
                "print(sorted(set(sys.modules) - before))")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == \
            "['__future__', 'stablespec', 'stablespec.data']"
