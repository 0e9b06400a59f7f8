import numpy as np
import pytest

from stablespec.data import (
    DataError, DataTable, concat_tables, load_csv, pool_environments,
    save_csv,
)


class TestDataTable:
    def test_basic_invariants(self):
        t = DataTable({"a": [1.0, 2.0], "b": [0, 1]}, kinds={"b": 2})
        assert t.n_rows == 2
        assert t.names == ("a", "b")
        assert not t.is_discrete("a")
        assert t.levels("b") == 2

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            DataTable({"a": [1.0], "b": [1.0, 2.0]})

    def test_missing_values_rejected(self):
        with pytest.raises(DataError):
            DataTable({"a": [1.0, np.nan]})

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

    def test_take_and_drop(self):
        t = DataTable({"a": [1.0, 2.0, 3.0], "b": [0, 1, 0]}, kinds={"b": 2})
        assert t.take(np.array([2, 0])).column("a").tolist() == [3.0, 1.0]
        assert t.drop("b").names == ("a",)

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
