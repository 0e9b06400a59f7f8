"""Tabular dataset container and CSV ingestion.

Columns are continuous or discrete with a known level count; an optional
column marks the environment a row came from. Data must be complete:
missing values are rejected at load time.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Iterable, Mapping

import numpy as np


class DataError(ValueError):
    """Malformed table, schema mismatch or missing values."""


CONTINUOUS = "continuous"
DISCRETE = "discrete"


class DataTable:
    """Immutable column-major table with per-column kinds.

    ``kinds[name]`` is either the string "continuous" or an integer level
    count for a discrete column whose values lie in [0, levels).

    Columns are stored as read-only views of the arrays passed in, without a
    copy, so callers must not mutate those arrays afterwards: derived
    statistics such as ``correlation()`` are cached on the table.
    """

    def __init__(self, columns: Mapping[str, np.ndarray],
                 kinds: Mapping[str, object] | None = None,
                 env_column: str | None = None):
        self.names = tuple(columns)
        if not self.names:
            raise DataError("table needs at least one column")
        arrays = {}
        n = None
        for name in self.names:
            arr = np.asarray(columns[name], dtype=float)
            if arr.ndim != 1:
                raise DataError(f"column {name!r} is not one-dimensional")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DataError("columns differ in length")
            if np.isnan(arr).any():
                raise DataError(f"column {name!r} has missing values")
            arr = arr.view()
            arr.flags.writeable = False
            arrays[name] = arr
        self.n_rows = int(n)
        kinds = dict(kinds or {})
        self.kinds: dict[str, object] = {}
        for name in self.names:
            kind = kinds.get(name, CONTINUOUS)
            if kind == CONTINUOUS:
                self.kinds[name] = CONTINUOUS
            else:
                levels = int(kind)
                if levels < 2:
                    raise DataError(f"discrete column {name!r} needs >= 2 levels")
                col = arrays[name]
                if not np.all(col == np.round(col)) or col.min() < 0 \
                        or col.max() >= levels:
                    raise DataError(
                        f"discrete column {name!r} has values outside [0, {levels})")
                self.kinds[name] = levels
        if env_column is not None:
            if env_column not in self.names:
                raise DataError(f"environment column {env_column!r} not present")
            if self.kinds[env_column] == CONTINUOUS:
                raise DataError("environment column must be discrete")
        self.env_column = env_column
        self._columns = arrays
        self.index = {name: i for i, name in enumerate(self.names)}
        self._corr: np.ndarray | None = None

    def column(self, name: str) -> np.ndarray:
        if name not in self._columns:
            raise DataError(f"no column {name!r}")
        return self._columns[name]

    def is_discrete(self, name: str) -> bool:
        return self.kinds[name] != CONTINUOUS

    def levels(self, name: str) -> int:
        kind = self.kinds[name]
        if kind == CONTINUOUS:
            raise DataError(f"column {name!r} is continuous")
        return int(kind)

    def matrix(self, names: Iterable[str]) -> np.ndarray:
        return np.column_stack([self.column(n) for n in names])

    def correlation(self) -> np.ndarray:
        """Pearson correlation matrix over all columns, rows and columns in
        ``names`` order (see ``index``), computed once per table.

        Discrete columns enter as their numeric codes. The row and column of
        a constant column are NaN.
        """
        if self._corr is None:
            if self.n_rows < 2:
                raise DataError("correlation needs at least two rows")
            x = self.matrix(self.names)
            x -= x.mean(axis=0)
            cov = (x.T @ x) * (1.0 / (self.n_rows - 1))
            sd = np.sqrt(np.diag(cov))
            with np.errstate(divide="ignore", invalid="ignore"):
                corr = cov / sd[:, None] / sd[None, :]
            np.clip(corr, -1.0, 1.0, out=corr)
            corr.flags.writeable = False
            self._corr = corr
        return self._corr

    def take(self, index: np.ndarray) -> "DataTable":
        return DataTable({n: self._columns[n][index] for n in self.names},
                         self.kinds, self.env_column)

    def drop(self, name: str) -> "DataTable":
        if name not in self.names:
            raise DataError(f"no column {name!r}")
        env = self.env_column if self.env_column != name else None
        return DataTable({n: self._columns[n] for n in self.names if n != name},
                         {k: v for k, v in self.kinds.items() if k != name},
                         env)


def concat_tables(tables: Iterable[DataTable]) -> DataTable:
    tables = list(tables)
    if not tables:
        raise DataError("nothing to concatenate")
    first = tables[0]
    for t in tables[1:]:
        if t.names != first.names or t.kinds != first.kinds:
            raise DataError("schema mismatch between tables")
    cols = {n: np.concatenate([t.column(n) for t in tables])
            for n in first.names}
    return DataTable(cols, first.kinds, first.env_column)


def pool_environments(tables: Iterable[DataTable],
                      env_name: str) -> DataTable:
    """Concatenate per-environment tables and append a discrete column
    ``env_name`` holding each row's table index; it becomes the pooled
    table's environment column."""
    tables = list(tables)
    if len(tables) < 2:
        raise DataError("environment indicator would be constant; "
                        "provide two or more datasets")
    for t in tables:
        if env_name in t.names:
            raise DataError(f"column {env_name!r} already present")
    pooled = concat_tables(tables)
    cols = {n: pooled.column(n) for n in pooled.names}
    cols[env_name] = np.concatenate([np.full(t.n_rows, i, dtype=float)
                                     for i, t in enumerate(tables)])
    kinds = dict(pooled.kinds)
    kinds[env_name] = len(tables)
    return DataTable(cols, kinds, env_name)


def load_csv(csv_path: str, schema_path: str) -> DataTable:
    """Read a header CSV plus a sidecar JSON schema.

    Schema format: {"columns": {"name": "continuous" | <levels>},
    "env_column": optional name}. Blank cells are missing values and are
    rejected.
    """
    with open(schema_path) as fh:
        schema = json.load(fh)
    kinds = schema.get("columns", {})
    env = schema.get("env_column")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV") from None
        rows = list(reader)
    cols: dict[str, list[float]] = {name: [] for name in header}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"row {i + 2} has {len(row)} fields, "
                            f"expected {len(header)}")
        for name, cell in zip(header, row):
            cell = cell.strip()
            if not cell:
                raise DataError(f"missing value in column {name!r}, row {i + 2}")
            value = float(cell)
            if math.isnan(value):
                raise DataError(f"missing value in column {name!r}, row {i + 2}")
            cols[name].append(value)
    return DataTable({n: np.array(v) for n, v in cols.items()}, kinds, env)


def save_csv(table: DataTable, csv_path: str, float_format: str = "%.10g"):
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.names)
        mat = table.matrix(table.names)
        for row in mat:
            writer.writerow([
                str(int(v)) if table.is_discrete(n) else float_format % v
                for n, v in zip(table.names, row)])
