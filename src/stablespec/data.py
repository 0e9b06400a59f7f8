"""Tabular dataset container and CSV ingestion.

Columns are continuous or discrete with a known level count; an optional
column marks the environment a row came from. Data must be complete:
missing values are rejected at load time.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import warnings
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np


class DataError(ValueError):
    """Malformed table, schema mismatch or missing values."""


CONTINUOUS = "continuous"
DISCRETE = "discrete"


# a column whose standard deviation within a group is at most this fraction
# of its mean there is constant up to rounding (see ``correlation``)
CONSTANT_RTOL = 1e-12

# a column whose share of variance left unexplained by the columns before it
# is at most this is a linear combination of them up to rounding (see
# ``cholesky``)
MIN_UNEXPLAINED = 1e-12

# rows per environment kept in ``Moments.sample``: enough to estimate a
# kurtosis to a few percent for Gaussian data, few enough that a statistic
# over them costs microseconds whatever the table's row count
SAMPLE_ROWS = 2048


class Moments(NamedTuple):
    """First and second moments of a table, per environment and pooled.

    Group e holds the rows of one environment value, in ascending order of
    value (see ``DataTable.groups``): a table without an environment column
    is one group, and a pooled table has one group per input table with
    rows. ``grams[e]`` and ``scatter`` are centred at the group mean and at
    the pooled mean. ``sample`` holds evenly spaced rows of each group, at
    most ``SAMPLE_ROWS`` per group, centred at their group's mean, group
    after group; ``sample_counts[e]`` of them belong to group e.
    ``moments()`` computes them from column-major copies of the groups;
    ``sample`` is a row-major (r, k) array all the same.
    """

    counts: np.ndarray          # (m,) rows per group
    means: np.ndarray           # (m, k) column means per group
    grams: np.ndarray           # (m, k, k) within-group centred Gram matrices
    mean: np.ndarray            # (k,) pooled column means
    scatter: np.ndarray         # (k, k) pooled centred Gram matrix
    sample: np.ndarray          # (r, k) group-centred rows, group after group
    sample_counts: np.ndarray   # (m,) rows of ``sample`` per group


def correlation(cov: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Pearson correlations of one covariance matrix (k, k), or of a stack
    of them (m, k, k), with column means ``mean`` ((k,) or (m, k)), clipped
    to [-1, 1]. The row and column of a constant column, one whose standard
    deviation is at most ``CONSTANT_RTOL`` times the absolute value of its
    mean, are NaN."""
    sd = np.sqrt(np.diagonal(cov, axis1=-2, axis2=-1))
    sd = np.where(sd <= CONSTANT_RTOL * np.abs(mean), np.nan, sd)
    corr = cov / sd[..., :, None] / sd[..., None, :]
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr


def cholesky(a: np.ndarray, tol: float = 0.0) -> np.ndarray | None:
    """Lower Cholesky factor of one symmetric matrix (k, k), or of each of a
    stack of them (m, k, k); None if any of them holds a NaN, is not
    positive definite, or has a pivot at most ``tol``. On a correlation
    matrix a squared pivot is the share of its column's variance that the
    columns before it leave unexplained: ``tol = sqrt(MIN_UNEXPLAINED)``
    rejects a column that is a linear combination of those."""
    try:
        chol = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return None
    # a NaN in the lower triangle reaches a pivot and fails the comparison;
    # the strided view reads the pivots cheaper than np.diagonal
    k = a.shape[-1]
    if k and not chol.reshape(-1, k * k)[:, ::k + 1].min() > tol:
        return None
    return chol


class Embedding(NamedTuple):
    """Pearson correlations of a table's one-hot embedding (see ``embed``).

    ``index[name]`` lists the positions of a column's embedded columns, in
    ``names`` order: one for a continuous column, levels - 1 for a
    discrete one. The row and column of an embedded column that is constant
    (up to rounding, see ``correlation``) are NaN: a constant continuous
    column, or a level that no row, or every row, takes.
    """

    index: dict[str, np.ndarray]
    correlation: np.ndarray     # (w, w)


def embed(table: "DataTable") -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """All columns of ``table`` as one n x w design, side by side in
    ``names`` order: a continuous column as itself, a discrete column
    one-hot encoded with its last level dropped. Also returns, per column,
    the positions of its columns in the design. A pool fills the design's
    rows segment by segment, each from its input table, and its
    environment column from the table's index, so it builds no pooled
    column."""
    index, start = {}, 0
    for name in table.names:
        index[name] = np.arange(start, start + table.width(name))
        start += table.width(name)
    design = np.zeros((table.n_rows, start))
    end = 0
    for e, part in enumerate(table._segments or (table,)):
        block = design[end:end + part.n_rows]
        end += part.n_rows
        rows = np.arange(part.n_rows)
        for name, pos in index.items():
            if name in part.index:
                col = part.column(name)
            else:  # a pool's environment column
                col = np.full(part.n_rows, float(e))
            if table.is_discrete(name):
                codes = col.astype(int)
                keep = codes < len(pos)
                block[rows[keep], pos[0] + codes[keep]] = 1.0
            else:
                block[:, pos[0]] = col
    return design, index


class Group(NamedTuple):
    """One environment group of a table (see ``DataTable.groups``)."""

    value: float | None         # environment value, a pool's table index;
                                # None without an environment column
    part: "DataTable"           # the table that holds the group's rows
    rows: slice | np.ndarray    # the group's rows in ``part``, ascending
    size: int                   # rows in the group


class DataTable:
    """Immutable column-major table with per-column kinds.

    ``kinds[name]`` is either the string "continuous" or an integer level
    count for a discrete column whose values lie in [0, levels).

    Columns are stored as read-only views of the arrays passed in, without a
    copy, so callers must not mutate those arrays afterwards. A pooled table
    (``pool_environments``) stores its input tables instead, as segments:
    its environment groups are those tables, and a pooled column is built
    from them once a caller asks for rows (see ``column``). Derived
    statistics are computed on first use, each in one pass over the rows,
    and cached read-only on the table: ``moments()`` (per-environment and
    pooled means and centred Gram matrices), ``correlations()`` and
    ``correlation()`` (Pearson correlations of the numeric codes, which
    Fisher-z and the environment test read) and ``embedding()``
    (correlations of the one-hot embedding, which the degenerate-Gaussian
    test reads). Both correlation caches come from ``correlation``, so on
    a continuous table they agree up to rounding.
    """

    def __init__(self, columns: Mapping[str, np.ndarray],
                 kinds: Mapping[str, object] | None = None,
                 env_column: str | None = None):
        names = tuple(columns)
        if not names:
            raise DataError("table needs at least one column")
        arrays = {}
        n = None
        for name in names:
            arr = np.asarray(columns[name], dtype=float)
            if arr.ndim != 1:
                raise DataError(f"column {name!r} is not one-dimensional")
            if n is None:
                n = arr.shape[0]
            elif arr.shape[0] != n:
                raise DataError("columns differ in length")
            if not np.isfinite(arr).all():
                what = "missing" if np.isnan(arr).any() else "non-finite"
                raise DataError(f"column {name!r} has {what} values")
            arr = arr.view()
            arr.flags.writeable = False
            arrays[name] = arr
        kinds = dict(kinds or {})
        checked: dict[str, object] = {}
        for name in names:
            kind = kinds.get(name, CONTINUOUS)
            if kind == CONTINUOUS:
                checked[name] = CONTINUOUS
            else:
                if isinstance(kind, bool) or \
                        not isinstance(kind, (int, np.integer)) or kind < 2:
                    raise DataError(
                        f"column {name!r}: kind must be {CONTINUOUS!r} or an "
                        f"integer level count >= 2, got {kind!r}")
                levels = int(kind)
                col = arrays[name]
                if np.any((col != np.round(col)) | (col < 0)
                          | (col >= levels)):
                    raise DataError(
                        f"discrete column {name!r} has values outside [0, {levels})")
                checked[name] = levels
        if env_column is not None:
            if env_column not in names:
                raise DataError(f"environment column {env_column!r} not present")
            if checked[env_column] == CONTINUOUS:
                raise DataError("environment column must be discrete")
        self._setup(arrays, checked, env_column, int(n))

    def _setup(self, columns: dict[str, np.ndarray], kinds: dict[str, object],
               env_column: str | None, n_rows: int,
               segments: tuple["DataTable", ...] = ()):
        """Set the fields of a table whose columns are checked: ``columns``
        holds an array per name, or, for a pool of ``segments``, starts
        empty and caches the pooled columns as they are built."""
        self.names = tuple(kinds)
        self.kinds = kinds
        self.env_column = env_column
        self.n_rows = n_rows
        self._columns = columns
        self._segments = segments
        self.index = {name: i for i, name in enumerate(self.names)}
        self._moments: Moments | None = None
        self._corrs: np.ndarray | None = None
        self._corr: np.ndarray | None = None  # one view of _corrs[0]
        self._embedding: Embedding | None = None

    @classmethod
    def _pool(cls, segments: list["DataTable"],
              env_name: str) -> "DataTable":
        """The pool of ``segments``, tables of one schema, with the
        environment column ``env_name`` (see ``pool_environments``)."""
        kinds = dict(segments[0].kinds)
        kinds[env_name] = len(segments)
        table = cls.__new__(cls)
        table._setup({}, kinds, env_name, sum(t.n_rows for t in segments),
                     tuple(segments))
        return table

    def column(self, name: str) -> np.ndarray:
        """Column ``name`` as a read-only array; a pool builds it on first
        use (see ``_pooled_column``) and keeps it."""
        col = self._columns.get(name)
        if col is None:
            if not self._segments or name not in self.index:
                raise DataError(f"no column {name!r}")
            col = self._columns[name] = _pooled_column(
                self._segments, name, self.env_column)
        return col

    def positions(self, names: Iterable[str]) -> list[int]:
        """The column position of each of ``names``, in order."""
        index = self.index
        try:
            return [index[name] for name in names]
        except KeyError as exc:
            raise DataError(f"no column {exc.args[0]!r}") from None

    def is_discrete(self, name: str) -> bool:
        if name not in self.kinds:
            raise DataError(f"no column {name!r}")
        return self.kinds[name] != CONTINUOUS

    def levels(self, name: str) -> int:
        if not self.is_discrete(name):
            raise DataError(f"column {name!r} is continuous")
        return int(self.kinds[name])

    def width(self, name: str) -> int:
        """Columns ``name`` takes in ``embed``: levels - 1 if discrete,
        else 1."""
        return self.levels(name) - 1 if self.is_discrete(name) else 1

    def matrix(self, names: Iterable[str]) -> np.ndarray:
        return np.column_stack([self.column(n) for n in names])

    def moments(self) -> Moments:
        """Per-environment and pooled moments over all columns, in ``names``
        order, from one pass over the rows, computed once per table.

        Each environment group of ``groups()`` is copied, column-major,
        into one (k, n_e) block g, reused from group to group, so that the
        group's means are sums along contiguous rows (numpy sums those
        pairwise), g is centred in place, and its centred Gram matrix is
        one product g g^T. A pooled table copies each group from its input
        table and fills the environment row with the group's value, so it
        builds no pooled column. At most one group's rows are copied at a
        time, so a table of n rows costs k n_e fresh floats, not k n.
        Discrete columns enter as their numeric codes. The pooled scatter
        is the sum over groups of G_e + n_e d_e d_e^T, with d_e the group
        mean minus the pooled mean. A rounded mean misses the group's true
        mean by up to an ulp of the mean, which on a column whose mean is
        far larger than its spread is a sizeable share of d_e; so d_e also
        adds the mean of the centred block, the drift that rounding left in
        it.
        """
        if self._moments is None:
            groups = self.groups()
            counts = np.array([group.size for group in groups], dtype=int)
            k = len(self.names)
            means, drift = np.empty((2, len(counts), k))
            grams = np.empty((len(counts), k, k))
            steps = [max(math.ceil(c / SAMPLE_ROWS), 1)
                     for c in counts.tolist()]
            sample_counts = np.array([-(-c // step) for c, step
                                      in zip(counts.tolist(), steps)],
                                     dtype=int)
            sample = np.empty((sample_counts.sum(), k))
            starts = np.concatenate([[0], np.cumsum(sample_counts)])
            block = np.empty((k, counts.max(initial=0)))
            for e, (value, part, rows, size) in enumerate(groups):
                g = block[:, :size]
                for row, name in zip(g, self.names):
                    if name not in part.index:  # a pool's environment column
                        row.fill(value)
                    elif isinstance(rows, slice):
                        row[:] = part.column(name)[rows]
                    else:
                        np.take(part.column(name), rows, out=row)
                g.mean(axis=1, out=means[e])
                g -= means[e][:, None]
                g.mean(axis=1, out=drift[e])
                grams[e] = g @ g.T
                sample[starts[e]:starts[e + 1]] = g[:, ::steps[e]].T
            mean = counts @ means / self.n_rows
            d = means - mean + drift
            scatter = grams.sum(axis=0) + (counts[:, None] * d).T @ d
            arrays = (counts, means, grams, mean, scatter, sample,
                      sample_counts)
            for arr in arrays:
                arr.flags.writeable = False
            self._moments = Moments(*arrays)
        return self._moments

    def correlations(self) -> np.ndarray:
        """Pearson correlation matrices over all columns, rows and columns
        in ``names`` order (see ``index``): the pooled matrix first, then
        one per environment group of ``moments()``; computed once per table.

        Discrete columns enter as their numeric codes. In each matrix, the
        row and column of a column that is constant in that group (up to
        rounding, see ``correlation``) are NaN.
        """
        if self._corrs is None:
            if self.n_rows < 2:
                raise DataError("correlation needs at least two rows")
            mom = self.moments()
            rows = np.concatenate([[self.n_rows], mom.counts])
            scale = 1.0 / np.maximum(rows - 1, 1)
            cov = np.concatenate([mom.scatter[None], mom.grams]) * \
                scale[:, None, None]
            corrs = correlation(cov, np.vstack([mom.mean, mom.means]))
            corrs.flags.writeable = False
            self._corrs = corrs
            self._corr = corrs[0]
        return self._corrs

    def correlation(self) -> np.ndarray:
        """The pooled correlation matrix, ``correlations()[0]``, as the same
        array object on every call."""
        if self._corr is None:
            self.correlations()
        return self._corr

    def embedding(self) -> Embedding:
        """Correlations of the one-hot embedding of all columns, in
        ``names`` order, from one centred scatter of ``embed(self)``;
        computed once per table. The n-row design is freed once the
        scatter is taken."""
        if self._embedding is None:
            if self.n_rows < 2:
                raise DataError("correlation needs at least two rows")
            x, index = embed(self)
            mean = x.mean(axis=0)
            x -= mean
            scatter = x.T @ x
            del x
            corr = correlation(scatter / (self.n_rows - 1), mean)
            corr.flags.writeable = False
            self._embedding = Embedding(index, corr)
        return self._embedding

    def groups(self) -> list[Group]:
        """The table's environment groups, each non-empty, in ascending
        order of environment value: the rows of each value of the
        environment column, or all rows when there is none. A group of a
        pool is one of its input tables that has rows. ``moments()`` and
        ``take_groups`` both read the groups from here."""
        if self._segments:
            return [Group(float(e), t, slice(0, t.n_rows), t.n_rows)
                    for e, t in enumerate(self._segments) if t.n_rows]
        if not self.n_rows:
            return []
        if self.env_column is None:
            return [Group(None, self, slice(0, self.n_rows), self.n_rows)]
        env = self._columns[self.env_column]
        order = None
        if np.any(env[1:] < env[:-1]):
            order = np.argsort(env, kind="stable")
            env = env[order]
        bounds = [0, *(np.flatnonzero(env[1:] != env[:-1]) + 1).tolist(),
                  self.n_rows]
        return [Group(float(env[lo]), self,
                      slice(lo, hi) if order is None else order[lo:hi],
                      hi - lo)
                for lo, hi in zip(bounds[:-1], bounds[1:])]

    def take(self, index: np.ndarray) -> "DataTable":
        return DataTable({n: self.column(n)[index] for n in self.names},
                         self.kinds, self.env_column)

    def take_groups(self, rows: Sequence[np.ndarray]) -> "DataTable":
        """The rows ``rows[e]`` of each group e of ``groups()``, given as
        positions within the group, in table order. A pool gives the pool
        of each input table's rows, so no pooled column is built."""
        groups = self.groups()
        if self._segments:
            parts = list(self._segments)
            for group, local in zip(groups, rows):
                parts[int(group.value)] = group.part.take(np.sort(local))
            return DataTable._pool(parts, self.env_column)
        positions = np.arange(self.n_rows)
        keep = np.zeros(self.n_rows, dtype=bool)
        for group, local in zip(groups, rows):
            keep[positions[group.rows][local]] = True
        return self.take(np.flatnonzero(keep))


def _check_schema(tables: list[DataTable]):
    """Raise unless ``tables`` is not empty and its tables agree in column
    names and kinds."""
    if not tables:
        raise DataError("nothing to concatenate")
    first = tables[0]
    for t in tables[1:]:
        if t.names != first.names or t.kinds != first.kinds:
            raise DataError("schema mismatch between tables")


def _pooled_column(tables: Sequence[DataTable], name: str,
                   env_name: str | None) -> np.ndarray:
    """Column ``name`` of the rows of ``tables``, one table after another,
    as one read-only array; the column ``env_name`` holds each row's table
    index. The one place where tables' columns are concatenated."""
    if name == env_name:
        col = np.repeat(np.arange(len(tables), dtype=float),
                        [t.n_rows for t in tables])
    else:
        col = np.concatenate([t.column(name) for t in tables])
    col.flags.writeable = False
    return col


def concat_tables(tables: Iterable[DataTable]) -> DataTable:
    """The rows of ``tables``, one schema, one table after another, as one
    table with the first table's environment column."""
    tables = list(tables)
    _check_schema(tables)
    first = tables[0]
    return DataTable({n: _pooled_column(tables, n, None) for n in first.names},
                     first.kinds, first.env_column)


def pool_environments(tables: Iterable[DataTable],
                      env_name: str) -> DataTable:
    """The rows of per-environment tables, one table after another, with a
    discrete column ``env_name`` appended that holds each row's table
    index; it is the pooled table's environment column.

    The pool keeps the input tables as its segments, without a copy: each
    table with rows is one environment group of ``moments()``, and
    ``take_groups`` splits the pool table by table, and ``embed`` fills
    its design segment by segment. A pooled column is built from the
    segments only when a caller asks for it by ``column`` (as ``matrix``,
    ``take`` and ``save_csv`` do), once per column."""
    tables = list(tables)
    if len(tables) < 2:
        raise DataError("environment indicator would be constant; "
                        "provide two or more datasets")
    for t in tables:
        if env_name in t.names:
            raise DataError(f"column {env_name!r} already present")
    _check_schema(tables)
    return DataTable._pool(tables, env_name)


# cell texts that read as a missing value, after stripping whitespace and
# lower-casing
_MISSING_CELLS = ("", "nan", "+nan", "-nan")

# suffixes of the files that ``np.loadtxt`` decompresses when given a path;
# the header and the line count read the raw bytes, so these are refused
COMPRESSED_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")

# bytes per block that ``_count_lines`` reads
COUNT_BLOCK_BYTES = 1 << 18

_LF, _CR = ord("\n"), ord("\r")


def _count_lines(path: str) -> int:
    """The lines of the file at ``path``: one per LF, CR or CRLF line end,
    plus one for a last line without a line end. The file is read in blocks
    of ``COUNT_BLOCK_BYTES`` into buffers reused from block to block."""
    buf = np.empty(COUNT_BLOCK_BYTES, np.uint8)
    lf = np.empty(COUNT_BLOCK_BYTES, bool)
    cr = np.empty(COUNT_BLOCK_BYTES, bool)
    lines, last = 0, _LF
    with open(path, "rb") as fh:
        while size := fh.readinto(buf):
            block, is_lf, is_cr = buf[:size], lf[:size], cr[:size]
            np.equal(block, _LF, out=is_lf)
            np.equal(block, _CR, out=is_cr)
            lines += np.count_nonzero(is_lf) + np.count_nonzero(is_cr)
            # a CRLF pair is one line end, also where a block boundary
            # splits it
            lines -= int(last == _CR and is_lf[0])
            lines -= np.count_nonzero(np.logical_and(
                is_cr[:-1], is_lf[1:], out=is_cr[:-1]))
            last = block[-1]
    return int(lines) + (last not in (_LF, _CR))


def load_csv(csv_path: str, schema_path: str) -> DataTable:
    """Read a header CSV plus a sidecar JSON schema.

    Schema format: a JSON object {"columns": {"name": "continuous" |
    <levels>}, "env_column": optional name}, where <levels> is an integer
    of at least 2. Any other shape, or a column name the CSV header lacks,
    raises DataError.

    The header row is read by ``csv.reader``; the body by one
    ``np.loadtxt`` call on the path, which skips the lines the header took
    and parses the file in chunks. What is held is the parsed rows, one
    column-major copy of them and fixed-size buffers, never the file's
    text: the blank lines that ``np.loadtxt`` skips are caught by counting
    the file's lines a block at a time (``_count_lines``), and the body is
    read again, row by row, only to name the fault in a rejected file. A
    path ending in one of ``COMPRESSED_SUFFIXES`` is rejected.

    A cell is a finite number in the syntax numpy reads (decimal or
    exponent notation), optionally with surrounding whitespace and
    optionally wrapped in ``"`` quotes; ``#`` has no special meaning. Line
    ends may be LF, CRLF or CR. Every row must have as many fields as the
    header, and a blank header, which names no columns, is rejected. Blank
    and NaN cells are missing values and are rejected, as are
    ``inf``/``infinity`` cells with either sign, blank lines and cells numpy
    cannot read (such as ``1_000``, which Python's ``float`` would accept).
    The error names the first faulty row in file order, counting the header
    as row 1, and the column when a cell is at fault.
    """
    with open(schema_path) as fh:
        schema = json.load(fh)
    if not isinstance(schema, dict):
        raise DataError(f"schema must be a JSON object, got {schema!r}")
    kinds = schema.get("columns", {})
    env = schema.get("env_column")
    if not isinstance(kinds, dict):
        raise DataError('schema "columns" must be an object from column '
                        f"names to kinds, got {kinds!r}")
    if env is not None and not isinstance(env, str):
        raise DataError(f'schema "env_column" must be a column name, got '
                        f"{env!r}")
    if os.path.splitext(csv_path)[1] in COMPRESSED_SUFFIXES:
        raise DataError(f"cannot read compressed file {csv_path!r}; "
                        "decompress it first")
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty CSV") from None
    if not header:
        raise DataError("row 1, the header, is blank: it names no columns")
    for name in header:
        if header.count(name) > 1:
            raise DataError(f"duplicate column {name!r} in header")
    unknown = sorted(set(kinds) - set(header))
    if unknown:
        raise DataError(f"schema names columns not in the CSV header: "
                        f"{', '.join(map(repr, unknown))}")
    # loadtxt skips blank lines silently, so count the lines to catch them
    n_lines = _count_lines(csv_path) - reader.line_num
    if not n_lines:
        values = np.empty((0, len(header)))  # as wide as the header
    else:
        try:
            with warnings.catch_warnings():
                # a body of blank lines only; the shape check names them
                warnings.filterwarnings("ignore", "loadtxt: input contained "
                                        "no data", UserWarning)
                values = np.loadtxt(csv_path, delimiter=",", quotechar='"',
                                    comments=None, ndmin=2,
                                    skiprows=reader.line_num)
        except ValueError as exc:
            raise _locate_fault(csv_path, header, exc) from None
    if values.shape != (n_lines, len(header)):
        raise _locate_fault(csv_path, header)
    bad = ~np.isfinite(values)
    if bad.any():
        row, col = np.argwhere(bad)[0]
        what = "missing value" if np.isnan(values[row, col]) else \
            f"non-finite value {values[row, col]}"
        raise DataError(f"{what} in column {header[col]!r}, row {row + 2}")
    # one contiguous array per column, not strided views of the rows
    return DataTable(dict(zip(header, np.ascontiguousarray(values.T))),
                     kinds, env)


def _locate_fault(csv_path: str, header: list[str],
                  exc: ValueError | None = None) -> DataError:
    """The error for the first faulty row of a CSV file whose body
    ``np.loadtxt`` rejected (``exc``) or read to the wrong shape: a row with
    the wrong field count, a missing cell, or the cell ``exc`` names."""
    # numpy names the cell it cannot convert by data row, from 0 after the
    # skipped header lines, and column, from 1
    found = re.search(r"at row (\d+), column (\d+)", str(exc))
    bad = (int(found[1]) + 2, int(found[2]) - 1) if found else None
    with open(csv_path, newline="") as fh:
        rows = csv.reader(fh)
        next(rows)  # the header
        for row, fields in enumerate(rows, start=2):
            if len(fields) != len(header):
                return DataError(f"row {row} has {len(fields)} fields, "
                                 f"expected {len(header)}")
            for col, (name, cell) in enumerate(zip(header, fields)):
                if cell.strip().lower() in _MISSING_CELLS:
                    return DataError(f"missing value in column {name!r}, "
                                     f"row {row}")
                if (row, col) == bad:
                    return DataError(f"bad value {cell!r} in column "
                                     f"{name!r}, row {row}")
    if exc is not None:
        return DataError(f"unreadable CSV body: {exc}")
    return DataError("a quoted cell spans lines")


SAVE_BLOCK_ROWS = 4096


def save_csv(table: DataTable, csv_path: str):
    """Write ``table`` as CSV: the header as ``csv.writer`` writes it
    (names quoted where needed), then one row per record with ``%d`` for
    discrete columns and ``%.10g`` for continuous ones, every line ended
    by CRLF. Rows are formatted a block at a time, one ``%`` per block, so
    only one block's cells are ever held as Python floats."""
    fmt = ",".join("%d" if table.is_discrete(n) else "%.10g"
                   for n in table.names) + "\r\n"
    rows = table.matrix(table.names)
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh).writerow(table.names)
        for start in range(0, len(rows), SAVE_BLOCK_ROWS):
            block = rows[start:start + SAVE_BLOCK_ROWS]
            fh.write((fmt * len(block)) % tuple(block.ravel().tolist()))
