"""Conditional independence tests on tabular data.

``fisher_z_test`` is the classic partial-correlation test for continuous
columns. It reads the correlation matrix a table computes once over all of
its columns (``DataTable.correlation``), so after the first test on a table
each test factors only the |S|+2 square submatrix, whatever the row count.
``degenerate_gaussian_test`` handles mixed continuous/discrete columns by
one-hot embedding discrete levels (dropping the last) and comparing Gaussian
likelihoods with and without the a-b dependence: a Bartlett-corrected
Wilks statistic over the canonical correlations of a and b given s. It
reads the correlation matrix of the embedding of all columns, which a
table computes once from one centred scatter (``DataTable.embedding``), so
after the first test on a table each test costs O(w^3) in the embedded
width w of [s, a, b], whatever the row count. s is partialled out through
a pseudo-inverse that drops eigenvalues at or below ``MIN_UNEXPLAINED``,
so a rank-deficient s (a level that never occurs, collinear columns) is
allowed. A column of a or b is degenerate where its share of variance
left unexplained by s and the columns of its block before it is at most
``MIN_UNEXPLAINED``: the rank rule of ``data.cholesky``, which Fisher-z,
the environment test and the linear backend of ``estimate`` apply too,
stated on the correlation scale so that it survives the squared condition
number of a Gram matrix.

``environment_test`` is the test for a pair whose one side is the table's
environment column E and whose other side is a continuous variable X: it
asks whether the distribution of X given S changes across environments,
whatever the change (intercept, slope or scale), not only whether X trends
linearly in E's numeric code. This is the invariance test of invariant
causal prediction with E as a context variable. The statistic starts from
the Gaussian likelihood ratio of one regression of X on S (with intercept)
for all rows against a separate regression and residual variance per
environment, LR = n log s2_pooled - sum_e n_e log s2_e, in two parts: the
location part n log(s2_pooled / s2_within), with s2_within the row-weighted
mean of the s2_e, and the scale part n log s2_within - sum_e n_e log s2_e,
a Bartlett statistic. Under the null the scale part is the only one whose
spread depends on the residual's kurtosis k: it is chi-square scaled by
(k - 1) / 2, which is 1 for Gaussian residuals. So the scale part is
divided by max((k - 1) / 2, 1), with k estimated on the per-environment
residuals of a row sample (``DataTable.moments().sample``); the correction
never makes the test more liberal than the likelihood ratio. The sum is
referred to a chi-square with (m - 1)(|S| + 2) degrees of freedom for m
environments.

The reference holds for symmetric residuals of any kurtosis. With skewed
residuals the two parts are correlated (a group's mean and variance move
together), so the test is somewhat liberal: in simulations with three
environments of 500 rows it rejected 6 to 8% at level 0.05 for exponential
or chi-square(3) noise, and a rare 0/1 flag declared continuous is as
skewed. A discrete X is answered by the
``fallback`` test (the one chosen for the other pairs), since its variance
is tied to its level probabilities. Where X is constant, or a linear
function of S, within some environments but not all, the conditional
plainly changes and p = 0. Where the regression cannot be fitted within
every environment (S degenerate there, an environment with too few rows
for |S|, X degenerate everywhere, a single environment), ``fallback``
answers on the pooled rows. The residual variances come from the
per-environment correlation matrices a table computes once
(``DataTable.correlations``), so a test costs one batched Cholesky
factorization of m + 1 small matrices, whatever the row count.
Each set of a pair with the environment column is routed here by
``firsts_at``, which estimates the kurtosis only where it can change the
decision.

Batched CI decisions. ``firsts_at`` is the one batch entry: it takes the
conditioning sets of one size of many pairs at once, as one array of rows
[a, b, *s] of column positions that ``fci`` builds and ``fci.DataOracle``
puts at the table's columns (it checks nothing), each pair's rows in
order, with the number of rows of each pair, and returns for each pair
the index of its first independent set.
``_decisions`` routes each row to its test: the rows of pairs with the
environment column are factored with one stacked ``data.cholesky`` call;
the rows that the environment test leaves to the chosen test, and all
the others, are one batch of it. Fisher-z
(``_fisher_z_statistics``) gathers the [*s, a, b] submatrices with one
fancy index and factors them with one stacked ``data.cholesky`` call,
whose last row gives each partial correlation; any other test runs set by
set, on the row's names. The statistics are
finished in numpy and compared with the critical values of (alpha, dof)
(``critical_values``, computed once by bisection on the closed-form tails
below, dof 0 for the normal tail). A statistic between them, whose tail is
within ``CRITICAL_MARGIN`` of alpha, and an environment statistic whose
kurtosis correction can carry it across them, takes its own p-value, so
every decision is exactly ``p_value >= alpha``. A set that cannot be
tested is an error of its own pair only, returned where that pair reaches
it; a row's names are looked up only to name the column at fault, or to
run a test other than Fisher-z. LAPACK runs the same routine on each
matrix of a stack, so a set's statistic is the same in any batch;
``fisher_z_test`` and ``environment_test`` are batches of one and report
the statistics that the decisions read.

All p-values come in closed form: the two-sided normal tail as
``erfc(z / sqrt 2)``, and the chi-square upper tail at integer degrees of
freedom as a finite sum of Poisson-type terms (plus an ``erfc`` term for
odd degrees of freedom).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .data import (
    CONTINUOUS, MIN_UNEXPLAINED, DataError, DataTable, cholesky,
)


class DegenerateDataError(DataError):
    """Covariance structure too singular to run the requested test."""


@dataclass(frozen=True)
class CITestResult:
    p_value: float
    statistic: float
    dof: int

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError("p_value outside [0, 1]")
        if self.dof < 1:
            raise ValueError("dof must be >= 1")


def normal_two_sided_p(z: float) -> float:
    """P(|N(0, 1)| >= |z|)."""
    return math.erfc(abs(z) * math.sqrt(0.5))


def chi2_sf(x: float, dof: int) -> float:
    """P(chi-square with integer ``dof`` degrees of freedom >= x).

    Q(dof, x) = [dof odd] erfc(sqrt(x/2)) + sum over a = 1 or 3/2, a + 1,
    ..., up to dof/2 of exp(-x/2) (x/2)^(a-1) / Gamma(a); every term is
    positive, so the sum loses no precision to cancellation.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if x <= 0.0:
        return 1.0
    h = 0.5 * x
    log_h = math.log(h)
    p = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    a = 1.5 if dof % 2 else 1.0
    while a <= 0.5 * dof:
        p += math.exp((a - 1.0) * log_h - h - math.lgamma(a))
        a += 1.0
    return min(p, 1.0)


def _check_args(data: DataTable, a: str, b: str,
                subsets: Iterable[Iterable[str]]) -> list[list[str]]:
    """Each conditioning set of ``subsets`` as a sorted list of distinct
    names, once a and b are known to differ, to be columns and to lie
    outside every set."""
    subsets = [sorted(set(s)) for s in subsets]
    if a == b:
        raise DataError("a and b must differ")
    names = set().union(*subsets)
    if a in names or b in names:
        raise DataError("a and b must not appear in the conditioning set")
    if not names.union((a, b)) <= data.index.keys():
        for name in (a, b, *(name for s in subsets for name in s)):
            data.column(name)
    return subsets


def _positions(data: DataTable, rows: Iterable[Iterable[str]]) -> np.ndarray:
    """The column positions of the names of each of ``rows``, all of one
    length, as the rows of one array."""
    return np.array([data.positions(row) for row in rows], dtype=np.intp)


# relative gap between alpha and the tails at a pair of critical values, far
# above the rounding error of ``chi2_sf`` and ``normal_two_sided_p`` (about
# 1e-13 of the tail), so that no statistic outside the pair is misjudged
CRITICAL_MARGIN = 1e-9


@functools.lru_cache(maxsize=1024)
def critical_values(alpha: float, dof: int) -> tuple[float, float]:
    """Statistics (low, high) around the level-alpha critical value of the
    chi-square tail with ``dof`` degrees of freedom, or of the two-sided
    normal tail for dof 0: the tail is at least alpha (1 + CRITICAL_MARGIN)
    at low and below alpha (1 - CRITICAL_MARGIN) at high, so the two lie
    within about 1e-8 of each other. Both tails fall as the statistic
    grows, so every statistic at most low has a p-value of at least alpha
    and every one at least high a p-value below alpha. Found by bisection,
    once per (alpha, dof); low is -inf when alpha is within the margin of 1.
    """
    def tail(x: float) -> float:
        return normal_two_sided_p(x) if dof == 0 else chi2_sf(x, dof)

    def crossing(target: float) -> tuple[float, float]:
        # tail(left) >= target > tail(right), with right - left tiny
        left, right = 0.0, 1.0
        while tail(right) >= target:
            left, right = right, 2.0 * right
        while right - left > 1e-12 * right:
            mid = 0.5 * (left + right)
            if tail(mid) >= target:
                left = mid
            else:
                right = mid
        return left, right

    above = alpha * (1.0 + CRITICAL_MARGIN)
    low = crossing(above)[0] if above <= 1.0 else -math.inf
    return low, crossing(alpha * (1.0 - CRITICAL_MARGIN))[1]


def _bracketed(least: np.ndarray, most: np.ndarray, dof: int,
               alpha: float) -> np.ndarray:
    """For statistics known to lie in [least, most]: 1 where the p-value is
    at least alpha, 0 where it is below alpha, and -1 where only the
    statistic's own p-value decides (near the critical value, or NaN)."""
    low, high = critical_values(alpha, dof)
    return np.where(most <= low, 1, np.where(least >= high, 0, -1))


class _Decisions(NamedTuple):
    """Decisions on a batch of conditioning sets: ``decided[j]`` is 1 if set
    j tests independent, 0 if dependent, and -1 if ``resolve(j)`` must say.
    Where set j's test cannot be run, ``resolve(j)`` returns or raises the
    error."""

    decided: np.ndarray
    resolve: Callable[[int], bool | Exception]


def _decisions(test: Callable, data: DataTable, rows: np.ndarray,
               alpha: float) -> _Decisions:
    """Whether each row [a, b, *s] of ``rows``, column positions with all s
    of one size, tests independent at alpha: by ``environment_test(data, a,
    b, s, test)`` where a or b is the table's environment column, and by
    ``test(data, a, b, s)`` elsewhere.

    The environment rows are fitted in one ``_environment_parts`` call. The
    kurtosis correction only shrinks the scale part, so the statistic lies
    between the location part and the sum of both parts; the kurtosis is
    estimated only where the critical values fall between them. The rows
    that the environment test leaves to ``test``, and all the others, are
    one batch of ``test``: Fisher-z decides it in numpy against its critical
    values, from the statistics of one ``_fisher_z_statistics`` call; any
    other test runs set by set, on the row's names, as the decisions are
    resolved.
    """
    decided = np.full(len(rows), -1)
    by_test = np.ones(len(rows), dtype=bool)  # the rows ``test`` answers
    env = -1 if data.env_column is None else data.index[data.env_column]
    envs = np.flatnonzero((rows[:, 0] == env) | (rows[:, 1] == env))
    if len(envs):
        pairs = rows[envs]
        # [*s, x], x the side that is not the environment column
        fit = np.column_stack([pairs[:, 2:], np.where(
            pairs[:, 0] == env, pairs[:, 1], pairs[:, 0])])
        parts = _environment_parts(data, fit)
        decided[envs] = _bracketed(parts.location,
                                   parts.location + parts.scale, parts.dof,
                                   alpha)
        by_test[envs] = parts.fallback
    tested = np.flatnonzero(by_test)
    if test is fisher_z_test:
        statistics, errors = _fisher_z_statistics(data, rows[tested])
        decided[tested] = _bracketed(statistics, statistics, 0, alpha)
    names = data.names

    def resolve(j: int) -> bool | Exception:
        if not by_test[j]:
            i = int(np.searchsorted(envs, j))
            return _environment_result(
                data, fit[i, -1], fit[i, :-1], float(parts.location[i]),
                float(parts.scale[i]), parts.dof).p_value >= alpha
        if test is not fisher_z_test:
            a, b, *cond = (names[v] for v in rows[j].tolist())
            return test(data, a, b, cond).p_value >= alpha
        i = int(np.searchsorted(tested, j))
        if i in errors:
            return errors[i]
        return _fisher_z_result(float(statistics[i])).p_value >= alpha

    return _Decisions(decided, resolve)


def _caught(fn: Callable, *args):
    """``fn(*args)``, or the error it raises because a set cannot be tested
    (a ``DataError``, or a ``ValueError`` such as a NaN p-value or a
    singular matrix), kept to be raised later. The error is kept without
    its traceback, and so are the errors it chains to: a traceback's
    frames lead back, through ``f_back``, to the caller that keeps the
    error, and that cycle would keep a table alive until the cyclic
    collector runs."""
    try:
        return fn(*args)
    except (DataError, ValueError) as exc:
        err: BaseException | None = exc
        while err is not None:
            err.__traceback__ = None
            err = err.__cause__ or err.__context__
        return exc


def firsts_at(test: Callable, data: DataTable, rows: np.ndarray,
              counts: Sequence[int], alpha: float) -> list:
    """For each query, the index of its first set that tests independent
    at alpha (see ``_decisions``: the environment test on a pair with the
    table's environment column, ``test`` on the others), None if none
    does, or the error (a ``DataError`` or ``ValueError``) of the first set
    before it that cannot be tested, returned, not raised, so that it
    stays with its own query.

    ``rows`` holds one row [a, b, *s] per set, the positions of columns of
    ``data``, all s of one size, and ``counts`` the number of rows of each
    query, whose rows follow the query before it; nothing is checked. This
    is the contract of the ``firsts`` that an fci oracle's ``bind``
    returns, on learn positions: ``fci.DataOracle``'s puts fci's rows at
    the table's columns and calls this. One
    ``_decisions`` call decides them all: Fisher-z and the environment
    test each with one stacked Cholesky factorization, each statistic
    compared with the critical values of alpha (``critical_values``); only
    a statistic between them takes its own p-value."""
    out: list = [None] * len(counts)
    if not len(rows):
        return out
    batch = _caught(lambda: _decisions(test, data, rows, alpha))
    if isinstance(batch, Exception):  # each query's first set raises it
        return [batch if count else None for count in counts]
    decided, resolve = batch
    # the rows that are independent or need resolving, in order
    stops = np.flatnonzero(decided != 0).tolist()
    i = end = 0
    for k, count in enumerate(counts):
        start, end = end, end + count
        while i < len(stops) and stops[i] < start:
            i += 1
        while i < len(stops) and stops[i] < end:
            j = stops[i]
            got = True if decided[j] == 1 else _caught(resolve, j)
            if isinstance(got, Exception):
                out[k] = got
                break
            if got:
                out[k] = j - start
                break
            i += 1
    return out


def _fisher_z_statistics(data: DataTable, rows: np.ndarray
                         ) -> tuple[np.ndarray, dict[int, Exception]]:
    """The Fisher-z statistic of each row [a, b, *s] of ``rows``, column
    positions with all s of one size, and the error of each row whose test
    cannot be run (its statistic is NaN).

    The [*s, a, b] submatrices of the table's correlation matrix are
    gathered by one fancy index, except those holding a constant column,
    and factored by one stacked ``data.cholesky`` call under the rank rule
    of ``MIN_UNEXPLAINED``; the last row [l_ba, l_bb] of a factor gives
    |r| = |l_ba| / sqrt(l_ba^2 + l_bb^2). If that call fails, each matrix
    is factored alone. Where it does not factor but [*s, a] and [*s, b] do,
    b is a linear function of s and a up to the rank rule: |r| = 1. Any
    other is singular, an error. |r| is clipped at 1 - 1e-12. LAPACK runs
    the same routine on each matrix of a stack, so a row's statistic is the
    same in any batch.
    """
    if not len(rows):
        return np.empty(0), {}
    # discrete columns are used as plain numeric codes here
    n, size = data.n_rows, rows.shape[1] - 2
    if n <= size + 3:
        raise DataError("too few rows for the conditioning set size")
    corr = data.correlation()
    constant = np.isnan(corr.diagonal())[rows]
    errors: dict[int, Exception] = {}
    for j in np.flatnonzero(constant.any(axis=1)).tolist():
        errors[j] = DegenerateDataError(
            f"constant column in correlation matrix: "
            f"{data.names[rows[j, constant[j].argmax()]]}")
    ok = np.flatnonzero(~constant.any(axis=1)) if errors else slice(None)
    order = np.concatenate((rows[ok, 2:], rows[ok, :2]), axis=1)  # [*s, a, b]
    # broadcast index arrays: np.ix_ would cost more than the lookup itself
    sub = corr[order[:, :, None], order[:, None, :]]
    tol = math.sqrt(MIN_UNEXPLAINED)
    last = np.full((len(rows), 2), np.nan)  # [l_ba, l_bb] of each factor
    chol = cholesky(sub, tol)
    if chol is not None:
        last[ok] = chol[:, -1, -2:]
    else:
        sb = np.r_[:size, size + 1]
        for j, m in zip(np.arange(len(rows))[ok].tolist(), sub):
            chol = cholesky(m, tol)
            if chol is not None:
                last[j] = chol[-1, -2:]
            elif cholesky(m[:-1, :-1], tol) is not None and \
                    cholesky(m[sb[:, None], sb], tol) is not None:
                last[j] = 1.0, 0.0
            else:
                errors[j] = DegenerateDataError(
                    "singular covariance submatrix")
    ba, bb = last.T
    r = np.minimum(np.abs(ba) / np.sqrt(ba * ba + bb * bb), 1.0 - 1e-12)
    return math.sqrt(n - size - 3) * np.arctanh(r), errors


def _fisher_z_result(statistic: float) -> CITestResult:
    return CITestResult(p_value=normal_two_sided_p(statistic),
                        statistic=statistic, dof=1)


def fisher_z_test(data: DataTable, a: str, b: str,
                  s: Iterable[str] = ()) -> CITestResult:
    """Two-sided test of zero partial correlation of a and b given s, from
    the table's cached correlation matrix: a batch of one of the statistics
    that ``firsts_at`` decides."""
    [s] = _check_args(data, a, b, [s])
    statistics, errors = _fisher_z_statistics(data,
                                               _positions(data, [(a, b, *s)]))
    if errors:  # popped: no local keeps it, and its traceback no cycle
        raise errors.pop(0)
    return _fisher_z_result(float(statistics[0]))


def _residual_variances(data: DataTable, rows: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each row [*s, x] of ``rows``, column positions with all s of one
    size, the residual variances of the regression of x on s with
    intercept: the rows per environment (m,), the per-environment
    variances (k, m) and the pooled variance over all rows (k,); NaN in a
    row where s is degenerate within an environment.

    The share of var(x) that s leaves unexplained is the square of the last
    diagonal entry of the Cholesky factor of the correlation matrix of
    [*s, x]. A row's m + 1 matrices, one per environment and the pooled
    one, come from ``DataTable.correlations``, and the (m + 1) k matrices
    of k rows are factored in one stacked ``data.cholesky`` call. Where
    that call fails, each matrix of each row is factored alone, and where
    that fails too, its s alone. A variance is 0 where x is constant, or a
    linear function of s, within that environment (up to rounding, see
    ``MIN_UNEXPLAINED``).

    Raises ``DegenerateDataError`` if the table has a single environment,
    and ``DataError`` if an environment has no more than |s| + 2 rows.
    """
    mom = data.moments()
    counts = mom.counts
    if len(counts) < 2:
        raise DegenerateDataError("environment column takes a single value")
    if not len(rows):
        return counts, np.empty((0, len(counts))), np.empty(0)
    if counts.min() <= rows.shape[1] + 1:
        raise DataError("an environment has too few rows for the "
                        "conditioning set size")
    groups = np.arange(len(counts) + 1)[:, None, None]
    # (k, m + 1, |s| + 1, |s| + 1): the blocks of one row side by side
    corr = data.correlations()[groups, rows[:, None, :, None],
                               rows[:, None, None, :]]
    tol = math.sqrt(MIN_UNEXPLAINED)
    chol = cholesky(corr.reshape(-1, *corr.shape[2:]), tol)
    if chol is not None:
        shares = (chol[:, -1, -1] ** 2).reshape(corr.shape[:2])
    else:
        shares = np.array([_unexplained_share(c, tol) for c in corr])
    xs = rows[:, -1]
    sigma2 = mom.grams[:, xs, xs].T / counts * shares[:, 1:]
    pooled = mom.scatter[xs, xs] / data.n_rows * shares[:, 0]
    return counts, sigma2, pooled


def _unexplained_share(corr: np.ndarray, tol: float) -> np.ndarray:
    """Share of the last column's variance left unexplained by the others,
    in each of a stack of correlation matrices, each factored alone: the
    squared last pivot, 0 where only the others factor (the last column
    constant, or a linear function of them), and NaN throughout if the
    others do not factor in one of them."""
    share = np.zeros(len(corr))
    for i, c in enumerate(corr):
        chol = cholesky(c, tol)
        if chol is not None:
            share[i] = chol[-1, -1] ** 2
        elif cholesky(c[:-1, :-1], tol) is None:
            return np.full(len(corr), np.nan)
    return share


def _residual_kurtosis(data: DataTable, x: int, s: np.ndarray) -> float:
    """Kurtosis E[r^4] / E[r^2]^2 of the residual r of the regression of
    column x on the columns s with intercept, at column positions, fitted
    within each environment, estimated on the rows of
    ``DataTable.moments().sample``; the average over environments, weighted
    by their rows there. 3 for Gaussian residuals.

    Each environment's residual is standardized by its own variance, so a
    change of scale between environments does not raise the estimate. s
    must not be degenerate within an environment (see
    ``_residual_variances``), and x must lie outside s.
    """
    mom = data.moments()
    r = mom.sample[:, x].copy()
    if len(s):
        g = mom.grams
        beta = np.linalg.solve(g[:, s[:, None], s],
                               g[:, s, x][:, :, None])[:, :, 0]
        r -= np.einsum("rj,rj->r", mom.sample[:, s],
                       np.repeat(beta, mom.sample_counts, axis=0))
    r2 = r * r
    starts = np.concatenate([[0], np.cumsum(mom.sample_counts)[:-1]])
    m2 = np.add.reduceat(r2, starts)
    m4 = np.add.reduceat(r2 * r2, starts)
    counts = mom.sample_counts
    return float(np.sum(counts * counts * m4 / (m2 * m2)) / counts.sum())


class _EnvironmentParts(NamedTuple):
    """The two parts of the environment test's likelihood ratio for the
    conditional of x given s, for each (x, s) of a batch."""

    location: np.ndarray  # one regression against one per environment;
    #                       inf where x is degenerate in some environments
    scale: np.ndarray     # one residual variance against one per environment
    fallback: np.ndarray  # True where the fallback test answers instead
    dof: int


def _environment_parts(data: DataTable, rows: np.ndarray
                       ) -> _EnvironmentParts:
    """The likelihood-ratio parts of ``environment_test`` for each row
    [*s, x] of ``rows``, column positions with all s of one size, from one
    ``_residual_variances`` call on the rows whose x is continuous."""
    k = len(rows)
    discrete = np.array([data.kinds[name] != CONTINUOUS
                         for name in data.names])
    fallback = discrete[rows[:, -1]]
    fit = np.flatnonzero(~fallback)
    try:
        counts, sigma2, pooled = _residual_variances(
            data, rows if len(fit) == k else rows[fit])
    except DataError:
        nan = np.full(k, np.nan)
        return _EnvironmentParts(nan, nan, np.ones(k, dtype=bool), 0)
    n = data.n_rows
    with np.errstate(divide="ignore", invalid="ignore"):
        weighted, logs = sigma2 * counts, np.log(sigma2) * counts
        within, log_sum = weighted[:, 0], logs[:, 0]
        for e in range(1, len(counts)):  # summed in environment order
            within = within + weighted[:, e]
            log_sum = log_sum + logs[:, e]
        within = within / n
        location = np.maximum(n * np.log(pooled / within), 0.0)
        scale = np.maximum(n * np.log(within) - log_sum, 0.0)
    # x constant, or a linear function of s, within some environment: its
    # conditional plainly changes if it varies in another, and the fallback
    # answers if it varies in none; so does it where s is degenerate
    lowest, highest = sigma2.min(axis=1), sigma2.max(axis=1)
    changed = (lowest == 0.0) & (highest > 0.0)
    location[changed], scale[changed] = np.inf, 0.0
    fallback[fit[np.isnan(pooled) | (lowest == 0.0) & ~(highest > 0.0)]] = \
        True
    if len(fit) < k:  # one entry per row again
        parts = np.full((2, k), np.nan)
        parts[:, fit] = location, scale
        location, scale = parts
    return _EnvironmentParts(location, scale, fallback,
                             (len(counts) - 1) * (rows.shape[1] + 1))


def _tested_side(data: DataTable, a: str, b: str) -> str:
    """The side of the pair a, b that is not the environment column."""
    env = data.env_column
    if env is None or env not in (a, b):
        raise DataError("environment_test needs the table's environment "
                        "column as a or b")
    return b if a == env else a


def _environment_result(data: DataTable, x: int, s: np.ndarray,
                        location: float, scale: float,
                        dof: int) -> CITestResult:
    if location == math.inf:  # x degenerate within some environments only
        return CITestResult(p_value=0.0, statistic=math.inf, dof=dof)
    inflation = max(0.5 * (_residual_kurtosis(data, x, s) - 1.0), 1.0)
    statistic = location + scale / inflation
    return CITestResult(p_value=chi2_sf(statistic, dof),
                        statistic=statistic, dof=dof)


def environment_test(data: DataTable, a: str, b: str,
                     s: Iterable[str] = (),
                     fallback: Callable = fisher_z_test) -> CITestResult:
    """Test that the conditional of the non-environment side given s is the
    same in every environment; one of a, b must be the table's environment
    column (see the module docstring). A batch of one of the statistics
    that ``firsts_at`` decides.

    If that side is constant or a linear function of s within some
    environments but not all, its conditional plainly changes: p = 0.
    ``fallback`` answers the query on the pooled rows if that side is
    discrete, if it is constant or a linear function of s within every
    environment, if s is degenerate within an environment, if an
    environment has too few rows for |s|, or if the table has a single
    environment.
    """
    [s] = _check_args(data, a, b, [s])
    row = _positions(data, [[*s, _tested_side(data, a, b)]])
    parts = _environment_parts(data, row)
    if parts.fallback[0]:
        return fallback(data, a, b, s)
    return _environment_result(data, row[0, -1], row[0, :-1],
                               float(parts.location[0]),
                               float(parts.scale[0]), parts.dof)


def degenerate_gaussian_test(data: DataTable, a: str, b: str,
                             s: Iterable[str] = ()) -> CITestResult:
    """Likelihood-ratio test of a independent of b given s under a Gaussian
    likelihood on the one-hot embedded columns, from the table's cached
    ``DataTable.embedding()`` (see the module docstring)."""
    [s] = _check_args(data, a, b, [s])
    da, db = data.width(a), data.width(b)
    ds = 1 + sum(map(data.width, s))  # with the intercept
    n = data.n_rows
    if n <= ds + da + db + 1:
        raise DataError("too few rows for the embedded covariance")
    emb = data.embedding()
    ea, eb = emb.index[a], emb.index[b]
    es = np.concatenate([np.empty(0, dtype=int)] +
                        [emb.index[name] for name in s])
    constant = np.isnan(np.diagonal(emb.correlation))
    for name, columns in ((a, ea), (b, eb)):
        if constant[columns].any():
            raise DegenerateDataError(f"constant embedded column: {name}")
    es = es[~constant[es]]  # explained by the intercept
    idx = np.concatenate([es, ea, eb])
    corr = emb.correlation[idx[:, None], idx]
    k = len(es)
    resid = corr[k:, k:]
    if k:
        # partial out s through a pseudo-inverse of its correlation matrix
        w, v = np.linalg.eigh(corr[:k, :k])
        keep = w > MIN_UNEXPLAINED
        z = (v[:, keep] / np.sqrt(w[keep])).T @ corr[:k, k:]
        resid = resid - z.T @ z
    # whiten each residual block; the squared pivots of its Cholesky factor
    # are the shares of its columns left unexplained by s and the columns
    # before them
    tol = math.sqrt(MIN_UNEXPLAINED)
    la, lb = cholesky(resid[:da, :da], tol), cholesky(resid[da:, da:], tol)
    if la is None or lb is None:
        raise DegenerateDataError("singular embedded covariance")
    # canonical correlations: singular values of La^-1 R_ab Lb^-T
    cross = np.linalg.solve(la, np.linalg.solve(lb, resid[da:, :da]).T)
    rho = np.linalg.svd(cross, compute_uv=False)
    rho = np.clip(rho, 0.0, 1.0 - 1e-12)
    # Bartlett-corrected Wilks lambda against a chi-square reference
    scale = n - (ds - 1) - 1 - (da + db + 1) / 2.0
    statistic = -scale * float(np.sum(np.log1p(-rho ** 2)))
    dof = da * db
    p = chi2_sf(statistic, dof)
    return CITestResult(p_value=float(p), statistic=float(statistic), dof=dof)
