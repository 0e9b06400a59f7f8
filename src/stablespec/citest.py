"""Conditional independence tests on tabular data.

``fisher_z_test`` is the classic partial-correlation test for continuous
columns, on the correlation matrix a table computes once over all of its
columns (``DataTable.correlation``). ``degenerate_gaussian_test`` handles
mixed continuous/discrete columns by one-hot embedding discrete levels
(dropping the last) and comparing Gaussian likelihoods with and without
the a-b dependence: a Bartlett-corrected Wilks statistic, on the
correlation matrix of the embedding (``DataTable.embedding``). A test
factors one submatrix, whatever the row count, under the rank rule of
``data.cholesky``, which the environment test and ``estimate`` apply too:
a column is degenerate where its share of variance left unexplained by
the columns before it is at most ``MIN_UNEXPLAINED``, on the correlation
scale so that it survives the squared condition number of a Gram matrix.
A degenerate a or b is an error of both tests; a degenerate column of s
(a level that never occurs, collinear columns) is dropped by the
degenerate-Gaussian test and is an error of Fisher-z.

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
skewed. A discrete X is answered by the ``fallback`` test (the one chosen
for the other pairs), since its variance is tied to its level
probabilities. Where X is constant, or a linear function of S, within some
environments but not all, the conditional plainly changes and p = 0. Where
the regression cannot be fitted within every environment (S degenerate
there, an environment with too few rows for |S|, X degenerate everywhere,
a single environment), ``fallback`` answers on the pooled rows. The
residual variances come from the per-environment correlation matrices a
table computes once (``DataTable.correlations``), so a test factors m + 1
small matrices, whatever the row count.

Batched CI decisions. ``firsts_at`` is the one batch entry: it takes the
conditioning sets of one size of many pairs at once, as one array of rows
[a, b, *s] of column positions that ``fci`` builds and ``fci.DataOracle``
puts at the table's columns (it checks nothing), each pair's rows in
order, with the number of rows of each pair, and returns for each pair the
index of its first independent set. ``_decisions`` routes each row to its
test: the environment test, or the chosen test on the others and on the
rows the environment test leaves to it. Each test gathers its submatrices
with one fancy index per shape and factors them with one stacked
``data.cholesky`` call (``_factor_tails``). The statistics are finished in
numpy and compared with the critical values of (alpha, dof)
(``critical_values``). A statistic between them, whose tail is within
``CRITICAL_MARGIN`` of alpha, and an environment statistic whose kurtosis
correction can carry it across them, takes its own p-value, so every
decision is exactly ``p_value >= alpha``. A set that cannot be tested is
an error of its own pair only, returned where that pair reaches it; a
row's names are looked up only to name the column at fault. LAPACK runs
the same routine on each matrix of a stack, so a set's statistic is the
same in any batch; the three tests are batches of one and report the
statistics that the decisions read.

What a batch reads of its table is computed once per table, in the
table's caches: the correlation matrices and the constant-column mask
(``DataTable.correlations``, ``constant``), the discrete mask
(``discrete``), the environment column's position (``env_position``),
each column's variance over all rows and within each environment
(``Moments.variances``), and, for the degenerate-Gaussian test, each
column's embedded positions and those a conditioning set keeps
(``Embedding``). So a batch costs one gather and one stacked factorization
per kind of row, environment and other (per embedded shape for the
degenerate-Gaussian test), and about 80 small numpy calls whatever its
size: on the learn-wide tables (3 x 20k rows, 11 columns) a batch of 6
rows takes about 90 us and one of 225 rows about 260 us on a 2-vCPU Xeon
VM.

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

from .data import MIN_UNEXPLAINED, DataError, DataTable, cholesky


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

    Q(dof, x) = [dof odd] erfc(sqrt(x/2)) + sum over a = 1 or 3/2, a + 1, ...,
    up to dof/2 of exp(-x/2) (x/2)^(a-1) / Gamma(a); every term is positive, so
    the sum loses no precision to cancellation. 0 at x = inf.
    """
    if dof < 1:
        raise ValueError("dof must be >= 1")
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    h = 0.5 * x
    log_h = math.log(h)
    p = math.erfc(math.sqrt(h)) if dof % 2 else 0.0
    a = 1.5 if dof % 2 else 1.0
    while a <= 0.5 * dof:
        p += math.exp((a - 1.0) * log_h - h - math.lgamma(a))
        a += 1.0
    return min(p, 1.0)


def _check_args(data: DataTable, a: str, b: str,
                s: Iterable[str]) -> list[str]:
    """The conditioning set s as a sorted list of distinct names, once a
    and b are known to differ, to be columns and to lie outside s."""
    s = sorted(set(s))
    if a == b:
        raise DataError("a and b must differ")
    if a in s or b in s:
        raise DataError("a and b must not appear in the conditioning set")
    if not {a, b, *s} <= data.index.keys():
        for name in (a, b, *s):
            data.column(name)
    return s


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
    chi-square tail with ``dof`` degrees of freedom, or of the two-sided normal
    tail for dof 0: the tail is at least alpha (1 + CRITICAL_MARGIN) at low and
    below alpha (1 - CRITICAL_MARGIN) at high, so the two lie within about 1e-8
    of each other. Both tails fall as the statistic grows, so every statistic
    at most low has a p-value of at least alpha and every one at least high a
    p-value below alpha. Found by bisection, once per (alpha, dof); low is -inf
    when alpha is within the margin of 1."""
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


def _bracketed(least: np.ndarray, most: np.ndarray, dof: int | np.ndarray,
               alpha: float) -> np.ndarray:
    """For statistics in [least, most] with ``dof`` degrees of freedom, one
    for all or one each: 1 where the p-value is at least alpha, 0 where it
    is below, and -1 where only the statistic's own p-value decides."""
    if isinstance(dof, int):
        low, high = critical_values(alpha, dof)
    else:  # one pair of critical values per distinct dof
        dofs, at = np.unique(dof, return_inverse=True)
        low, high = np.array([critical_values(alpha, d) for d in
                              dofs.tolist()]).reshape(-1, 2)[at].T
    return np.where(most <= low, 1, np.where(least >= high, 0, -1))


class _Decisions(NamedTuple):
    """Decisions on a batch of conditioning sets: ``decided[j]`` is 1 if set j
    tests independent, 0 if dependent, and -1 if ``resolve(j)`` must say. Where
    set j's test cannot be run, ``resolve(j)`` returns or raises the error."""

    decided: np.ndarray
    resolve: Callable[[int], bool | Exception]


def batched_statistics(test: Callable) -> Callable:
    """The statistics, dof (0: normal tail) and errors of rows that
    ``_decisions`` reads for ``test``; ``ValueError`` unless citest batches
    it: ``fisher_z_test`` or ``degenerate_gaussian_test``."""
    if test is fisher_z_test:
        return _fisher_z_statistics
    if test is degenerate_gaussian_test:
        return _degenerate_gaussian_statistics
    raise ValueError(f"citest batches no test {test!r}")


def _decisions(test: Callable, data: DataTable, rows: np.ndarray,
               alpha: float) -> _Decisions:
    """Whether each row [a, b, *s] of ``rows``, column positions with all s
    of one size, tests independent at alpha: by ``environment_test(data, a,
    b, s, test)`` where a or b is the table's environment column, else by
    ``test`` (see ``batched_statistics``). The kurtosis correction only
    shrinks the scale part, so the environment statistic lies between the
    location part and the sum of both parts; the kurtosis is estimated
    only where the critical values fall between them."""
    env = data.env_position
    by_test = None  # the rows ``test`` answers, where not all
    if env is not None:
        on_env = (rows[:, 0] == env) | (rows[:, 1] == env)
        if on_env.any():
            pairs = rows[on_env]
            # [*s, x], x the side that is not the environment column: one
            # of a and b is env, so x = a + b - env
            fit = np.concatenate(
                (pairs[:, 2:], (pairs[:, 0] + pairs[:, 1] - env)[:, None]),
                axis=1)
            parts = _environment_parts(data, fit)
            decided = np.empty(len(rows), dtype=int)
            decided[on_env] = _bracketed(parts.location, parts.location +
                                         parts.scale, parts.dof, alpha)
            by_test = ~on_env
            by_test[on_env] = parts.fallback
    tested = rows if by_test is None else rows[by_test]
    statistics, dofs, errors = batched_statistics(test)(data, tested)
    if by_test is None:
        decided = _bracketed(statistics, statistics, dofs, alpha)
    else:
        decided[by_test] = _bracketed(statistics, statistics, dofs, alpha)

    def resolve(j: int) -> bool | Exception:
        if by_test is not None and not by_test[j]:
            i = int(np.count_nonzero(on_env[:j]))
            return _environment_result(
                data, fit[i, -1], fit[i, :-1], float(parts.location[i]),
                float(parts.scale[i]), parts.dof).p_value >= alpha
        i = j if by_test is None else int(np.count_nonzero(by_test[:j]))
        if i in errors:
            return errors[i]
        if test is fisher_z_test:
            return _fisher_z_result(float(statistics[i])).p_value >= alpha
        return chi2_sf(float(statistics[i]), int(dofs[i])) >= alpha

    return _Decisions(decided, resolve)


def _caught(fn: Callable, *args):
    """``fn(*args)``, or the error it raises because a set cannot be tested (a
    ``DataError``, or a ``ValueError`` such as a NaN p-value or a singular
    matrix), kept to be raised later. The error is kept without its traceback,
    and so are the errors it chains to: a traceback's frames lead back, through
    ``f_back``, to the caller that keeps the error, and that cycle would keep a
    table alive until the cyclic collector runs."""
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
    """For each query, the index of its first set that tests independent at
    alpha (see ``_decisions``), None if none does, or the error (a
    ``DataError`` or ``ValueError``) of the first set before it that cannot be
    tested, returned, not raised, so that it stays with its own query. Raises
    ``ValueError`` for a test that citest does not batch.

    ``rows`` holds one row [a, b, *s] per set, the positions of columns of
    ``data``, all s of one size, and ``counts`` the number of rows of each
    query, whose rows follow the query before it; nothing is checked. This is
    the contract of the ``firsts`` that an fci oracle's ``bind`` returns, on
    learn positions: ``fci.DataOracle``'s puts fci's rows at the table's
    columns and calls this. One ``_decisions`` call decides them all; only a
    statistic between the critical values of alpha takes its own p-value."""
    batched_statistics(test)  # raised here, not kept as a set's error
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


def _factor_tails(corr: np.ndarray, order: np.ndarray, da: int, db: int,
                  reduce: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """The rows of b, at the columns of a and b, (k, db, da + db), of the
    Cholesky factors of the [*s, *a, *b] submatrices at the rows of ``order``,
    in ``corr`` or in each matrix of a stack ``corr`` (matrix by matrix); and
    None if one stacked ``data.cholesky`` call factors them all, else each is
    factored alone (with ``reduce``, each column of s whose pivot given the
    kept ones before it is at most ``tol`` dropped) with a code: 0, else (rows
    NaN) 2 where [*s, *a] does not factor, 3 where [*s, *b] does not, 1 where
    both do (a and b determine each other)."""
    # one take of flat positions: broadcast index arrays on a stack, let
    # alone np.ix_, cost more than the lookup itself
    k, q = corr.shape[-1], order.shape[1]
    sub = corr.reshape(-1, k * k).take(order[:, :, None] * k +
                                       order[:, None, :], axis=1)
    sub = sub.reshape(-1, q, q)
    tol, w = math.sqrt(MIN_UNEXPLAINED), da + db
    chol = cholesky(sub, tol)
    if chol is not None:
        return chol[:, -db:, -w:], None
    tails = np.full((len(sub), db, w), np.nan)
    codes = np.zeros(len(sub), dtype=int)
    for j, m in enumerate(sub):
        if reduce:
            keep: list[int] = []
            for i in range(len(m) - w):
                if cholesky(m[np.ix_(keep + [i], keep + [i])],
                            tol) is not None:
                    keep.append(i)
            keep += range(len(m) - w, len(m))
            m = m[np.ix_(keep, keep)]
        chol, k = cholesky(m, tol), len(m) - w
        if chol is not None:
            tails[j] = chol[-db:, -w:]
        else:
            sb = np.r_[:k, k + da:k + w]
            codes[j] = 2 if cholesky(m[:-db, :-db], tol) is None else \
                3 if cholesky(m[sb[:, None], sb], tol) is None else 1
    return tails, codes


def _fisher_z_statistics(data: DataTable, rows: np.ndarray
                         ) -> tuple[np.ndarray, int, dict[int, Exception]]:
    """The Fisher-z statistic of each row [a, b, *s] of ``rows``, column
    positions with all s of one size, dof 0, and the error of each row that
    cannot be tested (its statistic is NaN). The [*s, a, b] submatrices of the
    table's correlation matrix without a constant column go to one
    ``_factor_tails`` call: the last row [l_ba, l_bb] of a factor gives |r| =
    |l_ba| / sqrt(l_ba^2 + l_bb^2), 1 where a and b determine each other given
    s, clipped at 1 - 1e-12; any other that does not factor is an error."""
    if not len(rows):
        return np.empty(0), 0, {}
    # discrete columns are used as plain numeric codes here
    n, size = data.n_rows, rows.shape[1] - 2
    if n <= size + 3:
        raise DataError("too few rows for the conditioning set size")
    corr, constant = data.correlation(), data.constant()
    errors: dict[int, Exception] = {}
    ok = slice(None)
    if constant.any():
        fixed = constant[rows]
        bad = fixed.any(axis=1)
        for j in np.flatnonzero(bad).tolist():
            errors[j] = DegenerateDataError(
                f"constant column in correlation matrix: "
                f"{data.names[rows[j, fixed[j].argmax()]]}")
        ok = np.flatnonzero(~bad)
    order = np.concatenate((rows[ok, 2:], rows[ok, :2]), axis=1)  # [*s, a, b]
    tails, codes = _factor_tails(corr, order, 1, 1, False)
    last = tails[:, 0]  # [l_ba, l_bb] of each factor
    if codes is not None:
        last[codes == 1] = 1.0, 0.0
        at = np.arange(len(rows))[ok]
        for j in at[codes > 1].tolist():
            errors[j] = DegenerateDataError("singular covariance submatrix")
    if len(last) < len(rows):
        last = np.full((len(rows), 2), np.nan)
        last[ok] = tails[:, 0]
    ba, bb = last.T
    r = np.minimum(np.abs(ba) / np.sqrt(ba * ba + bb * bb), 1.0 - 1e-12)
    return math.sqrt(n - size - 3) * np.arctanh(r), 0, errors


def _fisher_z_result(statistic: float) -> CITestResult:
    return CITestResult(p_value=normal_two_sided_p(statistic),
                        statistic=statistic, dof=1)


def fisher_z_test(data: DataTable, a: str, b: str,
                  s: Iterable[str] = ()) -> CITestResult:
    """Two-sided test of zero partial correlation of a and b given s, from
    the table's cached correlation matrix: a batch of one of the statistics
    that ``firsts_at`` decides."""
    s = _check_args(data, a, b, s)
    statistics, _, errors = _fisher_z_statistics(
        data, _positions(data, [(a, b, *s)]))
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

    The share of var(x) that s leaves unexplained is the squared last
    pivot of the factor of [*s, x] in each matrix of
    ``DataTable.correlations``, all from one ``_factor_tails`` call: 0
    where x is constant, or a linear function of s, within that
    environment (up to rounding, see ``MIN_UNEXPLAINED``).

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
    tails, codes = _factor_tails(data.correlations(), rows, 0, 1, False)
    shape = (len(counts) + 1, len(rows))  # the pooled matrix, then groups
    shares = (tails[:, 0, 0] ** 2).reshape(shape).T
    if codes is not None:  # x a linear function of s; s degenerate
        shares[codes.reshape(shape).T == 3] = 0.0
        shares[(codes == 2).reshape(shape).any(axis=0)] = np.nan
    variances = mom.variances[rows[:, -1]] * shares  # pooled, then groups
    return counts, variances[:, 1:], variances[:, 0]


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
    fallback = data.discrete()[rows[:, -1]]
    fit = np.flatnonzero(~fallback) if fallback.any() else None
    try:
        counts, sigma2, pooled = _residual_variances(
            data, rows if fit is None else rows[fit])
    except DataError:
        nan = np.full(k, np.nan)
        return _EnvironmentParts(nan, nan, np.ones(k, dtype=bool), 0)
    n = data.n_rows
    if sigma2.min(initial=np.inf) > 0.0 and pooled.min(initial=np.inf) > 0.0:
        location, scale = _ratio_parts(n, counts, sigma2, pooled)
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            location, scale = _ratio_parts(n, counts, sigma2, pooled)
        # x constant, or a linear function of s, within some environment:
        # its conditional plainly changes if it varies in another, and the
        # fallback answers if it varies in none; so does it where s is
        # degenerate
        lowest, highest = sigma2.min(axis=1), sigma2.max(axis=1)
        changed = (lowest == 0.0) & (highest > 0.0)
        location[changed], scale[changed] = np.inf, 0.0
        degenerate = np.isnan(pooled) | (lowest == 0.0) & ~(highest > 0.0)
        fallback[degenerate if fit is None else fit[degenerate]] = True
    if fit is not None:  # one entry per row again
        parts = np.full((2, k), np.nan)
        parts[:, fit] = location, scale
        location, scale = parts
    return _EnvironmentParts(location, scale, fallback,
                             (len(counts) - 1) * (rows.shape[1] + 1))


def _ratio_parts(n: int, counts: np.ndarray, sigma2: np.ndarray,
                 pooled: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The location and scale parts of the likelihood ratio (see the module
    docstring) from the residual variances, per environment (k, m) and
    pooled (k,), of a table of n rows, ``counts`` per environment; the
    environments summed in order."""
    weighted, logs = sigma2 * counts, np.log(sigma2) * counts
    within, log_sum = weighted[:, 0], logs[:, 0]
    for e in range(1, len(counts)):
        within = within + weighted[:, e]
        log_sum = log_sum + logs[:, e]
    within = within / n
    return (np.maximum(n * np.log(pooled / within), 0.0),
            np.maximum(n * np.log(within) - log_sum, 0.0))


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

    If that side is constant or a linear function of s within some environments
    but not all, its conditional plainly changes: p = 0. ``fallback`` answers
    the query on the pooled rows if that side is discrete, if it is constant or
    a linear function of s within every environment, if s is degenerate within
    an environment, if an environment has too few rows for |s|, or if the table
    has a single environment."""
    s = _check_args(data, a, b, s)
    row = _positions(data, [[*s, _tested_side(data, a, b)]])
    parts = _environment_parts(data, row)
    if parts.fallback[0]:
        return fallback(data, a, b, s)
    return _environment_result(data, row[0, -1], row[0, :-1],
                               float(parts.location[0]),
                               float(parts.scale[0]), parts.dof)


def _degenerate_gaussian_statistics(data: DataTable, rows: np.ndarray
                                    ) -> tuple[np.ndarray, np.ndarray,
                                               dict[int, Exception]]:
    """The degenerate-Gaussian statistic and dof of each row [a, b, *s] of
    ``rows``, as ``_fisher_z_statistics``. A column enters as its columns in
    ``DataTable.embedding()``, of s those that ``Embedding.kept`` keeps;
    the submatrices of each shape go to one
    ``_factor_tails`` call. From the rows [L_ba, L_bb] of b of a factor, -log
    Lambda is log1p(|L_ba|^2 / L_bb^2) for db = 1, Fisher-z's -log(1 - r^2),
    else log det(L_ba L_ba^T + L_bb L_bb^T) - 2 sum log diag(L_bb); the
    statistic is -(n - ds - 1 - (da + db + 1) / 2) log Lambda with da db dof,
    ds counting every column of s, and inf (p = 0) where a and b determine each
    other given s."""
    n, emb = data.n_rows, data.embedding()
    widths = emb.widths
    da, db = widths[rows[:, 0]], widths[rows[:, 1]]
    ds = widths[rows[:, 2:]].sum(axis=1)
    few = n <= ds + da + db + 2
    fixed = emb.constant[rows[:, :2]]
    errors: dict[int, Exception] = {}
    for j in np.flatnonzero(few | fixed.any(axis=1)).tolist():
        side = data.names[rows[j, fixed[j].argmax()]]
        errors[j] = DataError("too few rows for the embedded covariance") \
            if few[j] else DegenerateDataError(
                f"constant embedded column: {side}")
    # [*s, *a, *b], -1 past a width and where s drops a column
    order = np.concatenate((emb.kept[rows[:, 2:]], emb.columns[rows[:, :2]]),
                           axis=1)
    ok = np.flatnonzero(~few & ~fixed.any(axis=1))
    shapes, of = np.unique(np.c_[(order >= 0).sum(axis=(1, 2)), da, db][ok],
                           axis=0, return_inverse=True)
    statistics = np.full(len(rows), np.nan)
    for g, (_, wa, wb) in enumerate(shapes.tolist()):
        group = ok[of == g]
        tails, codes = _factor_tails(emb.correlation, order[group][
            order[group] >= 0].reshape(len(group), -1), wa, wb, True)
        codes = np.zeros(len(group), int) if codes is None else codes
        lb, done = tails[codes == 0], group[codes == 0]
        pivots = np.diagonal(lb[:, :, wa:], axis1=1, axis2=2)
        if wb == 1:  # log1p keeps the digits of a Lambda near 1
            statistics[done] = np.log1p(
                (lb[:, 0, :wa] ** 2).sum(axis=1) / pivots[:, 0] ** 2)
        else:
            gram = cholesky(lb @ lb.transpose(0, 2, 1))
            statistics[done] = 2.0 * (np.log(np.diagonal(
                gram, axis1=1, axis2=2)) - np.log(pivots)).sum(axis=1)
        statistics[group[codes == 1]] = math.inf  # p = 0: dependent
        for j, side in zip(group[codes > 1].tolist(), codes[codes > 1] - 2):
            errors[j] = DegenerateDataError(
                f"singular embedded covariance: {data.names[rows[j, side]]}")
    return statistics * (n - ds - 1 - (da + db + 1) / 2.0), da * db, errors


def degenerate_gaussian_test(data: DataTable, a: str, b: str,
                             s: Iterable[str] = ()) -> CITestResult:
    """Likelihood-ratio test of a independent of b given s under a Gaussian
    likelihood on the one-hot embedded columns, from the table's cached
    ``DataTable.embedding()`` (see the module docstring): a batch of one of
    the statistics that ``firsts_at`` decides."""
    s = _check_args(data, a, b, s)
    statistics, dofs, errors = _degenerate_gaussian_statistics(
        data, _positions(data, [(a, b, *s)]))
    if errors:  # popped: no local keeps it, and its traceback no cycle
        raise errors.pop(0)
    statistic, dof = float(statistics[0]), int(dofs[0])
    return CITestResult(chi2_sf(statistic, dof), statistic, dof)
