"""Conditional independence tests on tabular data.

``fisher_z_test`` is the classic partial-correlation test for continuous
columns. It reads the correlation matrix a table computes once over all of
its columns (``DataTable.correlation``), so after the first test on a table
each test inverts only the |S|+2 square submatrix, whatever the row count.
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
``MIN_UNEXPLAINED``: the rank rule of ``data.cholesky``, which
``residual_variances`` and the linear backend of ``estimate`` apply too,
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
``fci.DataOracle`` sends every query on an environment pair here, through
``environment_decisions``, which estimates the kurtosis only where it can
change the decision.

Fisher-z and the environment test also run as batches: ``fisher_z_tests``
and ``environment_decisions`` take the conditioning sets of one size for one
pair, gather their submatrices with one fancy index and invert them with
one stacked ``np.linalg.inv``, or factor them with one stacked
``data.cholesky``, then finish each set in Python scalars as it is asked for,
so a caller that stops at the first independent set pays for the scalar
tails of no others. LAPACK runs the same routine on each matrix of a stack,
so a set's p-value is the same in any batch; ``fisher_z_test`` and
``environment_test`` are batches of one.

All p-values come in closed form: the two-sided normal tail as
``erfc(z / sqrt 2)``, and the chi-square upper tail at integer degrees of
freedom as a finite sum of Poisson-type terms (plus an ``erfc`` term for
odd degrees of freedom).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

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
    for s in subsets:
        if a in s or b in s:
            raise DataError("a and b must not appear in the conditioning set")
    if not {a, b}.union(*subsets) <= data.index.keys():
        for name in (a, b, *(name for s in subsets for name in s)):
            data.column(name)
    return subsets


def results(test: Callable, data: DataTable, a: str, b: str,
            subsets: Iterable[Iterable[str]]) -> Iterator[CITestResult]:
    """``test(data, a, b, s)`` for each conditioning set of ``subsets`` (all
    of one size), in order, as they are asked for; Fisher-z answers them as
    one batch (``fisher_z_tests``)."""
    if test is fisher_z_test:
        return fisher_z_tests(data, a, b, subsets)
    return (test(data, a, b, s) for s in subsets)


def fisher_z_tests(data: DataTable, a: str, b: str,
                   subsets: Iterable[Iterable[str]]
                   ) -> Iterator[CITestResult]:
    """``fisher_z_test(data, a, b, s)`` for each conditioning set of
    ``subsets`` (all of one size), in order, as they are asked for.

    The |s|+2 square submatrices are gathered by one fancy index and
    inverted by one stacked ``np.linalg.inv``, up to the first that holds a
    NaN (a constant column); if that call fails, the batch is finished one
    inverse at a time. A set whose test cannot be run raises when its
    result is asked for, not before.
    """
    subsets = _check_args(data, a, b, subsets)
    if not subsets:
        return
    # discrete columns are used as plain numeric codes here
    n, size = data.n_rows, len(subsets[0])
    if n <= size + 3:
        raise DataError("too few rows for the conditioning set size")
    index = data.index
    pair = [index[a], index[b]]
    # broadcast index arrays: np.ix_ would cost more than the lookup itself
    idx = np.array([pair + [index[name] for name in s] for s in subsets])
    corr = data.correlation()[idx[:, :, None], idx[:, None, :]]
    nan = np.isnan(corr).any(axis=(1, 2))
    stop = int(nan.argmax()) if nan.any() else len(subsets)
    try:  # the a-b block of each precision matrix, as Python floats
        prec = np.linalg.inv(corr[:stop])[:, :2, :2].reshape(-1, 4).tolist()
    except np.linalg.LinAlgError:
        prec = None
    scale = math.sqrt(n - size - 3)
    for j in range(len(subsets)):
        if j == stop:
            names = [a, b, *subsets[j]]
            k = np.isnan(corr[j].diagonal()).argmax()
            raise DegenerateDataError(
                f"constant column in correlation matrix: {names[k]}")
        if prec is not None:
            p00, p01, _, p11 = prec[j]
        else:
            try:
                p00, p01, _, p11 = np.linalg.inv(corr[j])[:2, :2].flat
            except np.linalg.LinAlgError:
                raise DegenerateDataError(
                    "singular covariance submatrix") from None
        r = -p01 / math.sqrt(p00 * p11)
        r = min(max(r, -1.0 + 1e-12), 1.0 - 1e-12)
        statistic = scale * abs(math.atanh(r))
        yield CITestResult(p_value=normal_two_sided_p(statistic),
                           statistic=statistic, dof=1)


def fisher_z_test(data: DataTable, a: str, b: str,
                  s: Iterable[str] = ()) -> CITestResult:
    """Two-sided test of zero partial correlation of a and b given s: a
    batch of one of ``fisher_z_tests``."""
    return next(fisher_z_tests(data, a, b, [s]))


def residual_variances(data: DataTable, x: str,
                       subsets: list[list[str]]) -> list[tuple | None]:
    """Maximum-likelihood residual variances of the regression of x on s
    with intercept, for each conditioning set s of ``subsets`` (all of one
    size): (rows per environment, per-environment variances, pooled
    variance over all rows), or None where s is degenerate within an
    environment (a column of s constant there, or s collinear there).

    The share of var(x) that s leaves unexplained is the square of the last
    diagonal entry of the Cholesky factor of the correlation matrix of
    [*s, x]. A set's m + 1 matrices, one per environment and the pooled
    one, come from ``DataTable.correlations``, and the (m + 1) k matrices
    of k sets are factored in one stacked ``data.cholesky`` call. Where
    that call fails, each set is factored alone, and where that fails too,
    s alone is factored and the share is 1 - |L_s^-1 r|^2, with r the
    correlations of x with s. A variance is 0 where x is constant, or a
    linear function of s, within that environment (up to rounding, see
    ``MIN_UNEXPLAINED``).

    Raises ``DegenerateDataError`` if the table has a single environment,
    and ``DataError`` if an environment has no more than |s| + 2 rows.
    """
    mom = data.moments()
    counts = mom.counts
    if len(counts) < 2:
        raise DegenerateDataError("environment column takes a single value")
    if not subsets:
        return []
    if counts.min() <= len(subsets[0]) + 2:
        raise DataError("an environment has too few rows for the "
                        "conditioning set size")
    i = data.index[x]
    idx = np.array([[data.index[name] for name in s] + [i] for s in subsets])
    groups = np.arange(len(counts) + 1)[:, None, None]
    # (k, m + 1, |s| + 1, |s| + 1): the blocks of one set side by side
    corr = data.correlations()[groups, idx[:, None, :, None],
                               idx[:, None, None, :]]
    tol = math.sqrt(MIN_UNEXPLAINED)
    chol = cholesky(corr.reshape(-1, *corr.shape[2:]), tol)
    if chol is not None:
        shares = (chol[:, -1, -1] ** 2).reshape(corr.shape[:2])
    else:
        shares = np.array([_unexplained_share(c, tol) for c in corr])
    sigma2 = mom.grams[:, i, i] / counts * shares[:, 1:]
    pooled = (mom.scatter[i, i] / data.n_rows * shares[:, 0]).tolist()
    return [None if math.isnan(v) else (counts, s2, v)
            for s2, v in zip(sigma2, pooled)]


def _unexplained_share(corr: np.ndarray, tol: float) -> np.ndarray:
    """Share of the last column's variance left unexplained by the others,
    in each of a stack of correlation matrices; NaN throughout if the
    others are degenerate in one of them."""
    chol = cholesky(corr, tol)
    if chol is not None:
        return chol[:, -1, -1] ** 2
    ls = cholesky(corr[:, :-1, :-1], tol)
    if ls is None:
        return np.full(len(corr), np.nan)
    # r, and so the share, is NaN where x is constant within a group
    z = np.linalg.solve(ls, corr[:, :-1, -1:])
    share = corr[:, -1, -1] - np.sum(z * z, axis=(1, 2))
    share[~(share > MIN_UNEXPLAINED)] = 0.0
    return share


def residual_kurtosis(data: DataTable, x: str, s: Iterable[str] = ()
                      ) -> float:
    """Kurtosis E[r^4] / E[r^2]^2 of the residual r of the regression of x
    on s with intercept, fitted within each environment, estimated on the
    rows of ``DataTable.moments().sample``; the average over environments,
    weighted by their rows there. 3 for Gaussian residuals.

    Each environment's residual is standardized by its own variance, so a
    change of scale between environments does not raise the estimate. s
    must not be degenerate within an environment (see
    ``residual_variances``).
    """
    mom = data.moments()
    s = list(s)
    idx = [data.index[name] for name in s]
    i = data.index[x]
    r = mom.sample[:, i].copy()
    if s:
        g = mom.grams
        beta = np.linalg.solve(g[:, np.array(idx)[:, None], idx],
                               g[:, idx, i][:, :, None])[:, :, 0]
        r -= np.einsum("rj,rj->r", mom.sample[:, idx],
                       np.repeat(beta, mom.sample_counts, axis=0))
    r2 = r * r
    starts = np.concatenate([[0], np.cumsum(mom.sample_counts)[:-1]])
    m2 = np.add.reduceat(r2, starts)
    m4 = np.add.reduceat(r2 * r2, starts)
    counts = mom.sample_counts
    return float(np.sum(counts * counts * m4 / (m2 * m2)) / counts.sum())


class _EnvironmentParts(NamedTuple):
    """The two parts of the environment test's likelihood ratio for the
    conditional of x given s."""

    x: str
    s: list[str]
    location: float     # one regression against one per environment
    scale: float        # one residual variance against one per environment
    dof: int


def _environment_parts(data: DataTable, a: str, b: str,
                       subsets: Iterable[Iterable[str]], fallback: Callable
                       ) -> Iterator[CITestResult | _EnvironmentParts]:
    """The likelihood-ratio parts of ``environment_test`` for each
    conditioning set of ``subsets`` (all of one size), in order, as they
    are asked for, or its result where the data settle the query without
    them."""
    subsets = _check_args(data, a, b, subsets)
    env = data.env_column
    if env is None or env not in (a, b):
        raise DataError("environment_test needs the table's environment "
                        "column as a or b")
    x = b if a == env else a
    if data.is_discrete(x):
        yield from results(fallback, data, a, b, subsets)
        return
    try:
        variances = residual_variances(data, x, subsets)
    except DataError:
        yield from results(fallback, data, a, b, subsets)
        return
    n = data.n_rows
    for s, got in zip(subsets, variances):
        if got is None:
            yield fallback(data, a, b, s)
            continue
        counts, sigma2, pooled = got
        dof = (len(counts) - 1) * (len(s) + 2)
        counts, sigma2 = counts.tolist(), sigma2.tolist()  # m is small
        if min(sigma2) == 0.0:  # x degenerate within some environment
            if max(sigma2) > 0.0:
                yield CITestResult(p_value=0.0, statistic=math.inf, dof=dof)
            else:
                yield fallback(data, a, b, s)
            continue
        within = sum(c * v for c, v in zip(counts, sigma2)) / n
        location = max(n * math.log(pooled / within), 0.0)
        scale = max(n * math.log(within) -
                    sum(c * math.log(v) for c, v in zip(counts, sigma2)),
                    0.0)
        yield _EnvironmentParts(x, s, location, scale, dof)


def _corrected(data: DataTable, parts: _EnvironmentParts) -> CITestResult:
    inflation = max(0.5 * (residual_kurtosis(data, parts.x, parts.s) - 1.0),
                    1.0)
    statistic = parts.location + parts.scale / inflation
    return CITestResult(p_value=chi2_sf(statistic, parts.dof),
                        statistic=statistic, dof=parts.dof)


def environment_test(data: DataTable, a: str, b: str,
                     s: Iterable[str] = (),
                     fallback: Callable = fisher_z_test) -> CITestResult:
    """Test that the conditional of the non-environment side given s is the
    same in every environment; one of a, b must be the table's environment
    column (see the module docstring).

    If that side is constant or a linear function of s within some
    environments but not all, its conditional plainly changes: p = 0.
    ``fallback`` answers the query on the pooled rows if that side is
    discrete, if it is constant or a linear function of s within every
    environment, if s is degenerate within an environment, if an
    environment has too few rows for |s|, or if the table has a single
    environment.
    """
    parts = next(_environment_parts(data, a, b, [s], fallback))
    if isinstance(parts, CITestResult):
        return parts
    return _corrected(data, parts)


def environment_decisions(data: DataTable, a: str, b: str,
                          subsets: Iterable[Iterable[str]], alpha: float,
                          fallback: Callable = fisher_z_test
                          ) -> Iterator[bool]:
    """Whether ``environment_test(data, a, b, s, fallback).p_value >=
    alpha``, for each conditioning set of ``subsets`` (all of one size), in
    order, as they are asked for.

    The kurtosis correction only shrinks the scale part, so the p-value
    lies between the chi-square tails at location + scale and at location
    alone; the kurtosis is estimated only when alpha falls between them.
    """
    for parts in _environment_parts(data, a, b, subsets, fallback):
        if isinstance(parts, CITestResult):
            yield parts.p_value >= alpha
        elif chi2_sf(parts.location + parts.scale, parts.dof) >= alpha:
            yield True
        elif chi2_sf(parts.location, parts.dof) < alpha:
            yield False
        else:
            yield _corrected(data, parts).p_value >= alpha


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
