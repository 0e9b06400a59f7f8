"""Conditional independence tests on tabular data.

``fisher_z_test`` is the classic partial-correlation test for continuous
columns. It reads the correlation matrix a table computes once over all of
its columns (``DataTable.correlation``), so after the first test on a table
each test inverts only the |S|+2 square submatrix, whatever the row count.
``degenerate_gaussian_test`` handles mixed continuous/discrete columns by
one-hot embedding discrete levels (dropping the last) and comparing Gaussian
likelihoods with and without the a-b dependence; it works on the rows.

Both p-values come in closed form: the two-sided normal tail as
``erfc(z / sqrt 2)``, and the chi-square upper tail at integer degrees of
freedom as a finite sum of Poisson-type terms (plus an ``erfc`` term for
odd degrees of freedom).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .data import DataError, DataTable


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


def _check_args(data: DataTable, a: str, b: str, s: Iterable[str]) -> list[str]:
    s = sorted(set(s))
    if a == b:
        raise DataError("a and b must differ")
    if a in s or b in s:
        raise DataError("a and b must not appear in the conditioning set")
    for name in (a, b, *s):
        data.column(name)
    return s


def fisher_z_test(data: DataTable, a: str, b: str,
                  s: Iterable[str] = ()) -> CITestResult:
    """Two-sided test of zero partial correlation of a and b given s."""
    s = _check_args(data, a, b, s)
    # discrete columns are used as plain numeric codes here
    n = data.n_rows
    if n <= len(s) + 3:
        raise DataError("too few rows for the conditioning set size")
    idx = [data.index[name] for name in (a, b, *s)]
    corr = data.correlation()[np.ix_(idx, idx)]
    if np.isnan(corr).any():
        raise DegenerateDataError("constant column in correlation matrix")
    try:
        prec = np.linalg.inv(corr)
    except np.linalg.LinAlgError:
        raise DegenerateDataError("singular covariance submatrix") from None
    r = -prec[0, 1] / math.sqrt(prec[0, 0] * prec[1, 1])
    r = min(max(r, -1.0 + 1e-12), 1.0 - 1e-12)
    z = math.atanh(r)
    statistic = math.sqrt(n - len(s) - 3) * abs(z)
    p = normal_two_sided_p(statistic)
    return CITestResult(p_value=p, statistic=statistic, dof=1)


def _embed(data: DataTable, name: str) -> np.ndarray:
    """One column as an n x w design block; discrete columns are one-hot
    encoded with the last level dropped."""
    col = data.column(name)
    if not data.is_discrete(name):
        return col[:, None]
    k = data.levels(name)
    block = np.zeros((col.shape[0], k - 1))
    idx = col.astype(int)
    keep = idx < k - 1
    block[np.arange(col.shape[0])[keep], idx[keep]] = 1.0
    return block


def degenerate_gaussian_test(data: DataTable, a: str, b: str,
                             s: Iterable[str] = ()) -> CITestResult:
    """Likelihood-ratio test of a independent of b given s under a Gaussian
    likelihood on the one-hot embedded columns."""
    s = _check_args(data, a, b, s)
    n = data.n_rows
    ea = _embed(data, a)
    eb = _embed(data, b)
    blocks = [np.ones((n, 1))] + [_embed(data, name) for name in s]
    es = np.column_stack(blocks)
    da, db, ds = ea.shape[1], eb.shape[1], es.shape[1]
    if n <= ds + da + db + 1:
        raise DataError("too few rows for the embedded covariance")

    def residualize(block):
        coef, *_ = np.linalg.lstsq(es, block, rcond=None)
        return block - es @ coef

    ra = residualize(ea)
    rb = residualize(eb)
    # canonical correlations between the residual blocks
    qa, sa, _ = np.linalg.svd(ra, full_matrices=False)
    qb, sb, _ = np.linalg.svd(rb, full_matrices=False)
    tol = n * np.finfo(float).eps
    ka = int(np.sum(sa > tol * max(sa[0], 1.0))) if sa.size else 0
    kb = int(np.sum(sb > tol * max(sb[0], 1.0))) if sb.size else 0
    if ka < da or kb < db:
        raise DegenerateDataError("singular embedded covariance")
    rho = np.linalg.svd(qa[:, :ka].T @ qb[:, :kb], compute_uv=False)
    rho = np.clip(rho, 0.0, 1.0 - 1e-12)
    # Bartlett-corrected Wilks lambda against a chi-square reference
    scale = n - (ds - 1) - 1 - (da + db + 1) / 2.0
    statistic = -scale * float(np.sum(np.log1p(-rho ** 2)))
    dof = da * db
    p = chi2_sf(statistic, dof)
    return CITestResult(p_value=float(p), statistic=float(statistic), dof=dof)
