"""Fitting identified expressions to data and scoring predictions.

Two backends evaluate the identified expression on a joint estimated from
the training data: ``DiscreteExactModel`` on a smoothed empirical joint over
discrete columns, ``LinearGaussianModel`` on the Gaussian with the training
data's mean and covariance, where it predicts the target's conditional mean.
Fed a model's population moments, the linear backend is the exact
linear-Gaussian oracle.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import MIN_UNEXPLAINED, DataError, DataTable, cholesky, correlation
from .expressions import (
    Constant, Expression, ExpressionError, Factor, Product, Quotient, SumOver,
    free_vars, from_json as expr_from_json, tabulate, to_json as expr_to_json,
    to_text, variables,
)
from .scm import DiscreteJoint


class EstimationError(ValueError):
    """Backend cannot represent the expression or the data."""


# -- discrete backend --------------------------------------------------------


class DiscreteExactModel:
    """Expression evaluated on an add-one-smoothed empirical joint over
    every variable the expression mentions, free or summed out."""

    def __init__(self, expression: Expression, y: str, joint: DiscreteJoint):
        self.expression = expression
        self.y = y
        self.joint = joint

    @classmethod
    def fit(cls, expression: Expression, train: DataTable,
            y: str) -> "DiscreteExactModel":
        names = sorted(variables(expression) | {y})
        for name in names:
            if not train.is_discrete(name):
                raise EstimationError(
                    f"column {name!r} is continuous; bin it first or use "
                    "the linear-gaussian backend")
        cards = [train.levels(n) for n in names]
        cells = np.ravel_multi_index(
            tuple(train.column(n).astype(int) for n in names), cards)
        counts = np.bincount(cells, minlength=math.prod(cards)) \
            .reshape(cards) + 1.0  # add-one smoothing
        return cls(expression, y, DiscreteJoint(names, counts))

    def predict_proba(self, data: DataTable) -> np.ndarray:
        """Row-wise distribution over the target's levels: the expression
        normalized over the target, uniform where it sums to zero."""
        names, values = tabulate(self.expression, self.joint)
        # an axis per free variable in the joint's order, then the target's
        feats = [v for v in self.joint.names if v in names and v != self.y]
        cards = [self.joint.cards[v] for v in feats]
        table = values.transpose([names.index(v) for v in feats + [self.y]
                                  if v in names]).reshape(cards + [-1])
        table = np.broadcast_to(table, cards + [self.joint.cards[self.y]])
        k = table.shape[-1]
        total = table.sum(axis=-1, keepdims=True)
        # uniform where the total is not positive; a nan total stays nan
        proba = np.divide(table, total, out=np.full(table.shape, 1.0 / k),
                          where=~(total <= 0))
        codes = tuple(data.column(n).astype(int) for n in feats)
        picked = proba[codes] if codes else np.tile(proba, (data.n_rows, 1))
        if np.isnan(picked).any():
            raise ExpressionError("zero denominator with nonzero numerator")
        return picked

    def predict(self, data: DataTable) -> np.ndarray:
        proba = self.predict_proba(data)
        levels = np.arange(proba.shape[1])
        return proba @ levels

    def to_json(self) -> str:
        return json.dumps({
            "backend": "discrete-exact",
            "y": self.y,
            "expression": expr_to_json(self.expression),
            "names": list(self.joint.names),
            "table": self.joint.table.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "DiscreteExactModel":
        d = json.loads(text)
        joint = DiscreteJoint(tuple(d["names"]), np.array(d["table"]))
        return cls(expr_from_json(d["expression"]), d["y"], joint)


# -- linear-gaussian backend -------------------------------------------------


class LinearGaussianModel:
    """The target's conditional mean under the expression evaluated on a
    Gaussian: one slope per feature (the other free variables), then the
    intercept. The expression is evaluated in information form (Lauritzen
    1992; Koller & Friedman 2009, ch. 14), a symmetric M over [columns, 1]
    for the log-density -[x, 1] M [x, 1]^T / 2 plus a constant: P(t | g) is
    L^T S^-1 L, with L = [I, -B, -a] the residual of the regression of t on
    g (slope B, intercept a, residual covariance S); a product adds forms, a
    quotient subtracts them, a sum takes the Schur complement over its
    variables, a constant is zero. The mean is -(M_yF f + M_y1) / M_yy."""

    def __init__(self, y: str, features: tuple[str, ...], coef: np.ndarray):
        self.y = y
        self.features = tuple(features)
        self.coef = np.asarray(coef, dtype=float)
        if self.coef.shape != (len(self.features) + 1,):
            raise EstimationError("need a slope per feature and an intercept")

    @classmethod
    def fit(cls, expression: Expression, train: DataTable,
            y: str) -> "LinearGaussianModel":
        for name in free_vars(expression) | {y}:
            if train.is_discrete(name):
                raise EstimationError(
                    f"column {name!r} is discrete; use the discrete backend")
        mom = train.moments()
        return cls.from_moments(expression, y, mom.mean,
                                mom.scatter / train.n_rows, train.names)

    @classmethod
    def from_moments(cls, expression: Expression, y: str, mean: np.ndarray,
                     cov: np.ndarray, names: Sequence[str]
                     ) -> "LinearGaussianModel":
        """Fit on the Gaussian with this mean and covariance over columns
        ``names``: a training split's moments, or an SCM's population
        moments."""
        index = {n: i for i, n in enumerate(names)}
        form = _information_form(expression, mean, cov, index)
        iy = index[y]
        _cholesky(form[iy:iy + 1, iy:iy + 1], f"no proper conditional of {y}")
        features = tuple(sorted(free_vars(expression) - {y}))
        cols = [index[f] for f in features] + [len(names)]
        return cls(y, features, -form[iy, cols] / form[iy, iy])

    def predict(self, data: DataTable) -> np.ndarray:
        return np.column_stack([data.column(n) for n in self.features]
                               + [np.ones(data.n_rows)]) @ self.coef

    def to_json(self) -> str:
        return json.dumps({
            "backend": "linear-gaussian",
            "y": self.y,
            "features": list(self.features),
            "coef": self.coef.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "LinearGaussianModel":
        d = json.loads(text)
        return cls(d["y"], tuple(d["features"]), np.array(d["coef"]))


def _cholesky(a: np.ndarray, message: str, tol: float = 0.0) -> np.ndarray:
    """``data.cholesky(a, tol)``, or EstimationError(message) where that
    fails."""
    chol = cholesky(a, tol)
    if chol is None:
        raise EstimationError(message)
    return chol


def _information_form(expr: Expression, mean: np.ndarray, cov: np.ndarray,
                      index: dict[str, int]) -> np.ndarray:
    """The expression's information form over [columns, 1] for the Gaussian
    with this mean and covariance (see ``LinearGaussianModel``)."""
    size = len(index) + 1
    sd = np.sqrt(np.diagonal(cov))
    corr = correlation(cov, mean)  # NaN diagonal where a column is constant

    def factor(f: Factor) -> np.ndarray:
        t = [index[v] for v in sorted(f.targets)]
        g = [index[v] for v in sorted(f.given)]
        if np.isnan(corr[t + g, t + g]).any():
            raise EstimationError(f"constant column in {to_text(f)}")
        _cholesky(corr[np.ix_(g, g)], f"collinear givens in {to_text(f)}",
                  math.sqrt(MIN_UNEXPLAINED))
        b = np.linalg.solve(cov[np.ix_(g, g)], cov[np.ix_(g, t)]).T
        # S floored at MIN_UNEXPLAINED on the correlation scale, so a target
        # that is a linear function of its givens keeps a finite form
        scale = np.outer(sd[t], sd[t])
        w, v = np.linalg.eigh((cov[np.ix_(t, t)] - b @ cov[np.ix_(g, t)])
                              / scale)
        lin = np.zeros((len(t), size))
        lin[:, t + g + [size - 1]] = np.column_stack(
            [np.eye(len(t)), -b, b @ mean[g] - mean[t]])
        return lin.T @ (v / np.maximum(w, MIN_UNEXPLAINED) @ v.T / scale) \
            @ lin

    def form(e) -> np.ndarray:
        if isinstance(e, Constant):
            return np.zeros((size, size))
        if isinstance(e, Factor):
            return factor(e)
        if isinstance(e, Product):
            return sum((form(f) for f in e.factors), np.zeros((size, size)))
        if isinstance(e, Quotient):
            return form(e.numerator) - form(e.denominator)
        if isinstance(e, SumOver):
            m = form(e.child)
            w = [index[v] for v in sorted(e.variables)]
            x = np.linalg.solve(
                _cholesky(m[np.ix_(w, w)], f"divergent {to_text(e)}"), m[w])
            m = m - x.T @ x
            m[w, :] = m[:, w] = 0.0
            return m
        raise EstimationError(f"not an expression: {e!r}")

    return form(expr)


BACKENDS = {
    "discrete-exact": DiscreteExactModel,
    "linear-gaussian": LinearGaussianModel,
}


def fit_expression(expression: Expression, train: DataTable, y: str,
                   backend: str):
    if backend not in BACKENDS:
        raise EstimationError(f"unknown backend {backend!r}")
    return BACKENDS[backend].fit(expression, train, y)


def model_from_json(text: str):
    kind = json.loads(text).get("backend")
    if kind not in BACKENDS:
        raise EstimationError(f"unknown backend {kind!r}")
    return BACKENDS[kind].from_json(text)


def validation_loss(model, data: DataTable, y: str) -> float:
    """Mean squared error for continuous targets, mean negative
    log-likelihood for discrete ones."""
    if data.n_rows == 0:
        raise DataError("empty validation data")
    if data.is_discrete(y) and hasattr(model, "predict_proba"):
        proba = model.predict_proba(data)
        idx = data.column(y).astype(int)
        picked = proba[np.arange(data.n_rows), idx]
        return float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    pred = model.predict(data)
    resid = data.column(y) - pred
    return float(np.mean(resid ** 2))


@dataclass
class CandidateModel:
    """One entry of the stability search's result list."""

    kind: str  # "conditional" or "interventional"
    mutable_set: frozenset[str]
    conditioning_set: frozenset[str]
    expression: Expression
    estimator: object | None = None
    validation_loss: float | None = None

    def __post_init__(self):
        if self.kind == "interventional" and \
                self.mutable_set & self.conditioning_set:
            raise ValueError("interventional candidates condition only "
                             "outside the mutable set")

    def label(self) -> str:
        z = ",".join(sorted(self.conditioning_set)) or "-"
        return f"{self.kind}[{z}]"

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "mutable_set": sorted(self.mutable_set),
            "conditioning_set": sorted(self.conditioning_set),
            "expression": expr_to_json(self.expression),
            "estimator": json.loads(self.estimator.to_json())
            if self.estimator is not None else None,
            "validation_loss": self.validation_loss,
        })

    @classmethod
    def from_json(cls, text: str) -> "CandidateModel":
        d = json.loads(text)
        est = None
        if d["estimator"] is not None:
            est = model_from_json(json.dumps(d["estimator"]))
        return cls(d["kind"], frozenset(d["mutable_set"]),
                   frozenset(d["conditioning_set"]),
                   expr_from_json(d["expression"]),
                   est, d["validation_loss"])
