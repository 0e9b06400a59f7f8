"""Fitting identified expressions to data and scoring predictions.

Two backends: ``DiscreteExactModel`` evaluates the expression against a
smoothed empirical joint over discrete columns; ``LinearGaussianModel``
fits each factor by least squares and predicts the target's conditional
mean, residualizing away the contribution of intervened parents where the
expression requires it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .data import CONTINUOUS, DataError, DataTable
from .expressions import (
    Expression, Factor, Product, Quotient, SumOver, evaluate, free_vars,
    from_json as expr_from_json, to_json as expr_to_json,
)
from .scm import DiscreteJoint


class EstimationError(ValueError):
    """Backend cannot represent the expression or the data."""


# -- discretization helper ---------------------------------------------------


def quantile_edges(values: np.ndarray, bins: int) -> np.ndarray:
    """Interior cut points giving roughly equal-count bins."""
    qs = np.linspace(0, 1, bins + 1)[1:-1]
    return np.quantile(values, qs)


def discretize(table: DataTable, bins: int,
               edges: dict[str, np.ndarray] | None = None):
    """Bin every continuous column into equal-count levels.

    Returns the binned table and the per-column edges used, so test data
    can reuse the training cuts.
    """
    edges = dict(edges or {})
    cols, kinds = {}, {}
    for name in table.names:
        col = table.column(name)
        if table.is_discrete(name):
            cols[name] = col
            kinds[name] = table.levels(name)
            continue
        if name not in edges:
            edges[name] = quantile_edges(col, bins)
        cols[name] = np.searchsorted(edges[name], col).astype(float)
        kinds[name] = bins
    return DataTable(cols, kinds, table.env_column), edges


# -- discrete backend --------------------------------------------------------


class DiscreteExactModel:
    """Expression evaluated on an add-one-smoothed empirical joint."""

    def __init__(self, expression: Expression, y: str, joint: DiscreteJoint):
        self.expression = expression
        self.y = y
        self.joint = joint
        self.variables = tuple(joint.names)

    @classmethod
    def fit(cls, expression: Expression, train: DataTable,
            y: str) -> "DiscreteExactModel":
        names = sorted(free_vars(expression) | {y})
        for name in names:
            if not train.is_discrete(name):
                raise EstimationError(
                    f"column {name!r} is continuous; bin it first or use "
                    "the linear-gaussian backend")
        cards = [train.levels(n) for n in names]
        counts = np.ones(cards)  # add-one smoothing
        idx = tuple(train.column(n).astype(int) for n in names)
        np.add.at(counts, idx, 1.0)
        return cls(expression, y, DiscreteJoint(names, counts))

    def predict_proba(self, data: DataTable) -> np.ndarray:
        """Row-wise distribution over the target's levels, normalized from
        the expression."""
        k = self.joint.cards[self.y]
        feats = [n for n in self.variables if n != self.y]
        rows = np.column_stack([data.column(n).astype(int) for n in feats]) \
            if feats else np.zeros((data.n_rows, 0), dtype=int)
        cache: dict[tuple, np.ndarray] = {}
        out = np.empty((data.n_rows, k))
        for i in range(data.n_rows):
            key = tuple(rows[i])
            if key not in cache:
                assignment = dict(zip(feats, key))
                vals = np.empty(k)
                for yv in range(k):
                    assignment[self.y] = yv
                    vals[yv] = evaluate(self.expression, self.joint,
                                        assignment)
                total = vals.sum()
                cache[key] = vals / total if total > 0 else np.full(k, 1.0 / k)
            out[i] = cache[key]
        return out

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


@dataclass(frozen=True)
class _AuxFeature:
    """Residualized column: child minus the fitted contribution of its
    non-target parents."""

    child: str
    parents: tuple[str, ...]
    coef: tuple[float, ...]

    def compute(self, data: DataTable) -> np.ndarray:
        col = data.column(self.child).astype(float).copy()
        for p, c in zip(self.parents, self.coef):
            col -= c * data.column(p)
        return col


def _lstsq(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    design = np.column_stack([x, np.ones(len(y))])
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise EstimationError("rank-deficient regression design")
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return coef


class LinearGaussianModel:
    """Least-squares fit of the target's conditional mean.

    Plain conditional factors contribute their given-variables as features.
    A factor whose single target is a conditioning variable with the target
    among its parents triggers the auxiliary-variable reduction: the factor
    is fitted by regression, the non-target parents' contribution is
    subtracted from the child, and the residualized column becomes a
    feature. This reproduces interventional conditional means for linear
    systems where intervened parents must not leak through descendants.
    """

    def __init__(self, y: str, features: tuple[str, ...],
                 aux: tuple[_AuxFeature, ...], coef: np.ndarray):
        self.y = y
        self.features = features
        self.aux = aux
        self.coef = np.asarray(coef, dtype=float)

    @classmethod
    def fit(cls, expression: Expression, train: DataTable,
            y: str) -> "LinearGaussianModel":
        for name in free_vars(expression) | {y}:
            if train.is_discrete(name):
                raise EstimationError(
                    f"column {name!r} is discrete; use the discrete backend")
        factors = _numerator_factors(expression)
        direct: set[str] = set()
        aux: list[_AuxFeature] = []
        for f in factors:
            if y in f.targets:
                if len(f.targets) != 1:
                    raise EstimationError(
                        "target must appear as a single-variable factor")
                direct |= set(f.given)
            elif y in f.given and len(f.targets) == 1:
                child = next(iter(f.targets))
                parents = sorted(f.given)
                coef = _lstsq(train.matrix(parents), train.column(child))
                other = [(p, c) for p, c in zip(parents, coef)
                         if p != y]
                aux.append(_AuxFeature(
                    child,
                    tuple(p for p, _ in other),
                    tuple(float(c) for _, c in other)))
            # factors not mentioning the target carry no information about
            # its conditional mean
        aux_t = tuple(sorted(aux, key=lambda a: a.child))
        feats = tuple(sorted(direct))
        cols = [a.compute(train) for a in aux_t] + \
               [train.column(n) for n in feats]
        x = np.column_stack(cols) if cols else np.zeros((train.n_rows, 0))
        coef = _lstsq(x, train.column(y))
        return cls(y, feats, aux_t, coef)

    def predict(self, data: DataTable) -> np.ndarray:
        cols = [a.compute(data) for a in self.aux] + \
               [data.column(n) for n in self.features]
        x = np.column_stack(cols) if cols else np.zeros((data.n_rows, 0))
        return np.column_stack([x, np.ones(data.n_rows)]) @ self.coef

    def to_json(self) -> str:
        return json.dumps({
            "backend": "linear-gaussian",
            "y": self.y,
            "features": list(self.features),
            "aux": [{"child": a.child, "parents": list(a.parents),
                     "coef": list(a.coef)} for a in self.aux],
            "coef": self.coef.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "LinearGaussianModel":
        d = json.loads(text)
        aux = tuple(_AuxFeature(a["child"], tuple(a["parents"]),
                                tuple(a["coef"])) for a in d["aux"])
        return cls(d["y"], tuple(d["features"]), aux, np.array(d["coef"]))


def _numerator_factors(expression: Expression) -> list[Factor]:
    """Probability factors of the expression ignoring normalizing sums."""
    if isinstance(expression, Factor):
        return [expression]
    if isinstance(expression, Product):
        out = []
        for f in expression.factors:
            out.extend(_numerator_factors(f))
        return out
    if isinstance(expression, Quotient):
        # the denominator in identified conditionals is the normalizer over
        # the target, already handled by normalized prediction
        return _numerator_factors(expression.numerator)
    if isinstance(expression, SumOver):
        return _numerator_factors(expression.child)
    return []


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


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of a 1-d array, tied values sharing their mean rank."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    first = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    last = np.r_[first[1:], len(values)]   # one past each tie group
    group = np.repeat(np.arange(len(first)), last - first)
    ranks = np.empty(len(values))
    ranks[order] = ((first + 1 + last) / 2.0)[group]
    return ranks


def rank_correlation(pred_a: Sequence[float],
                     pred_b: Sequence[float]) -> float:
    """Spearman correlation: Pearson correlation of the average ranks."""
    a = np.asarray(pred_a, dtype=float)
    b = np.asarray(pred_b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise ValueError("need two equal-length lists of at least 2 values")
    if np.ptp(a) == 0 or np.ptp(b) == 0:
        raise ValueError("zero variance in ranks")
    r = np.corrcoef(_average_ranks(a), _average_ranks(b))[0, 1]
    return float(np.clip(r, -1.0, 1.0))


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
