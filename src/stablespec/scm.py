"""Structural causal models used for simulation and as exact oracles.

Two families: linear Gaussian systems (the shift benchmark) and discrete
table-based systems (exact interventional probabilities by truncated
factorization, the ground truth for identification tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .graph import GraphError, MixedGraph


class SCMError(ValueError):
    """Malformed model specification or an impossible query."""


class UndefinedConditionalError(SCMError):
    """The conditioning event has probability zero."""


# -- linear Gaussian -------------------------------------------------------


@dataclass(frozen=True)
class LinearGaussianSCM:
    """Equations v = intercept + sum(coef * parent) + N(0, std^2).

    ``order`` lists every variable (including latents) topologically;
    ``observed`` names the columns that sampling exposes.
    """

    order: tuple[str, ...]
    coefficients: Mapping[str, Mapping[str, float]]
    noise_std: Mapping[str, float]
    observed: tuple[str, ...]
    intercepts: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        for v in self.order:
            if self.noise_std[v] <= 0:
                raise SCMError(f"non-positive noise variance for {v}")
            for p in self.coefficients.get(v, {}):
                if self.order.index(p) >= self.order.index(v):
                    raise SCMError(f"parent {p} of {v} out of order")

    def noise(self, n: int, seed: int) -> dict[str, np.ndarray]:
        """The draws intercept + N(0, std^2) that ``sample(n, seed)`` adds
        to each variable of ``order``, in that order."""
        if n < 1:
            raise SCMError("need at least one sample")
        rng = np.random.default_rng(seed)
        return {v: rng.normal(self.intercepts.get(v, 0.0),
                              self.noise_std[v], n)
                for v in self.order}

    def sample(self, n: int, seed: int) -> dict[str, np.ndarray]:
        cols = self.noise(n, seed)
        for v in self.order:
            x = cols[v]
            for p, c in self.coefficients.get(v, {}).items():
                x = x + c * cols[p]
            cols[v] = x
        return {v: cols[v] for v in self.observed}

    def total_effects(self) -> np.ndarray:
        """(I-B)^-1 over ``order``, B the coefficients: row v holds the
        weight of each variable's noise draw in v, built parents first."""
        pos = {v: i for i, v in enumerate(self.order)}
        a = np.eye(len(pos))
        for v in self.order:
            for p, c in self.coefficients.get(v, {}).items():
                a[pos[v]] += c * a[pos[p]]
        return a

    def moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Population mean (I-B)^-1 c and covariance (I-B)^-1 D (I-B)^-T of
        ``observed``; B the coefficients, c intercepts, D noise variances."""
        pos = {v: i for i, v in enumerate(self.order)}
        a = self.total_effects()[[pos[v] for v in self.observed]]
        c = [self.intercepts.get(v, 0.0) for v in self.order]
        return a @ c, a * [self.noise_std[v] ** 2 for v in self.order] @ a.T


def shift_benchmark_scm(alpha: float) -> LinearGaussianSCM:
    """The five-equation benchmark; alpha scales the hidden common cause."""
    return LinearGaussianSCM(
        order=("X3", "U", "Y", "X1", "X2"),
        coefficients={"Y": {"X3": 0.5, "U": 5.0},
                      "X1": {"U": alpha},
                      "X2": {"Y": 0.2, "X1": -1.0}},
        noise_std={v: 0.1 for v in ("X3", "U", "Y", "X1", "X2")},
        observed=("X1", "X2", "X3", "Y"),
    )


# -- discrete --------------------------------------------------------------


class DiscreteJoint:
    """Exact joint distribution over named discrete variables."""

    def __init__(self, names: Sequence[str], table: np.ndarray):
        self.names = tuple(names)
        table = np.asarray(table, dtype=float)
        if table.ndim != len(self.names):
            raise SCMError("table rank does not match variable count")
        total = table.sum()
        if total <= 0:
            raise SCMError("joint table sums to zero")
        self.table = table / total

    @property
    def cards(self) -> dict[str, int]:
        return {v: self.table.shape[i] for i, v in enumerate(self.names)}

    def marginal(self, keep: Iterable[str]) -> "DiscreteJoint":
        keep = [v for v in self.names if v in set(keep)]
        axes = tuple(i for i, v in enumerate(self.names) if v not in keep)
        return DiscreteJoint(keep, self.table.sum(axis=axes))

    def prob(self, assignment: Mapping[str, int]) -> float:
        """P(vars in assignment = values), other variables summed out."""
        unknown = set(assignment) - set(self.names)
        if unknown:
            raise SCMError(f"unknown variables {sorted(unknown)}")
        idx = tuple(assignment.get(v, slice(None)) for v in self.names)
        return float(self.table[idx].sum())

    def conditional(self, targets: Mapping[str, int],
                    given: Mapping[str, int]) -> float:
        overlap = set(targets) & set(given)
        if overlap:
            raise SCMError(f"variables on both sides: {sorted(overlap)}")
        pz = self.prob(given)
        if pz <= 0:
            raise UndefinedConditionalError(
                f"conditioning event {dict(given)} has probability zero")
        return self.prob({**targets, **given}) / pz


class DiscreteSCM:
    """Discrete structural model with finite conditional tables.

    ``tables[v]`` has shape (card(parent_1), ..., card(parent_k), card(v))
    with parents in the order of ``parents[v]``. Latents are ordinary
    variables absent from ``observed``.
    """

    def __init__(self, order: Sequence[str],
                 parents: Mapping[str, Sequence[str]],
                 tables: Mapping[str, np.ndarray],
                 observed: Iterable[str] | None = None):
        self.order = tuple(order)
        self.parents = {v: tuple(parents.get(v, ())) for v in self.order}
        self.tables = {v: np.asarray(tables[v], dtype=float) for v in self.order}
        self.observed = tuple(observed) if observed is not None else self.order
        self.cards = {v: self.tables[v].shape[-1] for v in self.order}
        for v in self.order:
            t = self.tables[v]
            expect = tuple(self.cards[p] for p in self.parents[v]) + (self.cards[v],)
            if t.shape != expect:
                raise SCMError(f"table shape for {v}: {t.shape} != {expect}")
            if not np.allclose(t.sum(axis=-1), 1.0, atol=1e-9):
                raise SCMError(f"conditional table for {v} does not normalize")
            for p in self.parents[v]:
                if self.order.index(p) >= self.order.index(v):
                    raise SCMError(f"parent {p} of {v} out of order")

    @classmethod
    def random_for_admg(cls, g: MixedGraph, seed: int, card: int = 2,
                        concentration: float = 1.0) -> "DiscreteSCM":
        """Random tables consistent with an ADMG; one binary uniform latent
        is materialized per bidirected edge."""
        if g.kind != "ADMG":
            raise GraphError(f"expected an ADMG, got {g.kind}")
        rng = np.random.default_rng(seed)
        latent_of = {}
        for e in g.edges:
            if e.is_bidirected:
                latent_of[e] = f"_U{len(latent_of)}"
        parents: dict[str, tuple[str, ...]] = {}
        for v in g.vertices:
            ps = sorted(g.parents(v))
            ps += sorted(latent_of[e] for e in g.edges_at(v) if e in latent_of)
            parents[v] = tuple(ps)
        order = list(latent_of.values())
        remaining = [v for v in g.vertices]
        while remaining:
            v = next(u for u in remaining
                     if all(p in order for p in parents[u]))
            order.append(v)
            remaining.remove(v)
        cards = {v: card for v in g.vertices} | {u: 2 for u in latent_of.values()}
        tables = {}
        for v in order:
            if v.startswith("_U"):
                tables[v] = np.full(2, 0.5)
                parents.setdefault(v, ())
                continue
            shape = tuple(cards[p] for p in parents[v]) + (cards[v],)
            t = rng.dirichlet(np.full(cards[v], concentration),
                              size=shape[:-1] or (1,))
            tables[v] = t.reshape(shape)
        return cls(order, parents, tables,
                   observed=tuple(g.vertices))

    def with_mechanism(self, v: str, table: np.ndarray) -> "DiscreteSCM":
        """Copy of this model with the conditional table of v replaced."""
        if v not in self.order:
            raise SCMError(f"unknown variable {v}")
        tables = dict(self.tables)
        tables[v] = table
        return DiscreteSCM(self.order, self.parents, tables, self.observed)

    def random_mechanism(self, v: str, seed: int,
                         concentration: float = 1.0) -> "DiscreteSCM":
        """Copy with a fresh random conditional table for v."""
        rng = np.random.default_rng(seed)
        shape = self.tables[v].shape
        t = rng.dirichlet(np.full(shape[-1], concentration),
                          size=shape[:-1] or (1,))
        return self.with_mechanism(v, t.reshape(shape))

    def joint(self, intervention: Mapping[str, int] | None = None) -> DiscreteJoint:
        """Joint over observed variables; under an intervention the factors
        of intervened variables are replaced by point masses (truncated
        factorization), latents summed out."""
        intervention = dict(intervention or {})
        unknown = set(intervention) - set(self.order)
        if unknown:
            raise SCMError(f"unknown intervened variables {sorted(unknown)}")
        names = list(self.order)
        pos = {v: i for i, v in enumerate(names)}
        shape = tuple(self.cards[v] for v in names)
        full = np.ones(shape)
        for v in names:
            if v in intervention:
                val = intervention[v]
                if not 0 <= val < self.cards[v]:
                    raise SCMError(f"value {val} out of range for {v}")
                fac = np.zeros(self.cards[v])
                fac[val] = 1.0
                dims = [pos[v]]
            else:
                fac = self.tables[v]
                dims = [pos[p] for p in self.parents[v]] + [pos[v]]
            order = sorted(range(len(dims)), key=lambda i: dims[i])
            fac = np.transpose(fac, axes=order)
            newshape = [1] * len(names)
            for d in dims:
                newshape[d] = shape[d]
            full = full * fac.reshape(newshape)
        dj = DiscreteJoint(names, full)
        return dj.marginal(self.observed)

    def sample(self, n: int, seed: int) -> dict[str, np.ndarray]:
        rng = np.random.default_rng(seed)
        cols = {}
        for v in self.order:
            t = self.tables[v]
            rows = t[tuple(cols[p] for p in self.parents[v])] if self.parents[v] \
                else np.broadcast_to(t, (n, self.cards[v]))
            u = rng.random(n)
            draws = (u[:, None] > rows.cumsum(axis=-1)).sum(axis=1)
            cols[v] = np.minimum(draws, self.cards[v] - 1)
        return {v: cols[v] for v in self.observed}


# -- the planted practice-pattern scenario ---------------------------------

# per-site lab-timing tables: P(L=1 | outcome, site)
_LAB_TIME = {1: (0.4, 0.65), 2: (0.5, 0.5), 3: (0.65, 0.4)}


def practice_pattern_scm(site: int) -> DiscreteSCM:
    """A small synthetic cohort with a planted workflow variable.

    A is an admission feature, Y the outcome, B a physiologic marker, and L
    a lab-timing flag whose mechanism differs per site: correlated with the
    outcome at site 1, independent at site 2, anti-correlated at site 3.
    Everything except L is shared across sites.
    """
    if site not in _LAB_TIME:
        raise SCMError(f"unknown site {site}")
    p0, p1 = _LAB_TIME[site]
    tables = {
        "A": np.array([0.5, 0.5]),
        "Y": np.array([[0.8, 0.2], [0.4, 0.6]]),
        "B": np.array([[0.7, 0.3], [0.3, 0.7]]),
        "L": np.array([[1 - p0, p0], [1 - p1, p1]]),
    }
    return DiscreteSCM(order=("A", "Y", "B", "L"),
                       parents={"Y": ("A",), "B": ("Y",), "L": ("Y",)},
                       tables=tables)
