"""Stability-first predictor search, simulation, and shift sweeps.

Given a PAG and a set of mutable vertices, the search enumerates
conditioning sets, keeps those whose conditional is provably invariant to
mechanism changes of the mutable set (directly, or through an identified
interventional expression), fits every surviving candidate, and returns
the one with the lowest validation loss.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .data import DataError, DataTable
from .estimate import (
    CandidateModel, EstimationError, LinearGaussianModel, fit_expression,
    validation_loss,
)
from .expressions import Factor
from .graph import GraphError, MixedGraph
from .identify import FAIL, SearchContext
from .scm import shift_benchmark_scm

SEARCH_MODES = ("full", "conditional-only", "single-env")
DEFAULT_MAX_OBSERVED = 20
VAL_FRACTION = 0.2


@dataclass(frozen=True)
class InvarianceSpec:
    """A PAG plus the vertices whose mechanisms are allowed to change."""

    pag: MixedGraph
    mutable: frozenset[str]

    def __init__(self, pag: MixedGraph, mutable: Iterable[str]):
        object.__setattr__(self, "pag", pag)
        object.__setattr__(self, "mutable", frozenset(mutable))
        pag.check_vertices(self.mutable)


class SearchBudgetError(GraphError):
    """Exhaustive enumeration refused: too many candidate vertices."""


def stable_candidates(spec: InvarianceSpec, target: str, mode: str = "full",
                      env: str | None = None,
                      max_observed: int = DEFAULT_MAX_OBSERVED
                      ) -> list[CandidateModel]:
    """Enumerate stable conditional and interventional candidates.

    Conditioning sets Z, as masks, range over subsets of the
    non-environment vertices minus the target, which must not be mutable.
    A Z whose conditional passes the invariance check yields a conditional
    candidate; otherwise (full mode) an identified interventional
    expression over Z minus the mutable set is attempted, once per distinct
    Z minus the mutable set. Both questions are asked of one
    ``SearchContext``, which builds what the sets share once per search.
    """
    if mode not in SEARCH_MODES:
        raise GraphError(f"unknown search mode {mode!r}")
    spec.pag.check_vertices({target})
    if mode == "single-env" and env is not None:
        raise GraphError("single-environment search takes no env vertex")
    if mode == "single-env" and not spec.mutable:
        raise GraphError("single-environment search needs an explicit "
                         "mutable set")
    observed = set(spec.pag.vertices) - {target}
    if env is not None:
        observed -= {env}
    if len(observed) > max_observed:
        raise SearchBudgetError(
            f"{len(observed)} candidate vertices exceed the exhaustive "
            f"search budget of {max_observed}")
    m = spec.mutable
    if target in m:
        raise GraphError(f"target {target!r} is in the mutable set "
                         f"{sorted(m)}: it has no stable predictor")
    ix = spec.pag.masks()
    mm, y = ix.mask(m), ix.bit[target]
    context = SearchContext(spec.pag, mm)
    # sets of size k in the names' order: each set of size k - 1, in order,
    # plus each bit above its highest, as bits sort as their names do
    bits = sorted(ix.bit[v] for v in observed)
    above = [[b for b in bits if b >> n] for n in range(len(ix.names) + 1)]
    out: list[CandidateModel] = []
    seen: set[int] = set()   # each z - m already identified
    level = [0]
    while level:
        for z in level:
            if context.invariant(y, z):
                zs = ix.names_of(z)
                out.append(CandidateModel("conditional", m, zs,
                                          Factor({target}, zs)))
                continue
            # identification depends on z only through z - m
            key = z & ~mm
            if mode != "full" or not m or key in seen:
                continue
            seen.add(key)
            expr = context.identify(y, key)
            if expr is not FAIL:
                out.append(CandidateModel("interventional", m,
                                          ix.names_of(key), expr))
        level = [z | b for z in level for b in above[z.bit_length()]]
    return out


def split_train_validation(data: DataTable, seed: int):
    """Seeded shuffle split holding out ``VAL_FRACTION`` of the rows,
    stratified by the environment groups of ``DataTable.groups``: one
    permutation per group, in group order. A pooled table splits into
    pooled tables, one input table at a time (see ``take_groups``)."""
    rng = np.random.default_rng(seed)
    train_rows, val_rows = [], []
    for group in data.groups():
        perm = rng.permutation(group.size)
        cut = int(round(group.size * (1.0 - VAL_FRACTION)))
        train_rows.append(perm[:cut])
        val_rows.append(perm[cut:])
    train = data.take_groups(train_rows)
    val = data.take_groups(val_rows)
    if train.n_rows == 0 or val.n_rows == 0:
        raise DataError("split produced an empty partition")
    return train, val


def fit_candidates(candidates: Sequence[CandidateModel], data: DataTable,
                   target: str, backend: str, seed: int
                   ) -> list[CandidateModel]:
    """Fit every candidate on the train split and score it on validation.
    Candidates with equal expressions share one fitted estimator and loss."""
    train, val = split_train_validation(data, seed)
    fitted: dict = {}   # expression -> (estimator, loss)
    out = []
    for c in candidates:
        if c.expression not in fitted:
            est = fit_expression(c.expression, train, target, backend)
            fitted[c.expression] = est, validation_loss(est, val, target)
        est, loss = fitted[c.expression]
        out.append(CandidateModel(c.kind, c.mutable_set, c.conditioning_set,
                                  c.expression, est, loss))
    return out


def pick_winner(fitted: Sequence[CandidateModel]) -> CandidateModel | None:
    """The fitted candidate with the lowest validation loss, ties broken by
    label; None when there is none."""
    return min(fitted, key=lambda c: (c.validation_loss, c.label()),
               default=None)


def search_stable_predictor(spec: InvarianceSpec, target: str,
                            data: DataTable, mode: str = "full",
                            backend: str = "linear-gaussian", seed: int = 0,
                            env: str | None = None,
                            max_observed: int = DEFAULT_MAX_OBSERVED):
    """Best stable predictor by validation loss, or FAIL when none exists."""
    candidates = stable_candidates(spec, target, mode, env, max_observed)
    if not candidates:
        return FAIL
    return pick_winner(fit_candidates(candidates, data, target, backend, seed))


def unstable_candidate(data: DataTable, target: str) -> CandidateModel:
    """Plain regression of the target on every feature, not yet fitted;
    stability is not checked, so shifted environments may break it."""
    z = frozenset(n for n in data.names
                  if n != target and n != data.env_column)
    return CandidateModel("unstable", frozenset(), z, Factor({target}, z))


# -- simulation and sweeps ---------------------------------------------------


def simulate_benchmark(alpha: float, n: int, seed: int) -> DataTable:
    """Sample the linear-Gaussian shift benchmark at a confounding strength
    alpha."""
    if n < 1:
        raise DataError("need at least one row")
    return DataTable(shift_benchmark_scm(alpha).sample(n, seed))


def _residual_weights(label: str, model, target: str, scm
                      ) -> tuple[np.ndarray, float]:
    """Weights w over the variables of ``scm.order`` and constant w1 of a
    linear model's residual target - prediction = w . x + w1."""
    if not isinstance(model, LinearGaussianModel):
        raise EstimationError(f"model {label!r}: the shift sweep scores "
                              "linear-Gaussian models only")
    unknown = sorted(set(model.features) - set(scm.observed))
    if unknown:
        raise EstimationError(f"model {label!r}: features {unknown} are not "
                              "benchmark columns")
    pos = {v: i for i, v in enumerate(scm.order)}
    w = np.zeros(len(pos))
    w[pos[target]] += 1.0
    for f, c in zip(model.features, model.coef[:-1]):
        w[pos[f]] -= c
    return w, -model.coef[-1]


def shift_sweep(models: Sequence[tuple[str, object]],
                alpha_grid: Sequence[float], n_test: int, seed: int,
                target: str = "Y") -> list[tuple[float, str, float]]:
    """Score every linear model at every shift strength; rows are
    (alpha, model label, mse).

    Every grid point reuses the same n_test noise draws e (common random
    numbers), so curves differ only through the shift strength, not
    sampling noise. The benchmark is linear in e: at shift alpha its
    variables are x = A(alpha) e, A = (I-B)^-1. A model whose residual is
    w . x + w1 (``_residual_weights``) has residual u . [e, 1] with
    u = [A^T w, w1], so its mse on those rows is u^T G u, where
    G = [e, 1]^T [e, 1] / n_test is formed once.
    """
    if not alpha_grid:
        raise DataError("empty shift grid")
    if n_test < 1:
        raise DataError("need at least one row")
    base = shift_benchmark_scm(alpha_grid[0])
    if target not in base.observed:
        raise DataError(f"no column {target!r}")
    draws = np.column_stack([*base.noise(n_test, seed).values(),
                             np.ones(n_test)])
    gram = draws.T @ draws / n_test
    weights = [(label, _residual_weights(label, model, target, base))
               for label, model in models]
    rows = []
    for alpha in alpha_grid:
        scm = shift_benchmark_scm(alpha)
        # common random numbers: only the coefficients move with alpha
        assert (scm.order, scm.noise_std, scm.intercepts) == \
            (base.order, base.noise_std, base.intercepts)
        effects = scm.total_effects()
        for label, (w, w1) in weights:
            u = np.append(w @ effects, w1)
            rows.append((float(alpha), label, float(u @ gram @ u)))
    return rows


def write_sweep_csv(rows: Sequence[tuple[float, str, float]], path: str):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["alpha", "model", "mse"])
        for alpha, label, mse in rows:
            writer.writerow([f"{alpha:.6f}", label, f"{mse:.6f}"])
