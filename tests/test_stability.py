"""End-to-end stability: every candidate the search returns predicts the
same when the mutable vertex's mechanism changes.

Checked against exact oracles on random oracle PAGs: the discrete joint of
a random discrete SCM (``DiscreteSCM.joint``) and the population moments
of a random linear-Gaussian SCM (``LinearGaussianSCM.moments``). Each
model is refit with a new mechanism for the mutable vertex m (a new
conditional table; new coefficients, intercept and noise) and every
candidate's prediction is compared, to 1e-9, with the original's.
"""

import itertools
import random
from dataclasses import replace

import numpy as np
import pytest

from stablespec.data import DataTable
from stablespec.estimate import DiscreteExactModel, LinearGaussianModel
from stablespec.expressions import free_vars, variables
from stablespec.fci import SeparationOracle, fci
from stablespec.scm import DiscreteSCM
from stablespec.search import InvarianceSpec, stable_candidates
from util import linear_scm, random_admg

TOLERANCE = 1e-9
GRAPHS = 150


def draws():
    """(ADMG, {expression: label}, target, mutable vertex) per random graph
    with at least one candidate, at 4 to 8 vertices. Candidates with equal
    expressions predict the same, so each expression is checked once."""
    rng = random.Random(17)
    out = []
    for _ in range(GRAPHS):
        g = random_admg(rng, max_vertices=8, min_vertices=4)
        y, m = rng.sample(sorted(g.vertices), 2)
        pag = fci(SeparationOracle(g), g.vertices)
        candidates = stable_candidates(InvarianceSpec(pag, {m}), y)
        if candidates:
            out.append((g, {c.expression: c.label() for c in candidates},
                        y, m))
    return out


@pytest.fixture(scope="module")
def graphs():
    return draws()


def test_the_draws_cover_both_kinds(graphs):
    kinds = [label.split("[")[0] for _, cs, _, _ in graphs
             for label in cs.values()]
    assert len(graphs) >= 100
    assert kinds.count("interventional") >= 100
    assert kinds.count("conditional") >= 100


def test_discrete_predictions_ignore_the_mutable_mechanism(graphs):
    for i, (g, candidates, y, m) in enumerate(graphs):
        base = DiscreteSCM.random_for_admg(g, seed=i)
        joints = [s.joint() for s in (base, base.random_mechanism(m, i + 1))]
        for expr, label in candidates.items():
            names = sorted(variables(expr) | {y})
            feats = sorted(free_vars(expr) - {y})
            # every assignment of the features, or one row without any
            grid = np.array(list(itertools.product((0.0, 1.0),
                                                   repeat=len(feats))))
            rows = DataTable({f: grid[:, k] for k, f in enumerate(feats)}
                             if feats else {"_": np.zeros(1)},
                             kinds={f: 2 for f in feats})
            before, after = (DiscreteExactModel(expr, y, j.marginal(names))
                             .predict_proba(rows) for j in joints)
            assert np.abs(before - after).max() <= TOLERANCE, label


def test_linear_predictions_ignore_the_mutable_mechanism(graphs):
    rng = random.Random(23)
    for g, candidates, y, m in graphs:
        scm = linear_scm(rng, g)
        scm = replace(scm, intercepts={v: rng.uniform(-2, 2)
                                       for v in g.vertices})
        shifted = replace(
            scm,
            coefficients={**scm.coefficients,
                          m: {p: rng.uniform(-2, 2)
                              for p in scm.coefficients[m]}},
            intercepts={**scm.intercepts, m: rng.uniform(-5, 5)},
            noise_std={**scm.noise_std, m: rng.uniform(0.2, 3.0)})
        moments = [s.moments() for s in (scm, shifted)]
        for expr, label in candidates.items():
            before, after = (LinearGaussianModel.from_moments(
                expr, y, mean, cov, scm.observed) for mean, cov in moments)
            assert before.features == after.features
            assert np.abs(before.coef - after.coef).max() <= TOLERANCE, label
