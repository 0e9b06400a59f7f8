"""Seeded input generators for the benchmark workloads.

Every generator takes its randomness from an explicit seed, so the same seed
always gives the same inputs. The program under test only ever sees the
generated graphs, tables and files.
"""

from __future__ import annotations

import random

from stablespec.data import DataTable
from stablespec.fci import Knowledge, SeparationOracle, fci
from stablespec.graph import ARROW, TAIL, Edge, MixedGraph
from stablespec.scm import LinearGaussianSCM

ENV = "E"
DEGREE = 2.5            # average degree of every generated graph
BIDIRECTED_FRAC = 0.25  # share of bidirected edges in a sparse ADMG
N_OBSERVED = 10         # wide system: observed variables,
N_LATENT = 2            # latent common causes of two observed variables each,
N_SHIFTED = 2           # and variables whose mean differs between environments


# -- sparse ADMGs for the identification search ------------------------------


def sparse_admg(rng: random.Random, n: int) -> MixedGraph:
    """Random ADMG over V0..V{n-1} with round(DEGREE * n / 2) edges, a
    share BIDIRECTED_FRAC of them bidirected; directed edges follow a random
    causal order, so the graph is acyclic."""
    names = [f"V{i}" for i in range(n)]
    order = names[:]
    rng.shuffle(order)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = rng.sample(pairs, round(DEGREE * n / 2))
    n_bi = round(BIDIRECTED_FRAC * len(chosen))
    edges = [Edge(order[i], order[j], ARROW if k < n_bi else TAIL, ARROW)
             for k, (i, j) in enumerate(chosen)]
    return MixedGraph(names, edges, "ADMG")


def oracle_pag(admg: MixedGraph, knowledge: Knowledge | None = None
               ) -> MixedGraph:
    """The PAG that FCI learns from exact m-separation answers."""
    return fci(SeparationOracle(admg), admg.vertices, knowledge)


# -- wide multi-environment linear-Gaussian data ------------------------------


def wide_scm(structure_seed: int, seed: int):
    """Random linear-Gaussian system with latent confounders.

    ``structure_seed`` draws the causal structure: a random DAG over
    N_OBSERVED variables with round(DEGREE * N_OBSERVED / 2) edges, N_LATENT
    latent common causes of two observed variables each, and the N_SHIFTED
    variables whose mean differs between environments. ``seed`` draws
    coefficients, noise scales and vertex names.

    Returns ``(scms, admg)``: one SCM per environment, which differ only in
    the intercepts of the shifted variables, and the true ADMG over the
    observed variables plus the environment vertex ``E``.
    """
    srng = random.Random(structure_seed)
    order = list(range(N_OBSERVED))
    srng.shuffle(order)
    pairs = [(i, j) for i in range(N_OBSERVED)
             for j in range(i + 1, N_OBSERVED)]
    arcs = [(order[i], order[j])
            for i, j in srng.sample(pairs, round(DEGREE * N_OBSERVED / 2))]
    confounded = [tuple(srng.sample(range(N_OBSERVED), 2))
                  for _ in range(N_LATENT)]
    shifted = srng.sample(range(N_OBSERVED), N_SHIFTED)

    rng = random.Random(seed)
    fresh = [f"X{i}" for i in range(N_OBSERVED)]
    rng.shuffle(fresh)
    latents = [f"L{k}" for k in range(N_LATENT)]
    coefficients: dict[str, dict[str, float]] = {v: {} for v in fresh}
    edges = []
    for a, b in arcs:
        coefficients[fresh[b]][fresh[a]] = _coefficient(rng)
        edges.append(Edge(fresh[a], fresh[b], TAIL, ARROW))
    for lat, (a, b) in zip(latents, confounded):
        for child in (a, b):
            coefficients[fresh[child]][lat] = _coefficient(rng)
        edges.append(Edge(fresh[a], fresh[b], ARROW, ARROW))
    edges += [Edge(ENV, fresh[v], TAIL, ARROW) for v in shifted]
    noise = {v: rng.uniform(0.5, 1.5) for v in latents + fresh}
    causal_order = tuple(latents + [fresh[v] for v in order])
    observed = tuple(sorted(fresh))
    scms = [LinearGaussianSCM(
        order=causal_order,
        coefficients={v: c for v, c in coefficients.items() if c},
        noise_std=noise, observed=observed,
        intercepts={fresh[v]: 1.0 * k for v in shifted})
        for k in range(3)]
    return scms, MixedGraph((ENV,) + observed, edges, "ADMG")


def _coefficient(rng: random.Random) -> float:
    return rng.choice((-1, 1)) * rng.uniform(0.5, 1.5)


def wide_tables(scms, n: int, seed: int) -> list[DataTable]:
    """One table of n rows per environment."""
    return [DataTable(scm.sample(n, seed * 1000 + k))
            for k, scm in enumerate(scms)]
