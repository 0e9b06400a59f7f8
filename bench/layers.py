"""Layers, their traced functions, and the per-layer metrics of a traced run.

A layer is one stablespec module. ``MOVES`` records, for each layer, the
end-to-end metric and workload a change to that layer should move; every
other pairing should stay flat.
"""

from __future__ import annotations

import weakref
from collections import defaultdict

from tracer import Tracer
from workloads import ALPHA

NEAR_ALPHA = 10.0     # a p-value within this factor of ALPHA is marginal

LAYERS = {
    "citest": ("fisher_z_test", "degenerate_gaussian_test"),
    "fci": ("fci", "pooled_fci"),
    "data": ("load_csv", "save_csv", "concat_tables"),
    "separation": ("visible_edges", "m_connected",
                   "definite_connecting_paths"),
    "components": ("pc_component", "region", "buckets", "pag_to_mag"),
    "graph": ("possible_ancestors", "mutilate", "parse"),
    "identify": ("invariant_conditional", "identify_interventional"),
    "expressions": ("simplify", "conditional_of", "evaluate"),
    "estimate": ("fit_expression", "validation_loss"),
    "scm": ("LinearGaussianSCM.sample", "DiscreteSCM.sample"),
    "search": ("stable_candidates", "fit_candidates", "shift_sweep"),
    "cli": ("main",),
}

MOVES = {
    "citest": "wall_s on learn-wide",
    "fci": "wall_s on learn-wide, and fci.pag_shd, the quality of its PAG",
    "data": "wall_s on readme-pipeline",
    "separation": "wall_s on search-sparse",
    "components": "wall_s on search-sparse",
    "graph": "wall_s on search-sparse",
    "identify": "wall_s on search-sparse",
    "expressions": "wall_s on search-sparse and on readme-pipeline "
                   "(discrete flow)",
    "estimate": "wall_s on readme-pipeline",
    "scm": "wall_s on readme-pipeline",
    "search": "wall_s on readme-pipeline; stable_candidates also on "
              "search-sparse",
    "cli": "wall_s on readme-pipeline",
}

SIZES = (6, 7, 8, 10, 12)   # |V| of the search-sparse corpus

# name -> (unit, better) of every per-layer metric, in report order
PER_LAYER = {}
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
    PER_LAYER[f"{_layer}.s"] = ("s", "lower")
    PER_LAYER[f"{_layer}.self_s"] = ("s", "lower")
PER_LAYER.update({
    "citest.us_per_call": ("us", "lower"),
    "citest.near_alpha_frac": ("ratio", "lower"),
    "fci.ci_tests": ("count", "lower"),
    "fci.indep_frac": ("ratio", "higher"),
    "fci.pag_shd": ("edges", "lower"),
    "identify.fail_frac": ("ratio", "lower"),
    "identify.invariant_frac": ("ratio", "higher"),
    "estimate.dup_fit_frac": ("ratio", "lower"),
    **{f"search.stable_candidates_v{n}_s": ("s", "lower") for n in SIZES},
    "search.stable_mse_worst": ("mse", "lower"),
    "run.failed_frac": ("ratio", "lower"),
    "run.calibration_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
})


class Counts:
    """Outcome counts that the observers collect at layer boundaries."""

    def __init__(self):
        self.p_values = 0
        self.near_alpha = 0
        self.independent = 0
        self.ci_tests = 0
        self.invariant = 0
        self.invariance_checks = 0
        self.id_failed = 0
        self.id_calls = 0
        self.fits = 0
        self.dup_fits = 0
        self._fitted: dict = {}
        self.by_size = defaultdict(lambda: [0, 0.0])

    def ci(self, args, kwargs, result, seconds):
        p = result.p_value
        self.p_values += 1
        self.near_alpha += ALPHA / NEAR_ALPHA <= p <= ALPHA * NEAR_ALPHA
        self.independent += p >= ALPHA

    def fci(self, args, kwargs, result, seconds):
        report = args[4] if len(args) > 4 else kwargs.get("report")
        if report:
            self.ci_tests += report["ci_tests"]

    def invariance(self, args, kwargs, result, seconds):
        self.invariance_checks += 1
        self.invariant += bool(result)

    def identification(self, args, kwargs, result, seconds):
        from stablespec.identify import FAIL
        self.id_calls += 1
        self.id_failed += result is FAIL

    def fit(self, args, kwargs, result, seconds):
        """A fit repeats an earlier one when the same expression, target and
        backend are fitted on the same (still live) training table."""
        from stablespec.expressions import to_text
        expression, train, y, backend = args[:4]
        key = (to_text(expression), id(train), y, backend)
        earlier = self._fitted.get(key)
        self.fits += 1
        if earlier is not None and earlier() is train:
            self.dup_fits += 1
        else:
            self._fitted[key] = weakref.ref(train)

    def candidates(self, args, kwargs, result, seconds):
        size = self.by_size[len(args[0].pag.vertices)]
        size[0] += 1
        size[1] += seconds


def make_tracer(counts: Counts) -> Tracer:
    return Tracer(LAYERS, {
        "citest.fisher_z_test": counts.ci,
        "citest.degenerate_gaussian_test": counts.ci,
        "fci.fci": counts.fci,
        "identify.invariant_conditional": counts.invariance,
        "identify.identify_interventional": counts.identification,
        "estimate.fit_expression": counts.fit,
        "search.stable_candidates": counts.candidates,
    })


def per_layer(tracer: Tracer, c: Counts, passes: int, quality: dict,
              outcome) -> dict[str, tuple[float, str]]:
    """Every per-layer metric except the tracing overhead and the machine's
    calibration time, per traced pass. A metric whose layer the workload
    never calls reads 0."""

    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for layer in LAYERS:
        values[f"{layer}.calls"] = tracer.layer_calls[layer] / passes
        values[f"{layer}.s"] = tracer.layer_total[layer] / passes
        values[f"{layer}.self_s"] = tracer.layer_self[layer] / passes
    values.update({
        "citest.us_per_call": 1e6 * ratio(tracer.layer_total["citest"],
                                          tracer.layer_calls["citest"]),
        "citest.near_alpha_frac": ratio(c.near_alpha, c.p_values),
        "fci.ci_tests": c.ci_tests / passes,
        "fci.indep_frac": ratio(c.independent, c.p_values),
        "fci.pag_shd": quality.get("pag_shd", 0),
        "identify.fail_frac": ratio(c.id_failed, c.id_calls),
        "identify.invariant_frac": ratio(c.invariant, c.invariance_checks),
        "estimate.dup_fit_frac": ratio(c.dup_fits, c.fits),
        "search.stable_mse_worst": quality.get("stable_mse_worst", 0),
        "run.failed_frac": ratio(len(outcome.failures), outcome.attempted),
    })
    for n in SIZES:
        calls, seconds = c.by_size[n]
        values[f"search.stable_candidates_v{n}_s"] = ratio(seconds, calls)
    return {k: (v, PER_LAYER[k][0]) for k, v in values.items()}
