"""The benchmark's tracer wraps stablespec functions by name; every name it
lists must exist, or a traced run fails where it installs its wrappers.
The benchmark's own calls into FCI must keep working too.

``LAYERS`` is read from ``bench/layers.py`` as a literal, so the benchmark's
own modules are not imported; ``bench/inputs.py`` is loaded by path.
"""

import ast
import importlib
from pathlib import Path

from stablespec import citest, fci
from util import bench_inputs, example_admg, example_pag

LAYERS_FILE = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def traced_names() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(LAYERS_FILE.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "LAYERS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS assignment in {LAYERS_FILE}")


def test_every_traced_name_exists():
    layers = traced_names()
    missing = []
    for layer, funcs in layers.items():
        module = importlib.import_module(f"stablespec.{layer}")
        for func in funcs:
            owner = module
            for part in func.split("."):   # "Class.method" names a method
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"stablespec.{layer}.{func}")
    assert layers and not missing


def test_bench_calls_into_fci_work():
    inputs = bench_inputs()
    knowledge = fci.Knowledge(forbidden_into={"E"})
    assert inputs.oracle_pag(example_admg(), knowledge) == example_pag()
    # positionally, as the learn-wide workload calls it
    scms, _ = inputs.wide_scm(7, 2)
    tables = inputs.wide_tables(scms, 500, 0)
    report: dict = {}
    pag = fci.pooled_fci(tables, citest.fisher_z_test, 0.01, "E",
                         report=report)
    assert pag.vertices[0] == "E" and report["ci_tests"] > 0
