"""The benchmark's tracer wraps stablespec functions by name; every name it
lists must exist, or a traced run fails where it installs its wrappers.

``LAYERS`` is read from ``bench/layers.py`` as a literal, so the benchmark's
own modules are not imported.
"""

import ast
import importlib
from pathlib import Path

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
