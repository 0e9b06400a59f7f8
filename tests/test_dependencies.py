"""The package imports only the standard library, numpy and itself, so
numpy stays the one dependency ``pyproject.toml`` declares."""

import ast
import sys
from pathlib import Path

import stablespec

SRC = Path(stablespec.__file__).parent
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "stablespec"}


def imported_modules() -> set[tuple[str, str]]:
    """(file, top-level module) of every absolute import in the package,
    at module level or inside a function."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found.update((path.name, n.partition(".")[0]) for n in names)
    return found


def test_imports_only_stdlib_numpy_and_itself():
    found = imported_modules()
    assert ("cli.py", "numpy") in found
    assert sorted((f, m) for f, m in found if m not in ALLOWED) == []


def deferred_imports() -> set[tuple[str, str, str]]:
    """(file, function, module) of every import inside a function."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = ["." * node.level + (node.module or "")]
                else:
                    continue
                found.update((path.name, fn.name, n) for n in names)
    return found


def test_only_the_import_cycle_is_deferred():
    # separation imports graph at module level, so graph.mutilate imports
    # separation when it runs; every other import is at module level
    assert deferred_imports() == {("graph.py", "mutilate", ".separation")}
    separation = ast.parse((SRC / "separation.py").read_text())
    assert any(isinstance(node, ast.ImportFrom) and node.level == 1 and
               node.module == "graph" for node in separation.body)
