"""Each numeric rule of the package is decided in one function: a column
is constant by ``data.correlation`` (the only reader of ``CONSTANT_RTOL``),
a column is a linear combination of others by ``data.cholesky`` (the only
caller of ``np.linalg.cholesky``), and a partial correlation is read from a
precision matrix by ``citest.fisher_z_tests`` (the only caller of
``np.linalg.inv``), which every Fisher-z test goes through. Vertex names
become masks once, at the public boundary of ``components`` and
``identify``: their private mask cores call no function that takes names,
and a subgraph of the identification calculus is a scope mask, not a graph
that ``MixedGraph`` builds."""

import ast
from pathlib import Path

import stablespec
from stablespec.graph import MixedGraph

SRC = Path(stablespec.__file__).parent


def sites(predicate) -> set[tuple[str, str]]:
    """(module, qualified name of the enclosing function or class, "" at
    module level) of every AST node of the package that satisfies
    ``predicate``."""
    found = set()

    def visit(node, module, scope):
        if predicate(node):
            found.add((module, ".".join(scope)))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            scope = scope + (node.name,)
        for child in ast.iter_child_nodes(node):
            visit(child, module, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, ())
    return found


def test_cholesky_is_called_only_in_data_cholesky():
    def calls_cholesky(node):
        return isinstance(node, ast.Call) and \
            ast.unparse(node.func).endswith("linalg.cholesky")

    assert sites(calls_cholesky) == {("data", "cholesky")}


def test_inv_is_called_only_in_the_batched_fisher_z_test():
    def calls_inv(node):
        return isinstance(node, ast.Call) and \
            ast.unparse(node.func).endswith("linalg.inv")

    assert sites(calls_inv) == {("citest", "fisher_z_tests")}


def test_constant_rtol_is_read_only_in_data_correlation():
    def reads_rtol(node):
        if isinstance(node, ast.Name):
            return node.id == "CONSTANT_RTOL" and \
                isinstance(node.ctx, ast.Load)
        if isinstance(node, ast.Attribute):
            return node.attr == "CONSTANT_RTOL"
        if isinstance(node, ast.ImportFrom):
            return any(a.name == "CONSTANT_RTOL" for a in node.names)
        return False

    assert sites(reads_rtol) == {("data", "correlation")}


def called_names(node) -> set[str]:
    """The names called inside node: ``f(...)`` and ``x.f(...)`` give f."""
    return {c.func.id if isinstance(c.func, ast.Name) else c.func.attr
            for c in ast.walk(node) if isinstance(c, ast.Call)
            and isinstance(c.func, (ast.Name, ast.Attribute))}


def test_mask_cores_call_no_name_level_function():
    # a function takes vertex names when it turns them into masks itself,
    # by VertexMasks.mask: pc_component, region, bucket_partial_order,
    # possible_ancestors, identify_interventional and the like
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    takes_names = {"mask"} | {
        node.name for tree in trees.values() for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and "mask" in called_names(node)}
    assert {"bucket_partial_order", "pc_component", "region",
            "possible_ancestors", "identify_interventional"} <= takes_names
    calls = {(module, node.name, name)
             for module in ("components", "identify")
             for node in trees[module].body
             if isinstance(node, ast.FunctionDef) and node.name[0] == "_"
             for name in called_names(node) & takes_names}
    assert calls == set()
    assert not hasattr(MixedGraph, "induced")
