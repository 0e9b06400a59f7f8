"""Each numeric rule of the package is decided in one function: a column
is constant by ``data.correlation`` (the only reader of ``CONSTANT_RTOL``),
a column is a linear combination of others by ``data.cholesky`` (the only
caller of ``np.linalg.cholesky``), and a partial correlation is read from a
precision matrix by ``citest.fisher_z_tests`` (the only caller of
``np.linalg.inv``), which every Fisher-z test goes through."""

import ast
from pathlib import Path

import stablespec

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
