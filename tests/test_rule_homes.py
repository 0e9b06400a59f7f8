"""Each numeric rule of the package is decided in one function: a column
is constant by ``data.correlation`` (the only reader of ``CONSTANT_RTOL``),
a column is a linear combination of others by ``data.cholesky`` (the only
caller of ``np.linalg.cholesky``), a partial correlation is read from the
last row of a Cholesky factor by ``citest._fisher_z_statistics``, which
every Fisher-z test and every Fisher-z decision goes through (no function
inverts a matrix), and the critical values that batched CI decisions
compare statistics with are computed by ``citest.critical_values`` and
read by ``citest._bracketed`` alone. Vertex names
become masks once, at the public boundary of ``components`` and
``identify``: their private mask cores call no function that takes names,
and a subgraph of the identification calculus is a scope mask, not a graph
that ``MixedGraph`` builds. ``fci`` puts a learn's names at positions
once: its cores (the adjacency search, Possible-D-SEP, the blocks, the
collider step, the rules and their path searches) read mask rows and call
no function that takes names. ``fci`` alone enumerates the conditioning
sets, by combination-index arrays, and streams them to an oracle's
per-call ``firsts``, in calls whose size ``fci._stream`` alone derives
from ``MAX_BATCH``; its exact oracle maps the positions to a graph's bits
once per learn and tests each set by the mask core of m-connection,
which, like the invariance core, reads ancestry from a membership table
that its caller fetches once per index instead of computing a closure per
set. Edge visibility is one mask reach per
directed edge. Column names
become column positions once, at the name-level entry points of
``citest``: its position cores, which batched CI decisions run on, call
none of them. Which test answers a
conditioning set is decided by ``citest._decisions``, behind
``citest.firsts_at``, the one entry through which ``fci`` asks for CI
decisions. The columns of tables
that are pooled or concatenated are joined by ``data._pooled_column``
alone."""

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


def test_inv_is_called_nowhere():
    def calls_inv(node):
        return isinstance(node, ast.Call) and \
            ast.unparse(node.func).endswith("linalg.inv")

    assert sites(calls_inv) == set()


def test_critical_values_are_computed_in_one_function():
    # the margin is read where the critical values are computed, and only
    # one function compares statistics with them
    def reads_margin(node):
        return isinstance(node, ast.Name) and node.id == "CRITICAL_MARGIN" \
            and isinstance(node.ctx, ast.Load)

    def calls_critical_values(node):
        return isinstance(node, ast.Call) and \
            ast.unparse(node.func).endswith("critical_values")

    assert sites(reads_margin) == {("citest", "critical_values")}
    assert sites(calls_critical_values) == {("citest", "_bracketed")}


def test_the_call_cap_is_read_where_calls_and_blocks_are_cut():
    # ``_stream`` derives a call's row cap from MAX_BATCH, and
    # ``_index_blocks`` cuts combination-index arrays into blocks of it
    def reads_max_batch(node):
        if isinstance(node, ast.Name):
            return node.id == "MAX_BATCH" and isinstance(node.ctx, ast.Load)
        return isinstance(node, ast.Attribute) and node.attr == "MAX_BATCH"

    assert sites(reads_max_batch) == {("fci", "_stream"),
                                      ("fci", "_index_blocks")}


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
             or isinstance(node, ast.ClassDef) and node.name == "SearchContext"
             for name in called_names(node) & takes_names}
    assert calls == set()
    assert not hasattr(MixedGraph, "induced")


def test_separation_oracle_tests_sets_as_masks():
    # a separation function takes vertex names when it checks them or
    # turns them into masks; the oracle maps a query's names to bits once
    # and tests each set by the mask core
    separation = ast.parse((SRC / "separation.py").read_text())
    takes_names = {node.name for node in separation.body
                   if isinstance(node, ast.FunctionDef)
                   and called_names(node) & {"mask", "check_vertices"}}
    assert {"m_connected", "definite_connecting_paths"} <= takes_names
    fci = ast.parse((SRC / "fci.py").read_text())
    [oracle] = [node for node in fci.body
                if isinstance(node, ast.ClassDef)
                and node.name == "SeparationOracle"]
    assert called_names(oracle) & takes_names == set()
    assert "connected" in called_names(oracle)


def test_fci_cores_call_no_name_level_function():
    # a learn's names become positions once, in ``fci`` and the oracles'
    # ``bind``; the cores read mask rows, and sort nothing, since bit order
    # is name order. Names come back in ``to_graph`` and the report
    fci = ast.parse((SRC / "fci.py").read_text())
    functions = {node.name: node for node in ast.walk(fci)
                 if isinstance(node, ast.FunctionDef)}
    # the graph's name-level functions, and fci's functions that call them
    takes_names = {"mask", "names_of", "check_vertices", "adjacency",
                   "adjacent", "edges_at", "edges_between", "edge",
                   "parents", "children", "ancestors", "Edge", "MixedGraph"}
    takes_names |= {name for name, node in functions.items()
                    if called_names(node) & takes_names}
    assert {"to_graph", "possible_children_of_env"} <= takes_names
    cores = {"_adjacency_search", "_possible_d_sep", "_blocks",
             "_orient_colliders", "_discriminating_path", "_pd_edges",
             "_pd_reaches", "_pairs", "_nonadjacent", "mark", "set_mark",
             "orient_directed"}
    cores |= {name for name in functions if name.startswith("_rule_")}
    assert len(cores) == 19 and cores <= set(functions)
    calls = {(core, name) for core in cores
             for name in called_names(functions[core]) &
             (takes_names | {"sorted"})}
    assert calls == set()
    # Possible-D-SEP and the discriminating paths walk the rows by reach
    assert {name for name in cores
            if "reach" in called_names(functions[name])} == \
        {"_possible_d_sep", "_discriminating_path"}


def test_ancestor_tests_read_the_membership_tables():
    # "is this vertex a (possible) ancestor of z" is a table lookup: the
    # per-set cores compute no closure of z, and the m-connection core is
    # handed the descendant table, which its callers fetch once per index.
    # The search context's invariance check reads each mutable vertex's
    # row, built once with its MAGs and their tables.
    def function(body, name):
        [node] = [node for node in body
                  if isinstance(node, ast.FunctionDef) and node.name == name]
        return node

    separation = ast.parse((SRC / "separation.py").read_text())
    core = function(separation.body, "connected")
    assert called_names(core) & {"reach", "closures", "reached_by"} == set()
    assert "reached_by" in called_names(function(separation.body,
                                                 "m_connected"))
    fci = ast.parse((SRC / "fci.py").read_text())
    [oracle] = [node for node in fci.body if isinstance(node, ast.ClassDef)
                and node.name == "SeparationOracle"]
    bind = function(oracle.body, "bind")
    per_call = function(bind.body, "firsts")
    assert "reached_by" in called_names(bind)
    assert "connected" in called_names(per_call)
    assert "reached_by" not in called_names(per_call)
    identify = ast.parse((SRC / "identify.py").read_text())
    [context] = [node for node in identify.body
                 if isinstance(node, ast.ClassDef)
                 and node.name == "SearchContext"]
    core = function(context.body, "invariant")
    rows = function(context.body, "_invariance_rows")
    assert called_names(core) & {"reach", "closures", "reached_by"} == set()
    assert "_invariance_rows" in called_names(core)
    assert "reached_by" in called_names(rows)
    assert "reach" not in called_names(rows)


def test_fci_alone_enumerates_the_conditioning_sets():
    # one enumerator serves every oracle: only the combination-index
    # builders call ``combinations``, and no oracle's ``bind``, the tests'
    # per-set oracle included, builds, streams or enumerates the sets
    def calls_combinations(node):
        return isinstance(node, ast.Call) and \
            ast.unparse(node.func).split(".")[-1] == "combinations"

    assert sites(calls_combinations) == {("fci", "_index_blocks"),
                                         ("fci", "_subsets")}
    trees = [ast.parse(path.read_text()) for path in
             (SRC / "fci.py", Path(__file__).parent / "util.py")]
    binds = {(cls.name, node) for tree in trees for cls in tree.body
             if isinstance(cls, ast.ClassDef) for node in cls.body
             if isinstance(node, ast.FunctionDef) and node.name == "bind"}
    assert {name for name, _ in binds} == {"SeparationOracle", "DataOracle",
                                           "PerSetOracle"}
    for _, bind in binds:
        assert called_names(bind) & {"_subset_rows", "_stream",
                                     "combinations"} == set()


def test_edge_visibility_reads_the_mask_index():
    # each directed edge's collider paths are one reach over the index's
    # bidirected masks, not a walk over the adjacency lists
    separation = ast.parse((SRC / "separation.py").read_text())
    [core] = [node for node in separation.body
              if isinstance(node, ast.FunctionDef)
              and node.name == "_visible_edges"]
    assert "reach" in called_names(core)
    assert called_names(core) & {"adjacency", "parents"} == set()


def test_citest_position_cores_call_no_name_level_function():
    # a name-level function checks names or maps them to positions
    tree = ast.parse((SRC / "citest.py").read_text())
    functions = {node.name: node for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
    cores = {"firsts_at", "_decisions", "_fisher_z_statistics",
             "_residual_variances", "_residual_kurtosis",
             "_environment_parts", "_environment_result"}
    takes_names = {"_check_args", "_positions", "_tested_side",
                   "fisher_z_test", "environment_test",
                   "degenerate_gaussian_test"}
    assert cores | takes_names <= set(functions)
    table_methods = {"column", "is_discrete", "levels", "width"}
    calls = {(core, name) for core in cores
             for name in called_names(functions[core]) &
             (takes_names | table_methods)}
    assert calls == set()
    # one batch entry, and three name-level entries, each one test
    public = {name for name in functions if not name.startswith("_")}
    assert {name for name in public
            if "_check_args" in called_names(functions[name])} == \
        {"fisher_z_test", "environment_test", "degenerate_gaussian_test"}
    assert {name for name in functions
            if "_decisions" in called_names(functions[name])} == \
        {"firsts_at"}


def test_fci_reaches_citest_only_through_the_batch_entry():
    # which test answers a set is decided in citest: fci imports its one
    # batch entry, and Fisher-z as the default test
    tree = ast.parse((SRC / "fci.py").read_text())
    imported = {(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert {name for module, name in imported if module == "citest"} == \
        {"firsts_at", "fisher_z_test"}
    assert ("citest" not in {alias.name for node in ast.walk(tree)
                             if isinstance(node, (ast.Import, ast.ImportFrom))
                             for alias in node.names})


def test_environment_tables_are_concatenated_in_one_function():
    # a pool keeps its input tables as segments and builds a pooled
    # column from them only when asked; concat_tables shares that function
    def joins_columns(node):
        if not (isinstance(node, ast.Call) and
                ast.unparse(node.func).split(".")[-1] in
                ("concatenate", "hstack", "append")):
            return False
        return any(isinstance(n, ast.Attribute) and
                   n.attr in ("column", "_columns")
                   for arg in node.args for n in ast.walk(arg))

    assert sites(joins_columns) == {("data", "_pooled_column")}
