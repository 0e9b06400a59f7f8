"""Command-line surface.

Subcommands: learn-pag (structure learning from CSV data), identify
(interventional expression for a query on a graph file), search (end-to-end
stable-predictor search), simulate (benchmark sampling), sweep (train on the
benchmark and score models across a shift grid), check (invariance of a
single conditional). Options can come from a JSON config file, with
command-line flags taking precedence. A numeric flag's range is its
argparse type, so a flag out of range fails at parse time as any argparse
error does, and a config value out of range fails with its key named,
before a command writes anything. Exit codes: 0 success, 1 when the
result is FAIL (no stable candidate / not identifiable / not invariant),
2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .citest import degenerate_gaussian_test, fisher_z_test
from .components import class_mag
from .data import DataTable, load_csv, pool_environments, save_csv
from .expressions import to_json as expr_to_json, to_text
from .fci import possible_children_of_env, table_fci
from .graph import GraphError, parse as parse_graph, serialize
from .identify import FAIL, InvarianceQuery, identify_interventional, \
    invariant_conditional_mag
from .search import (
    DEFAULT_MAX_OBSERVED, SEARCH_MODES, InvarianceSpec, shift_sweep,
    simulate_benchmark, stable_candidates, fit_candidates, pick_winner,
    unstable_candidate, write_sweep_csv,
)

CI_TESTS = {"fisher-z": fisher_z_test,
            "degenerate-gaussian": degenerate_gaussian_test}


class InputError(ValueError):
    """Bad flags, files or config; maps to exit code 2."""


def _csv_list(text: str) -> list[str]:
    return [t for t in (s.strip() for s in text.split(",")) if t]


def _range(convert, ok, what: str):
    """An argparse type: the flag's text converted by ``convert``, refused
    unless ``ok`` holds of the value. argparse's error names the flag, and
    ``_config_value``'s the config key."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, not {value}")
        return value
    parse.__name__ = convert.__name__   # "invalid int value: 'ten'"
    return parse


_finite = _range(float, math.isfinite, "a finite number")
_count = _range(int, lambda v: v >= 0, "a non-negative integer")
_positive = _range(int, lambda v: v >= 1, "a positive integer")
_level = _range(float, lambda v: 0 < v < 1, "between 0 and 1")


def _finite_list(text: str) -> list[float]:
    return [_finite(t) for t in _csv_list(text)]


_finite_list.__name__ = "float list"   # "invalid float list value: '4,x'"


def _load_tables(args) -> list[DataTable]:
    if not args.data:
        raise InputError("no --data files given")
    schemas = args.schema or []
    if len(schemas) == 1 and len(args.data) > 1:
        schemas = schemas * len(args.data)
    if len(schemas) != len(args.data):
        raise InputError("need one --schema per --data (or a single shared "
                         "schema)")
    tables = []
    for path, schema in zip(args.data, schemas):
        table = load_csv(path, schema)
        if not table.n_rows:
            raise InputError(f"--data {path!r} has no data rows")
        tables.append(table)
    return tables


def _run_dir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write(path: str, text: str):
    with open(path, "w") as fh:
        fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _pooled(tables: list[DataTable], env_name: str) -> DataTable:
    """The single table, or the tables pooled with an environment column."""
    return tables[0] if len(tables) == 1 else \
        pool_environments(tables, env_name)


def _learn(args, data: DataTable, log: list[str]):
    """Shared structure-learning step on the loaded table ``data``;
    returns (pag, report dict)."""
    if len(args.data) > 1:
        log.append(f"pooled structure learning over {len(args.data)} "
                   f"datasets, environment column {args.env!r}")
    else:
        log.append("structure learning over one dataset")
    report: dict = {}
    pag = table_fci(data, CI_TESTS[args.test], args.alpha,
                    args.max_cond_size, report)
    return pag, report


def cmd_learn_pag(args) -> int:
    data = _pooled(_load_tables(args), args.env)
    out = _run_dir(args)
    log: list[str] = []
    pag, report = _learn(args, data, log)
    _write(os.path.join(out, "graph.txt"), serialize(pag))
    _write(os.path.join(out, "report.json"), _json_dumps(report))
    log.append(f"graph written with {len(pag.edges)} edges, "
               f"{report['ci_tests']} CI tests")
    try:
        class_mag(pag)
    except GraphError as err:
        # finite-sample FCI can learn such a PAG; the graph is still the
        # one learned, but identify, check and search refuse it
        warning = (f"warning: {err}; identify, check and search will "
                   "refuse this graph")
        log.append(warning)
        print(warning, file=sys.stderr)
    _write(os.path.join(out, "log.txt"), "\n".join(log) + "\n")
    print(serialize(pag), end="")
    return 0


def _read_graph(path: str, kind: str = "PAG"):
    with open(path) as fh:
        return parse_graph(fh.read(), kind)


def cmd_identify(args) -> int:
    pag = _read_graph(args.graph)
    expr = identify_interventional(pag, _csv_list(args.mutable),
                                   _csv_list(args.target),
                                   _csv_list(args.given or ""))
    if expr is FAIL:
        print("FAIL: not identifiable", file=sys.stderr)
        return 1
    print(to_text(expr))
    print(_json_dumps(expr_to_json(expr)), end="")
    if args.out:
        out = _run_dir(args)
        _write(os.path.join(out, "expression.json"),
               _json_dumps(expr_to_json(expr)))
    return 0


def cmd_check(args) -> int:
    pag = _read_graph(args.graph)
    q = InvarianceQuery(_csv_list(args.mutable), _csv_list(args.target),
                        _csv_list(args.given or ""))
    if invariant_conditional_mag(pag, q):
        print("invariant")
        return 0
    print("not invariant")
    return 1


def _resolve_mutable(args, pag, env) -> frozenset[str]:
    if args.mutable:
        return frozenset(_csv_list(args.mutable))
    if env is None or env not in pag.vertices:
        raise InputError("mutable set required: no environment vertex to "
                         "derive possible children from")
    m = possible_children_of_env(pag, env)
    if not m:
        raise InputError(f"environment vertex {env!r} has no possible "
                         "children; pass --mutable explicitly")
    return frozenset(m)


def _check_columns(pag, data: DataTable, env: str | None):
    """Every graph vertex but the environment vertex must be a data column
    before candidates are fitted: a candidate may use any of them."""
    missing = sorted(set(pag.vertices) - set(data.names) - {env})
    if missing:
        raise InputError("no data column for graph vertices: "
                         + ", ".join(missing))


def _candidates_json(candidates, winner) -> str:
    entries = [json.loads(c.to_json()) for c in candidates]
    return _json_dumps({"candidates": entries,
                        "winner": winner.label() if winner else None})


def _check_target(target: str, data: DataTable):
    """The search target must be a data column other than the environment
    column; checked before anything is learned or searched."""
    if target == data.env_column:
        raise InputError(f"--target {target!r} is the environment column, "
                         "not a variable to predict")
    if target not in data.names:
        raise InputError(f"--target {target!r} is not a data column")


def cmd_search(args) -> int:
    data = _pooled(_load_tables(args), args.env)
    _check_target(args.target, data)
    out = _run_dir(args)
    log: list[str] = []
    if args.graph:
        pag = _read_graph(args.graph)
        env = args.env if args.env in pag.vertices else None
        log.append(f"graph loaded from {args.graph}")
    else:
        pag, _ = _learn(args, data, log)
        env = data.env_column
    if args.mode == "single-env":
        env = None
    mutable = _resolve_mutable(args, pag, env)
    log.append(f"mutable set: {sorted(mutable)}")
    spec = InvarianceSpec(pag, mutable)
    candidates = stable_candidates(spec, args.target, args.mode, env,
                                   args.max_observed)
    fitted = []
    if candidates:
        _check_columns(pag, data, env)
        fitted = fit_candidates(candidates, data, args.target, args.backend,
                                args.seed)
    winner = pick_winner(fitted)
    _write(os.path.join(out, "graph.txt"), serialize(pag))
    _write(os.path.join(out, "candidates.json"),
           _candidates_json(fitted, winner))
    for c in fitted:
        log.append(f"candidate {c.label()}: loss {c.validation_loss:.6f}")
    if winner is None:
        log.append("result: FAIL (no stable candidate)")
        _write(os.path.join(out, "log.txt"), "\n".join(log) + "\n")
        print("FAIL: no stable candidate", file=sys.stderr)
        return 1
    log.append(f"winner: {winner.label()}")
    _write(os.path.join(out, "log.txt"), "\n".join(log) + "\n")
    print(winner.label())
    return 0


def cmd_simulate(args) -> int:
    if args.out is None:
        raise InputError("simulate needs --out")
    if args.alpha is None:
        raise InputError("simulate needs --alpha")
    table = simulate_benchmark(args.alpha, args.n, args.seed)
    save_csv(table, args.out)
    return 0


def cmd_sweep(args) -> int:
    if len(args.train_alphas) < 2:
        raise InputError("sweep simulates one dataset per --train-alphas "
                         "value; provide two or more datasets")
    if not args.graph:
        raise InputError("sweep needs --graph (a PAG over the benchmark "
                         "variables plus the environment vertex)")
    tables = []
    for i, a in enumerate(args.train_alphas):
        t = simulate_benchmark(a, args.n_train, args.seed + i)
        tables.append(t)
    data = pool_environments(tables, args.env)
    _check_target(args.target, data)
    out = _run_dir(args)
    log: list[str] = []
    pag = _read_graph(args.graph)
    mutable = _resolve_mutable(args, pag, args.env)
    _check_columns(pag, data, args.env)
    spec = InvarianceSpec(pag, mutable)
    # a conditional-only search finds exactly the full search's conditional
    # candidates, so one search and one fit serve both modes
    candidates = stable_candidates(spec, args.target, "full", args.env,
                                   args.max_observed)
    fitted = []
    if candidates:
        *fitted, base = fit_candidates(
            candidates + [unstable_candidate(data, args.target)], data,
            args.target, "linear-gaussian", args.seed)
    models = []
    for mode, pool in (("full", fitted),
                       ("conditional-only",
                        [c for c in fitted if c.kind == "conditional"])):
        best = pick_winner(pool)
        if best is None:
            print(f"FAIL: no stable candidate in {mode} mode",
                  file=sys.stderr)
            return 1
        models.append((best.label(), best.estimator))
        log.append(f"{mode} winner: {best.label()} "
                   f"loss {best.validation_loss:.6f}")
    models.append((base.label(), base.estimator))
    grid = np.linspace(args.grid_start, args.grid_stop, args.grid_points)
    rows = shift_sweep(models, list(grid), args.n_test, args.seed,
                       args.target)
    write_sweep_csv(rows, os.path.join(out, "metrics.csv"))
    log.append(f"{len(rows)} sweep rows written")
    _write(os.path.join(out, "log.txt"), "\n".join(log) + "\n")
    print(os.path.join(out, "metrics.csv"))
    return 0


def _add_data_flags(p):
    p.add_argument("--data", action="append",
                   help="CSV file; repeat for one dataset per environment")
    p.add_argument("--schema", action="append",
                   help="sidecar JSON schema for the matching --data")
    p.add_argument("--test", choices=sorted(CI_TESTS), default="fisher-z")
    p.add_argument("--alpha", type=_level, default=0.01,
                   help="CI test significance level")
    p.add_argument("--env", default="E", help="environment column name")
    p.add_argument("--max-cond-size", type=_count)


def _add_search_flags(p):
    p.add_argument("--graph", help="PAG file (skips learning)")
    p.add_argument("--target", default="Y")
    p.add_argument("--mutable",
                   help="comma-separated mutable vertices; defaults to the "
                        "possible children of the environment vertex")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--max-observed", type=_count,
                   default=DEFAULT_MAX_OBSERVED)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The top-level parser and the parser of each subcommand."""
    top = argparse.ArgumentParser(prog="stablespec")
    top.add_argument("--config",
                     help="JSON file with defaults for any flag")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("learn-pag", help="learn a PAG from data")
    _add_data_flags(p)
    p.add_argument("--out", default="run", help="run directory")

    p = sub.add_parser("identify",
                       help="interventional expression for a query")
    p.add_argument("--graph", required=True)
    p.add_argument("--mutable", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--given")
    p.add_argument("--out")

    p = sub.add_parser("check", help="invariance of a single conditional")
    p.add_argument("--graph", required=True)
    p.add_argument("--mutable", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--given")

    p = sub.add_parser("search", help="stable-predictor search")
    _add_data_flags(p)
    _add_search_flags(p)
    p.add_argument("--mode", choices=SEARCH_MODES, default="full")
    p.add_argument("--backend", choices=("linear-gaussian",
                                         "discrete-exact"),
                   default="linear-gaussian")
    p.add_argument("--out", default="run")

    p = sub.add_parser("simulate", help="sample the shift benchmark")
    p.add_argument("--alpha", type=_finite, help="confounding strength")
    p.add_argument("--n", type=_positive, default=1000)
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--out", help="output CSV path")

    p = sub.add_parser("sweep",
                       help="train on the benchmark, score across shifts")
    _add_search_flags(p)
    p.add_argument("--env", default="E")
    p.add_argument("--train-alphas", type=_finite_list, default="4,8",
                   help="comma-separated training shift strengths")
    p.add_argument("--n-train", type=_positive, default=50000)
    p.add_argument("--n-test", type=_positive, default=10000)
    p.add_argument("--grid-start", type=_finite, default=-5.0)
    p.add_argument("--grid-stop", type=_finite, default=17.0)
    p.add_argument("--grid-points", type=_positive, default=100)
    p.add_argument("--out", default="run")
    return top, sub.choices


def _config_value(parser: argparse.ArgumentParser, action: argparse.Action,
                  key: str, value):
    """A config value converted and checked as the flag's own string would
    be: argparse converts only string defaults, and checks choices only on
    the command line."""
    try:
        if not isinstance(value, (str, int, float)):
            raise argparse.ArgumentError(action, f"{value!r} is not a "
                                         "string or number")
        value = parser._get_value(action, str(value))
        parser._check_value(action, value)
    except argparse.ArgumentError as exc:
        raise InputError(f"config key {key!r}: {exc}") from None
    return value


def _config_defaults(parser: argparse.ArgumentParser,
                     args: argparse.Namespace) -> dict:
    """A subcommand's defaults from the JSON config file ``args.config``,
    whose keys are the flags' destination names; ``args`` is the command
    line parsed without them."""
    with open(args.config) as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise InputError("config file must hold a JSON object")
    actions = {a.dest: a for a in parser._actions
               if a.default is not argparse.SUPPRESS}
    unknown = set(config) - set(actions)
    if unknown:
        raise InputError(f"unknown config keys {sorted(unknown)}")
    defaults = {}
    for key, value in config.items():
        action = actions[key]
        if not isinstance(action, argparse._AppendAction):
            defaults[key] = _config_value(parser, action, key, value)
            continue
        # a list holds one value per repeated flag; a repeated flag appends
        # to its default, so the list stands only when the flag is absent
        values = [_config_value(parser, action, key, v) for v in
                  (value if isinstance(value, list) else [value])]
        if getattr(args, key) is None:
            defaults[key] = values
    return defaults


COMMANDS = {
    "learn-pag": cmd_learn_pag,
    "identify": cmd_identify,
    "check": cmd_check,
    "search": cmd_search,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # config values become the subcommand's defaults, so flags win
            command = commands[args.command]
            command.set_defaults(**_config_defaults(command, args))
            args = parser.parse_args(argv)
        return COMMANDS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
