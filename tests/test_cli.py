import csv
import hashlib
import json
import os
import random
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import stablespec
from stablespec import citest, cli, fci, search
from stablespec.cli import main
from stablespec.data import DataTable, pool_environments, save_csv
from stablespec.graph import parse, serialize
from stablespec.scm import practice_pattern_scm
from util import (
    CONFLICT_ADMG, ORACLE_ADMGS, PAG_TEXT, environment_tables, linear_scm,
    pooled_draws, random_admg,
)

UNSTABLE_PAG = "vars: A,Y\nA o-o Y\n"
# A circle-tail edge means selection bias, which the checker does not model.
SELECTION_PAG = "vars: A,B,C\nA o-- B\nB --> C\n"
# Arrowheads that close a directed cycle: no MAG has these marks.
CYCLIC_PAG = "vars: A,B,C,D\nA --> B\nB --> C\nC --> A\nD o-> A\n"
# Draw 2844 of ``pooled_draws``: at its 300 rows per environment, pooled
# FCI learns arrowheads that close a directed cycle.
CYCLIC_ADMG = """\
vars: V0,V1,V2,V3,V4
V0 --> V2
V0 <-> V4
V1 --> V2
V1 --> V4
V1 <-> V3
V2 --> V3
V2 --> V4
"""
# A learned PAG that has a MAG, but whose possible-parent edges between the
# buckets {E,V1,V2} and {V7} close a cycle, so they have no bucket order.
CYCLIC_BUCKETS_PAG = """\
vars: E,V0,V1,V2,V3,V4,V5,V6,V7
E o-o V1
E o-o V2
V1 --> V6
V1 o-> V7
V2 <-> V5
V3 --> V0
V4 --> V3
V5 <-> V7
V6 --> V4
V7 --> V2
V7 --> V6
"""


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Benchmark CSVs, a schema file and the running-example graph file."""
    d = tmp_path_factory.mktemp("cli")
    for name, alpha, seed in (("e1.csv", 4.0, 11), ("e2.csv", 8.0, 12)):
        assert main(["simulate", "--alpha", str(alpha), "--n", "20000",
                     "--seed", str(seed), "--out",
                     str(d / name)]) == 0
    (d / "plain.json").write_text('{"columns": {}}')
    (d / "pag.txt").write_text(PAG_TEXT)
    (d / "unstable.txt").write_text(UNSTABLE_PAG)
    (d / "selection.txt").write_text(SELECTION_PAG)
    (d / "cyclic.txt").write_text(CYCLIC_PAG)
    (d / "cyclic_buckets.txt").write_text(CYCLIC_BUCKETS_PAG)
    return d


def search_argv(d, out, extra=()):
    return ["search", "--graph", str(d / "pag.txt"),
            "--data", str(d / "e1.csv"), "--data", str(d / "e2.csv"),
            "--schema", str(d / "plain.json"),
            "--target", "Y", "--out", str(out), *extra]


class TestSimulate:
    def test_deterministic_bytes(self, workdir, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["simulate", "--alpha", "4", "--n", "50",
                         "--seed", "3", "--out", str(path)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_text().splitlines()) == 51

    def test_alpha_required(self, tmp_path):
        assert main(["simulate", "--n", "50", "--seed", "3",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_out_required(self):
        assert main(["simulate", "--alpha", "4", "--n", "50",
                     "--seed", "3"]) == 2


class TestArgErrors:
    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--bogus", "1"])
        assert exc.value.code == 2

    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_file(self, tmp_path):
        assert main(["identify", "--graph", str(tmp_path / "nope.txt"),
                     "--mutable", "A", "--target", "Y"]) == 2

    @pytest.mark.parametrize("schema, message", [
        ("[1,2]", "schema must be a JSON object"),
        ('{"columns": [1]}', 'schema "columns" must be an object'),
        ('{"columns": {"A": [0,1]}}', "column 'A': kind must be"),
        ('{"columns": {"A": "discrete"}}', "column 'A': kind must be"),
        ('{"columns": {"A": 2.7}}', "column 'A': kind must be"),
        ('{"columns": {}, "env_column": ["A"]}', '"env_column" must be'),
        ('{"columns": {"a": 2, "B": 2, "Q": 3}}',
         "schema names columns not in the CSV header: 'Q', 'a'"),
    ])
    def test_bad_schema_exits_two(self, tmp_path, capsys, schema, message):
        (tmp_path / "d.csv").write_text("A,B\n0,1.5\n1,2.5\n")
        (tmp_path / "s.json").write_text(schema)
        assert main(["learn-pag", "--data", str(tmp_path / "d.csv"),
                     "--schema", str(tmp_path / "s.json"),
                     "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


def small_data_flags(d: Path, constant: bool = False) -> list[str]:
    """--data and --schema flags for two 300-row CSVs of dependent columns
    A and B, and with ``constant`` a column K that is 1.0 in every row."""
    rng = np.random.default_rng(4)
    flags = []
    for k in (1, 2):
        a = rng.normal(size=300)
        columns = {"A": a, "B": a + rng.normal(size=300)}
        if constant:
            columns["K"] = np.ones(300)
        save_csv(DataTable(columns), str(d / f"d{k}.csv"))
        flags += ["--data", str(d / f"d{k}.csv")]
    (d / "plain.json").write_text('{"columns": {}}')
    return flags + ["--schema", str(d / "plain.json")]


def exit_two_stderr(argv, capsys) -> str:
    """stderr of a run that must exit 2: argparse raises SystemExit(2) on a
    flag, and ``main`` returns 2 on a config value."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    return capsys.readouterr().err


class TestSettingRanges:
    # ``message`` is the error of the learner's own check, which a caller
    # from Python meets; the CLI refuses the value as it parses it, naming
    # the flag or the config key
    @pytest.mark.parametrize("key, value, message", [
        ("alpha", "1.5", "alpha must be between 0 and 1, not 1.5"),
        ("alpha", "nan", "alpha must be between 0 and 1, not nan"),
        ("alpha", "0", "alpha must be between 0 and 1, not 0.0"),
        ("max_cond_size", "-1", "max_cond_size must be at least 0, not -1"),
    ])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_out_of_range_exits_two(self, tmp_path, capsys, key, value,
                                    message, via):
        flag = "--" + key.replace("_", "-")
        argv = ["learn-pag", *small_data_flags(tmp_path),
                "--out", str(tmp_path / "run")]
        if via == "flag":
            argv += [flag, value]
        else:
            cfg = tmp_path / "run.json"
            cfg.write_text(json.dumps({key: value}))
            argv = ["--config", str(cfg), *argv]
        err = exit_two_stderr(argv, capsys)
        if key == "alpha":
            wording = f"argument {flag}: must be between 0 and 1, " \
                f"not {float(value)}"
        else:
            wording = f"argument {flag}: must be a non-negative integer, " \
                f"not {value}"
        if via == "flag":
            assert err.startswith("usage: stablespec learn-pag ")
            assert err.endswith(f"\nstablespec learn-pag: error: {wording}\n")
        else:
            assert err == f"error: config key {key!r}: {wording}\n"
        assert not (tmp_path / "run").exists()
        table = DataTable({"A": [0.0, 1.0, 2.0], "B": [1.0, 0.0, 2.0]})
        setting = {key: float(value) if key == "alpha" else int(value)}
        with pytest.raises(ValueError) as exc:
            fci.table_fci(table, **setting)
        assert str(exc.value) == message


# One row per range-typed flag of each command, and more for some: an argv
# and a message, which is the flag followed by what its type says of the
# value.
RANGE_ROWS = [
    (["simulate", "--alpha", "inf", "--out", "{out}.csv"],
     "--alpha must be a finite number, not inf"),
    (["simulate", "--alpha=-inf", "--out", "{out}.csv"],
     "--alpha must be a finite number, not -inf"),
    (["simulate", "--alpha", "nan", "--out", "{out}.csv"],
     "--alpha must be a finite number, not nan"),
    (["sweep", "--graph", "{pag}", "--train-alphas", "nan,4",
      "--out", "{out}"],
     "--train-alphas must be a finite number, not nan"),
    (["sweep", "--graph", "{pag}", "--train-alphas", "4,inf",
      "--out", "{out}"],
     "--train-alphas must be a finite number, not inf"),
    (["sweep", "--graph", "{pag}", "--grid-start", "nan",
      "--out", "{out}"],
     "--grid-start must be a finite number, not nan"),
    (["sweep", "--graph", "{pag}", "--grid-stop", "inf",
      "--out", "{out}"],
     "--grid-stop must be a finite number, not inf"),
    # negative counts; before: numpy's "expected non-negative integer"
    # and "Number of samples, -3, must be non-negative."
    (["simulate", "--alpha", "4", "--seed", "-1", "--out", "{out}.csv"],
     "--seed must be a non-negative integer, not -1"),
    (["search", "--graph", "{pag}", "--data", "{data}", "--schema",
      "{schema}", "--seed", "-2", "--out", "{out}"],
     "--seed must be a non-negative integer, not -2"),
    (["sweep", "--graph", "{pag}", "--seed", "-1", "--out", "{out}"],
     "--seed must be a non-negative integer, not -1"),
    (["sweep", "--graph", "{pag}", "--grid-points", "-3",
      "--out", "{out}"],
     "--grid-points must be a positive integer, not -3"),
    # sample sizes; before: "need at least one row", which named no
    # flag, after every training environment was simulated and fitted
    (["simulate", "--alpha", "4", "--n", "-5", "--out", "{out}.csv"],
     "--n must be a positive integer, not -5"),
    (["simulate", "--alpha", "4", "--n", "0", "--out", "{out}.csv"],
     "--n must be a positive integer, not 0"),
    (["sweep", "--graph", "{pag}", "--n-train", "0", "--out", "{out}"],
     "--n-train must be a positive integer, not 0"),
    (["sweep", "--graph", "{pag}", "--n-train", "200", "--n-test", "-1",
      "--out", "{out}"],
     "--n-test must be a positive integer, not -1"),
    # bounded flags; before: the message of the library check, which
    # named the parameter, not the flag, after the run directory was
    # made
    (["learn-pag", "--data", "{data}", "--schema", "{schema}",
      "--max-cond-size", "-1", "--out", "{out}"],
     "--max-cond-size must be a non-negative integer, not -1"),
    (["search", "--data", "{data}", "--schema", "{schema}",
      "--max-cond-size", "-1", "--out", "{out}"],
     "--max-cond-size must be a non-negative integer, not -1"),
    (["learn-pag", "--data", "{data}", "--schema", "{schema}",
      "--alpha", "1.5", "--out", "{out}"],
     "--alpha must be between 0 and 1, not 1.5"),
    (["learn-pag", "--data", "{data}", "--schema", "{schema}",
      "--alpha", "nan", "--out", "{out}"],
     "--alpha must be between 0 and 1, not nan"),
    (["search", "--data", "{data}", "--schema", "{schema}",
      "--alpha", "0", "--out", "{out}"],
     "--alpha must be between 0 and 1, not 0.0"),
    (["search", "--graph", "{pag}", "--data", "{data}", "--schema",
      "{schema}", "--max-observed", "-1", "--out", "{out}"],
     "--max-observed must be a non-negative integer, not -1"),
    (["sweep", "--graph", "{pag}", "--max-observed", "-1",
      "--out", "{out}"],
     "--max-observed must be a non-negative integer, not -1"),
    # an empty shift grid; before: "empty shift grid", which named no
    # flag, after both training environments were simulated and fitted
    (["sweep", "--graph", "{pag}", "--grid-points", "0",
      "--out", "{out}"],
     "--grid-points must be a positive integer, not 0"),
    # learning flags with --graph, which skips learning; before: not
    # checked, so the search ran and exited 0
    (["search", "--graph", "{pag}", "--data", "{data}", "--schema",
      "{schema}", "--alpha", "5", "--out", "{out}"],
     "--alpha must be between 0 and 1, not 5.0"),
    (["search", "--graph", "{pag}", "--data", "{data}", "--schema",
      "{schema}", "--max-cond-size", "-1", "--out", "{out}"],
     "--max-cond-size must be a non-negative integer, not -1"),
]


class TestNonFiniteFlags:
    @staticmethod
    def row_argv(workdir, out, flags) -> list[str]:
        return [f.format(out=out, pag=workdir / "pag.txt",
                         data=workdir / "e1.csv",
                         schema=workdir / "plain.json") for f in flags]

    @staticmethod
    def assert_nothing_written(out):
        assert not out.exists() and not Path(f"{out}.csv").exists()

    @pytest.mark.parametrize("flags, message", RANGE_ROWS)
    def test_exits_two_naming_the_flag(self, workdir, tmp_path, capsys,
                                       flags, message):
        out = tmp_path / "run"
        err = exit_two_stderr(self.row_argv(workdir, out, flags), capsys)
        flag, wording = message.split(" ", 1)
        assert err.startswith(f"usage: stablespec {flags[0]} ")
        assert err.endswith(f"\nstablespec {flags[0]}: error: "
                            f"argument {flag}: {wording}\n")
        self.assert_nothing_written(out)

    @pytest.mark.parametrize("flags, message", RANGE_ROWS)
    def test_config_value_exits_two_naming_the_key(
            self, workdir, tmp_path, capsys, flags, message):
        # the row with its flag moved into the config file
        out = tmp_path / "run"
        argv = self.row_argv(workdir, out, flags)
        flag, wording = message.split(" ", 1)
        at = next(i for i, a in enumerate(argv)
                  if a == flag or a.startswith(flag + "="))
        if argv[at] == flag:
            value = argv.pop(at + 1)
        else:
            value = argv[at].split("=", 1)[1]
        del argv[at]
        key = flag[2:].replace("-", "_")
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        err = exit_two_stderr(["--config", str(cfg), *argv], capsys)
        assert err == f"error: config key {key!r}: " \
            f"argument {flag}: {wording}\n"
        self.assert_nothing_written(out)

    def test_rows_cover_every_range_flag(self):
        # a numeric flag takes a range type, and the rows test each one
        _, commands = cli.build_parser()
        typed = [(name, action) for name, parser in commands.items()
                 for action in parser._actions if action.type is not None]
        assert {action.type for _, action in typed} == {
            cli._finite, cli._count, cli._positive, cli._level,
            cli._finite_list}
        assert {(name, action.option_strings[0]) for name, action in typed} \
            == {(flags[0], message.split()[0])
                for flags, message in RANGE_ROWS}


class TestConstantColumn:
    @pytest.mark.parametrize("test, message", [
        ("fisher-z", "constant column in correlation matrix: K"),
        ("degenerate-gaussian", "constant embedded column: K"),
    ])
    @pytest.mark.parametrize("command", [["learn-pag"],
                                         ["search", "--target", "A"]])
    def test_error_names_the_column(self, tmp_path, capsys, command, test,
                                    message):
        assert main([*command, *small_data_flags(tmp_path, constant=True),
                     "--test", test, "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestNonFiniteCells:
    @pytest.mark.parametrize("command", [["learn-pag"],
                                         ["search", "--graph", "{pag}"]])
    def test_inf_cell_exits_two_naming_column_and_row(
            self, workdir, tmp_path, capsys, command):
        # before: learn-pag blamed a "constant column in correlation
        # matrix: X", and search --graph exited 0 with a different winner,
        # every candidate that uses X2 at loss inf
        text = (workdir / "e2.csv").read_bytes().decode()
        rows = [line.split(",") for line in text.split("\r\n")]
        rows[5][rows[0].index("X2")] = "inf"
        (tmp_path / "e2.csv").write_text(
            "\r\n".join(",".join(r) for r in rows), newline="")
        out = tmp_path / "run"
        argv = [a.format(pag=workdir / "pag.txt") for a in command] + [
            "--data", str(workdir / "e1.csv"),
            "--data", str(tmp_path / "e2.csv"),
            "--schema", str(workdir / "plain.json"), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            "error: non-finite value inf in column 'X2', row 6\n"
        assert not (out / "graph.txt").exists()


class TestVertexNames:
    @pytest.mark.parametrize("command", [["learn-pag"],
                                         ["search", "--target", "my x"]])
    def test_name_the_graph_format_cannot_hold_exits_two(
            self, tmp_path, capsys, command):
        # the graph text format splits edge lines on whitespace, so a
        # graph.txt naming "my x" could not be read back; the environment
        # shifts A, so search has a mutable set
        rng = np.random.default_rng(4)
        flags = []
        for k in (1, 2):
            a = rng.normal(3 * k, 1, 300)
            save_csv(DataTable({"A": a, "my x": a + rng.normal(size=300)}),
                     str(tmp_path / f"d{k}.csv"))
            flags += ["--data", str(tmp_path / f"d{k}.csv")]
        (tmp_path / "plain.json").write_text('{"columns": {}}')
        out = tmp_path / "run"
        assert main([*command, *flags, "--schema", str(tmp_path / "plain.json"),
                     "--out", str(out)]) == 2
        assert "vertex name 'my x'" in capsys.readouterr().err
        assert not (out / "graph.txt").exists()


def test_import_leaves_scipy_unloaded():
    src = os.path.dirname(os.path.dirname(stablespec.__file__))
    code = "import sys, stablespec.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class TestPooling:
    def test_env_name_collision_exits_two(self, workdir, tmp_path, capsys):
        assert main(["learn-pag", "--data", str(workdir / "e1.csv"),
                     "--data", str(workdir / "e2.csv"),
                     "--schema", str(workdir / "plain.json"),
                     "--env", "X1", "--out", str(tmp_path / "run")]) == 2
        assert "already present" in capsys.readouterr().err
        assert main(search_argv(workdir, tmp_path / "run",
                                ["--env", "X1"])) == 2
        assert "already present" in capsys.readouterr().err

    def test_single_training_environment_exits_two(self, tmp_path, capsys):
        assert main(["sweep", "--train-alphas", "4", "--n-train", "100",
                     "--out", str(tmp_path / "run")]) == 2
        assert "two or more datasets" in capsys.readouterr().err

    def test_search_without_graph_loads_each_csv_once(
            self, workdir, tmp_path, monkeypatch):
        loaded, real = [], cli.load_csv

        def load(csv_path, schema_path):
            loaded.append(csv_path)
            return real(csv_path, schema_path)

        monkeypatch.setattr(cli, "load_csv", load)
        argv = search_argv(workdir, tmp_path / "run", ["--mutable", "X1"])
        argv.remove("--graph")
        argv.remove(str(workdir / "pag.txt"))
        assert main(argv) in (0, 1)
        assert sorted(loaded) == [str(workdir / "e1.csv"),
                                  str(workdir / "e2.csv")]


    def test_search_without_graph_when_knowledge_blocks_a_rule(
            self, workdir, tmp_path, capsys):
        # on these samples the chain rule asks for V1 --> E (V2 o-> V1 o-o E
        # with V2, E nonadjacent), which the environment's knowledge forbids
        rng = random.Random(28)
        g = random_admg(rng, max_vertices=5, min_vertices=4, p_directed=0.3,
                        p_bidirected=0.1)
        argv = ["search", "--schema", str(workdir / "plain.json"),
                "--target", "V2", "--out", str(tmp_path / "run")]
        for i, table in enumerate(environment_tables(rng, g, 300)):
            save_csv(table, str(tmp_path / f"env{i}.csv"))
            argv += ["--data", str(tmp_path / f"env{i}.csv")]
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "conditional[V3]"
        assert (tmp_path / "run" / "graph.txt").read_text() == (
            "vars: E,V0,V1,V2,V3\nE o-o V0\nE o-o V1\nV0 o-> V1\n"
            "V2 o-> V1\n")


class TestEmptyData:
    @pytest.mark.parametrize("command", [["learn-pag"],
                                         ["search", "--target", "A"]])
    @pytest.mark.parametrize("first", ["empty.csv", "full.csv"],
                             ids=["both empty", "one empty"])
    def test_file_without_rows_exits_two_naming_it(self, tmp_path, capsys,
                                                   command, first):
        # before: two header-only files warned from moments() and blamed
        # the conditioning set size, and one beside a data file blamed a
        # constant environment column
        rng = np.random.default_rng(5)
        save_csv(DataTable({"A": rng.normal(size=50),
                            "B": rng.normal(size=50)}),
                 str(tmp_path / "full.csv"))
        (tmp_path / "empty.csv").write_text("A,B\n")
        (tmp_path / "plain.json").write_text('{"columns": {}}')
        out = tmp_path / "run"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*command, "--data", str(tmp_path / first),
                         "--data", str(tmp_path / "empty.csv"),
                         "--schema", str(tmp_path / "plain.json"),
                         "--out", str(out)]) == 2
        empty = str(tmp_path / "empty.csv")
        assert capsys.readouterr().err == \
            f"error: --data {empty!r} has no data rows\n"
        assert not out.exists()


class TestSearchTarget:
    @pytest.mark.parametrize("graph", [True, False],
                             ids=["given graph", "learned graph"])
    @pytest.mark.parametrize("target, message", [
        ("E", "is the environment column, not a variable to predict"),
        ("Q", "is not a data column"),
    ])
    def test_bad_target_exits_two_before_learning(
            self, workdir, tmp_path, capsys, monkeypatch, graph, target,
            message):
        # before: the PAG was learned first, and then fitting refused the
        # discrete column E, or the search failed on a target it lacked
        def learn(*args):
            raise AssertionError("learned before the target was checked")

        monkeypatch.setattr(cli, "table_fci", learn)
        out = tmp_path / "run"
        argv = search_argv(workdir, out)
        if not graph:
            argv.remove("--graph")
            argv.remove(str(workdir / "pag.txt"))
        argv[argv.index("--target") + 1] = target
        assert main(argv) == 2
        assert capsys.readouterr().err == \
            f"error: --target {target!r} {message}\n"
        assert not out.exists()

    def test_single_table_environment_column_is_refused(self, tmp_path,
                                                         capsys):
        rng = np.random.default_rng(6)
        save_csv(DataTable({"A": rng.normal(size=50),
                            "G": rng.integers(0, 2, 50)}, {"G": 2}),
                 str(tmp_path / "d.csv"))
        (tmp_path / "env.json").write_text(
            '{"columns": {"G": 2}, "env_column": "G"}')
        assert main(["search", "--data", str(tmp_path / "d.csv"),
                     "--schema", str(tmp_path / "env.json"),
                     "--target", "G", "--out", str(tmp_path / "run")]) == 2
        assert capsys.readouterr().err == \
            "error: --target 'G' is the environment column, not a " \
            "variable to predict\n"


class TestLearnPag:
    def test_writes_graph_and_report(self, workdir, tmp_path):
        out = tmp_path / "run"
        assert main(["learn-pag", "--data", str(workdir / "e1.csv"),
                     "--data", str(workdir / "e2.csv"),
                     "--schema", str(workdir / "plain.json"),
                     "--out", str(out)]) == 0
        graph = (out / "graph.txt").read_text()
        assert graph.startswith("vars: E,X1,X2,X3,Y")
        report = json.loads((out / "report.json").read_text())
        assert report["ci_tests"] > 0
        assert set(report["ci_tests_by_phase"]) == {"skeleton",
                                                    "possible_d_sep"}
        assert sum(report["ci_tests_by_phase"].values()) == \
            report["ci_tests"]
        assert set(report["rule_firings"]) >= {"chain", "ancestor"}
        assert (out / "log.txt").exists()

    def test_conflicting_orientation_learns(self, workdir, tmp_path):
        # the orientation rules ask for both refinements of one mark here
        *_, (g, tables) = pooled_draws(24)
        assert serialize(g) == CONFLICT_ADMG
        data = []
        for e, t in enumerate(tables):
            save_csv(t, str(tmp_path / f"e{e}.csv"))
            data += ["--data", str(tmp_path / f"e{e}.csv")]
        assert main(["learn-pag", *data,
                     "--schema", str(workdir / "plain.json"),
                     "--out", str(tmp_path / "run")]) == 0
        graph = parse((tmp_path / "run" / "graph.txt").read_text())
        assert graph.vertices == ("E", *g.vertices)

    def test_cyclic_pag_is_flagged(self, workdir, tmp_path, capsys):
        # draw 2844 at 300 rows per environment: the learned arrowheads
        # close a directed cycle, so no MAG has the PAG's marks
        *_, (g, tables) = pooled_draws(2845)
        assert serialize(g) == CYCLIC_ADMG
        data = []
        for e, t in enumerate(tables):
            save_csv(t, str(tmp_path / f"e{e}.csv"))
            data += ["--data", str(tmp_path / f"e{e}.csv")]
        out = tmp_path / "run"
        assert main(["learn-pag", *data,
                     "--schema", str(workdir / "plain.json"),
                     "--out", str(out)]) == 0
        warning = ("warning: no MAG has the marks of this PAG: its "
                   "arrowheads close a directed cycle; identify, check and "
                   "search will refuse this graph")
        err = capsys.readouterr().err
        assert err == warning + "\n"
        assert (out / "log.txt").read_text().splitlines()[-1] == warning
        graph = (out / "graph.txt").read_text()
        assert main(["check", "--graph", str(out / "graph.txt"),
                     "--mutable", "V0", "--target", "V1"]) == 2
        assert parse(graph).vertices == ("E", *g.vertices)

    def test_valid_pag_is_not_flagged(self, workdir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["learn-pag", "--data", str(workdir / "e1.csv"),
                     "--data", str(workdir / "e2.csv"),
                     "--schema", str(workdir / "plain.json"),
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        assert "warning" not in (out / "log.txt").read_text()

    def test_one_csv_naming_env_column_learns_as_pooled(self, tmp_path):
        # the environment shifts the means of X1 and X3; one pooled CSV
        # whose schema names the environment column is the same data as
        # one CSV per environment, so it must give the same graph
        rng = np.random.default_rng(0)
        tables = []
        for e in range(3):
            x1 = rng.normal((-1, 1, 0)[e], 1, 4000)
            x3 = rng.normal((1, 1, -2)[e], 1, 4000)
            y = x1 + x3 + rng.normal(0, 1, 4000)
            tables.append(DataTable({"X1": x1, "X3": x3, "Y": y}))
        plain, pooled = tmp_path / "plain.json", tmp_path / "pooled.json"
        plain.write_text('{"columns": {}}')
        pooled.write_text('{"columns": {"E": 3}, "env_column": "E"}')
        split = []
        for e, t in enumerate(tables):
            save_csv(t, str(tmp_path / f"e{e}.csv"))
            split += ["--data", str(tmp_path / f"e{e}.csv")]
        save_csv(pool_environments(tables, "E"), str(tmp_path / "all.csv"))
        assert main(["learn-pag", *split, "--schema", str(plain),
                     "--out", str(tmp_path / "split")]) == 0
        assert main(["learn-pag", "--data", str(tmp_path / "all.csv"),
                     "--schema", str(pooled),
                     "--out", str(tmp_path / "one")]) == 0
        graph = (tmp_path / "split" / "graph.txt").read_bytes()
        assert b"-> E\n" not in graph
        assert (tmp_path / "one" / "graph.txt").read_bytes() == graph


# sha256 prefixes of the files ``readme_run`` writes, its own path in them
# replaced by "<run>"
README_DIGESTS = {
    "env1.csv": "056bebafe82f6b9e",
    "env2.csv": "425a6b7e27b72500",
    "pag.txt": "c30f025e39018f5b",
    "run/graph.txt": "c30f025e39018f5b",
    "run/log.txt": "df68701207166b38",
    "run/report.json": "ea3b1440119fb7c1",
    "run-learned/candidates.json": "390e50210943ad9f",
    "run-learned/graph.txt": "c30f025e39018f5b",
    "run-learned/log.txt": "b3d2de3ba35e05ec",
    "schema.json": "7d9af1d8236a89de",
    "search/candidates.json": "390e50210943ad9f",
    "search/graph.txt": "c30f025e39018f5b",
    "search/log.txt": "59cb5e0eb035cac7",
    "sweep/log.txt": "1e20121869b181d1",
    "sweep/metrics.csv": "0345510465ab46a6",
}


@pytest.fixture(scope="module")
def readme_run(tmp_path_factory):
    """The README's CLI flows that write files, with the README's own
    flags: two simulated environments, a schema, a graph learned into run/,
    the search on the README's PAG and on the learned graph, and the sweep.
    The search on pag.txt and the sweep write to search/ and sweep/ where
    the README reuses run/, so that no file overwrites another."""
    d = tmp_path_factory.mktemp("readme")
    for alpha, seed, name in (("4", "1", "env1.csv"), ("8", "2", "env2.csv")):
        assert main(["simulate", "--alpha", alpha, "--n", "50000",
                     "--seed", seed, "--out", str(d / name)]) == 0
    (d / "schema.json").write_text('{"columns": {}}\n')
    (d / "pag.txt").write_text(PAG_TEXT)
    pag = ["--graph", str(d / "pag.txt")]
    assert main(["learn-pag", *readme_data(d), "--out", str(d / "run")]) == 0
    assert main(["search", *pag, *readme_data(d), "--target", "Y",
                 "--out", str(d / "search")]) == 0
    assert main(["search", *readme_data(d), "--target", "Y",
                 "--out", str(d / "run-learned")]) == 0
    assert main(["sweep", *pag, "--grid-points", "100",
                 "--out", str(d / "sweep")]) == 0
    return d


def readme_data(d):
    return ["--data", str(d / "env1.csv"), "--data", str(d / "env2.csv"),
            "--schema", str(d / "schema.json")]


class TestReadmeFlow:
    def test_learned_graph_attaches_env_to_x1(self, readme_run):
        assert (readme_run / "run" / "graph.txt").read_text() == PAG_TEXT

    def test_identify_and_check_on_learned_graph(self, readme_run, capsys):
        graph = str(readme_run / "run" / "graph.txt")
        assert main(["identify", "--graph", graph, "--mutable", "X1",
                     "--target", "Y", "--given", "X2,X3"]) == 0
        assert "P(Y | X3)" in capsys.readouterr().out
        assert main(["check", "--graph", graph, "--mutable", "X1",
                     "--target", "Y", "--given", "X3"]) == 0
        assert capsys.readouterr().out.strip() == "invariant"

    def test_search_without_graph_or_mutable(self, readme_run, tmp_path,
                                             capsys):
        out = tmp_path / "run"
        assert main(["search", *readme_data(readme_run), "--target", "Y",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip() == "interventional[X2,X3]"
        assert "mutable set: ['X1']" in (out / "log.txt").read_text()

    def test_run_directories_are_pinned(self, readme_run):
        # every file the flows write, byte for byte, with the run's own
        # path, which the logs name, replaced by a fixed token
        token = str(readme_run).encode()
        digests = {str(p.relative_to(readme_run)): hashlib.sha256(
            p.read_bytes().replace(token, b"<run>")).hexdigest()[:16]
            for p in sorted(readme_run.rglob("*")) if p.is_file()}
        assert digests == README_DIGESTS


PRACTICE_LEVELS = {"A": 2, "Y": 2, "B": 2, "L": 2}


@pytest.fixture(scope="module")
def sites(tmp_path_factory):
    """Three sites of the practice-pattern cohort, 20k rows each, as CSVs
    with a schema that declares every column binary."""
    d = tmp_path_factory.mktemp("sites")
    (d / "levels.json").write_text(
        json.dumps({"columns": PRACTICE_LEVELS}) + "\n")
    for site in (1, 2, 3):
        cols = practice_pattern_scm(site).sample(20000, seed=100 + site)
        with open(d / f"site{site}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(PRACTICE_LEVELS)
            writer.writerows(zip(*(cols[v].astype(int)
                                   for v in PRACTICE_LEVELS)))
    return d


class TestDiscreteSites:
    @staticmethod
    def search(d, out):
        sites = [a for s in (1, 2, 3)
                 for a in ("--data", str(d / f"site{s}.csv"))]
        return main(["search", "--test", "degenerate-gaussian", "--backend",
                     "discrete-exact", *sites, "--schema",
                     str(d / "levels.json"), "--target", "Y",
                     "--out", str(out)])

    def test_environment_pairs_use_the_chosen_test(self, sites, tmp_path,
                                                   capsys, monkeypatch):
        # every column is discrete, so the environment test leaves each
        # pair with E to --test: the run is the one in which those pairs go
        # to --test directly
        assert self.search(sites, tmp_path / "a") == 0
        winner = capsys.readouterr().out.strip()
        log = (tmp_path / "a" / "log.txt").read_text()

        parts = citest._environment_parts

        def every_row_falls_back(table, rows):
            return parts(table, rows)._replace(
                fallback=np.ones(len(rows), dtype=bool))

        monkeypatch.setattr(citest, "_environment_parts",
                            every_row_falls_back)
        assert self.search(sites, tmp_path / "b") == 0
        assert capsys.readouterr().out.strip() == winner
        assert (tmp_path / "b" / "log.txt").read_text() == \
            log.replace(str(tmp_path / "a"), str(tmp_path / "b"))
        # the planted site-dependent flag L is the mutable set and stays out
        # of the winner
        assert "mutable set: ['L']" in log
        assert winner == "conditional[A,B]"


class TestIdentify:
    def test_prints_expression(self, workdir, capsys):
        assert main(["identify", "--graph", str(workdir / "pag.txt"),
                     "--mutable", "X1", "--target", "Y",
                     "--given", "X2,X3"]) == 0
        text = capsys.readouterr().out
        assert "P(Y | X3)" in text and "P(X2 | X1,Y)" in text
        assert '"kind": "quotient"' in text

    def test_not_identifiable_exits_one(self, workdir):
        assert main(["identify", "--graph", str(workdir / "unstable.txt"),
                     "--mutable", "A", "--target", "Y"]) == 1

    def test_writes_expression_file(self, workdir, tmp_path):
        out = tmp_path / "run"
        assert main(["identify", "--graph", str(workdir / "pag.txt"),
                     "--mutable", "X1", "--target", "Y", "--given", "X2,X3",
                     "--out", str(out)]) == 0
        tree = json.loads((out / "expression.json").read_text())
        assert tree["kind"] == "quotient"

    @pytest.mark.parametrize("graph", ["selection.txt", "cyclic.txt"])
    def test_pag_without_a_mag_exits_two_as_check_does(self, workdir, graph,
                                                      capsys):
        query = ["--graph", str(workdir / graph), "--mutable", "A",
                 "--target", "C"]
        assert main(["check", *query]) == 2
        check_err = capsys.readouterr().err
        assert main(["identify", *query]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == check_err
        assert "Traceback" not in err

    def test_cyclic_bucket_order_exits_two(self, workdir, capsys):
        assert main(["identify", "--graph",
                     str(workdir / "cyclic_buckets.txt"),
                     "--mutable", "V4", "--target", "V0"]) == 2
        err = capsys.readouterr().err
        assert "cyclic bucket order" in err and "{E,V1,V2}, {V7}" in err
        assert "Traceback" not in err


class TestCheck:
    def test_invariant(self, workdir):
        assert main(["check", "--graph", str(workdir / "pag.txt"),
                     "--mutable", "X1", "--target", "Y",
                     "--given", "X3"]) == 0

    def test_not_invariant(self, workdir):
        assert main(["check", "--graph", str(workdir / "pag.txt"),
                     "--mutable", "X1", "--target", "Y",
                     "--given", "X2,X3"]) == 1

    def test_circle_tail_edge_exits_two(self, workdir, capsys):
        assert main(["check", "--graph", str(workdir / "selection.txt"),
                     "--mutable", "A", "--target", "C"]) == 2
        err = capsys.readouterr().err
        assert "circle-tail edge unsupported (selection bias)" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("command", ["check", "identify"])
@pytest.mark.parametrize("target", ["", ","])
def test_empty_target_exits_two(workdir, capsys, command, target):
    assert main([command, "--graph", str(workdir / "pag.txt"),
                 "--mutable", "X1", "--target", target]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: y must be nonempty\n"


@pytest.mark.parametrize("argv, shared", [
    (["check", "--mutable", "Y", "--target", "Y"],
     "x (intervened) and y (target) share Y"),
    (["check", "--mutable", "X1", "--target", "Y", "--given", "Y"],
     "y (target) and z (given) share Y"),
    (["identify", "--mutable", "Y", "--target", "Y"],
     "x (intervened) and y (target) share Y"),
    (["identify", "--mutable", "X1", "--target", "Y", "--given", "X1,X3"],
     "x (intervened) and z (given) share X1"),
])
def test_overlapping_sets_exit_two_naming_them(workdir, capsys, argv,
                                               shared):
    assert main([*argv, "--graph", str(workdir / "pag.txt")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {shared}; they must be disjoint\n"


ISOLATED_ENV_PAG = "vars: E,X1,X2,X3,Y\nX1 --> Y\nX2 --> Y\nX3 --> Y\n"


@pytest.mark.parametrize("argv, code, message", [
    (lambda d, tmp: ["search", "--graph", str(d / "pag.txt"),
                     "--out", str(tmp / "run")],
     2, "error: no --data files given"),
    (lambda d, tmp: search_argv(d, tmp / "run", [
        "--data", str(d / "e1.csv"), "--schema", str(d / "plain.json")]),
     2, "error: need one --schema per --data (or a single shared schema)"),
    (lambda d, tmp: search_argv(d, tmp / "run", [
        "--graph", str(tmp / "isolated.txt")]),
     2, "error: environment vertex 'E' has no possible children; pass "
        "--mutable explicitly"),
    (lambda d, tmp: ["sweep", "--graph", str(d / "pag.txt"), "--mutable",
                     "X3", "--n-train", "500", "--n-test", "100",
                     "--grid-points", "2", "--out", str(tmp / "run")],
     1, "FAIL: no stable candidate in full mode"),
    (lambda d, tmp: ["--config", str(tmp / "list.json"),
                     *search_argv(d, tmp / "run")],
     2, "error: config file must hold a JSON object"),
], ids=["search graph without data", "schema and data counts differ",
        "environment without possible children", "sweep without a winner",
        "config not an object"])
def test_error_paths_exit_with_their_message(workdir, tmp_path, capsys, argv,
                                             code, message):
    (tmp_path / "isolated.txt").write_text(ISOLATED_ENV_PAG)
    (tmp_path / "list.json").write_text("[1, 2]")
    assert main(argv(workdir, tmp_path)) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message + "\n"


class TestSearch:
    def test_end_to_end_winner(self, workdir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(search_argv(workdir, out)) == 0
        assert capsys.readouterr().out.strip() == "interventional[X2,X3]"
        report = json.loads((out / "candidates.json").read_text())
        assert report["winner"] == "interventional[X2,X3]"
        labels = {f"{c['kind']}[{','.join(c['conditioning_set']) or '-'}]"
                  for c in report["candidates"]}
        assert "conditional[X3]" in labels
        assert all(c["validation_loss"] is not None
                   for c in report["candidates"])

    def test_deterministic_outputs(self, workdir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(search_argv(workdir, a)) == 0
        assert main(search_argv(workdir, b)) == 0
        assert (a / "candidates.json").read_bytes() == \
            (b / "candidates.json").read_bytes()

    def test_mutable_defaults_to_env_children(self, workdir, tmp_path):
        out = tmp_path / "run"
        assert main(search_argv(workdir, out)) == 0
        log = (out / "log.txt").read_text()
        assert "mutable set: ['X1']" in log

    @pytest.mark.parametrize("target, extra", [("X1", []),
                                               ("Y", ["--mutable", "Y"])],
                             ids=["derived", "explicit"])
    def test_mutable_target_exits_two_naming_it(self, workdir, tmp_path,
                                                capsys, target, extra):
        # the derived mutable set is E's possible children, {X1}
        argv = search_argv(workdir, tmp_path / "run", extra)
        argv[argv.index("--target") + 1] = target
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"target {target!r} is in the mutable set" in err
        assert "Traceback" not in err

    def test_single_env_requires_mutable(self, workdir, tmp_path):
        argv = ["search", "--graph", str(workdir / "pag.txt"),
                "--data", str(workdir / "e1.csv"),
                "--schema", str(workdir / "plain.json"),
                "--target", "Y", "--mode", "single-env",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2

    def test_no_candidate_exits_one(self, workdir, tmp_path):
        argv = ["search", "--graph", str(workdir / "unstable.txt"),
                "--data", str(workdir / "e1.csv"),
                "--schema", str(workdir / "plain.json"),
                "--target", "Y", "--mutable", "A",
                "--mode", "single-env", "--out", str(tmp_path / "run")]
        assert main(argv) == 1

    def test_circle_tail_edge_exits_two(self, workdir, tmp_path, capsys):
        rows = ["A,B,C"] + [f"{i % 3},{i % 5},{i % 7}" for i in range(40)]
        (tmp_path / "abc.csv").write_text("\n".join(rows) + "\n")
        argv = ["search", "--graph", str(workdir / "selection.txt"),
                "--data", str(tmp_path / "abc.csv"),
                "--schema", str(workdir / "plain.json"),
                "--target", "C", "--mutable", "A",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "circle-tail edge unsupported (selection bias)" in err
        assert "Traceback" not in err

    def test_cyclic_bucket_order_exits_two(self, workdir, tmp_path,
                                           capsys):
        names = "E,V0,V1,V2,V3,V4,V5,V6,V7".split(",")
        rows = [",".join(names)] + [",".join(str((i * (k + 2)) % 3)
                                             for k in range(len(names)))
                                    for i in range(40)]
        (tmp_path / "v.csv").write_text("\n".join(rows) + "\n")
        argv = ["search", "--graph", str(workdir / "cyclic_buckets.txt"),
                "--data", str(tmp_path / "v.csv"),
                "--schema", str(workdir / "plain.json"),
                "--target", "V0", "--mutable", "V4",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "cyclic bucket order" in err
        assert "Traceback" not in err

    def test_fits_quotients_of_sums_and_joint_factors(self, tmp_path):
        # interventional[V0,V3] here holds the factor P(V1,V2) inside a
        # quotient of sums
        text, target, mutable = ORACLE_ADMGS["six"]
        admg = parse(text, "ADMG")
        pag = fci.fci(fci.SeparationOracle(admg), admg.vertices)
        (tmp_path / "pag.txt").write_text(serialize(pag))
        (tmp_path / "plain.json").write_text('{"columns": {}}')
        scm = linear_scm(random.Random(4), admg)
        save_csv(DataTable(scm.sample(20000, seed=5)),
                 str(tmp_path / "d.csv"))
        out = tmp_path / "run"
        assert main(["search", "--graph", str(tmp_path / "pag.txt"),
                     "--data", str(tmp_path / "d.csv"),
                     "--schema", str(tmp_path / "plain.json"),
                     "--target", target, "--mutable", mutable,
                     "--out", str(out)]) == 0
        report = json.loads((out / "candidates.json").read_text())
        labels = {f"{c['kind']}[{','.join(c['conditioning_set']) or '-'}]"
                  for c in report["candidates"]}
        assert "interventional[V0,V3]" in labels
        assert len(labels) == 32

    def test_budget_exceeded_exits_two(self, workdir, tmp_path):
        out = tmp_path / "run"
        assert main(search_argv(workdir, out,
                                ["--max-observed", "2"])) == 2

    def test_graph_vertex_missing_from_data_exits_two(self, workdir,
                                                      tmp_path, capsys):
        # the target is a data column: a target that is not one is refused
        # before the graph is read (see TestSearchTarget)
        (tmp_path / "aby.txt").write_text("vars: A,B,Y\nA o-> B\nB --> Y\n")
        argv = ["search", "--graph", str(tmp_path / "aby.txt"),
                "--data", str(workdir / "e1.csv"),
                "--data", str(workdir / "e2.csv"),
                "--schema", str(workdir / "plain.json"),
                "--target", "Y", "--mutable", "A",
                "--out", str(tmp_path / "run")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "no data column for graph vertices: A, B" in err
        assert "Traceback" not in err

    def test_env_vertex_needs_a_column_only_when_conditioned_on(
            self, workdir, tmp_path, capsys):
        one_table = ["--graph", str(workdir / "pag.txt"),
                     "--data", str(workdir / "e1.csv"),
                     "--schema", str(workdir / "plain.json"),
                     "--target", "Y", "--mutable", "X1"]
        assert main(["search", *one_table,
                     "--out", str(tmp_path / "full")]) == 0
        capsys.readouterr()
        assert main(["search", *one_table, "--mode", "single-env",
                     "--out", str(tmp_path / "single")]) == 2
        assert "no data column for graph vertices: E" in \
            capsys.readouterr().err


class TestConfig:
    def test_config_supplies_flags(self, workdir, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "graph": str(workdir / "pag.txt"),
            "data": [str(workdir / "e1.csv"), str(workdir / "e2.csv")],
            "schema": [str(workdir / "plain.json")],
            "target": "Y",
            "out": str(tmp_path / "run"),
        }))
        assert main(["--config", str(cfg), "search"]) == 0
        assert capsys.readouterr().out.strip() == "interventional[X2,X3]"

    def test_flags_override_config(self, workdir, tmp_path, capsys):
        # a repeated flag replaces the config's list rather than extending it
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"mode": "full",
                                   "data": [str(tmp_path / "none.csv")]}))
        out = tmp_path / "run"
        argv = ["--config", str(cfg)] + \
            search_argv(workdir, out, ["--mode", "conditional-only"])
        assert main(argv) == 0
        assert capsys.readouterr().out.strip() == "conditional[X3]"

    def test_unknown_config_key(self, workdir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        assert main(["--config", str(cfg)] +
                    search_argv(workdir, tmp_path / "run")) == 2

    def test_malformed_config(self, workdir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text("not json")
        assert main(["--config", str(cfg)] +
                    search_argv(workdir, tmp_path / "run")) == 2

    @pytest.mark.parametrize("command, config", [
        ("learn-pag", {"test": "bogus"}),
        ("search", {"backend": "nope"}),
        ("simulate", {"n": "ten"}),
        ("search", {"seed": [1]}),
    ])
    def test_bad_config_value_exits_two(self, workdir, tmp_path, capsys,
                                        command, config):
        # config values pass the flags' type and choices checks
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(config))
        data = search_argv(workdir, tmp_path / "run")[3:9]
        argv = {"learn-pag": data,
                "search": ["--graph", str(workdir / "pag.txt"), *data],
                "simulate": ["--alpha", "4"]}[command]
        assert main(["--config", str(cfg), command, *argv,
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        key, = config
        assert f"config key {key!r}" in err
        assert "Traceback" not in err

    def test_simulate_takes_config_values(self, tmp_path):
        out = tmp_path / "sim.csv"
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"n": "10", "alpha": 4, "out": str(out)}))
        assert main(["--config", str(cfg), "simulate"]) == 0
        assert len(out.read_text().splitlines()) == 11


class TestSweep:
    def test_metrics_csv_format(self, workdir, tmp_path):
        out = tmp_path / "run"
        assert main(["sweep", "--graph", str(workdir / "pag.txt"),
                     "--n-train", "5000", "--n-test", "2000",
                     "--grid-points", "3", "--out", str(out)]) == 0
        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["alpha", "model", "mse"]
        assert len(rows) == 1 + 3 * 3  # three models, three grid points
        alpha, model, mse = rows[1]
        assert alpha == "-5.000000"
        assert model == "interventional[X2,X3]"
        assert len(mse.split(".")[1]) == 6

    @pytest.mark.parametrize("target, message", [
        ("E", "is the environment column, not a variable to predict"),
        ("Q", "is not a data column"),
    ])
    def test_bad_target_exits_two_before_the_search(
            self, workdir, tmp_path, capsys, monkeypatch, target, message):
        # before: E failed in fitting with "use the discrete backend", a
        # flag sweep does not have, and Q as an unknown graph vertex
        def search(*args):
            raise AssertionError("searched before the target was checked")

        monkeypatch.setattr(cli, "stable_candidates", search)
        out = tmp_path / "run"
        assert main(["sweep", "--graph", str(workdir / "pag.txt"),
                     "--target", target, "--n-train", "500",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            f"error: --target {target!r} {message}\n"
        assert not out.exists()

    def test_graph_vertex_missing_from_data_exits_two(self, tmp_path,
                                                      capsys):
        (tmp_path / "pag.txt").write_text(
            PAG_TEXT.replace("X3,Y\n", "X3,Y,Q\n") + "Q --> Y\n")
        assert main(["sweep", "--graph", str(tmp_path / "pag.txt"),
                     "--n-train", "500", "--n-test", "200",
                     "--grid-points", "2", "--out", str(tmp_path / "run")]) == 2
        assert "no data column for graph vertices: Q" in \
            capsys.readouterr().err

    def test_one_search_and_one_split(self, workdir, tmp_path,
                                      monkeypatch):
        # both modes' winners and the unstable baseline come from one
        # full-mode search and one fit on one train/validation split
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            return wrapper

        for module in (cli, search):
            monkeypatch.setattr(module, "stable_candidates", counted(
                "search", search.stable_candidates))
        monkeypatch.setattr(search, "split_train_validation", counted(
            "split", search.split_train_validation))
        assert main(["sweep", "--graph", str(workdir / "pag.txt"),
                     "--n-train", "2000", "--n-test", "200", "--grid-points",
                     "2", "--out", str(tmp_path / "run")]) == 0
        assert sorted(calls) == ["search", "split"]

    def test_graph_required(self, tmp_path):
        assert main(["sweep", "--n-train", "100", "--n-test", "100",
                     "--grid-points", "2",
                     "--out", str(tmp_path / "run")]) == 2

    @pytest.mark.parametrize("flags, message", [
        ([], "sweep needs --graph"),
        (["--train-alphas", "4"], "two or more datasets")],
        ids=["no graph", "one training alpha"])
    def test_flags_checked_before_simulating(self, tmp_path, capsys,
                                             monkeypatch, flags, message):
        def fail(*args):
            raise AssertionError("simulated before the flags were checked")

        monkeypatch.setattr(cli, "simulate_benchmark", fail)
        assert main(["sweep", *flags, "--out", str(tmp_path / "run")]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [["--mode", "full"],
                                      ["--backend", "linear-gaussian"]])
    def test_search_only_flags_exit_two(self, workdir, tmp_path, flag):
        # sweep always reports both modes' winners, fitted linearly
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--graph", str(workdir / "pag.txt"), *flag,
                  "--out", str(tmp_path / "run")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("key, value", [("mode", "full"),
                                            ("backend", "linear-gaussian")])
    def test_search_only_config_keys_refused(self, workdir, tmp_path, capsys,
                                             key, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({key: value}))
        assert main(["--config", str(cfg), "sweep", "--graph",
                     str(workdir / "pag.txt"),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"unknown config keys ['{key}']" in capsys.readouterr().err

    def test_search_keeps_mode_and_backend(self):
        _, commands = cli.build_parser()
        args = commands["search"].parse_args(
            ["--mode", "conditional-only", "--backend", "discrete-exact"])
        assert (args.mode, args.backend) == ("conditional-only",
                                             "discrete-exact")


def readme_commands() -> list[list[str]]:
    """Every ``stablespec ...`` command in README.md's code blocks, with
    lines ending in a backslash joined, split into arguments."""
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = readme.read_text().split("```")[1::2]
    commands = []
    for block in blocks:
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("stablespec "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    # a flag the README uses but the CLI dropped fails here
    commands = readme_commands()
    assert {c[0] for c in commands} == set(cli.COMMANDS)
    parser, _ = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
