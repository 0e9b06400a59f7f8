"""The three benchmark workloads.

Each workload generates its inputs from the run seed in ``__init__``
(untimed), runs one pass of its fixed job list per ``run_pass`` call, which
returns the time of each operation (see ``clock.py``) and the outputs, and
checks that pass's outputs in ``check_pass`` (untimed), keeping only what
later checks and ``quality`` need.
Every call into the program is one operation; an operation fails when it
raises, exits with the wrong code, or produces an output that fails its
check. Each pass checks every operation again, but an operation counts once
per run, as failed if any of its checks failed, so that ``attempted`` and
``failed`` depend on the seed and not on how many passes fit in the run.
Program functions are looked up on their modules at call time, so
that the tracer sees the calls.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import random
import shutil
from pathlib import Path

from stablespec import citest, cli, fci, search
from stablespec.fci import Knowledge
from stablespec.graph import ARROW, MixedGraph, parse, serialize
from stablespec.identify import InvarianceQuery, invariant_conditional_mag
from stablespec.scm import practice_pattern_scm
from stablespec.search import InvarianceSpec

from inputs import ENV, oracle_pag, wide_scm, wide_tables

HERE = Path(__file__).resolve().parent
ALPHA = 0.01  # CI level of every workload, the CLI default


class Outcome:
    """Operations attempted and failed, with the reason for each failure.

    ``known`` names operations that fail at the commit the benchmark was
    defined on; their failures are counted but do not make a run incorrect.
    """

    def __init__(self, known=()):
        self.known = frozenset(known)
        # operation -> reason of its first failed check, None while all pass
        self.ops: dict[str, str | None] = {}

    def op(self, name: str, ok: bool, reason: str = ""):
        if self.ops.get(name) is None:
            self.ops[name] = None if ok else reason

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [(name, r) for name, r in self.ops.items() if r is not None]

    @property
    def correct(self) -> bool:
        return all(name in self.known for name, _ in self.failures)


def pag_shd(learned: MixedGraph, truth: MixedGraph) -> int:
    """Skeleton differences plus endpoint-mark differences on shared
    edges."""
    vs = sorted(truth.vertices)
    shd = 0
    for i, u in enumerate(vs):
        for v in vs[i + 1:]:
            a, b = learned.edges_between(u, v), truth.edges_between(u, v)
            if bool(a) != bool(b):
                shd += 1
            elif a:
                shd += (a[0].mark_at(u) != b[0].mark_at(u)) + \
                    (a[0].mark_at(v) != b[0].mark_at(v))
    return shd


# -- search-sparse -------------------------------------------------------


class SearchSparse:
    """``stable_candidates`` in full mode on a fixed corpus of oracle PAGs
    of sparse random ADMGs (|V| = 6 to 12), in an order drawn from the
    seed. See ``corpus.py`` for why the corpus is fixed."""

    def __init__(self, seed: int, workdir: Path, clock):
        self.clock = clock
        corpus = json.loads((HERE / "sparse_corpus.json").read_text())
        queries = corpus["queries"]
        random.Random(seed).shuffle(queries)
        self.queries = []
        for q in queries:
            pag = oracle_pag(parse(q["admg"], "ADMG"))
            expected = sorted((kind, tuple(z)) for kind, z in q["candidates"])
            self.queries.append((q["n"], pag, q["target"], q["mutable"],
                                 expected))
        self.outcome = Outcome()

    def run_pass(self):
        seconds, found = [], []
        for _, pag, target, mutable, _ in self.queries:
            t, cands = self.clock.timed(lambda: search.stable_candidates(
                InvarianceSpec(pag, {mutable}), target, "full"))
            seconds.append(t)
            found.append(cands)
        return seconds, found

    def check_pass(self, found):
        first = self.outcome.attempted == 0
        for (n, pag, target, mutable, expected), cands in \
                zip(self.queries, found):
            name = f"stable_candidates[|V|={n},{target}|{mutable}]"
            keys = sorted((c.kind, tuple(sorted(c.conditioning_set)))
                          for c in cands)
            if keys != expected:
                self.outcome.op(name, False, "candidates differ from the "
                                "recorded reference")
            elif first:
                bad = [c.label() for c in cands
                       if c.kind == "conditional" and
                       not invariant_conditional_mag(pag, InvarianceQuery(
                           {mutable}, {target}, c.conditioning_set))]
                self.outcome.op(name, not bad, "conditional candidates not "
                                f"invariant by the MAG checker: {bad}")
            else:
                self.outcome.op(name, True)

    def quality(self) -> dict:
        return {}


# -- learn-wide ------------------------------------------------------------

# One fixed system: with its structure or parameters drawn from the run seed,
# pooled FCI ran between 804 and 6925 CI tests on 3 x 20k rows, so wall_s
# would measure the draw. With the system fixed and only the samples drawn,
# 11 seeds gave 2854 to 2982 tests; at fewer rows some seeds double them.
WIDE_STRUCTURE_SEED = 7
WIDE_PARAMETER_SEED = 2
WIDE_ROWS = 20_000


class LearnWide:
    """``pooled_fci`` with the Fisher-z test on three environments of a
    fixed random linear-Gaussian system (10 observed variables, 2 latent
    confounders, 2 shifted means); the seed draws the samples."""

    def __init__(self, seed: int, workdir: Path, clock):
        self.clock = clock
        scms, admg = wide_scm(WIDE_STRUCTURE_SEED, WIDE_PARAMETER_SEED)
        self.tables = wide_tables(scms, WIDE_ROWS, seed)
        self.truth = oracle_pag(admg, Knowledge(forbidden_into={ENV}))
        self.outcome = Outcome()
        self.first: MixedGraph | None = None

    def run_pass(self):
        report: dict = {}
        t, pag = self.clock.timed(lambda: fci.pooled_fci(
            self.tables, citest.fisher_z_test, ALPHA, ENV, report=report))
        return [t], (pag, report)

    def check_pass(self, output):
        pag, report = output
        if self.first is None:
            self.first = pag
        reasons = []
        if set(pag.vertices) != set(self.truth.vertices):
            reasons.append("vertex set differs from the data columns")
        if any(e.mark_at(ENV) == ARROW for e in pag.edges_at(ENV)):
            reasons.append("arrowhead into the environment vertex")
        if serialize(pag) != serialize(self.first):
            reasons.append("PAG differs between passes on the same data")
        if report.get("ci_tests", 0) < 1:
            reasons.append("report counts no CI tests")
        self.outcome.op("pooled_fci", not reasons, "; ".join(reasons))

    def quality(self) -> dict:
        return {"pag_shd": pag_shd(self.first, self.truth)}


# -- readme-pipeline --------------------------------------------------------

README_PAG = """\
vars: E,X1,X2,X3,Y
E o-> X1
X1 --> X2
X1 <-> Y
X3 o-> Y
Y --> X2
"""

# the shift benchmark's true ADMG, with the environment acting on X1
README_ADMG = """\
vars: E,X1,X2,X3,Y
E --> X1
X1 --> X2
X1 <-> Y
X3 --> Y
Y --> X2
"""

PRACTICE_LEVELS = {"A": 2, "Y": 2, "B": 2, "L": 2}
PRACTICE_ROWS = 20_000
README_WINNER = "interventional[X2,X3]"


class ReadmePipeline:
    """The README's CLI flows, run in-process through ``cli.main``; the seed
    picks the simulation seeds and the discrete cohort samples."""

    # failing at the commit this benchmark was defined on: pooled learning
    # leaves E without possible children (so the mutable set cannot be
    # derived), and on some samples drops the L-Y edge, so L looks safe
    KNOWN_FAILURES = ("search (learned graph)", "search (discrete sites)")

    def __init__(self, seed: int, workdir: Path, clock):
        self.clock = clock
        self.seed = seed
        self.workdir = workdir
        self.inputs = workdir / "inputs"
        self.inputs.mkdir(parents=True)
        (self.inputs / "pag.txt").write_text(README_PAG)
        (self.inputs / "schema.json").write_text('{"columns": {}}\n')
        (self.inputs / "levels.json").write_text(
            json.dumps({"columns": PRACTICE_LEVELS}) + "\n")
        for site in (1, 2, 3):
            cols = practice_pattern_scm(site).sample(
                PRACTICE_ROWS, seed=100 * seed + site)
            lines = [",".join(PRACTICE_LEVELS)]
            lines += [",".join(str(int(cols[v][i])) for v in PRACTICE_LEVELS)
                      for i in range(PRACTICE_ROWS)]
            (self.inputs / f"site{site}.csv").write_text(
                "\n".join(lines) + "\n")
        self.truth = oracle_pag(parse(README_ADMG, "ADMG"),
                                Knowledge(forbidden_into={ENV}))
        self.outcome = Outcome(self.KNOWN_FAILURES)
        self.passes = 0
        self.first_digests: dict[str, str] = {}

    def pass_dir(self, k: int) -> Path:
        return self.workdir / f"pass{k}"

    def flows(self, o: Path):
        """(operation, argv, expected exit codes, expected stdout or None)
        for one pass writing under ``o``."""
        i = self.inputs
        env1, env2, schema = o / "env1.csv", o / "env2.csv", i / "schema.json"
        data = ["--data", env1, "--data", env2, "--schema", schema]
        sites = [a for s in (1, 2, 3)
                 for a in ("--data", i / f"site{s}.csv")]
        return [
            ("simulate alpha=4", ["simulate", "--alpha", 4, "--n", 50000,
                                  "--seed", 2 * self.seed + 1, "--out", env1],
             {0}, None),
            ("simulate alpha=8", ["simulate", "--alpha", 8, "--n", 50000,
                                  "--seed", 2 * self.seed + 2, "--out", env2],
             {0}, None),
            ("learn-pag", ["learn-pag", *data, "--out", o / "run"], {0}, None),
            ("identify", ["identify", "--graph", o / "run" / "graph.txt",
                          "--mutable", "X1", "--target", "Y",
                          "--given", "X2,X3"], {0, 1}, None),
            ("check", ["check", "--graph", o / "run" / "graph.txt",
                       "--mutable", "X1", "--target", "Y", "--given", "X3"],
             {0, 1}, None),
            ("search (given graph)", ["search", "--graph", i / "pag.txt",
                                      *data, "--target", "Y",
                                      "--out", o / "search"],
             {0}, README_WINNER),
            ("search (learned graph)", ["search", *data, "--target", "Y",
                                        "--out", o / "search-learned"],
             {0}, README_WINNER),
            ("sweep", ["sweep", "--graph", i / "pag.txt", "--grid-points",
                       100, "--seed", self.seed, "--out", o / "sweep"],
             {0}, None),
            ("search (discrete sites)", ["search", "--test",
                                         "degenerate-gaussian", "--backend",
                                         "discrete-exact", *sites, "--schema",
                                         i / "levels.json", "--target", "Y",
                                         "--out", o / "discrete"],
             {0}, None),
        ]

    def run_pass(self):
        out = self.pass_dir(self.passes)
        self.passes += 1
        out.mkdir()
        seconds, results = [], []
        for name, argv, codes, winner in self.flows(out):
            stdout, stderr = io.StringIO(), io.StringIO()
            t, code = self.clock.timed(
                lambda: _run_cli(argv, stdout, stderr))
            seconds.append(t)
            results.append((code, stdout.getvalue().strip(),
                            stderr.getvalue().strip()))
        return seconds, (out, results)

    def check_pass(self, output):
        out, results = output
        for (name, argv, codes, winner), (code, stdout, err) in \
                zip(self.flows(out), results):
            if code not in codes:
                self.outcome.op(name, False, f"exit {code}: {err}")
            elif winner is not None and stdout != winner:
                self.outcome.op(name, False, f"winner {stdout!r}, README "
                                f"gives {winner!r}")
            elif name == "search (discrete sites)" and \
                    "L" in stdout.split("[")[-1].strip("]").split(","):
                self.outcome.op(name, False, "winner conditions on the "
                                "site-dependent flag L")
            else:
                self.outcome.op(name, True)
        digests = _tree_digests(out)
        if out == self.pass_dir(0):
            self.first_digests = digests
            return
        changed = sorted(f for f in set(digests) | set(self.first_digests)
                         if digests.get(f) != self.first_digests.get(f))
        self.outcome.op("run directories", not changed,
                        f"{out.name} differs from pass0 in {changed}")
        shutil.rmtree(out)

    def quality(self) -> dict:
        q = {}
        out = self.pass_dir(0)
        graph = out / "run" / "graph.txt"
        if graph.exists():
            q["pag_shd"] = pag_shd(parse(graph.read_text()), self.truth)
        log = out / "sweep" / "log.txt"
        metrics = out / "sweep" / "metrics.csv"
        if log.exists() and metrics.exists():
            full = next((line.split()[2] for line in
                         log.read_text().splitlines()
                         if line.startswith("full winner:")), None)
            with open(metrics, newline="") as fh:
                mse = [float(row["mse"]) for row in csv.DictReader(fh)
                       if row["model"] == full]
            if mse:
                q["stable_mse_worst"] = max(mse)
        return q


def _run_cli(argv, stdout, stderr):
    """Exit code of one in-process CLI call, or the uncaught error's text
    (an uncaught error is a failed operation)."""
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        try:
            return cli.main([str(a) for a in argv])
        except Exception as exc:
            return f"{type(exc).__name__}: {exc}"


def _tree_digests(root: Path) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            p = Path(dirpath) / f
            out[str(p.relative_to(root))] = \
                hashlib.sha256(p.read_bytes()).hexdigest()
    return out


WORKLOADS = {
    "search-sparse": SearchSparse,
    "learn-wide": LearnWide,
    "readme-pipeline": ReadmePipeline,
}
