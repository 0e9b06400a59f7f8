"""stablespec benchmark.

One workload, run from the repository root:

    python3 bench/run.py --workload learn-wide --seed 3 --seconds 20 --trace 0

prints each metric by name and unit, then as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` reports the per-layer metrics
from a traced run and writes its spans under ``.bench_out/``. Times of
operations and of the import are reported at a reference machine speed (see
``clock.py``); per-layer times are raw wall times.

Every workload, both modes, one process each, with a summary table:

    python3 bench/run.py [--seed N] [--seconds S] [--out summary.json]

Workloads are listed in ``workloads.py``; the metrics are listed in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from clock import REFERENCE_S, Clock, calibration_loop

# one process, no threads: keep BLAS single-threaded (read at numpy import)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NAMES = ("search-sparse", "learn-wide", "readme-pipeline")
QUALITY_UNITS = {"pag_shd": "edges", "stable_mse_worst": "mse"}
IMPORT_SPAWNS = 4
IMPORT_PROBE = ("import time; t = time.perf_counter(); import stablespec.cli; "
                "print(time.perf_counter() - t)")


def import_seconds(clock: Clock) -> float:
    """Median time of a cold ``import stablespec.cli``, each in a fresh
    interpreter, spawned one after another, at the clock's reference speed.
    One untimed spawn first writes the bytecode cache, as an installed
    package would have it."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for k in range(IMPORT_SPAWNS + 1):
        before = calibration_loop()
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True,
                             timeout=120)
        after = calibration_loop()
        if k:
            times.append(clock.scale(float(out.stdout), before, after))
    return statistics.median(times)


def timed_pass(workload, tracer=None) -> tuple[list[float], float]:
    """Run one pass, then check its outputs untimed. Returns the time of
    each operation in the pass and the pass's raw wall time."""
    start = time.perf_counter()
    if tracer is None:
        seconds, output = workload.run_pass()
    else:
        with tracer:
            seconds, output = workload.run_pass()
    elapsed = time.perf_counter() - start
    workload.check_pass(output)
    return seconds, elapsed


def measure(workload, seconds: float, tracer=None):
    """Run passes until they have taken ``seconds`` of wall time in total;
    at least two, so that every check across passes runs. With a tracer,
    one unmeasured pass warms the process up, then passes alternate
    untraced and traced. Returns the untraced and the traced passes, each a
    list of per-operation times."""
    plain, traced = [], []
    elapsed = 0.0
    if tracer is not None:
        timed_pass(workload)
    while elapsed < seconds or len(plain) + len(traced) < 2:
        ops, wall = timed_pass(workload)
        plain.append(ops)
        elapsed += wall
        if tracer is not None:
            ops, wall = timed_pass(workload, tracer)
            traced.append(ops)
            elapsed += wall
    return plain, traced


def job_seconds(passes: list[list[float]]) -> float:
    """Time of one pass of the job list, each operation's time taken as its
    median over the passes."""
    return sum(statistics.median(op) for op in zip(*passes))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    clock = Clock()
    setup_s = import_seconds(clock)
    sys.path.insert(0, str(SRC))
    import layers
    from workloads import WORKLOADS

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    try:
        workload = WORKLOADS[name](seed, workdir, clock)
        counts = layers.Counts()
        tracer = layers.make_tracer(counts) if trace else None
        plain, traced = measure(workload, seconds, tracer)
        quality = workload.quality()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    outcome = workload.outcome
    if trace:
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{name}-seed{seed}.npz"
        tracer.write(spans)
        print(f"{len(tracer.span_start)} spans written to {spans}, "
              f"{tracer.dropped} more counted only")
        metrics = layers.per_layer(tracer, counts, len(traced), quality,
                                   outcome)
        metrics["trace.overhead_s"] = (
            job_seconds(traced) - job_seconds(plain), "s")
        metrics["run.calibration_ms"] = (clock.calibration_ms(), "ms")
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"wall_s": (job_seconds(plain), "s"),
                   "setup_s": (setup_s, "s"),
                   "peak_rss_mb": (rss, "MB")}
    return {"correct": outcome.correct, "attempted": outcome.attempted,
            "failed": len(outcome.failures),
            "failures": outcome.failures, "passes": (plain, traced),
            "quality": quality, "calibration_ms": clock.calibration_ms(),
            "metrics": {k: {"value": float(v), "unit": u}
                        for k, (v, u) in metrics.items()}}


def report(name: str, seed: int, result: dict):
    """Human-readable lines, then the JSON result line."""
    plain, traced = result["passes"]
    print(f"workload {name}, seed {seed}: {len(plain)} untraced and "
          f"{len(traced)} traced passes")
    print(f"  calibration loop: median {result['calibration_ms']:.2f} ms, "
          f"reference {1e3 * REFERENCE_S:.2f} ms")
    print("  pass seconds: " + " ".join(f"{sum(t):.3f}" for t in plain) +
          (" | traced: " + " ".join(f"{sum(t):.3f}" for t in traced)
           if traced else ""))
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")
    for key, value in result["quality"].items():
        print(f"  {key} = {value:.6g} {QUALITY_UNITS[key]}")
    failed, attempted = result["failed"], result["attempted"]
    print(f"  failed_frac = {failed}/{attempted} = "
          f"{failed / attempted:.4f} ratio")
    for op, reason in sorted(result["failures"]):
        print(f"    failed: {op}: {reason}")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))


def run_all(seed: int, seconds: float, out: str | None) -> int:
    """Every workload in both modes, each run in its own process."""
    summary = {}
    for name in NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace",
                 str(trace)], capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stdout)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            summary.setdefault(name, {})[f"trace{trace}"] = \
                json.loads(proc.stdout.strip().splitlines()[-1])
    print("\nend-to-end metrics (tracing off); quality from the traced run")
    print(f"{'workload':17}{'wall_s':>9}{'setup_s':>9}{'peak_rss_mb':>12}"
          f"{'failed/attempted':>18}{'pag_shd':>9}{'stable_mse_worst':>18}")
    for name, runs in summary.items():
        r, m = runs["trace0"], runs["trace0"]["metrics"]
        q = runs["trace1"]["metrics"]
        print(f"{name:17}{m['wall_s']['value']:9.3f}"
              f"{m['setup_s']['value']:9.3f}{m['peak_rss_mb']['value']:12.1f}"
              f"{r['failed']:>10}/{r['attempted']:<7}"
              f"{q['fci.pag_shd']['value']:9.0f}"
              f"{q['search.stable_mse_worst']['value']:18.6f}")
    if out:
        sys.path.insert(0, str(SRC))
        from layers import MOVES
        Path(out).write_text(json.dumps(
            {"seed": seed, "seconds": seconds, "layer_moves": MOVES,
             "workloads": summary}, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the summary of a run over all "
                                      "workloads to this JSON file")
    args = parser.parse_args(argv)
    if not (SRC / "stablespec" / "__init__.py").is_file():
        print(f"error: no stablespec sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.out)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    report(args.workload, args.seed, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
