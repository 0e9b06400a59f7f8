"""Build the fixed query corpus of the search-sparse workload.

    python3 bench/corpus.py            # rewrites bench/sparse_corpus.json

The per-call cost of ``stable_candidates`` on random sparse PAGs is heavy
tailed: most calls finish in well under a second, while a few spend minutes
simplifying identified expressions. The cost even depends on vertex names: a
10-vertex query that takes 0.6 s took 153 s after renaming its vertices. A
benchmark that drew fresh graphs, or fresh names, from every run seed could
neither hold its own bound nor promise to finish. The workload therefore runs
a fixed corpus of queries, in an order drawn from the run seed.

This script draws queries from ``inputs.sparse_admg`` in generator-seed
order, times each once, and keeps the first ones that finish within the cap
for their size. Queries whose search identifies interventional candidates
are the ones that tend to blow up, so each size has a quota of those
("identified") besides its quota of queries of any outcome; without it the
cap alone would keep only queries where identification always fails.
Skipped draws are listed in the output with the cap they exceeded, so the
tail stays on record. For every kept query it also records the candidate
labels as the reference the benchmark checks against.
"""

from __future__ import annotations

import json
import random
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from stablespec.graph import serialize  # noqa: E402
from stablespec.search import InvarianceSpec, stable_candidates  # noqa: E402

from inputs import oracle_pag, sparse_admg  # noqa: E402

# |V| -> (identified queries, queries of any outcome, seconds cap per query)
PLAN = {6: (2, 0, 2.0), 7: (2, 0, 2.0), 8: (1, 3, 2.0), 10: (0, 1, 3.0),
        12: (0, 1, 5.0)}
OUT = HERE / "sparse_corpus.json"


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def draw(n: int, index: int):
    """The ADMG and query of generator seed ``index`` at size ``n``."""
    rng = random.Random(n * 100_000 + index)
    admg = sparse_admg(rng, n)
    target, mutable = rng.sample(sorted(admg.vertices), 2)
    return admg, target, mutable


def candidate_keys(candidates) -> list[list]:
    """Sorted [kind, sorted conditioning set] pairs."""
    return sorted([c.kind, sorted(c.conditioning_set)] for c in candidates)


def run_query(admg, target, mutable, cap: float):
    pag = oracle_pag(admg)
    signal.setitimer(signal.ITIMER_REAL, cap)
    start = time.perf_counter()
    try:
        found = stable_candidates(InvarianceSpec(pag, {mutable}), target,
                                  "full")
    except _Timeout:
        return None, cap
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return found, time.perf_counter() - start


def main() -> int:
    signal.signal(signal.SIGALRM, _alarm)
    kept, skipped = [], []
    for n, (identified, any_outcome, cap) in PLAN.items():
        index = 0
        while identified or any_outcome:
            admg, target, mutable = draw(n, index)
            found, seconds = run_query(admg, target, mutable, cap)
            index += 1
            if found is None:
                skipped.append({"n": n, "index": index - 1, "over_s": cap})
                print(f"n={n} index={index - 1}: over {cap} s, skipped",
                      flush=True)
                continue
            if identified and any(c.kind == "interventional" for c in found):
                identified -= 1
            elif any_outcome:
                any_outcome -= 1
            else:
                continue
            kept.append({"n": n, "index": index - 1,
                         "admg": serialize(admg), "target": target,
                         "mutable": mutable,
                         "seconds_at_build": round(seconds, 3),
                         "candidates": candidate_keys(found)})
            print(f"n={n} index={index - 1}: {len(found)} candidates, "
                  f"{seconds:.3f} s", flush=True)
    OUT.write_text(json.dumps({"plan": {str(n): {"identified": i,
                                                 "any_outcome": a, "cap_s": c}
                                        for n, (i, a, c) in PLAN.items()},
                               "queries": kept, "skipped": skipped},
                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
