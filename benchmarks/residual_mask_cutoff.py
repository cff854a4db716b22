"""Where the detector's residual mask should start compacting.

``repro.detect.violations._residual_mask`` conjoins boolean predicate
masks over every joined pair, and gathers the survivors (evaluating the
remaining predicates on them alone) once a predicate lets fewer than
``_COMPACT_BELOW`` of the pairs through.  This script times both
strategies against the share the first predicate lets through:

* 30,000 tuples (``--rows``) joined on ``K`` (24 groups, ≈ 18.7M pairs);
* ``B ≠ B`` lets a chosen share of the pairs through (``B`` is one
  shared value with probability ``sqrt(1 - share)``, else unique);
* one or two trailing ``≠`` predicates (``--tails``) on unique columns,
  which keep every pair.

Each line reports the median of five alternating runs with compaction
forced off (a plain conjunction) and forced on after the first
predicate.  Run from the repository root::

    PYTHONPATH=src python benchmarks/residual_mask_cutoff.py --tails 2

Needs about 1 GB of memory at the default size.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.constraints.predicates import Operator, Predicate, TupleRef
from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.detect import violations
from repro.engine import Engine

SHARES = (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.8)
NEVER, ALWAYS = 0.0, 1.01  # cutoffs that force a conjunction / compaction


def differs(attribute: str) -> Predicate:
    return Predicate(TupleRef(1, attribute), Operator.NEQ, TupleRef(2, attribute))


def time_mask(engine, predicates, t1s, t2s, cutoff: float) -> float:
    violations._COMPACT_BELOW = cutoff
    # A first small call builds the store's code spaces outside the timing.
    violations._residual_mask(engine.store, predicates, t1s[:8], t2s[:8])
    start = time.perf_counter()
    violations._residual_mask(engine.store, predicates, t1s, t2s)
    return time.perf_counter() - start


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=30_000)
    parser.add_argument("--tails", type=int, choices=(1, 2), default=1)
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    saved = violations._COMPACT_BELOW
    try:
        for share in SHARES:
            shared = rng.random(args.rows) < np.sqrt(1 - share)
            rows = [
                [str(i % 24), "x" if shared[i] else f"b{i}", f"c{i}", f"d{i}"]
                for i in range(args.rows)
            ]
            engine = Engine(Dataset(Schema(["K", "B", "C", "D"]), rows))
            t1s, t2s = engine.backend.join_pairs([("K", "K")])
            predicates = [differs("B"), *map(differs, "CD"[: args.tails])]
            runs: dict[float, list[float]] = {NEVER: [], ALWAYS: []}
            for _ in range(args.runs):
                for cutoff, times in runs.items():
                    times.append(time_mask(engine, predicates, t1s, t2s, cutoff))
            first = violations._residual_mask(engine.store, predicates[:1], t1s, t2s)
            print(
                f"pairs {len(t1s):,}  first predicate keeps {first.mean():.3f}  "
                f"conjoin {np.median(runs[NEVER]):.3f} s  "
                f"compact {np.median(runs[ALWAYS]):.3f} s",
                flush=True,
            )
    finally:
        violations._COMPACT_BELOW = saved


if __name__ == "__main__":
    main()
