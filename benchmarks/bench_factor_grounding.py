"""Naive vs engine DC-factor grounding: pair enumeration (Algorithm 1).

PR 1 vectorized violation detection and domain pruning; the remaining
grounding hot path is the ``Tuple(t1), Tuple(t2)`` self-join that
enumerates the tuple pairs DC factors are grounded over.  This bench
pits the tuple-at-a-time ``PairEnumerator`` against the engine-backed
``VectorPairEnumerator`` on a ≥10k-tuple Hospital workload, in both the
join-only mode and the Algorithm 3 partitioned mode, asserting the pair
streams are byte-identical (same pairs, same order) along the way.

Run as a script (``python benchmarks/bench_factor_grounding.py``) or via
pytest.  ``BENCH_FACTOR_ROWS`` resizes the workload and
``BENCH_FACTOR_MAX_PAIRS`` the per-constraint enumeration cap.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # plain `python benchmarks/...` from a checkout
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from _common import fmt, publish, publish_json  # noqa: E402

from repro.core.partition import PairEnumerator, VectorPairEnumerator  # noqa: E402
from repro.data.generators.hospital import generate_hospital  # noqa: E402
from repro.detect.violations import ViolationDetector  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.oracle import DomainPruner  # noqa: E402

#: Acceptance floor: engine enumeration must beat the naive enumerator by
#: at least this factor (total across both grounding modes, NumPy backend).
MIN_SPEEDUP = 4.0

ROWS = int(os.environ.get("BENCH_FACTOR_ROWS", 10_000))
MAX_PAIRS = int(os.environ.get("BENCH_FACTOR_MAX_PAIRS", 1_000_000))

#: The acceptance floor is defined for the 10k-tuple workload; downsized
#: runs (fixed costs dominate) report the speedup without enforcing it.
ENFORCE_FLOOR = ROWS >= 10_000


def _consume_naive(dataset, domains, dcs, hypergraph, use_partitioning):
    enumerator = PairEnumerator(dataset, domains, max_pairs=MAX_PAIRS)
    count = 0
    started = time.perf_counter()
    for dc in dcs:
        for _ in enumerator.pairs_for(dc, use_partitioning, hypergraph):
            count += 1
    return count, time.perf_counter() - started


def _consume_vector(engine, dataset, domains, dcs, hypergraph,
                    use_partitioning):
    enumerator = VectorPairEnumerator(engine, dataset, domains,
                                      max_pairs=MAX_PAIRS)
    count = 0
    started = time.perf_counter()
    for dc in dcs:
        for left, _right in enumerator.pair_chunks(
                dc, use_partitioning=use_partitioning, hypergraph=hypergraph):
            count += len(left)
    return count, time.perf_counter() - started


def _assert_identical_streams(engine, dataset, domains, dcs, hypergraph):
    """The engine is an optimisation, never a semantic change."""
    naive = PairEnumerator(dataset, domains, max_pairs=MAX_PAIRS)
    vector = VectorPairEnumerator(engine, dataset, domains,
                                  max_pairs=MAX_PAIRS)
    for dc in dcs[:2]:  # full streams on a subset keep the check affordable
        for use_partitioning in (False, True):
            expected = list(naive.pairs_for(dc, use_partitioning, hypergraph))
            actual = list(vector.pairs_for(dc, use_partitioning, hypergraph))
            assert actual == expected, (dc.name, use_partitioning)


def run_bench() -> dict:
    generated = generate_hospital(num_rows=ROWS)
    dataset = generated.dirty
    engine = Engine(dataset)
    detection = ViolationDetector(generated.constraints,
                                  engine=engine).detect(dataset)
    cells = sorted(detection.noisy_cells)
    domains = DomainPruner(dataset, stats=engine.statistics(),
                           tau=generated.recommended_tau).domains(cells)
    dcs = [dc for dc in generated.constraints if not dc.is_single_tuple]
    hypergraph = detection.hypergraph

    _assert_identical_streams(engine, dataset, domains, dcs, hypergraph)

    modes = {}
    naive_total = 0.0
    engine_total = 0.0
    for use_partitioning in (False, True):
        label = "partitioned" if use_partitioning else "join"
        pairs, t_naive = _consume_naive(dataset, domains, dcs, hypergraph,
                                        use_partitioning)
        naive_total += t_naive
        vec_pairs, t_vec = _consume_vector(Engine(dataset), dataset, domains,
                                           dcs, hypergraph, use_partitioning)
        assert vec_pairs == pairs, (label, pairs, vec_pairs)
        engine_total += t_vec
        modes[label] = {"pairs": pairs, "naive": t_naive, "numpy": t_vec}

    speedups = {"numpy": naive_total / engine_total}
    report = {
        "rows": dataset.num_tuples,
        "noisy_cells": len(cells),
        "modes": modes,
        "naive_total": naive_total,
        "engine_total": engine_total,
        "speedups": speedups,
    }

    lines = [
        f"Hospital {dataset.num_tuples} tuples · {len(dcs)} two-tuple DCs · "
        f"{len(cells)} pruned cells · cap {MAX_PAIRS} pairs/DC",
        "",
        f"{'mode':<14} {'pairs':>9} {'naive(s)':>9} {'numpy(s)':>9}",
    ]
    for label, row in modes.items():
        lines.append(
            f"{label:<14} {row['pairs']:>9} {fmt(row['naive'], 9)} "
            f"{fmt(row['numpy'], 9)}")
    lines.append("")
    lines.append("total speedup: " + ", ".join(
        f"{backend}={ratio:.1f}x" for backend, ratio in speedups.items()))
    publish("factor_grounding", "\n".join(lines))
    if ENFORCE_FLOOR:
        # Downsized smoke runs would overwrite the gated result with
        # numbers the committed baselines cannot be compared against.
        publish_json(
            "factor_grounding",
            metrics={"speedup_numpy": speedups["numpy"]},
            meta={"rows": dataset.num_tuples,
                  "noisy_cells": len(cells),
                  "max_pairs": MAX_PAIRS,
                  "pairs_join": modes["join"]["pairs"],
                  "pairs_partitioned": modes["partitioned"]["pairs"],
                  "naive_total_s": naive_total,
                  "numpy_total_s": engine_total})
    else:
        print(f"downsized run ({ROWS} rows): BENCH json not published",
              file=sys.stderr)
    return report


def test_factor_grounding_speedup():
    report = run_bench()
    if ENFORCE_FLOOR:
        assert report["speedups"]["numpy"] >= MIN_SPEEDUP, (
            f"engine pair enumeration speedup "
            f"{report['speedups']['numpy']:.1f}x below the "
            f"{MIN_SPEEDUP}x acceptance floor")


if __name__ == "__main__":
    outcome = run_bench()
    print("speedups: " + ", ".join(
        f"{k}={v:.1f}x" for k, v in outcome["speedups"].items()))
    if ENFORCE_FLOOR and outcome["speedups"]["numpy"] < MIN_SPEEDUP:
        print(f"FAIL: numpy speedup below {MIN_SPEEDUP}x", file=sys.stderr)
        raise SystemExit(1)
