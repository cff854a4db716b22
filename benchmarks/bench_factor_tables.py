"""Naive vs engine DC-factor grounding: factor-table construction.

PR 2 pushed Algorithm 1's pair enumeration into the relational engine;
the remaining tuple-at-a-time stage was the per-pair table loop
(``ModelCompiler._ground_factor_for_cells``: two dict copies plus one
``dc.violates`` call per table cell, per pair).  This bench pits that
naive oracle against the batched ``VectorFactorTableBuilder`` path —
code-space predicate evaluation over broadcast candidate grids — on a
≥10k-tuple Hospital workload, asserting along the way that both paths
ground byte-identical factor graphs (tables, variable ids, emission
order, skip counts).

Run as a script (``python benchmarks/bench_factor_tables.py``) or via
pytest.  ``BENCH_TABLE_ROWS`` resizes the workload and
``BENCH_TABLE_MAX_PAIRS`` the per-constraint enumeration cap.
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

from repro.core.compiler import ModelCompiler  # noqa: E402
from repro.core.config import HoloCleanConfig  # noqa: E402
from repro.data.generators.hospital import generate_hospital  # noqa: E402
from repro.detect.violations import ViolationDetector  # noqa: E402
from repro.engine import Engine  # noqa: E402
from repro.inference.variables import VariableBlock  # noqa: E402
from repro.oracle import DomainPruner, NaiveModelCompiler  # noqa: E402

#: Acceptance floor: the engine-backed table construction must beat the
#: naive per-pair loop by at least this factor (total across both
#: grounding modes, NumPy backend).
MIN_SPEEDUP = 3.0

ROWS = int(os.environ.get("BENCH_TABLE_ROWS", 10_000))
MAX_PAIRS = int(os.environ.get("BENCH_TABLE_MAX_PAIRS", 200_000))

#: The acceptance floor is defined for the 10k-tuple workload; downsized
#: runs (fixed costs dominate) report the speedup without enforcing it.
ENFORCE_FLOOR = ROWS >= 10_000


class _BenchGraph:
    """The minimal grounding sink ``_ground_factors`` writes into."""

    def __init__(self, variables: VariableBlock):
        self.variables = variables
        self.factors = []

    def add_factor(self, factor) -> None:
        self.factors.append(factor)

    def add_factors(self, factors) -> int:
        before = len(self.factors)
        self.factors.extend(factors)
        return len(self.factors) - before


def _variable_block(dataset, query_domains) -> VariableBlock:
    """The query variables exactly as ``ModelCompiler.compile`` adds them."""
    variables = VariableBlock()
    cells = sorted(query_domains)
    domains = [query_domains[cell] for cell in cells]
    inits = [dataset.cell_value(cell) for cell in cells]
    init_indices = [domain.index(init) if init in domain else -1
                    for domain, init in zip(domains, inits)]
    variables.add_block(cells, domains, init_indices, is_evidence=False)
    return variables


def _signature(graph) -> list:
    return [(f.constraint_name, f.var_ids, f.table.shape, f.table.tobytes())
            for f in graph.factors]


def _ground(compiler, query_domains) -> tuple[_BenchGraph, int, float]:
    graph = _BenchGraph(_variable_block(compiler.dataset, query_domains))
    started = time.perf_counter()
    skipped, _grounding = compiler._ground_factors(graph, query_domains)
    return graph, skipped, time.perf_counter() - started


def run_bench() -> dict:
    generated = generate_hospital(num_rows=ROWS)
    dataset = generated.dirty
    engine = Engine(dataset)
    detection = ViolationDetector(generated.constraints,
                                  engine=engine).detect(dataset)
    cells = sorted(detection.noisy_cells)
    domains = DomainPruner(dataset, stats=engine.statistics(),
                           tau=generated.recommended_tau).domains(cells)

    modes = {}
    naive_total = 0.0
    engine_total = 0.0
    for use_partitioning in (False, True):
        label = "partitioned" if use_partitioning else "join"
        config = HoloCleanConfig(use_dc_factors=True,
                                 use_partitioning=use_partitioning,
                                 tau=generated.recommended_tau,
                                 max_factor_pairs=MAX_PAIRS)
        naive = NaiveModelCompiler(dataset, generated.constraints, config,
                                   detection)
        vector = ModelCompiler(dataset, generated.constraints, config,
                               detection, engine=engine)
        naive_graph, naive_skipped, t_naive = _ground(naive, domains)
        vector_graph, vector_skipped, t_vector = _ground(vector, domains)
        # The engine path is an optimisation, never a semantic change.
        assert _signature(vector_graph) == _signature(naive_graph), label
        assert vector_skipped == naive_skipped, label
        naive_total += t_naive
        engine_total += t_vector
        modes[label] = {"factors": len(naive_graph.factors),
                        "skipped": naive_skipped,
                        "naive": t_naive, "engine": t_vector}

    speedup = naive_total / engine_total
    report = {
        "rows": dataset.num_tuples,
        "noisy_cells": len(cells),
        "modes": modes,
        "naive_total": naive_total,
        "engine_total": engine_total,
        "speedup": speedup,
    }

    lines = [
        f"Hospital {dataset.num_tuples} tuples · {len(cells)} pruned cells · "
        f"cap {MAX_PAIRS} pairs/DC",
        "",
        f"{'mode':<14} {'factors':>9} {'skipped':>9} {'naive(s)':>9} "
        f"{'engine(s)':>10}",
    ]
    for label, row in modes.items():
        lines.append(
            f"{label:<14} {row['factors']:>9} {row['skipped']:>9} "
            f"{fmt(row['naive'], 9)} {fmt(row['engine'], 10)}")
    lines.append("")
    lines.append(f"total speedup: {speedup:.1f}x "
                 f"(factor graphs byte-identical)")
    publish("factor_tables", "\n".join(lines))
    if ENFORCE_FLOOR:
        publish_json(
            "factor_tables",
            metrics={"speedup_numpy": speedup},
            meta={"rows": dataset.num_tuples,
                  "noisy_cells": len(cells),
                  "max_pairs": MAX_PAIRS,
                  "factors_join": modes["join"]["factors"],
                  "factors_partitioned": modes["partitioned"]["factors"],
                  "naive_total_s": naive_total,
                  "engine_total_s": engine_total})
    else:
        print(f"downsized run ({ROWS} rows): BENCH json not published",
              file=sys.stderr)
    return report


def test_factor_table_speedup():
    report = run_bench()
    if ENFORCE_FLOOR:
        assert report["speedup"] >= MIN_SPEEDUP, (
            f"engine factor-table construction speedup "
            f"{report['speedup']:.1f}x below the {MIN_SPEEDUP}x "
            f"acceptance floor")


if __name__ == "__main__":
    outcome = run_bench()
    print(f"speedup: {outcome['speedup']:.1f}x")
    if ENFORCE_FLOOR and outcome["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup below {MIN_SPEEDUP}x", file=sys.stderr)
        raise SystemExit(1)
