"""End-to-end pipeline benchmark: 10k-row Hospital through the default plan.

The other performance benches time individual subsystems; this one runs
the whole staged pipeline (Detect → Compile → Learn → Infer → Apply) and
publishes what the telemetry subsystem (:mod:`repro.obs`) records along
the way: per-stage wall time and peak Python-heap memory, straight from
the run's trace spans.  It doubles as the end-to-end check that coarse
tracing covers every stage — the run report's trace tree must contain
exactly the five stage spans.

Baselines pin ``stages_traced`` (a count, stable across machines); the
wall times and memory peaks land in ``meta`` as informational context.
Run as a script (``python benchmarks/bench_pipeline.py``) or via pytest.
``BENCH_PIPELINE_ROWS`` resizes the workload (default 10,000).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
try:
    import repro  # noqa: F401
except ModuleNotFoundError:  # plain `python benchmarks/...` from a checkout
    sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

from _common import fmt, publish, publish_json

from repro.core.config import HoloCleanConfig
from repro.core.stages import STAGE_ORDER, RepairContext, RepairPlan
from repro.data.generators.hospital import generate_hospital

ROWS = int(os.environ.get("BENCH_PIPELINE_ROWS", 10_000))


def run_bench() -> dict:
    generated = generate_hospital(num_rows=ROWS)
    config = HoloCleanConfig(tau=0.5, trace_level="stage", trace_memory=True)
    ctx = RepairContext(
        dataset=generated.dirty.copy(name="hospital"),
        constraints=list(generated.constraints),
        config=config,
    )
    ctx = RepairPlan.default().run(ctx)
    result = ctx.result
    report = result.report
    assert report is not None, "pipeline run attached no RunReport"

    spans = {span.name: span for span in report.trace_spans()}
    traced = report.stage_names_traced()
    assert traced == list(STAGE_ORDER), (
        f"trace tree covers {traced}, expected all of {STAGE_ORDER}"
    )
    if ctx.engine is not None:
        ctx.engine.close()
    if ctx.tracer is not None:
        ctx.tracer.shutdown()

    metrics: dict = {"stages_traced": len(STAGE_ORDER)}
    for name in STAGE_ORDER:
        metrics[f"{name}_s"] = spans[name].duration
    metrics["total_s"] = sum(spans[name].duration for name in STAGE_ORDER)

    mem_mb = {name: (spans[name].py_mem_peak or 0) / 1e6 for name in STAGE_ORDER}
    lines = [
        f"Hospital {generated.dirty.num_tuples} tuples · "
        f"{len(result.inferences)} noisy cells · "
        f"{result.num_repairs} repairs · config {report.fingerprint}",
        "",
        f"{'stage':<8} {'seconds':>9} {'peak MB':>9}",
    ]
    for name in STAGE_ORDER:
        lines.append(f"{name:<8} {fmt(spans[name].duration, 9)} {fmt(mem_mb[name], 9)}")
    lines.append(f"{'total':<8} {fmt(metrics['total_s'], 9)}")

    meta = {
        "rows": generated.dirty.num_tuples,
        "attributes": len(generated.dirty.schema.names),
        "noisy_cells": len(result.inferences),
        "repairs": result.num_repairs,
        "config_fingerprint": report.fingerprint,
        "stage_mem_peak_mb": mem_mb,
        "rss_peak_kb": max((spans[name].rss_peak_kb or 0) for name in STAGE_ORDER),
        "phase_timings": report.phase_timings,
        "cpus": os.cpu_count() or 1,
    }

    publish("pipeline", "\n".join(lines))

    publish_json("pipeline", metrics=metrics, meta=meta)
    return metrics


def test_pipeline_traces_all_stages():
    metrics = run_bench()
    assert metrics["stages_traced"] == len(STAGE_ORDER)


if __name__ == "__main__":
    outcome = run_bench()
    print(
        f"stages traced: {outcome['stages_traced']}/{len(STAGE_ORDER)} · "
        f"total {outcome['total_s']:.2f}s"
    )
    if outcome["stages_traced"] != len(STAGE_ORDER):
        print("FAIL: trace tree does not cover all five stages", file=sys.stderr)
        raise SystemExit(1)
