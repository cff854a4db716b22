"""One repetition of a batch workload, in a process of its own.

What a ``repro`` CLI user pays, in order: interpreter start, ``import
repro``, ``read_csv`` + ``parse_dcs`` (all of it ``setup_s``), the full
plan on a fresh context (``repair_s``), then the Section 2.2 feedback
loop re-entering at learn (``rerepair_s``), and finally a checkpoint
round trip with the plan re-entered on the loaded context
(``rehydrate_s`` — what the serving layer does for an evicted session;
every run has to report every end-to-end metric, so the batch workloads
take it in-process).
Nothing is warmed up: users pay first-touch costs on every run.

Prints one JSON line: samples per metric (the first repair's quality as
the counts behind it: the driver pools them over the seed's panel),
operations attempted and failed, and the fingerprint of the first repair.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path

from common import FEEDBACK_CELLS, Recorder, clock, read_meta, repairs_fingerprint


def fingerprint_of(result) -> str:
    return repairs_fingerprint(
        (cell.tid, cell.attribute, inference.chosen_value)
        for cell, inference in result.repairs.items()
    )


def next_feedback(result, clean, already: set) -> dict:
    """The least confident cells not verified yet, with their true values."""
    queue = sorted(
        (inference.confidence, cell)
        for cell, inference in result.inferences.items()
        if cell not in already and clean.cell_value(cell) is not None
    )
    return {cell: clean.cell_value(cell) for _, cell in queue[:FEEDBACK_CELLS]}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args()

    from repro.constraints.parser import parse_dcs
    from repro.core.config import HoloCleanConfig
    from repro.core.session import RepairSession
    from repro.core.stages import RepairContext, RepairPlan
    from repro.dataset.csv_io import read_csv
    from repro.eval.metrics import evaluate_repairs
    from repro.serve.checkpoint import CheckpointStore

    meta = read_meta(args.inputs)
    dirty = read_csv(args.inputs / "dirty.csv", source_attribute=meta["source_attribute"])
    constraints = parse_dcs((args.inputs / "dcs.txt").read_text().splitlines())
    ctx = RepairContext(
        dataset=dirty,
        constraints=constraints,
        config=HoloCleanConfig().with_(**meta["config"]),
    )
    rec = Recorder()
    rec.add("setup_s", clock() - args.spawned_at)

    ctx = rec.timed("repair_s", "repair", lambda: RepairPlan.default().run(ctx))
    if ctx is None:
        print(json.dumps(rec.to_json()))
        return 0
    first = ctx.result
    clean = read_csv(args.inputs / "clean.csv", source_attribute=meta["source_attribute"])

    session = RepairSession.from_context(ctx)
    verified: dict = {}
    result = first
    for round_no in range(meta["rounds"]):
        batch = next_feedback(result, clean, set(verified))
        for cell, value in batch.items():
            session.feedback(cell, value)
        verified.update(batch)

        def held(outcome):
            wrong = [
                cell
                for cell, value in verified.items()
                if outcome.repaired.cell_value(cell) != value
            ]
            return f"{len(wrong)} verified cells lost their value" if wrong else None

        outcome = rec.timed("rerepair_s", f"rerepair {round_no}", session.rerun, held)
        if outcome is not None:
            result = outcome
    rec.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    store = CheckpointStore(args.inputs / "checkpoints")
    store.save("evicted", session.context)
    expected = fingerprint_of(result)

    def rehydrate():
        return RepairPlan.default().run(store.load("evicted"))

    def same_repairs(loaded):
        if loaded.stage_status.get("compile") != "skipped":
            return "the loaded context recompiled"
        if fingerprint_of(loaded.result) != expected:
            return "repairs differ from the ones before the checkpoint"
        return None

    rec.timed("rehydrate_s", "rehydrate", rehydrate, same_repairs)

    rec.add_quality(evaluate_repairs(dirty, first.repaired, clean))
    out = rec.to_json()
    out["fingerprint"] = fingerprint_of(first)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
