"""The four workloads and the inputs they are made of.

A run with ``--seed s`` repairs a **panel** of generated instances, the
same ones every time: instance ``i`` comes from generator seed
``1000*s + 7*i``.  One instance is too little data at sizes that fit the
driver's half minute per run — between seeds, one Hospital-1k instance
moves precision by 4 % and one Hospital-200 instance moves the number of
DC factors by a third — so quality is pooled over the panel and a time is
taken over the panel's repetitions.  The panel's size is fixed per
workload, never derived from how fast the machine is.

``--seed`` reaches the generators and nothing else: the program under
test only ever sees the CSV, the constraint text and the JSON payload
written here.  Which layers dominate is recorded per workload below.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``batch`` = one fresh CLI-like process per repetition; ``serve`` =
    #: one ``python -m repro serve`` lifetime per repetition.
    kind: str
    generator: str
    #: Generator size argument (rows for hospital, flights for flights).
    size: int
    smoke_size: int
    #: Instances per seed; one pass over them fills ``run_seconds``.
    panel: int
    #: ``HoloCleanConfig`` fields on top of ``holoclean_config_for``.
    overrides: dict = field(default_factory=dict)
    #: Batch: feedback rounds per child.  Serve: measured cycles per
    #: server lifetime (each has one feedback request).
    rounds: int = 2
    why: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hospital-1k",
            kind="batch",
            generator="hospital",
            size=1000,
            smoke_size=200,
            panel=6,
            why="Table 2 Hospital: many small FD groups, ~8.7k noisy cells; compile "
            "(prune, featurize, emit) is ~64% of the repair and learn ~28%",
        ),
        Workload(
            name="flights-1.7k",
            kind="batch",
            generator="flights",
            size=50,
            smoke_size=10,
            panel=6,
            rounds=1,
            why="Flights shape (50 flights x 34 sources): few huge entity groups, every "
            "cell noisy, source features; detect ~43%, compile ~36%; its checkpoint "
            "loads as slowly as its repair runs",
        ),
        Workload(
            name="hospital-200-factors",
            kind="batch",
            generator="hospital",
            size=200,
            smoke_size=60,
            panel=6,
            overrides={
                "use_dc_factors": True,
                "use_partitioning": True,
                "gibbs_burn_in": 2,
                "gibbs_sweeps": 8,
            },
            rounds=1,
            why="the only workload with pair enumeration, factor tables and Gibbs: "
            "infer ~71% of the repair, detect <1%; a detect or featurize change "
            "should not move it",
        ),
        Workload(
            name="serve-hospital-500",
            kind="serve",
            generator="hospital",
            size=500,
            smoke_size=150,
            panel=5,
            rounds=1,
            why="the same plan behind python -m repro serve over HTTP: JSON parse, "
            "pool hand-off, pickle checkpoint save inside cold and feedback, load "
            "on rehydrate",
        ),
    )
}


def instance_seed(seed: int, index: int) -> int:
    """Generator seed of instance ``index`` of the panel of ``--seed seed``.

    The stride keeps the generators' ``seed + 1`` error streams of
    neighbouring instances apart.
    """
    return seed * 1000 + index * 7


def generate(workload: Workload, seed: int, index: int, smoke: bool):
    """Instance ``index`` of the seed's panel (imports the program)."""
    from repro.data.generators.flights import generate_flights
    from repro.data.generators.hospital import generate_hospital

    size = workload.smoke_size if smoke else workload.size
    if workload.generator == "flights":
        return generate_flights(num_flights=size, seed=instance_seed(seed, index))
    return generate_hospital(num_rows=size, seed=instance_seed(seed, index))


def config_fields(workload: Workload, generated) -> dict:
    """What ``eval.harness.holoclean_config_for`` sets, plus overrides."""
    fields = {
        "tau": generated.recommended_tau,
        "source_entity_attributes": list(generated.source_entity_attributes),
    }
    fields.update(workload.overrides)
    return fields


def source_attribute(generated) -> str | None:
    for attribute in generated.dirty.schema:
        if attribute.role == "source":
            return attribute.name
    return None


def write_inputs(workload: Workload, generated, directory: Path) -> None:
    """Dirty CSV, clean CSV, constraint text and run parameters on disk."""
    from repro.constraints.parser import format_dc
    from repro.dataset.csv_io import write_csv

    directory.mkdir(parents=True, exist_ok=True)
    write_csv(generated.dirty, directory / "dirty.csv")
    write_csv(generated.clean, directory / "clean.csv")
    (directory / "dcs.txt").write_text(
        "".join(format_dc(dc) + "\n" for dc in generated.constraints)
    )
    meta = {
        "workload": workload.name,
        "source_attribute": source_attribute(generated),
        "config": config_fields(workload, generated),
        "rounds": workload.rounds,
    }
    (directory / "meta.json").write_text(json.dumps(meta))


def serve_payload(workload: Workload, generated) -> dict:
    """The ``POST /repair`` body for one generated dataset."""
    from repro.constraints.parser import format_dc

    dirty = generated.dirty
    dataset = {
        "name": dirty.name,
        "columns": list(dirty.schema.names),
        "rows": [list(dirty.row_ref(tid)) for tid in dirty.tuple_ids],
    }
    source = source_attribute(generated)
    if source is not None:
        dataset["source_column"] = source
    return {
        "dataset": dataset,
        "constraints": [format_dc(dc) for dc in generated.constraints],
        "config": config_fields(workload, generated),
    }
