"""Shared fixtures for the serving-subsystem tests."""

from __future__ import annotations

import pytest

from repro.core.config import HoloCleanConfig
from repro.data import generate_flights, generate_hospital
from repro.serve.service import RepairService

#: ``repro serve``'s defaults but with no worker pool: every job inline.
SERVICE_OPTIONS = dict(workers=0, max_sessions=16, checkpoint_dir=None, queue_depth=8)


def make_service(config=None, **options) -> RepairService:
    """A service over ``config`` with ``SERVICE_OPTIONS`` but ``options``."""
    return RepairService(config, **{**SERVICE_OPTIONS, **options})


@pytest.fixture(scope="session")
def hospital():
    return generate_hospital(num_rows=60)


@pytest.fixture(scope="session")
def flights():
    return generate_flights(num_flights=5)


def config_for(generated, **overrides):
    fields = dict(
        tau=generated.recommended_tau,
        source_entity_attributes=generated.source_entity_attributes,
        epochs=10,
        seed=3,
    )
    fields.update(overrides)
    return HoloCleanConfig(**fields)


def payload_for(generated, **config_overrides):
    """A ``POST /repair`` body for a generated dataset."""
    from repro.constraints.parser import format_dc

    dirty = generated.dirty
    config = dict(
        tau=generated.recommended_tau,
        source_entity_attributes=list(generated.source_entity_attributes),
        epochs=10,
        seed=3,
    )
    config.update(config_overrides)
    source_columns = dirty.schema.with_role("source")
    return {
        "dataset": {
            "name": dirty.name,
            "columns": list(dirty.schema.names),
            "rows": [list(dirty.row_ref(t)) for t in range(dirty.num_tuples)],
            "source_column": source_columns[0] if source_columns else None,
        },
        "constraints": [format_dc(dc) for dc in generated.constraints],
        "config": config,
    }
