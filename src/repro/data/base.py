"""Shared infrastructure for generated evaluation datasets."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.constraints.denial import DenialConstraint
from repro.constraints.matching import MatchingDependency
from repro.dataset.dataset import Cell, Dataset
from repro.detect.violations import ViolationDetector
from repro.external.dictionary import ExternalDictionary


def scale_factor() -> float:
    """The global dataset size multiplier (env ``REPRO_SCALE``, default 1)."""
    raw = os.environ.get("REPRO_SCALE", "1.0")
    try:
        factor = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_SCALE must be a number, got {raw!r}") from None
    if factor <= 0:
        raise ValueError(f"REPRO_SCALE must be positive, got {factor}")
    return factor


def scaled(n: int, minimum: int = 1) -> int:
    """``n`` rows adjusted by the global scale factor."""
    return max(minimum, int(round(n * scale_factor())))


@dataclass
class GeneratedDataset:
    """A dirty dataset, its clean ground truth, and everything around it."""

    name: str
    dirty: Dataset
    clean: Dataset
    constraints: list[DenialConstraint]
    error_cells: set[Cell]
    dictionaries: list[ExternalDictionary] = field(default_factory=list)
    matching_dependencies: list[MatchingDependency] = field(default_factory=list)
    #: τ used for this dataset in Table 3 of the paper.
    recommended_tau: float = 0.5
    #: Entity key for the source featurizer (Flights: the flight number).
    source_entity_attributes: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.dirty.schema != self.clean.schema:
            raise ValueError("dirty and clean datasets must share a schema")
        if self.dirty.num_tuples != self.clean.num_tuples:
            raise ValueError("dirty and clean datasets must align tuple-wise")

    @property
    def num_errors(self) -> int:
        return len(self.error_cells)

    @property
    def error_rate(self) -> float:
        return len(self.error_cells) / max(self.dirty.num_cells, 1)

    def table2_row(self) -> dict[str, int]:
        """The dataset parameters reported in Table 2 of the paper."""
        detection = ViolationDetector(self.constraints).detect(self.dirty)
        return {
            "tuples": self.dirty.num_tuples,
            "attributes": len(self.dirty.schema),
            "violations": len(detection.hypergraph),
            "noisy_cells": detection.num_noisy,
            "ics": len(self.constraints),
        }

    def verify_ground_truth(self) -> None:
        """Sanity check: error cells are exactly where dirty ≠ clean."""
        observed = set(self.dirty.diff(self.clean))
        if observed != self.error_cells:
            missing = self.error_cells - observed
            extra = observed - self.error_cells
            raise AssertionError(
                f"ground truth mismatch: {len(missing)} tracked-but-equal, "
                f"{len(extra)} differing-but-untracked cells")
