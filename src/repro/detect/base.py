"""Detector interface and detection results.

Every detector maps a dataset to a set of *noisy* cells ``D_n``; the clean
cells are ``D_c = D \\ D_n`` (Section 2.2).  Detectors that reason about
constraints additionally return the conflict hypergraph they discovered.
"""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass, field

from repro.dataset.dataset import Cell, Dataset
from repro.detect.hypergraph import ConflictHypergraph


@dataclass
class DetectionResult:
    """Noisy cells plus (optionally) the conflict hypergraph behind them."""

    noisy_cells: set[Cell] = field(default_factory=set)
    hypergraph: ConflictHypergraph = field(default_factory=ConflictHypergraph)

    def clean_cells(self, dataset: Dataset,
                    attributes: list[str] | None = None) -> list[Cell]:
        """``D_c``: every cell of the dataset not flagged noisy.

        Restricted to ``attributes`` when given (e.g. only repairable data
        attributes).
        """
        attrs = attributes if attributes is not None else dataset.schema.names
        noisy = self.noisy_cells
        cells = map(Cell._make, itertools.product(dataset.tuple_ids, attrs))
        return [cell for cell in cells if cell not in noisy]

    def merge(self, other: "DetectionResult") -> None:
        self.noisy_cells |= other.noisy_cells
        self.hypergraph.merge(other.hypergraph)

    def __repr__(self) -> str:
        return (f"DetectionResult(noisy_cells={len(self.noisy_cells)}, "
                f"violations={len(self.hypergraph)})")


class ErrorDetector(abc.ABC):
    """Base class for all error detectors."""

    @abc.abstractmethod
    def detect(self, dataset: Dataset) -> DetectionResult:
        """Return the noisy cells this detector finds in ``dataset``."""

    @property
    def name(self) -> str:
        return type(self).__name__
