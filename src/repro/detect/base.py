"""Detector interface and detection results.

Every detector maps a dataset to a set of *noisy* cells ``D_n``; the clean
cells are ``D_c = D \\ D_n`` (Section 2.2).  Detectors that reason about
constraints additionally return the conflict hypergraph they discovered.
"""

from __future__ import annotations

import abc
from collections import defaultdict
from typing import Iterable

import numpy as np

from repro.dataset.dataset import Cell, Dataset
from repro.detect.hypergraph import ConflictHypergraph, cells_of_masks


class DetectionResult:
    """Noisy cells plus (optionally) the conflict hypergraph behind them.

    The noisy cells are stored as columns: :attr:`masks` maps an attribute
    to a boolean mask over tuple ids (``masks[a][t]``: cell ``(t, a)`` is
    noisy; a mask may stop before the last tuple, the rest being clean).
    :attr:`noisy_cells` is a read-only ``Cell`` view of the masks, built on
    first use and never pickled.  Detectors that find cells one at a time
    pass them as ``noisy_cells``.
    """

    def __init__(
        self,
        noisy_cells: Iterable[Cell] = (),
        hypergraph: ConflictHypergraph | None = None,
        masks: dict[str, np.ndarray] | None = None,
    ):
        self.hypergraph = hypergraph if hypergraph is not None else ConflictHypergraph()
        self.masks: dict[str, np.ndarray] = {}
        for attribute, mask in (masks or {}).items():
            self._flag(attribute, np.asarray(mask, dtype=bool))
        by_attribute: dict[str, list[int]] = defaultdict(list)
        for tid, attribute in noisy_cells:
            by_attribute[attribute].append(tid)
        for attribute, tids in by_attribute.items():
            mask = np.zeros(max(tids) + 1, dtype=bool)
            mask[tids] = True
            self._flag(attribute, mask)

    #: The ``Cell`` view, built on first use; a class attribute so that an
    #: unpickled instance starts without one.
    _cells: frozenset[Cell] | None = None

    def __getstate__(self) -> dict:
        return {"masks": self.masks, "hypergraph": self.hypergraph}

    def _flag(self, attribute: str, mask: np.ndarray) -> None:
        """OR ``mask`` into the attribute's mask, padding the shorter one."""
        mine = self.masks.get(attribute)
        if mine is not None:
            if len(mine) < len(mask):
                mine, mask = mask, mine
            mine = mine.copy()
            mine[: len(mask)] |= mask
            mask = mine
        self.masks[attribute] = mask
        self._cells = None

    @property
    def noisy_cells(self) -> frozenset[Cell]:
        """``D_n`` as :class:`Cell` objects (read-only; built once)."""
        if self._cells is None:
            self._cells = frozenset(cells_of_masks(self.masks))
        return self._cells

    @property
    def num_noisy(self) -> int:
        """``|D_n|``, counted off the masks."""
        return sum(int(np.count_nonzero(mask)) for mask in self.masks.values())

    def merge(self, other: "DetectionResult") -> None:
        for attribute, mask in other.masks.items():
            self._flag(attribute, mask)
        self.hypergraph.merge(other.hypergraph)

    def __repr__(self) -> str:
        return (
            f"DetectionResult(noisy_cells={self.num_noisy}, "
            f"violations={len(self.hypergraph)})"
        )


class ErrorDetector(abc.ABC):
    """Base class for all error detectors."""

    @abc.abstractmethod
    def detect(self, dataset: Dataset) -> DetectionResult:
        """Return the noisy cells this detector finds in ``dataset``."""

    @property
    def name(self) -> str:
        return type(self).__name__
