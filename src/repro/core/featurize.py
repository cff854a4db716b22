"""The shared input of featurization (Section 4.2).

:class:`FeaturizationContext` bundles what every feature family reads:
the dataset, the engine's code-table statistics over it, the
configuration and the ``Matched`` relations of the external dictionaries.
The families themselves ground set-at-a-time in
:class:`~repro.core.vector_featurize.VectorFeaturizer`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.config import HoloCleanConfig
from repro.dataset.dataset import Dataset
from repro.external.matcher import MatchedRelation

if TYPE_CHECKING:
    from repro.engine.stats import EngineStatistics


@dataclass
class FeaturizationContext:
    """Shared state handed to every feature family."""

    dataset: Dataset
    #: The reference featurizers of :mod:`repro.oracle` take its row-scan
    #: counters here instead.
    stats: EngineStatistics
    config: HoloCleanConfig
    matched: list[MatchedRelation] = field(default_factory=list)

    def __post_init__(self) -> None:
        sources = self.dataset.schema.with_role("source")
        self.source_attribute: str | None = sources[0] if sources else None
