"""Frequency-based outlier detection for categorical data.

Implements the "detect outliers" option of HoloClean's error-detection
module (Figure 2), in the spirit of Das & Schneider [15] and
Hellerstein [22]: a cell is flagged when its value is a rare exception in
an otherwise concentrated attribute.  Two guards keep the detector from
flagging genuinely high-cardinality attributes (names, addresses):

* the value's relative frequency must fall below ``max_relative_frequency``
  *and* its absolute count below ``max_count``;
* the attribute itself must be concentrated — its most frequent value must
  cover at least ``dominance`` of the non-NULL cells.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.dataset import Dataset
from repro.detect.base import DetectionResult, ErrorDetector


class OutlierDetector(ErrorDetector):
    """Flags rare values in concentrated categorical attributes."""

    def __init__(
        self,
        attributes: list[str] | None = None,
        max_relative_frequency: float = 0.01,
        max_count: int = 3,
        dominance: float = 0.2,
    ):
        self.attributes = attributes
        self.max_relative_frequency = max_relative_frequency
        self.max_count = max_count
        self.dominance = dominance

    def detect(self, dataset: Dataset) -> DetectionResult:
        attrs = self.attributes or dataset.schema.data_attributes
        masks = {}
        for attr in attrs:
            codes, values = dataset.encoded(attr)
            counts = np.bincount(codes[codes >= 0], minlength=len(values))
            total = int(counts.sum())
            if total == 0:
                continue
            if counts.max() / total < self.dominance:
                continue  # attribute too diverse to call anything an outlier
            rare = (counts <= self.max_count) & (
                counts / total <= self.max_relative_frequency
            )
            if rare.any():
                masks[attr] = np.append(rare, False)[codes]  # NULL: never rare
        return DetectionResult(masks=masks)
