"""NULL detection: missing values are cells to be inferred."""

from __future__ import annotations

from repro.dataset.dataset import NULL_CODE, Dataset
from repro.detect.base import DetectionResult, ErrorDetector


class NullDetector(ErrorDetector):
    """Flags every NULL cell in the given (default: all data) attributes."""

    def __init__(self, attributes: list[str] | None = None):
        self.attributes = attributes

    def detect(self, dataset: Dataset) -> DetectionResult:
        attrs = self.attributes or dataset.schema.data_attributes
        masks = {a: dataset.encoded(a)[0] == NULL_CODE for a in attrs}
        return DetectionResult(masks=masks)
