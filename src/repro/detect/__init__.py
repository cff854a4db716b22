"""Error detection module (Section 2.2, "Error Detection").

HoloClean treats error detection as a black box that splits the dataset
into noisy cells ``D_n`` and clean cells ``D_c``.  This package ships the
detectors mentioned in the paper: denial-constraint violation detection
[11], frequency-based outlier detection [15, 22], NULL detection, and
detection against external dictionaries [5, 13, 19], plus an ensemble
combinator.  The violation detector also produces the conflict hypergraph
[26] consumed by the tuple-partitioning optimization (Algorithm 3).
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.detect.base import DetectionResult, ErrorDetector
    from repro.detect.hypergraph import ConflictHypergraph, Violation
    from repro.detect.violations import ViolationDetector
    from repro.detect.outliers import OutlierDetector
    from repro.detect.nulls import NullDetector
    from repro.detect.external import ExternalDetector
    from repro.detect.ensemble import EnsembleDetector
    from repro.detect.labeler import (
        ABSTAIN,
        CLEAN,
        ERROR,
        LabelingFunction,
        ProgrammaticDetector,
        lf_allowed_values,
        lf_null,
        lf_pattern,
        lf_rare_value,
    )

__all__ = [
    "ABSTAIN",
    "CLEAN",
    "ERROR",
    "LabelingFunction",
    "ProgrammaticDetector",
    "lf_allowed_values",
    "lf_null",
    "lf_pattern",
    "lf_rare_value",
    "DetectionResult",
    "ErrorDetector",
    "ConflictHypergraph",
    "Violation",
    "ViolationDetector",
    "OutlierDetector",
    "NullDetector",
    "ExternalDetector",
    "EnsembleDetector",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.detect.base": ("DetectionResult", "ErrorDetector"),
        "repro.detect.hypergraph": ("ConflictHypergraph", "Violation"),
        "repro.detect.violations": ("ViolationDetector",),
        "repro.detect.outliers": ("OutlierDetector",),
        "repro.detect.nulls": ("NullDetector",),
        "repro.detect.external": ("ExternalDetector",),
        "repro.detect.ensemble": ("EnsembleDetector",),
        "repro.detect.labeler": (
            "ABSTAIN",
            "CLEAN",
            "ERROR",
            "LabelingFunction",
            "ProgrammaticDetector",
            "lf_allowed_values",
            "lf_null",
            "lf_pattern",
            "lf_rare_value",
        ),
    },
)
