"""HoloClean core: the paper's primary contribution.

Compilation (Section 4), scaling optimizations (Section 5 — Algorithm 2
domain pruning, Algorithm 3 tuple partitioning, and the denial-constraint
relaxation), and the end-to-end repair pipeline (Figure 2), exposed as
the staged Detect → Compile → Learn → Infer → Apply API of
:mod:`repro.core.stages` (``RepairContext`` + ``RepairPlan``), with
:class:`~repro.core.pipeline.HoloClean` as the one-shot facade and
:class:`~repro.core.session.RepairSession` as the feedback loop.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.core.config import HoloCleanConfig, VARIANTS
    from repro.core.partition import (
        TupleGroup,
        VectorPairEnumerator,
        make_pair_enumerator,
        tuple_groups,
    )
    from repro.core.featurize import FeaturizationContext
    from repro.core.compiler import CompiledModel, ModelCompiler
    from repro.core.stages import (
        STAGE_ORDER,
        ApplyStage,
        CompileStage,
        DetectStage,
        FeedbackEvidence,
        InferStage,
        LearnStage,
        RepairContext,
        RepairPlan,
        Stage,
        resolve_feedback,
    )
    from repro.core.pipeline import HoloClean
    from repro.core.repair import CellInference, RepairResult
    from repro.core.session import RepairSession
    from repro.core import rules

__all__ = [
    "HoloCleanConfig",
    "VARIANTS",
    "TupleGroup",
    "VectorPairEnumerator",
    "make_pair_enumerator",
    "tuple_groups",
    "FeaturizationContext",
    "CompiledModel",
    "ModelCompiler",
    "STAGE_ORDER",
    "Stage",
    "DetectStage",
    "CompileStage",
    "LearnStage",
    "InferStage",
    "ApplyStage",
    "FeedbackEvidence",
    "RepairContext",
    "RepairPlan",
    "resolve_feedback",
    "HoloClean",
    "CellInference",
    "RepairResult",
    "RepairSession",
    "rules",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.core.config": ("HoloCleanConfig", "VARIANTS"),
        "repro.core.partition": (
            "TupleGroup",
            "VectorPairEnumerator",
            "make_pair_enumerator",
            "tuple_groups",
        ),
        "repro.core.featurize": ("FeaturizationContext",),
        "repro.core.compiler": ("CompiledModel", "ModelCompiler"),
        "repro.core.stages": (
            "STAGE_ORDER",
            "ApplyStage",
            "CompileStage",
            "DetectStage",
            "FeedbackEvidence",
            "InferStage",
            "LearnStage",
            "RepairContext",
            "RepairPlan",
            "Stage",
            "resolve_feedback",
        ),
        "repro.core.pipeline": ("HoloClean",),
        "repro.core.repair": ("CellInference", "RepairResult"),
        "repro.core.session": ("RepairSession",),
        "repro.core.rules": ("rules",),
    },
)
