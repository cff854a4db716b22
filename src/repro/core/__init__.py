"""HoloClean core: the paper's primary contribution.

Compilation (Section 4), scaling optimizations (Section 5 — Algorithm 2
domain pruning, Algorithm 3 tuple partitioning, and the denial-constraint
relaxation), and the end-to-end repair pipeline (Figure 2), exposed as
the staged Detect → Compile → Learn → Infer → Apply API of
:mod:`repro.core.stages` (``RepairContext`` + ``RepairPlan``), with
:class:`~repro.core.pipeline.HoloClean` as the one-shot facade and
:class:`~repro.core.session.RepairSession` as the feedback loop.
"""

from repro.core.config import HoloCleanConfig, VARIANTS
from repro.core.partition import (
    PairEnumerator,
    TupleGroup,
    VectorPairEnumerator,
    make_pair_enumerator,
    tuple_groups,
)
from repro.core.featurize import (
    FeaturizationContext,
    Featurizer,
    MinimalityFeaturizer,
    FrequencyFeaturizer,
    CooccurFeaturizer,
    SourceFeaturizer,
    ExternalMatchFeaturizer,
    ConstraintFeaturizer,
    default_featurizers,
)
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
    "PairEnumerator",
    "TupleGroup",
    "VectorPairEnumerator",
    "make_pair_enumerator",
    "tuple_groups",
    "FeaturizationContext",
    "Featurizer",
    "MinimalityFeaturizer",
    "FrequencyFeaturizer",
    "CooccurFeaturizer",
    "SourceFeaturizer",
    "ExternalMatchFeaturizer",
    "ConstraintFeaturizer",
    "default_featurizers",
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
