"""HoloClean reproduction: holistic data repairs with probabilistic inference.

This package reproduces *HoloClean: Holistic Data Repairs with
Probabilistic Inference* (Rekatsinas, Chu, Ilyas, Ré — VLDB 2017) as a
self-contained Python library: the probabilistic repair engine, every
substrate it depends on (constraint language, error detection, a
DeepDive-style inference engine, external-data matching), the three
competing baselines of the evaluation (Holistic, KATARA, SCARE), and
generators for the four evaluation datasets.

Names resolve on first access: ``import repro`` runs this file alone,
and the first lookup of an export (``repro.HoloClean``, ``from repro
import RepairPlan``) imports the module that defines it (PEP 562, see
:mod:`repro._lazy`).  So do the subpackages that only re-export (all but
``engine``, ``data`` and ``oracle``), so a process pays only for the
modules its run executes.

Quickstart
----------
>>> from repro import HoloClean, HoloCleanConfig, parse_fd
>>> fds = [parse_fd("Zip -> City,State")]
>>> dcs = [dc for fd in fds for dc in fd.to_denial_constraints()]
>>> result = HoloClean(HoloCleanConfig(tau=0.5)).repair(dataset, dcs)  # doctest: +SKIP

The staged API exposes the same pipeline as five self-skipping stages
over a shared :class:`RepairContext`; to re-enter, run the default plan
on the retained context (here clearing the model recompiles under a new
knob over the kept detection):

>>> from repro import RepairContext, RepairPlan
>>> ctx = RepairContext(dataset, dcs, HoloCleanConfig(tau=0.5))  # doctest: +SKIP
>>> ctx = RepairPlan.default().run(ctx)  # doctest: +SKIP
>>> ctx.config, ctx.model = ctx.config.with_(tau=0.7), None  # doctest: +SKIP
>>> ctx = RepairPlan.default().run(ctx)  # detection reused  # doctest: +SKIP
>>> ctx.result.report  # RunReport: trace forest + metrics + fingerprint  # doctest: +SKIP
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.dataset import (
        Attribute,
        Cell,
        Dataset,
        NULL,
        Schema,
        read_csv,
        write_csv,
    )
    from repro.constraints import (
        DenialConstraint,
        FunctionalDependency,
        MatchingDependency,
        MatchPredicate,
        Operator,
        Predicate,
        TupleRef,
        Const,
        parse_dc,
        parse_dcs,
        parse_fd,
        format_dc,
    )
    from repro.detect import (
        DetectionResult,
        EnsembleDetector,
        ExternalDetector,
        NullDetector,
        OutlierDetector,
        ViolationDetector,
    )
    from repro.engine import ColumnStore, Engine
    from repro.external import ExternalDictionary
    from repro.obs import RunReport
    from repro.core import (
        ApplyStage,
        CompileStage,
        DetectStage,
        HoloClean,
        HoloCleanConfig,
        InferStage,
        LearnStage,
        RepairContext,
        RepairPlan,
        RepairResult,
        RepairSession,
        CellInference,
        VARIANTS,
    )

__version__ = "1.0.0"

__all__ = [
    "Attribute",
    "Cell",
    "Dataset",
    "NULL",
    "Schema",
    "read_csv",
    "write_csv",
    "DenialConstraint",
    "FunctionalDependency",
    "MatchingDependency",
    "MatchPredicate",
    "Operator",
    "Predicate",
    "TupleRef",
    "Const",
    "parse_dc",
    "parse_dcs",
    "parse_fd",
    "format_dc",
    "DetectionResult",
    "EnsembleDetector",
    "ExternalDetector",
    "NullDetector",
    "OutlierDetector",
    "ViolationDetector",
    "ColumnStore",
    "Engine",
    "ExternalDictionary",
    "RunReport",
    "HoloClean",
    "HoloCleanConfig",
    "RepairContext",
    "RepairPlan",
    "DetectStage",
    "CompileStage",
    "LearnStage",
    "InferStage",
    "ApplyStage",
    "RepairResult",
    "RepairSession",
    "CellInference",
    "VARIANTS",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.dataset": (
            "Attribute",
            "Cell",
            "Dataset",
            "NULL",
            "Schema",
            "read_csv",
            "write_csv",
        ),
        "repro.constraints": (
            "DenialConstraint",
            "FunctionalDependency",
            "MatchingDependency",
            "MatchPredicate",
            "Operator",
            "Predicate",
            "TupleRef",
            "Const",
            "parse_dc",
            "parse_dcs",
            "parse_fd",
            "format_dc",
        ),
        "repro.detect": (
            "DetectionResult",
            "EnsembleDetector",
            "ExternalDetector",
            "NullDetector",
            "OutlierDetector",
            "ViolationDetector",
        ),
        "repro.engine": ("ColumnStore", "Engine"),
        "repro.external": ("ExternalDictionary",),
        "repro.obs": ("RunReport",),
        "repro.core": (
            "ApplyStage",
            "CompileStage",
            "DetectStage",
            "HoloClean",
            "HoloCleanConfig",
            "InferStage",
            "LearnStage",
            "RepairContext",
            "RepairPlan",
            "RepairResult",
            "RepairSession",
            "CellInference",
            "VARIANTS",
        ),
    },
)
