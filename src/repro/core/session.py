"""Interactive repair sessions with user feedback.

Section 2.2 of the paper: "we can use these marginal probabilities to
solicit user feedback.  For example, we can ask users to verify repairs
with low marginal probabilities and use those as labeled examples to
retrain the parameters of HoloClean's model using standard incremental
learning and inference techniques [37]."

:class:`RepairSession` implements that loop on top of the staged API
(:mod:`repro.core.stages`):

1. :meth:`run` — the default plan on a fresh context, keeping every
   artifact (engine, detection, compiled model) around;
2. :meth:`low_confidence` — the repair proposals a reviewer should check;
3. :meth:`feedback` — record user-verified values for individual cells;
4. :meth:`rerun` — the default plan again on the retained context:
   detect and compile skip, and verified cells become labeled evidence
   in :class:`~repro.core.stages.LearnStage` and clamps in
   :class:`~repro.core.stages.ApplyStage`, so feedback retrains the
   weights without recompiling.  Without new feedback (and with the same
   config) learn and infer skip too and only apply runs.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.constraints.denial import DenialConstraint
from repro.constraints.matching import MatchingDependency
from repro.core.compiler import CompiledModel
from repro.core.config import HoloCleanConfig
from repro.core.repair import CellInference, RepairResult
from repro.core.stages import RepairContext, RepairPlan
from repro.dataset.dataset import Cell, Dataset
from repro.detect.base import ErrorDetector
from repro.external.dictionary import ExternalDictionary


class RepairSession:
    """A stateful repair workflow over one dataset.

    Parameters mirror :meth:`repro.core.pipeline.HoloClean.repair`.  The
    session's whole state is one :class:`RepairContext`: the inputs, the
    artifacts of the last run and the accumulated feedback.
    """

    def __init__(
        self,
        dataset: Dataset,
        constraints: list[DenialConstraint],
        config: HoloCleanConfig | None = None,
        dictionaries: list[ExternalDictionary] = (),
        matching_dependencies: list[MatchingDependency] = (),
        extra_detectors: list[ErrorDetector] = (),
    ):
        self._ctx = RepairContext(
            dataset=dataset,
            constraints=list(constraints),
            config=config or HoloCleanConfig(),
            dictionaries=list(dictionaries),
            matching_dependencies=list(matching_dependencies),
            extra_detectors=list(extra_detectors),
        )

    @classmethod
    def from_context(cls, ctx: RepairContext) -> "RepairSession":
        """Adopt an existing context as it is — e.g. one rehydrated from
        a serving checkpoint (:mod:`repro.serve.checkpoint`)."""
        session = cls.__new__(cls)
        session._ctx = ctx
        return session

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def run(self) -> RepairResult:
        """Run the default plan on a fresh context — the same inputs and
        feedback, no artifacts — and keep it around."""
        ctx = self._ctx
        self._ctx = RepairContext(
            dataset=ctx.dataset,
            constraints=ctx.constraints,
            config=ctx.config,
            dictionaries=ctx.dictionaries,
            matching_dependencies=ctx.matching_dependencies,
            extra_detectors=ctx.extra_detectors,
            feedback=dict(ctx.feedback),
        )
        return self.rerun()

    def rerun(self) -> RepairResult:
        """Run the default plan on the retained context: every stage whose
        artifact is present and current skips (before any run, none is)."""
        self._ctx = RepairPlan.default().run(self._ctx)
        return self._ctx.result

    @property
    def context(self) -> RepairContext:
        """The retained repair context."""
        return self._ctx

    @property
    def model(self) -> CompiledModel | None:
        """The compiled model of the last run (``None`` before it)."""
        return self._ctx.model

    # ------------------------------------------------------------------
    # Review & feedback
    # ------------------------------------------------------------------
    def low_confidence(self, below: float = 0.7) -> list[CellInference]:
        """Suggested repairs whose marginal falls below the threshold,
        sorted least-confident first — the review queue of Section 2.2."""
        if self._ctx.result is None:
            raise RuntimeError("run() the session before reviewing")
        return self._ctx.result.least_confident(below)

    def feedback(self, cell: Cell, correct_value: str) -> None:
        """Record a user-verified value for one cell.

        The value is normalised the way :class:`Dataset` normalises a loaded
        one, so ``"  Chicago "`` confirms the candidate ``"Chicago"``.
        """
        self.feedback_all({cell: correct_value})

    def feedback_all(self, verified: Mapping[Cell, str]) -> None:
        """Record user-verified values for many cells, all or none: a
        ``KeyError`` for a cell the compiled model lacks records none."""
        verified = {
            Cell(*cell): Dataset.normalise(value) for cell, value in verified.items()
        }
        model = self.model
        if model is not None:
            rows = model.graph.variables.rows_of(verified).tolist()
            for cell, vid in zip(verified, rows):
                if vid < 0:
                    raise KeyError(f"{cell} is not a noisy cell of this session")
        self._ctx.feedback.update(verified)

    @property
    def feedback_count(self) -> int:
        return len(self._ctx.feedback)
