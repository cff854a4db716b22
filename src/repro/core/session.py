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
4. :meth:`rerun` — re-run only learn → infer → apply on the retained
   context: verified cells become labeled evidence in
   :class:`~repro.core.stages.LearnStage` and clamps in
   :class:`~repro.core.stages.ApplyStage`, so feedback retrains the
   weights without recompiling the model.  A rerun without new feedback
   (and with the same config) is apply-only: learn and infer find their
   weights and marginals current and skip.
"""

from __future__ import annotations

from repro.constraints.denial import DenialConstraint
from repro.constraints.matching import MatchingDependency
from repro.core.compiler import CompiledModel
from repro.core.config import HoloCleanConfig
from repro.core.repair import CellInference, RepairResult
from repro.core.stages import RepairContext, RepairPlan
from repro.dataset.dataset import Cell, Dataset
from repro.detect.base import ErrorDetector
from repro.external.dictionary import ExternalDictionary
from repro.obs.report import RunReport


class RepairSession:
    """A stateful repair workflow over one dataset.

    Parameters mirror :meth:`repro.core.pipeline.HoloClean.repair`; the
    session additionally retains the repair context (grounding engine,
    detection result, compiled model) so user feedback can be folded in
    without recompiling.
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
        self.dataset = dataset
        self.constraints = list(constraints)
        self.config = config or HoloCleanConfig()
        self.dictionaries = list(dictionaries)
        self.matching_dependencies = list(matching_dependencies)
        self.extra_detectors = list(extra_detectors)
        self._ctx: RepairContext | None = None
        self._feedback: dict[Cell, str] = {}
        self._last_result: RepairResult | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_context(cls, ctx: RepairContext) -> "RepairSession":
        """Wrap an existing context — e.g. one rehydrated from a
        serving checkpoint (:mod:`repro.serve.checkpoint`).

        The session adopts the context's inputs, artifacts, and
        accumulated feedback as-is, so :meth:`rerun` re-enters the
        staged plan at ``learn`` without repeating detect/compile, and
        :meth:`feedback` keeps validating cells against the retained
        compiled model.
        """
        session = cls(
            ctx.dataset,
            ctx.constraints,
            config=ctx.config,
            dictionaries=ctx.dictionaries,
            matching_dependencies=ctx.matching_dependencies,
            extra_detectors=ctx.extra_detectors,
        )
        session._ctx = ctx
        session._feedback = dict(ctx.feedback)
        session._last_result = ctx.result
        return session

    # ------------------------------------------------------------------
    # Pipeline
    # ------------------------------------------------------------------
    def run(self) -> RepairResult:
        """Run the default plan on a fresh context and keep it around."""
        self._ctx = RepairContext(
            dataset=self.dataset,
            constraints=self.constraints,
            config=self.config,
            dictionaries=self.dictionaries,
            matching_dependencies=self.matching_dependencies,
            extra_detectors=self.extra_detectors,
        )
        return self._execute(RepairPlan.default())

    def rerun(self) -> RepairResult:
        """Re-learn and re-infer with the accumulated feedback.

        Detection and the compiled model are reused from the retained
        context; only the learn → infer → apply suffix runs again, and
        learn and infer skip when the feedback and config are the ones
        their weights and marginals came from.
        """
        if self._ctx is None or self._ctx.model is None:
            return self.run()
        return self._execute(RepairPlan.default().starting_at("learn"))

    @property
    def context(self) -> RepairContext | None:
        """The retained repair context (``None`` before :meth:`run`)."""
        return self._ctx

    @property
    def model(self) -> CompiledModel | None:
        """The compiled model of the last run (``None`` before it)."""
        return self._ctx.model if self._ctx is not None else None

    @property
    def last_report(self) -> RunReport | None:
        """Telemetry of the most recent run/rerun (``None`` before one).

        Reruns share the context's tracer, so the report's trace tree
        accumulates spans across the feedback loop's iterations.
        """
        if self._last_result is None:
            return None
        return self._last_result.report

    # ------------------------------------------------------------------
    # Review & feedback
    # ------------------------------------------------------------------
    def low_confidence(self, below: float = 0.7) -> list[CellInference]:
        """Suggested repairs whose marginal falls below the threshold,
        sorted least-confident first — the review queue of Section 2.2."""
        if self._last_result is None:
            raise RuntimeError("run() the session before reviewing")
        return self._last_result.least_confident(below)

    def feedback(self, cell: Cell, correct_value: str) -> None:
        """Record a user-verified value for one cell.

        The value is normalised the way :class:`Dataset` normalises a loaded
        one, so ``"  Chicago "`` confirms the candidate ``"Chicago"``.
        """
        cell = Cell(*cell)
        model = self.model
        if model is not None and model.graph.variables.rows_of([cell])[0] < 0:
            raise KeyError(f"{cell} is not a noisy cell of this session")
        self._feedback[cell] = Dataset.normalise(correct_value)

    @property
    def feedback_count(self) -> int:
        return len(self._feedback)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _execute(self, plan: RepairPlan) -> RepairResult:
        ctx = self._ctx
        assert ctx is not None
        ctx.feedback = dict(self._feedback)
        self._ctx = ctx = plan.run(ctx)
        self._last_result = ctx.result
        return ctx.result
