"""The staged repair API: Detect → Compile → Learn → Infer → Apply.

Figure 2 of the paper describes HoloClean as explicit modules (error
detection, compilation, repair); this module makes that decomposition
the public API instead of a private method chain.  One
:class:`RepairContext` carries the evolving state of a repair — the
dirty dataset, the configuration, the shared grounding
:class:`~repro.engine.Engine`, the
:class:`~repro.detect.base.DetectionResult`, the compiled model,
learned weights, marginals, and finally the
:class:`~repro.core.repair.RepairResult` — and five stage objects each
transform that context:

* :class:`DetectStage` — denial-constraint violations plus any extra
  detectors split the dataset into noisy and clean cells;
* :class:`CompileStage` — Algorithm 2 pruning, featurization, and (in
  factor variants) Algorithm 1 grounding produce a
  :class:`~repro.core.compiler.CompiledModel`;
* :class:`LearnStage` — ERM over the evidence cells (plus any
  user-feedback evidence recorded on the context);
* :class:`InferStage` — exact softmax marginals, or Gibbs sampling when
  constraint factors are present;
* :class:`ApplyStage` — MAP assignment per noisy cell, feedback clamps,
  and packaging into a :class:`~repro.core.repair.RepairResult`.

A :class:`RepairPlan` composes stages; :meth:`RepairPlan.default` is
the paper's pipeline.  Because every artifact lives on the context,
callers can re-enter anywhere: keep a context's detection and re-run
compilation under a different configuration, or keep its compiled
model and re-run only learn → infer → apply (the Section 2.2 feedback
loop — :class:`~repro.core.session.RepairSession` is built exactly
this way).  Stages that find their artifact already on the context
skip themselves.  Learn and infer also check that their artifact was
produced from the current inputs — the weights from the same
configuration and feedback, the marginals from the same configuration
and weights — so re-running a full plan on a warm context with
unchanged inputs only repeats apply, and new feedback or a changed knob
re-learns (Section 2.2 retrains when the evidence changes).

Each stage records its wall-clock under its name in
``RepairContext.timings``; :meth:`RepairContext.phase_timings` folds
those into the three phases the paper reports (detection /
compilation / learning+inference), which is what lands in
``RepairResult.timings``.

Telemetry (:mod:`repro.obs`) is threaded through the same objects: the
context carries a :class:`~repro.obs.trace.Tracer` (built lazily from
``HoloCleanConfig.trace_level`` / ``trace_memory``) and a
:class:`~repro.obs.metrics.MetricsRegistry`; :meth:`Stage.run` opens
one span per stage, each stage records its headline numbers in the
registry, and :class:`ApplyStage` packages everything into the
:class:`~repro.obs.report.RunReport` attached to the result.  Tracing
is observational only — a traced run is byte-identical to an untraced
one.
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.constraints.denial import DenialConstraint
from repro.constraints.matching import MatchingDependency
from repro.core.compiler import CompiledModel, ModelCompiler
from repro.core.config import HoloCleanConfig
from repro.core.repair import CellInferences, RepairResult
from repro.dataset.dataset import Cell, Dataset
from repro.detect.base import DetectionResult, ErrorDetector
from repro.detect.violations import ViolationDetector
from repro.engine import Engine
from repro.external.dictionary import ExternalDictionary
from repro.inference.gibbs import GibbsSampler
from repro.inference.softmax import SoftmaxTrainer, TrainingResult
from repro.inference.variables import Marginals
from repro.obs import MetricsRegistry, Tracer, build_run_report
from repro.obs.fingerprint import (
    combine_fingerprints,
    config_encoding,
    config_fingerprint,
    constraints_fingerprint,
    dataset_fingerprint,
)
from repro.obs.trace import deep_span

#: Stage names of the default plan, in pipeline order.
STAGE_ORDER = ("detect", "compile", "learn", "infer", "apply")

#: Context artifact → human-readable description, used by
#: :meth:`RepairPlan.run` to name exactly what a partial re-entry is
#: missing (e.g. ``starting_at("learn")`` with no compiled model).
ARTIFACT_LABELS = {
    "detection": "DetectionResult",
    "model": "CompiledModel",
    "weights": "learned weights",
    "marginals": "inferred marginals",
    "result": "RepairResult",
}

#: Context artifact → the stage of the default plan that produces it.
ARTIFACT_PRODUCERS = {
    "detection": "detect",
    "model": "compile",
    "weights": "learn",
    "marginals": "infer",
    "result": "apply",
}


@dataclass
class RepairContext:
    """Shared state threaded through the stages of one repair.

    The first block is the problem statement (immutable inputs); the
    second block is filled in by the stages; the third block carries
    Section 2.2 user feedback for :class:`LearnStage` /
    :class:`ApplyStage` to fold in.  Artifacts persist across plan
    runs, which is what makes partial re-runs (reused detection,
    reused model, reused weights and marginals) possible — clear a
    field (``detection``, ``model``, ``weights`` or ``marginals``) to
    force its stage to recompute.  ``weights`` and ``marginals`` carry
    the digest of the inputs they were computed from
    (:attr:`weights_basis`, :attr:`marginals_basis`), so editing
    ``config``, ``feedback`` or ``weights`` re-runs the stages that
    depend on them without clearing anything.
    """

    # --- inputs -----------------------------------------------------------
    dataset: Dataset
    constraints: list[DenialConstraint]
    config: HoloCleanConfig = field(default_factory=HoloCleanConfig)
    dictionaries: list[ExternalDictionary] = field(default_factory=list)
    matching_dependencies: list[MatchingDependency] = field(default_factory=list)
    extra_detectors: list[ErrorDetector] = field(default_factory=list)

    # --- artifacts produced by the stages --------------------------------
    engine: Engine | None = None
    detection: DetectionResult | None = None
    model: CompiledModel | None = None
    weights: np.ndarray | None = None
    losses: list[float] = field(default_factory=list)
    marginals: Marginals | None = None
    #: SHA-256 of the inputs :attr:`weights` were learned from (see
    #: :meth:`LearnStage.basis`); ``None`` when not known.
    weights_basis: str | None = None
    #: SHA-256 of the inputs :attr:`marginals` were inferred from (see
    #: :meth:`InferStage.basis`); ``None`` when not known.
    marginals_basis: str | None = None
    result: RepairResult | None = None
    #: Per-stage wall-clock, keyed by stage name; a stage overwrites its
    #: entry every time it runs.  Skipped stages leave no entry (their
    #: status lands in :attr:`stage_status` instead).
    timings: dict[str, float] = field(default_factory=dict)

    # --- telemetry ---------------------------------------------------------
    #: Trace spans of this repair; built lazily from the config's
    #: ``trace_level`` / ``trace_memory`` knobs (``None`` when tracing is
    #: off).  Shared across plan runs on the same context, so re-entries
    #: append their spans to the same trace.
    tracer: Tracer | None = None
    #: Named counters/gauges/labels/series recorded by the stages.
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    #: Stage name → ``"ran"`` or ``"skipped"`` for the most recent plan
    #: run — a skipped stage (artifact already on the context) is
    #: explicitly distinguishable from one that ran instantly.
    stage_status: dict[str, str] = field(default_factory=dict)

    # --- user feedback (Section 2.2) --------------------------------------
    #: Cell → user-verified value.  In-domain values become labeled
    #: evidence in :class:`LearnStage` and clamps in :class:`ApplyStage`;
    #: out-of-domain values are applied to the repaired dataset directly.
    feedback: dict[Cell, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def ensure_engine(self) -> Engine:
        """The shared grounding engine.

        One columnar encoding of the dirty dataset feeds detection,
        pruning, featurization, and DC-factor pair enumeration; it is
        built lazily on first demand and cached on the context.
        """
        if self.engine is None:
            self.engine = Engine(self.dataset)
        return self.engine

    def ensure_tracer(self) -> Tracer | None:
        """The repair's tracer (or ``None`` when ``trace_level="off"``).

        Built lazily on first demand from the config's knobs and cached
        on the context, like the engine.
        """
        if self.tracer is None and self.config.trace_level != "off":
            self.tracer = Tracer(
                level=self.config.trace_level, memory=self.config.trace_memory
            )
        return self.tracer

    def span(self, name: str, **attributes):
        """A stage-level span context manager (no-op when tracing is off)."""
        tracer = self.ensure_tracer()
        if tracer is None:
            return nullcontext(None)
        return tracer.span(name, **attributes)

    def fingerprints(self) -> dict[str, str]:
        """Content hashes of the repair's inputs.

        ``dataset`` and ``constraints`` identify *what* is being
        repaired (the serving session key); ``config`` identifies *how*
        (the same fingerprint stamped on every
        :class:`~repro.obs.report.RunReport`).  Stable across processes
        and object identities — two contexts built from equal inputs
        fingerprint identically.
        """
        return {
            "dataset": dataset_fingerprint(self.dataset),
            "constraints": constraints_fingerprint(self.constraints),
            "config": config_fingerprint(self.config),
        }

    def content_fingerprint(self) -> str:
        """One stable token for (dataset, constraints, config).

        Shared by the serving session store and checkpoint filenames
        (:mod:`repro.serve`); see :meth:`fingerprints` for the
        components.
        """
        parts = self.fingerprints()
        return combine_fingerprints(
            parts["dataset"], parts["constraints"], parts["config"]
        )

    def phase_timings(self) -> dict[str, float]:
        """Stage timings folded into the paper's three reported phases."""
        repair = sum(
            self.timings.get(name, 0.0) for name in ("learn", "infer", "apply")
        )
        return {
            "detect": self.timings.get("detect", 0.0),
            "compile": self.timings.get("compile", 0.0),
            "repair": repair,
        }


@dataclass
class FeedbackEvidence:
    """User feedback resolved against a compiled model's variables."""

    extra_ids: list[int] = field(default_factory=list)
    extra_labels: list[int] = field(default_factory=list)
    clamps: dict[int, int] = field(default_factory=dict)
    out_of_domain: dict[Cell, str] = field(default_factory=dict)


def resolve_feedback(
    model: CompiledModel,
    feedback: dict[Cell, str],
) -> FeedbackEvidence:
    """Split verified cells into labeled evidence, clamps, and direct edits.

    Verified values inside a variable's candidate domain become strong
    supervision (extra evidence for :class:`LearnStage`) and clamps
    (:class:`ApplyStage` forces the one-hot marginal); values outside
    the domain cannot be expressed in the model and are applied to the
    repaired dataset as-is.  Cells with no variable are ignored.
    """
    resolved = FeedbackEvidence()
    variables = model.graph.variables
    vids = variables.rows_of(feedback).tolist()
    for (cell, value), vid in zip(feedback.items(), vids):
        if vid < 0:
            continue
        domain = variables.domain_of(vid)
        if value not in domain:
            resolved.out_of_domain[Cell(*cell)] = value
            continue
        index = domain.index(value)
        resolved.extra_ids.append(vid)
        resolved.extra_labels.append(index)
        resolved.clamps[vid] = index
    return resolved


def attribute_groups(model: CompiledModel, var_ids) -> np.ndarray:
    """For each variable a small integer naming its cell's attribute.

    The ``groups`` hint of :meth:`SoftmaxTrainer.train`: the cells of one
    attribute share their feature columns, so their rows pack densely.
    Attributes are numbered in order of first appearance in ``var_ids``.
    """
    codes = model.graph.variables.attribute_codes[np.fromiter(var_ids, np.int64)]
    order = list(dict.fromkeys(codes.tolist()))  # codes, by first appearance
    rank = np.zeros(max(order, default=-1) + 1, dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank[codes]


class Stage:
    """One pipeline stage: a callable ``run(ctx) -> ctx`` with timing.

    Subclasses implement :meth:`execute`; :meth:`run` wraps it with a
    trace span and a wall-clock measurement recorded under :attr:`name`
    in ``ctx.timings``.  A stage whose :meth:`should_run` returns False
    is skipped entirely: any previously recorded timing stays intact,
    no timing is fabricated, and ``ctx.stage_status`` records
    ``"skipped"`` so a skip is distinguishable from an instant run.

    :attr:`requires` / :attr:`provides` declare the context artifacts a
    stage consumes and produces (by ``RepairContext`` field name);
    :meth:`RepairPlan.run` validates them up front so a partial
    re-entry with a missing prerequisite fails with a ``ValueError``
    naming the artifact instead of failing deep inside the stage.
    """

    name: str = "stage"
    #: Context artifacts that must be present before this stage runs.
    requires: tuple[str, ...] = ()
    #: Context artifacts this stage fills in.
    provides: tuple[str, ...] = ()
    #: Context field that records the stage's ``basis(ctx)`` — the digest
    #: of the inputs its artifact is computed from — each time it runs
    #: (learn and infer); ``None`` for stages whose artifact's presence
    #: alone decides whether they skip.
    basis_field: str | None = None

    def run(self, ctx: RepairContext) -> RepairContext:
        if not self.should_run(ctx):
            ctx.stage_status[self.name] = "skipped"
            return ctx
        ctx.stage_status[self.name] = "ran"
        started = time.perf_counter()
        with ctx.span(self.name):
            ctx = self.execute(ctx)
        ctx.timings[self.name] = time.perf_counter() - started
        if self.basis_field is not None:
            # Outside the span and the timing: the digest is the skip
            # check's cost, not the stage's work.
            setattr(ctx, self.basis_field, self.basis(ctx))
        return ctx

    def __call__(self, ctx: RepairContext) -> RepairContext:
        return self.run(ctx)

    def should_run(self, ctx: RepairContext) -> bool:
        """False when the stage's artifact is on the context and current.

        Detect and compile check that their artifact is present; learn
        and infer also compare the digest stored under
        :attr:`basis_field` with ``basis(ctx)`` of the current inputs, so
        every writer of ``config``, ``feedback`` or ``weights`` is
        covered.  Apply always runs.
        """
        return True

    def execute(self, ctx: RepairContext) -> RepairContext:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class DetectStage(Stage):
    """Error detection: violations ∪ extra detectors → noisy cells.

    Skips itself when the context already carries a detection result
    (precomputed or kept from an earlier run).
    """

    name = "detect"
    provides = ("detection",)

    def should_run(self, ctx: RepairContext) -> bool:
        return ctx.detection is None

    def execute(self, ctx: RepairContext) -> RepairContext:
        violation_detector = ViolationDetector(
            ctx.constraints, engine=ctx.ensure_engine()
        )
        detection = violation_detector.detect(ctx.dataset)
        for detector in ctx.extra_detectors:
            detection.merge(detector.detect(ctx.dataset))
        ctx.detection = detection
        ctx.metrics.gauge("detect.noisy_cells", len(detection.noisy_cells))
        ctx.metrics.gauge("detect.violations", len(detection.hypergraph))
        ctx.metrics.gauge(
            "detect.truncated_constraints", len(violation_detector.truncated)
        )
        return ctx


class CompileStage(Stage):
    """Compilation: signals → grounded probabilistic model.

    Skips itself when the context already carries a compiled model;
    clear ``ctx.model`` to force recompilation (e.g. after changing
    the configuration).  A compile that runs drops ``ctx.weights`` and
    ``ctx.marginals``: they belong to the old model, so learn and infer
    run again.
    """

    name = "compile"
    requires = ("detection",)
    provides = ("model",)

    def should_run(self, ctx: RepairContext) -> bool:
        return ctx.model is None

    def execute(self, ctx: RepairContext) -> RepairContext:
        if ctx.detection is None:
            raise RuntimeError("run DetectStage first: context has no detection")
        compiler = ModelCompiler(
            ctx.dataset,
            ctx.constraints,
            ctx.config,
            ctx.detection,
            dictionaries=ctx.dictionaries,
            matching_dependencies=ctx.matching_dependencies,
            engine=ctx.ensure_engine(),
        )
        ctx.model = compiler.compile()
        ctx.weights = ctx.marginals = None
        report = ctx.model.size_report()
        ctx.metrics.ingest(report, prefix="compile.")
        ctx.metrics.gauge(
            "compile.pairs_enumerated", int(report.get("grounding_pairs", 0))
        )
        ctx.metrics.gauge(
            "compile.factors_emitted", int(report.get("constraint_factors", 0))
        )
        ctx.metrics.gauge(
            "compile.feature_entries", int(report.get("feature_entries", 0))
        )
        return ctx


class LearnStage(Stage):
    """Weight learning: ERM over evidence cells plus feedback evidence.

    Learning is a function of the model, the configuration and the
    feedback.  The stage skips itself when the context's weights were
    learned from the current configuration and feedback
    (:meth:`basis`); a compile that runs clears the weights.  New or
    changed feedback, or any changed knob, re-learns.
    """

    name = "learn"
    requires = ("model",)
    provides = ("weights",)
    basis_field = "weights_basis"

    @staticmethod
    def basis(ctx: RepairContext) -> str:
        """SHA-256 of the configuration and the feedback, in insertion
        order (the order verified labels reach the trainer)."""
        feedback = [
            [int(tid), str(attribute), value]
            for (tid, attribute), value in ctx.feedback.items()
        ]
        encoded = json.dumps([config_encoding(ctx.config), feedback])
        return hashlib.sha256(encoded.encode("utf-8")).hexdigest()

    def should_run(self, ctx: RepairContext) -> bool:
        return ctx.weights is None or ctx.weights_basis != self.basis(ctx)

    def execute(self, ctx: RepairContext) -> RepairContext:
        if ctx.model is None:
            raise RuntimeError("run CompileStage first: context has no model")
        resolved = resolve_feedback(ctx.model, ctx.feedback)
        outcome = self.train(
            ctx.model,
            ctx.config,
            extra_ids=resolved.extra_ids,
            extra_labels=resolved.extra_labels,
        )
        ctx.weights = outcome.weights
        ctx.losses = outcome.losses
        ctx.metrics.extend("learn.epoch_loss", outcome.losses)
        ctx.metrics.gauge("learn.epochs", len(outcome.losses))
        ctx.metrics.gauge("learn.blocks", outcome.blocks)
        ctx.metrics.gauge("learn.dense_entries", outcome.dense_entries)
        ctx.metrics.gauge("learn.sparse_entries", outcome.sparse_entries)
        ctx.metrics.gauge("learn.dense_slots", outcome.dense_slots)
        if outcome.losses:
            ctx.metrics.gauge("learn.final_loss", outcome.losses[-1])
        return ctx

    @staticmethod
    def train(
        model: CompiledModel,
        config: HoloCleanConfig,
        extra_ids: list[int] = (),
        extra_labels: list[int] = (),
    ) -> TrainingResult:
        """Fit the model's weights with the minimality prior held out.

        The minimality prior is an inference-time prior over repair
        decisions ("a positive constant", Section 4.2), not a learnable
        part of the likelihood: since every training label *is* the
        initial value, letting the prior participate in the
        training-time scores makes it absorb the labels and starves the
        genuine signals (co-occurrence, source reliability) of
        gradient.  We therefore pin it to 0 during the fit and restore
        the configured constant for inference.  ``extra_ids`` /
        ``extra_labels`` are user-verified cells, strong supervision: a
        verified label replaces the label of a variable already in the
        training set (weak-label training lists query cells) and is
        appended otherwise, so each id reaches the trainer once.
        """
        space = model.graph.space
        fixed = space.fixed_weights
        minimality_idx = space.get(("minimality",))
        if minimality_idx is not None:
            fixed[minimality_idx] = 0.0
        trainer = SoftmaxTrainer(
            model.graph.matrix,
            epochs=config.epochs,
            learning_rate=config.learning_rate,
            l2=config.l2,
            max_training_vars=config.max_training_cells,
            seed=config.seed,
            fixed_weights=fixed,
        )
        labels = dict(zip(model.evidence_ids, model.evidence_labels))
        labels.update(zip(extra_ids, extra_labels))
        outcome = trainer.train(
            list(labels), list(labels.values()), groups=attribute_groups(model, labels)
        )
        if minimality_idx is not None:
            outcome.weights[minimality_idx] = config.minimality_weight
        return outcome


class InferStage(Stage):
    """Marginal inference: exact softmax, or Gibbs when factors exist.

    Skips itself when the context's marginals were inferred from the
    current configuration and weights (:meth:`basis`), so weights set
    by hand re-run inference; a compile that runs clears the marginals.
    """

    name = "infer"
    requires = ("model", "weights")
    provides = ("marginals",)
    basis_field = "marginals_basis"

    @staticmethod
    def basis(ctx: RepairContext) -> str:
        """SHA-256 of the configuration and the weights' dtype, shape
        and bytes."""
        weights = np.ascontiguousarray(ctx.weights)
        header = json.dumps(
            [config_encoding(ctx.config), weights.dtype.str, weights.shape]
        )
        digest = hashlib.sha256(header.encode("utf-8"))
        digest.update(b"\0")
        digest.update(weights.tobytes())
        return digest.hexdigest()

    def should_run(self, ctx: RepairContext) -> bool:
        return (
            ctx.marginals is None
            or ctx.weights is None
            or ctx.marginals_basis != self.basis(ctx)
        )

    def execute(self, ctx: RepairContext) -> RepairContext:
        if ctx.model is None or ctx.weights is None:
            raise RuntimeError("run LearnStage first: context has no weights")
        model, config = ctx.model, ctx.config
        if model.graph.factors:
            sampler = GibbsSampler(model.graph, ctx.weights, seed=config.seed)
            outcome = sampler.run(
                burn_in=config.gibbs_burn_in,
                sweeps=config.gibbs_sweeps,
            )
            ctx.marginals = outcome.marginals
            ctx.metrics.label("infer.method", "gibbs")
            ctx.metrics.gauge("infer.gibbs_sweeps", outcome.sweeps)
            ctx.metrics.gauge("infer.gibbs_samples", outcome.samples)
            ctx.metrics.gauge("infer.gibbs_moves", outcome.moves)
            ctx.metrics.gauge("infer.gibbs_move_rate", outcome.move_rate)
            ctx.metrics.gauge("infer.gibbs_free_variables", sampler.num_free)
            ctx.metrics.gauge("infer.gibbs_colours", sampler.num_colours)
        else:
            trainer = SoftmaxTrainer(model.graph.matrix)
            with deep_span("infer.marginals", variables=len(model.query_ids)):
                ctx.marginals = trainer.marginals(ctx.weights, model.query_ids)
            ctx.metrics.label("infer.method", "softmax")
        ctx.metrics.gauge("infer.query_variables", len(model.query_ids))
        return ctx


class ApplyStage(Stage):
    """MAP assignment and packaging into a :class:`RepairResult`.

    Set-at-a-time: one segment argmax over the marginals buffer for every
    query variable, then one write per repaired cell; the result is a
    :class:`~repro.core.repair.CellInferences` over those columns.
    Feedback clamps force verified cells to their one-hot marginal;
    out-of-domain feedback values are written to the repaired dataset
    directly.  The result's ``timings`` report the three paper phases
    (including this stage's own wall-clock, folded in after the run).
    """

    name = "apply"
    requires = ("model", "marginals")
    provides = ("result",)

    def run(self, ctx: RepairContext) -> RepairContext:
        ctx = super().run(ctx)
        # Re-fold timings now that this stage's own cost is recorded,
        # then snapshot the full telemetry bundle onto the result.
        if ctx.result is not None:
            ctx.result.timings = ctx.phase_timings()
            ctx.result.report = build_run_report(ctx)
        return ctx

    def execute(self, ctx: RepairContext) -> RepairContext:
        if ctx.model is None or ctx.marginals is None:
            raise RuntimeError("run InferStage first: context has no marginals")
        model, dataset = ctx.model, ctx.dataset
        variables = model.graph.variables
        with deep_span("apply.map", cells=len(model.query_ids)):
            query = np.asarray(model.query_ids, dtype=np.int64)
            resolved = resolve_feedback(model, ctx.feedback)
            position = np.full(len(variables), -1, dtype=np.int64)
            position[query] = np.arange(len(query))
            # A clamp on an evidence variable has no query position.
            at = position[np.fromiter(resolved.clamps, np.int64)]
            to = np.fromiter(resolved.clamps.values(), np.int64)
            at, to = at[at >= 0], to[at >= 0]
            clamped = np.zeros(len(query), dtype=bool)
            clamped[at] = True
            choice = np.empty(len(query), dtype=np.int64)
            confidence = np.ones(len(query))
            free = ~clamped
            choice[free], confidence[free] = ctx.marginals.argmax(query[free])
            choice[at] = to
            is_repair = choice != variables.init_index[query]
            # Out-of-domain feedback: a query cell keeps its place in the
            # result, any other cell follows the query cells.
            outside = resolved.out_of_domain
            replaced, appended = {}, {}
            spots = position[variables.rows_of(outside)].tolist()
            for (cell, value), k in zip(outside.items(), spots):
                if k < 0:
                    appended[cell] = value
                    continue
                replaced[k] = value
                confidence[k] = 1.0
                is_repair[k] = value != dataset.cell_value(cell)

        with deep_span("apply.write") as span:
            repaired = dataset.copy(name=f"{dataset.name}-repaired")
            rows = np.flatnonzero(is_repair)
            vids = query[rows]
            names, tables = variables.attributes, variables.tables
            attributes = variables.attribute_codes[vids].tolist()
            codes = variables.domain_codes[variables.domain_indptr[vids] + choice[rows]]
            for tid, attribute, code in zip(
                variables.tids[vids].tolist(), attributes, codes.tolist()
            ):
                repaired.set_value(tid, names[attribute], tables[attribute][code])
            # Feedback values outside the candidate domain are applied as-is.
            for cell, value in outside.items():
                repaired.set_value(cell.tid, cell.attribute, value)
            if span is not None:
                span.attributes["cells"] = len(rows) + len(outside)
            inferences = CellInferences(
                variables,
                query,
                choice,
                confidence,
                is_repair,
                clamped,
                ctx.marginals,
                dataset,
                replaced,
                appended,
                position=position,
            )
            # ``timings`` is folded in by run() once this stage's own
            # wall-clock is recorded.
            ctx.result = RepairResult(
                repaired=repaired,
                inferences=inferences,
                size_report=model.size_report(),
                training_losses=list(ctx.losses),
                config=ctx.config,
            )
        ctx.metrics.gauge("apply.noisy_cells", len(inferences))
        ctx.metrics.gauge("apply.repairs", inferences.num_repairs)
        return ctx


class RepairPlan:
    """An ordered composition of stages applied to one context.

    :meth:`default` is the paper's pipeline; :meth:`starting_at`
    slices a suffix for partial re-runs (e.g. ``starting_at("learn")``
    to reuse a context's detection and model and redo only
    learn → infer → apply).
    """

    def __init__(self, stages: list[Stage]):
        self.stages = list(stages)

    @classmethod
    def default(cls) -> "RepairPlan":
        stages = [
            DetectStage(),
            CompileStage(),
            LearnStage(),
            InferStage(),
            ApplyStage(),
        ]
        return cls(stages)

    # ------------------------------------------------------------------
    @property
    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def starting_at(self, name: str) -> "RepairPlan":
        """The sub-plan from the named stage onward.

        The slice itself cannot know whether the context it will later
        receive carries the artifacts the skipped prefix would have
        produced, so the prerequisite check happens in :meth:`run`:
        running the sub-plan on a context that is missing one (e.g.
        re-entering at ``learn`` with no compiled model) raises a
        ``ValueError`` naming the missing artifact before any stage
        executes.
        """
        names = self.stage_names
        if name not in names:
            raise ValueError(f"no stage named {name!r}; plan has {names}")
        return RepairPlan(self.stages[names.index(name) :])

    def missing_requirements(self, ctx: RepairContext) -> list[tuple[str, str]]:
        """``(stage name, artifact)`` pairs this run would find absent.

        Walks the plan in order, tracking which artifacts are already on
        the context and which each non-skipping stage will produce, so a
        requirement satisfied by an *earlier stage of this same plan*
        does not count as missing.
        """
        available = {
            artifact
            for artifact in ARTIFACT_LABELS
            if getattr(ctx, artifact, None) is not None
        }
        missing: list[tuple[str, str]] = []
        for stage in self.stages:
            if not stage.should_run(ctx):
                continue
            for artifact in stage.requires:
                if artifact not in available:
                    missing.append((stage.name, artifact))
            available.update(stage.provides)
        return missing

    def validate(self, ctx: RepairContext) -> None:
        """Raise ``ValueError`` if the context cannot support this plan.

        This is the error surface partial re-entry rests on: the serving
        layer maps it to a client error (HTTP 400), distinct from a
        failure inside a stage (HTTP 500).
        """
        missing = self.missing_requirements(ctx)
        if missing:
            stage_name, artifact = missing[0]
            producer = ARTIFACT_PRODUCERS[artifact]
            raise ValueError(
                f"cannot run stage {stage_name!r}: context has no "
                f"{ARTIFACT_LABELS[artifact]} (ctx.{artifact} is None) — "
                f"run the {producer!r} stage first, e.g. "
                f"RepairPlan.default().starting_at({producer!r}), or "
                f"rehydrate the context from a checkpoint"
            )

    def run(self, ctx: RepairContext) -> RepairContext:
        self.validate(ctx)
        for stage in self.stages:
            ctx = stage.run(ctx)
        return ctx

    def __call__(self, ctx: RepairContext) -> RepairContext:
        return self.run(ctx)

    def __repr__(self) -> str:
        return f"RepairPlan({' -> '.join(self.stage_names)})"
