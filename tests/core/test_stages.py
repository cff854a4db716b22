"""Equivalence and re-entry tests for the staged repair API.

The oracle below is the pre-refactor monolithic ``HoloClean.repair()``
(engine build → detect → compile → learn → infer → apply, kept
verbatim); the staged plan must reproduce its ``RepairResult``
byte-for-byte — inferences, marginals, repaired dataset, size report,
and training losses — on the Hospital and Flights generators and on
the Figure 1 running example, in both softmax and Gibbs (DC-factor)
variants.  Re-entry tests pin the context-reuse semantics: a reused
detection or a reused compiled model yields the same output as a cold
run.
"""

import dataclasses
import functools
import logging
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core.compiler import ModelCompiler
from repro.core.config import HoloCleanConfig
from repro.core.pipeline import HoloClean
from repro.core.repair import CellInference, RepairResult
from repro.core.session import RepairSession
from repro.core.stages import (
    STAGE_ORDER,
    ApplyStage,
    CompileStage,
    DetectStage,
    InferStage,
    LearnStage,
    RepairContext,
    RepairPlan,
    attribute_groups,
)
from repro.data import generate_flights, generate_hospital
from repro.dataset.dataset import Cell
from repro.detect.violations import ViolationDetector
from repro.engine import Engine
from repro.inference.gibbs import GibbsSampler
from repro.inference.softmax import SoftmaxTrainer
from repro.inference.variables import Marginals


def legacy_repair(dataset, constraints, config, detection=None):
    """The pre-refactor ``HoloClean.repair()``, inlined as the oracle."""
    timings = {}
    engine = Engine(dataset)

    if detection is None:
        detection = ViolationDetector(constraints, engine=engine).detect(dataset)
    timings["detect"] = 0.0

    compiler = ModelCompiler(dataset, constraints, config, detection,
                             engine=engine)
    model = compiler.compile()
    timings["compile"] = 0.0

    space = model.graph.space
    fixed = space.fixed_weights
    minimality_idx = space.get(("minimality",))
    if minimality_idx is not None:
        fixed[minimality_idx] = 0.0
    trainer = SoftmaxTrainer(
        model.graph.matrix, epochs=config.epochs,
        learning_rate=config.learning_rate, l2=config.l2,
        max_training_vars=config.max_training_cells, seed=config.seed,
        fixed_weights=fixed)
    # The layout hint LearnStage.train hands the trainer: this file pins
    # stage plumbing, tests/inference/test_softmax_pack.py pins the kernel.
    outcome = trainer.train(model.evidence_ids, model.evidence_labels,
                            groups=attribute_groups(model, model.evidence_ids))
    weights = outcome.weights
    if minimality_idx is not None:
        weights[minimality_idx] = config.minimality_weight

    if model.graph.factors:
        sampler = GibbsSampler(model.graph, weights, seed=config.seed)
        marginals = sampler.run(burn_in=config.gibbs_burn_in,
                                sweeps=config.gibbs_sweeps).marginals
    else:
        marginals = SoftmaxTrainer(model.graph.matrix).marginals(
            weights, model.query_ids)

    repaired = dataset.copy(name=f"{dataset.name}-repaired")
    inferences = {}
    for vid in model.query_ids:
        info = model.graph.variables[vid]
        marginal = marginals[vid]
        best = int(np.argmax(marginal))
        chosen = info.domain[best]
        inference = CellInference(
            cell=info.cell,
            init_value=dataset.cell_value(info.cell),
            chosen_value=chosen,
            confidence=float(marginal[best]),
            domain=list(info.domain),
            marginal=np.asarray(marginal, dtype=np.float64))
        inferences[info.cell] = inference
        if inference.is_repair:
            repaired.set_value(info.cell.tid, info.cell.attribute, chosen)
    timings["repair"] = 0.0
    result = RepairResult(repaired=repaired, inferences=inferences)
    result.timings = timings
    result.size_report = model.size_report()
    result.training_losses = outcome.losses
    result.config = config
    return result


def legacy_apply(ctx: RepairContext) -> RepairResult:
    """The per-cell apply loop the columnar ``ApplyStage`` replaced, kept
    as the dict oracle: one ``CellInference`` per query cell, then the
    out-of-domain feedback replacing or appending entries."""
    model, dataset = ctx.model, ctx.dataset
    clamps, out_of_domain = {}, {}
    for cell, value in ctx.feedback.items():
        info = model.graph.variables.by_cell(cell)
        if info is None:
            continue
        index = info.candidate_index(value)
        if index is None:
            out_of_domain[cell] = value
        else:
            clamps[info.vid] = index
    repaired = dataset.copy(name=f"{dataset.name}-repaired")
    inferences = {}
    for vid in model.query_ids:
        info = model.graph.variables[vid]
        if vid in clamps:
            index = clamps[vid]
            marginal = np.zeros(len(info.domain))
            marginal[index] = 1.0
        else:
            marginal = np.asarray(ctx.marginals[vid], dtype=np.float64)
            index = int(marginal.argmax())
        inference = CellInference(
            cell=info.cell, init_value=dataset.cell_value(info.cell),
            chosen_value=info.domain[index], confidence=float(marginal[index]),
            domain=info.domain, marginal=marginal)
        inferences[info.cell] = inference
        if inference.is_repair:
            repaired.set_value(info.cell.tid, info.cell.attribute,
                               inference.chosen_value)
    for cell, value in out_of_domain.items():
        repaired.set_value(cell.tid, cell.attribute, value)
        inferences[cell] = CellInference(
            cell=cell, init_value=dataset.cell_value(cell), chosen_value=value,
            confidence=1.0, domain=[value], marginal=np.array([1.0]))
    return RepairResult(repaired=repaired, inferences=inferences,
                        timings=ctx.phase_timings(),
                        size_report=model.size_report(),
                        training_losses=list(ctx.losses), config=ctx.config)


def assert_inferences_equal(got: CellInference, want: CellInference):
    assert got.cell == want.cell
    assert got.init_value == want.init_value
    assert got.chosen_value == want.chosen_value
    assert got.confidence == want.confidence
    assert got.domain == want.domain
    assert got.marginal.dtype == want.marginal.dtype
    np.testing.assert_array_equal(got.marginal, want.marginal)


def assert_results_equal(actual: RepairResult, oracle: RepairResult):
    """Byte-identity of everything except wall-clock values.

    ``oracle`` holds plain dicts; ``actual`` is pinned to their key order,
    their ``repairs`` order and counts, by lookup and by iteration.
    """
    assert list(actual.inferences) == list(oracle.inferences)
    assert len(actual.inferences) == len(oracle.inferences)
    for cell in oracle.inferences:
        assert_inferences_equal(actual.inferences[cell], oracle.inferences[cell])
    for (cell, got), want in zip(actual.inferences.items(), oracle.inferences.values()):
        assert cell == got.cell
        assert_inferences_equal(got, want)
    assert list(actual.repairs) == list(oracle.repairs)
    assert len(actual.repairs) == len(oracle.repairs) == oracle.num_repairs
    assert actual.num_repairs == oracle.num_repairs
    for got, want in zip(actual.repairs.values(), oracle.repairs.values()):
        assert_inferences_equal(got, want)
    assert actual.repaired == oracle.repaired
    assert actual.size_report == oracle.size_report
    assert actual.training_losses == oracle.training_losses
    assert set(actual.timings) == set(oracle.timings)


@pytest.fixture(scope="module")
def hospital():
    return generate_hospital(num_rows=80)


@pytest.fixture(scope="module")
def flights():
    return generate_flights(num_flights=5)


def config_for(generated, **overrides):
    fields = dict(tau=generated.recommended_tau,
                  source_entity_attributes=generated.source_entity_attributes,
                  epochs=12, seed=3)
    fields.update(overrides)
    return HoloCleanConfig(**fields)


class TestFacadeEquivalence:
    """`HoloClean.repair()` ≡ pre-refactor output, per the redesign pledge."""

    def test_hospital(self, hospital):
        config = config_for(hospital)
        oracle = legacy_repair(hospital.dirty, hospital.constraints, config)
        result = HoloClean(config).repair(hospital.dirty, hospital.constraints)
        assert_results_equal(result, oracle)

    def test_flights(self, flights):
        config = config_for(flights)
        oracle = legacy_repair(flights.dirty, flights.constraints, config)
        result = HoloClean(config).repair(flights.dirty, flights.constraints)
        assert_results_equal(result, oracle)

    def test_figure1_gibbs_variant(self, figure1_dataset, figure1_constraints):
        config = HoloCleanConfig.variant(
            "dc-factors", tau=0.3, epochs=10, seed=1,
            gibbs_burn_in=2, gibbs_sweeps=5)
        oracle = legacy_repair(figure1_dataset, figure1_constraints, config)
        result = HoloClean(config).repair(figure1_dataset, figure1_constraints)
        assert_results_equal(result, oracle)
        assert result.size_report["constraint_factors"] > 0

    def test_precomputed_detection(self, figure1_dataset, figure1_constraints):
        config = HoloCleanConfig(tau=0.3, epochs=10, seed=1)
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        oracle = legacy_repair(figure1_dataset, figure1_constraints, config,
                               detection=detection)
        result = HoloClean(config).repair(figure1_dataset, figure1_constraints,
                                          detection=detection)
        assert_results_equal(result, oracle)


class TestPlanExecution:
    def test_default_plan_order(self):
        assert tuple(RepairPlan.default().stage_names) == STAGE_ORDER

    def test_stages_record_timings(self, figure1_dataset, figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints,
                            config=HoloCleanConfig(tau=0.3, epochs=5, seed=1))
        ctx = RepairPlan.default().run(ctx)
        assert set(ctx.timings) == set(STAGE_ORDER)
        assert all(t >= 0 for t in ctx.timings.values())

    def test_result_timings_are_three_phases(self, figure1_dataset,
                                             figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints,
                            config=HoloCleanConfig(tau=0.3, epochs=5, seed=1))
        ctx = RepairPlan.default().run(ctx)
        assert set(ctx.result.timings) == {"detect", "compile", "repair"}
        # The repair phase folds learn + infer + apply, apply included.
        repair = sum(ctx.timings[n] for n in ("learn", "infer", "apply"))
        assert ctx.result.timings["repair"] == pytest.approx(repair)

    def test_stages_run_individually(self, figure1_dataset, figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints,
                            config=HoloCleanConfig(tau=0.3, epochs=5, seed=1))
        for stage in (DetectStage(), CompileStage(), LearnStage(),
                      InferStage(), ApplyStage()):
            ctx = stage(ctx)
        assert ctx.detection is not None
        assert ctx.model is not None
        assert ctx.weights is not None
        assert ctx.marginals is not None
        assert ctx.result is not None
        # Calling ApplyStage as a callable dispatches to its own run(),
        # so the repair phase includes the apply stage's wall-clock.
        repair = sum(ctx.timings[n] for n in ("learn", "infer", "apply"))
        assert ctx.result.timings["repair"] == pytest.approx(repair)

    def test_engine_is_shared_across_stages(self, figure1_dataset,
                                            figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints,
                            config=HoloCleanConfig(tau=0.3, epochs=5, seed=1))
        ctx = RepairPlan.default().run(ctx)
        assert ctx.engine is not None
        assert any(str(k).startswith("grounding_")
                   for k in ctx.result.size_report)


class TestReentry:
    def test_reused_detection_same_output(self, hospital):
        config = config_for(hospital)
        plan = RepairPlan.default()
        cold = plan.run(RepairContext(dataset=hospital.dirty,
                                      constraints=hospital.constraints,
                                      config=config))
        warm = plan.run(RepairContext(dataset=hospital.dirty,
                                      constraints=hospital.constraints,
                                      config=config,
                                      detection=cold.detection))
        assert_results_equal(warm.result, cold.result)

    def test_reused_model_same_output(self, hospital):
        config = config_for(hospital)
        ctx = RepairPlan.default().run(
            RepairContext(dataset=hospital.dirty,
                          constraints=hospital.constraints, config=config))
        first = ctx.result
        model = ctx.model
        ctx = RepairPlan.default().run(ctx)
        assert ctx.model is model  # compile not repeated
        assert ctx.stage_status["compile"] == "skipped"
        assert_results_equal(ctx.result, first)

    def test_full_plan_on_warm_context_skips_producers(self, hospital):
        config = config_for(hospital)
        ctx = RepairPlan.default().run(
            RepairContext(dataset=hospital.dirty,
                          constraints=hospital.constraints, config=config))
        first = ctx.result
        detection, model = ctx.detection, ctx.model
        ctx = RepairPlan.default().run(ctx)
        assert ctx.detection is detection
        assert ctx.model is model
        # Skipped stages drop the wall-clock of the run that produced
        # their artifact: the timings describe this run, apply alone.
        assert list(ctx.timings) == ["apply"]
        assert ctx.result.timings == {"detect": 0.0, "compile": 0.0,
                                      "repair": ctx.timings["apply"]}
        assert_results_equal(ctx.result, first)

    def test_clearing_model_forces_recompile(self, figure1_dataset,
                                             figure1_constraints):
        config = HoloCleanConfig(tau=0.3, epochs=5, seed=1)
        ctx = RepairPlan.default().run(
            RepairContext(dataset=figure1_dataset,
                          constraints=figure1_constraints, config=config))
        model = ctx.model
        ctx.model = None
        ctx = RepairPlan.default().run(ctx)
        assert ctx.model is not None and ctx.model is not model


class TestPhaseTimings:
    def test_missing_keys_fold_to_zero(self, figure1_dataset,
                                       figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints)
        assert ctx.phase_timings() == {"detect": 0.0, "compile": 0.0,
                                       "repair": 0.0}

    def test_partial_run_leaves_later_phases_zero(self, figure1_dataset,
                                                  figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints,
                            config=HoloCleanConfig(tau=0.3, epochs=5, seed=1))
        ctx = DetectStage()(ctx)
        phases = ctx.phase_timings()
        assert phases["detect"] == ctx.timings["detect"]
        assert phases["compile"] == 0.0
        assert phases["repair"] == 0.0

    def test_reentry_counts_only_stages_that_ran(self, hospital):
        config = config_for(hospital)
        ctx = RepairPlan.default().run(
            RepairContext(dataset=hospital.dirty,
                          constraints=hospital.constraints, config=config))
        ctx.config = config.with_(epochs=config.epochs + 1)
        ctx = RepairPlan.default().run(ctx)
        phases = ctx.phase_timings()
        # The re-entry reruns only the repair phase; detect and compile
        # skipped, so their phases are 0 rather than the first run's.
        assert list(ctx.timings) == ["learn", "infer", "apply"]
        assert phases["detect"] == phases["compile"] == 0.0
        repair = sum(ctx.timings[n] for n in ("learn", "infer", "apply"))
        assert phases["repair"] == pytest.approx(repair)
        assert ctx.result.timings == phases

    def test_result_timings_folded_after_apply(self, figure1_dataset,
                                               figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints,
                            config=HoloCleanConfig(tau=0.3, epochs=5, seed=1))
        ctx = RepairPlan.default().run(ctx)
        # The result's timings are the context's folded phases, apply's
        # own wall-clock included (i.e. folded after ApplyStage ran).
        assert ctx.result.timings == ctx.phase_timings()
        assert ctx.result.timings["repair"] >= ctx.timings["apply"]


class TestTelemetry:
    """Stage status, run reports, and the tracing byte-identity pledge."""

    def run_plan(self, generated, **overrides):
        ctx = RepairContext(dataset=generated.dirty,
                            constraints=generated.constraints,
                            config=config_for(generated, **overrides))
        return RepairPlan.default().run(ctx)

    def test_stage_status_ran_then_skipped(self, hospital):
        ctx = self.run_plan(hospital)
        assert ctx.stage_status == {name: "ran" for name in STAGE_ORDER}
        ctx = RepairPlan.default().run(ctx)
        assert ctx.stage_status["detect"] == "skipped"
        assert ctx.stage_status["compile"] == "skipped"
        # Unchanged config and feedback: the weights and marginals are
        # current, so only apply runs again.
        later = [ctx.stage_status[n] for n in ("learn", "infer", "apply")]
        assert later == ["skipped", "skipped", "ran"]

    def test_truncated_constraints_counted_and_logged(self, hospital,
                                                      monkeypatch):
        def detect():
            ctx = RepairContext(dataset=hospital.dirty,
                                constraints=hospital.constraints,
                                config=config_for(hospital))
            return DetectStage().run(ctx)

        full = detect()
        assert full.metrics.gauges["detect.truncated_constraints"] == 0
        over = [block.constraint_name
                for block in full.detection.hypergraph.blocks
                if len(block.tids) > 3]
        assert over  # Hospital has constraints with more than 3 violations

        monkeypatch.setattr(
            "repro.core.stages.ViolationDetector",
            functools.partial(ViolationDetector, max_pairs_per_constraint=3))
        records: list[logging.LogRecord] = []
        handler = logging.Handler(logging.WARNING)
        handler.emit = records.append
        logger = logging.getLogger("repro.detect")
        logger.addHandler(handler)
        try:
            capped = detect()
        finally:
            logger.removeHandler(handler)
        assert capped.metrics.gauges["detect.truncated_constraints"] == len(over)
        assert all(len(block.tids) <= 3
                   for block in capped.detection.hypergraph.blocks)
        warned = [record.getMessage() for record in records]
        assert len(warned) == len(over)
        for name, message in zip(over, warned):
            assert name in message and "max_pairs_per_constraint=3" in message

    def test_skipped_stage_fabricates_no_timing(self, figure1_dataset,
                                                figure1_constraints):
        config = HoloCleanConfig(tau=0.3, epochs=5, seed=1)
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints,
                            config=config, detection=detection)
        ctx = RepairPlan.default().run(ctx)
        # Skipped stages leave no timing entry at all (no fake 0.0) and
        # are recorded explicitly in stage_status and the run report.
        assert "detect" not in ctx.timings
        assert ctx.stage_status["detect"] == "skipped"
        assert ctx.result.report.stage_status["detect"] == "skipped"
        assert (ctx.result.report.stage_names_traced()
                == ["compile", "learn", "infer", "apply"])

    def test_run_report_attached_and_covers_stages(self, hospital):
        ctx = self.run_plan(hospital)
        report = ctx.result.report
        assert report is not None
        assert report.stage_names_traced() == list(STAGE_ORDER)
        assert report.fingerprint
        assert report.dataset["rows"] == hospital.dirty.num_tuples
        assert report.phase_timings == ctx.phase_timings()
        gauges = report.metrics["gauges"]
        assert gauges["detect.noisy_cells"] == len(ctx.detection.noisy_cells)
        assert gauges["apply.repairs"] == ctx.result.num_repairs
        # The compile stage ingests the size report verbatim.
        for key, value in ctx.result.size_report.items():
            if isinstance(value, (int, float)):
                assert gauges[f"compile.{key}"] == value
        assert (report.metrics["series"]["learn.epoch_loss"]
                == ctx.result.training_losses)
        # Round-trips through JSON.
        clone = type(report).from_json(report.to_json())
        assert clone.to_dict() == report.to_dict()

    def test_trace_off_records_no_spans_but_still_reports(self, hospital):
        ctx = self.run_plan(hospital, trace_level="off")
        assert ctx.tracer is None
        report = ctx.result.report
        assert report.trace is None
        assert report.stage_status == {name: "ran" for name in STAGE_ORDER}
        assert (report.metrics["gauges"]["apply.repairs"]
                == ctx.result.num_repairs)

    def test_tracing_is_byte_identical_to_off(self, hospital):
        baseline = self.run_plan(hospital, trace_level="off")
        coarse = self.run_plan(hospital, trace_level="stage")
        deep = self.run_plan(hospital, trace_level="deep")
        # Coarse (the default) and deep tracing leave the repair result
        # and every size-report key byte-identical to tracing disabled.
        assert_results_equal(coarse.result, baseline.result)
        assert_results_equal(deep.result, baseline.result)
        assert (list(coarse.result.size_report)
                == list(baseline.result.size_report))
        assert (list(deep.result.size_report)
                == list(baseline.result.size_report))
        # Deep mode's only difference: child spans under the stage spans.
        stage_spans = coarse.result.report.trace_spans()
        assert all(not s.children for s in stage_spans)
        deep_spans = deep.result.report.trace_spans()
        assert any(s.children for s in deep_spans)

    def test_trace_memory_plan(self):
        # trace_memory=True: every stage span carries a heap peak, the
        # tracer stops the tracemalloc it started, and the repairs are
        # the untraced run's.
        generated = generate_hospital(num_rows=120)
        untraced = self.run_plan(generated, trace_level="off")
        assert not tracemalloc.is_tracing()
        traced = self.run_plan(generated, trace_memory=True)
        assert tracemalloc.is_tracing()
        traced.tracer.shutdown()
        assert not tracemalloc.is_tracing()
        spans = traced.result.report.trace_spans()
        assert [span.name for span in spans] == list(STAGE_ORDER)
        assert all(span.py_mem_peak > 0 for span in spans)
        assert_results_equal(traced.result, untraced.result)
        assert untraced.result.num_repairs > 0

    def test_detect_deep_spans_account_for_the_stage(self, hospital):
        ctx = RepairContext(dataset=hospital.dirty,
                            constraints=hospital.constraints,
                            config=config_for(hospital, trace_level="deep"))
        ctx = DetectStage().run(ctx)
        detect, = ctx.tracer.roots
        joined = len(hospital.constraints)
        assert [c.name for c in detect.children] == [
            "engine.encode", *["engine.join_pairs", "detect.residual_mask"] * joined,
            "detect.noisy_cells"]
        masks = [c for c in detect.children if c.name == "detect.residual_mask"]
        assert (sum(c.attributes["violations"] for c in masks)
                == detect.children[-1].attributes["violations"]
                == len(ctx.detection.hypergraph))
        # Nothing in a repair builds Violation objects; whoever asks for
        # them pays under a span of its own.
        with ctx.tracer.span("report"):
            listed = ctx.detection.hypergraph.violations
        materialize, = ctx.tracer.roots[-1].children
        assert materialize.name == "detect.materialize_violations"
        assert materialize.attributes["violations"] == len(listed)

    def test_compile_deep_spans_include_the_matrix_build(self, hospital):
        ctx = RepairContext(dataset=hospital.dirty,
                            constraints=hospital.constraints,
                            config=config_for(hospital, trace_level="deep"))
        ctx = RepairPlan([DetectStage(), CompileStage()]).run(ctx)
        compile_span = ctx.tracer.roots[-1]
        assert compile_span.name == "compile"
        names = [c.name for c in compile_span.children]
        # The single sort over the entry set runs right after featurize.
        at = names.index("compile.featurize")
        assert names[at + 1] == "compile.build_matrix"
        build = compile_span.children[at + 1]
        matrix = ctx.model.graph.matrix
        assert build.attributes == {"entries": matrix.num_entries,
                                    "features": matrix.num_features}

    def test_learn_deep_spans_account_for_the_stage(self):
        generated = generate_hospital(num_rows=300)
        ctx = self.run_plan(generated, epochs=60, trace_level="deep")
        # Timing noise only ever lowers the share: best of three stage runs.
        for _ in range(2):
            ctx = LearnStage().run(ctx)
        *_, learn = runs = [s for s in ctx.tracer.roots if s.name == "learn"]
        names = [c.name for c in learn.children]
        epochs = ctx.metrics.gauges["learn.epochs"]
        assert names == ["learn.pack"] + ["learn.epoch"] * epochs
        assert max(
            sum(c.duration for c in run.children) / run.duration for run in runs
        ) >= 0.9
        # The pack span, the training result's counts and the gauges agree.
        gauges = ctx.metrics.gauges
        assert learn.children[0].attributes == {
            "blocks": gauges["learn.blocks"],
            "dense_entries": gauges["learn.dense_entries"],
            "sparse_entries": gauges["learn.sparse_entries"],
            "slots": gauges["learn.dense_slots"],
        }
        assert gauges["learn.blocks"] > 0
        assert gauges["learn.dense_slots"] <= 4 * gauges["learn.dense_entries"]

    def test_compile_deep_spans_account_for_the_stage(self):
        generated = generate_hospital(num_rows=300)
        config = config_for(generated, trace_level="deep")
        runs = []
        # Timing noise only ever lowers the share: best of three stage runs.
        for _ in range(3):
            ctx = RepairContext(dataset=generated.dirty,
                                constraints=generated.constraints,
                                config=config)
            ctx = RepairPlan([DetectStage(), CompileStage()]).run(ctx)
            runs.append(ctx.tracer.roots[-1])
        names = [c.name for c in runs[-1].children]
        assert names == ["compile.prune_domains", "compile.sample_evidence",
                         "compile.prune_evidence", "compile.register",
                         "compile.featurize", "compile.build_matrix"]
        assert max(
            sum(c.duration for c in run.children) / run.duration for run in runs
        ) >= 0.9

    def test_apply_deep_spans_account_for_the_stage(self):
        generated = generate_hospital(num_rows=1000)
        ctx = self.run_plan(generated, trace_level="deep")
        # Timing noise only ever lowers the share: best of three stage runs.
        for _ in range(2):
            ctx = ApplyStage().run(ctx)
        runs = [s for s in ctx.tracer.roots if s.name == "apply"]
        mapped, written = runs[-1].children
        assert (mapped.name, written.name) == ("apply.map", "apply.write")
        assert mapped.attributes == {"cells": len(ctx.model.query_ids)}
        assert written.attributes == {"cells": ctx.result.num_repairs}
        assert max(
            sum(c.duration for c in run.children) / run.duration for run in runs
        ) >= 0.9

    @pytest.mark.parametrize("variant", ["dc-feats", "dc-factors"])
    def test_infer_deep_spans_account_for_the_stage(self, variant):
        generated = generate_hospital(num_rows=300)
        config = HoloCleanConfig.variant(
            variant, tau=generated.recommended_tau, epochs=12, seed=3,
            gibbs_burn_in=2, gibbs_sweeps=5, trace_level="deep")
        ctx = RepairPlan.default().run(RepairContext(
            dataset=generated.dirty, constraints=generated.constraints,
            config=config))
        # Timing noise only ever lowers the share: best of three stage runs.
        for _ in range(2):
            ctx.marginals = None  # current marginals would skip the stage
            ctx = InferStage().run(ctx)
        runs = [s for s in ctx.tracer.roots if s.name == "infer"]
        names = [c.name for c in runs[-1].children]
        if variant == "dc-feats":
            assert ctx.metrics.labels["infer.method"] == "softmax"
            assert names == ["infer.marginals"]
            assert runs[-1].children[0].attributes == {
                "variables": len(ctx.model.query_ids)}
        else:
            assert ctx.metrics.labels["infer.method"] == "gibbs"
            assert names == ["infer.gibbs_setup"] + ["infer.gibbs_sweep"] * 7
        assert max(
            sum(c.duration for c in run.children) / run.duration for run in runs
        ) >= 0.9

    def test_deep_tracing_gibbs_variant_identical(self, figure1_dataset,
                                                  figure1_constraints):
        def run(level):
            config = HoloCleanConfig.variant(
                "dc-factors", tau=0.3, epochs=10, seed=1,
                gibbs_burn_in=2, gibbs_sweeps=5, trace_level=level)
            ctx = RepairContext(dataset=figure1_dataset,
                                constraints=figure1_constraints, config=config)
            return RepairPlan.default().run(ctx)

        baseline = run("off")
        deep = run("deep")
        assert_results_equal(deep.result, baseline.result)
        names = {s.name for root in deep.result.report.trace_spans()
                 for s in root.walk()}
        assert {"infer.gibbs_setup", "infer.gibbs_sweep"} <= names
        metrics = deep.result.report.metrics
        assert metrics["labels"]["infer.method"] == "gibbs"
        gauges = metrics["gauges"]
        free = gauges["infer.gibbs_free_variables"]
        assert gauges["infer.gibbs_sweeps"] == 5  # counting sweeps only
        assert 0 < gauges["infer.gibbs_colours"] <= free
        assert gauges["infer.gibbs_samples"] == 7 * free
        assert free < gauges["infer.query_variables"]


class TestStagePreconditions:
    def test_compile_requires_detection(self, figure1_dataset,
                                        figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints)
        with pytest.raises(RuntimeError, match="DetectStage"):
            CompileStage()(ctx)

    def test_learn_requires_model(self, figure1_dataset, figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints)
        with pytest.raises(RuntimeError, match="CompileStage"):
            LearnStage()(ctx)

    def test_infer_requires_weights(self, figure1_dataset, figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints)
        with pytest.raises(RuntimeError, match="LearnStage"):
            InferStage()(ctx)

    def test_apply_requires_marginals(self, figure1_dataset,
                                      figure1_constraints):
        ctx = RepairContext(dataset=figure1_dataset,
                            constraints=figure1_constraints)
        with pytest.raises(RuntimeError, match="InferStage"):
            ApplyStage()(ctx)


class TestFingerprints:
    def _ctx(self, figure1_dataset, figure1_constraints):
        return RepairContext(dataset=figure1_dataset,
                             constraints=figure1_constraints)

    def test_fingerprints_are_stable_and_content_keyed(self, figure1_dataset,
                                                       figure1_constraints):
        a = self._ctx(figure1_dataset, figure1_constraints)
        b = self._ctx(figure1_dataset, figure1_constraints)
        assert a.fingerprints() == b.fingerprints()
        assert a.content_fingerprint() == b.content_fingerprint()
        fewer = RepairContext(dataset=figure1_dataset,
                              constraints=figure1_constraints[:1])
        assert fewer.fingerprints()["constraints"] != a.fingerprints()["constraints"]
        assert fewer.fingerprints()["dataset"] == a.fingerprints()["dataset"]


class TestColumnarResult:
    """``ApplyStage``'s columnar result against the dict oracle."""

    @pytest.fixture(scope="class")
    def applied(self, hospital):
        """A repaired Hospital context, learn → infer done once."""
        return RepairPlan.default().run(RepairContext(
            dataset=hospital.dirty, constraints=hospital.constraints,
            config=config_for(hospital)))

    @staticmethod
    def reapply(ctx, feedback=(), **fields):
        """Apply once more on a copy with ``feedback`` (and other fields
        replaced); the columnar result and the oracle's."""
        ctx = dataclasses.replace(ctx, feedback=dict(feedback), result=None,
                                  **fields)
        return ApplyStage().run(ctx).result, legacy_apply(ctx)

    @staticmethod
    def cells(ctx, evidence: bool):
        variables = ctx.model.graph.variables
        rows = np.flatnonzero(variables.is_evidence == evidence)
        return list(zip(variables.cells_of(rows), variables.domains_of(rows)))

    def test_gibbs_on_hospital_dc_factors(self, hospital):
        config = HoloCleanConfig.variant(
            "dc-factors", tau=hospital.recommended_tau, epochs=12, seed=3,
            gibbs_burn_in=2, gibbs_sweeps=5)
        ctx = RepairPlan.default().run(RepairContext(
            dataset=hospital.dirty, constraints=hospital.constraints,
            config=config))
        assert ctx.metrics.labels["infer.method"] == "gibbs"
        assert_results_equal(ctx.result, legacy_apply(ctx))

    def test_in_domain_clamps(self, applied):
        repairs = list(applied.result.repairs.values())
        kept = [inf for inf in applied.result.inferences.values()
                if not inf.is_repair and len(inf.domain) > 1]
        (evidence, domain), *_ = self.cells(applied, evidence=True)
        feedback = {
            repairs[0].cell: repairs[0].init_value,  # a repair undone
            kept[0].cell: next(v for v in kept[0].domain
                               if v != kept[0].chosen_value),  # a new repair
            evidence: domain[-1],  # evidence: a label, no query position
        }
        result, oracle = self.reapply(applied, feedback)
        assert_results_equal(result, oracle)
        assert result.inferences[kept[0].cell].is_repair
        assert repairs[0].cell not in result.repairs
        assert result.inferences[repairs[0].cell].confidence == 1.0

    def test_out_of_domain_feedback(self, applied):
        query = [cell for cell, _ in self.cells(applied, evidence=False)]
        (evidence, _), *_ = self.cells(applied, evidence=True)
        feedback = {query[3]: "Nowhere", evidence: "Elsewhere",
                    query[1]: applied.dataset.cell_value(query[1])}
        result, oracle = self.reapply(applied, feedback)
        assert_results_equal(result, oracle)
        # Query cells keep their place; the evidence cell is appended.
        assert list(result.inferences)[3] == query[3]
        assert list(result.inferences)[-1] == evidence
        assert list(result.repairs)[-1] == evidence
        assert result.repaired.cell_value(evidence) == "Elsewhere"

    def test_all_tied_marginals_take_the_first_candidate(self, applied):
        marginals = applied.marginals
        sizes = np.diff(marginals.offsets)
        tied = Marginals(marginals.var_ids, marginals.offsets,
                         np.repeat(1.0 / sizes, sizes))
        result, oracle = self.reapply(applied, marginals=tied)
        assert_results_equal(result, oracle)
        assert all(inf.chosen_value == inf.domain[0]
                   for inf in result.inferences.values())

    def test_lookups(self, applied):
        inferences = applied.result.inferences
        (evidence, _), *_ = self.cells(applied, evidence=True)
        cell, *_ = inferences
        assert_inferences_equal(inferences[tuple(cell)], inferences[cell])
        assert evidence not in inferences
        assert Cell(10**6, "City") not in inferences
        assert "t0.City" not in inferences
        assert inferences.get(Cell(0, "NoSuchAttribute")) is None
        repaired_cell = next(iter(applied.result.repairs))
        unchanged = next(c for c, inf in inferences.items() if not inf.is_repair)
        assert repaired_cell in applied.result.repairs
        assert unchanged not in applied.result.repairs

    def test_pickles_as_arrays(self, applied):
        result = applied.result
        before = pickle.dumps(result)
        cell, *_ = result.inferences.items()  # builds the keys and a view
        result.inferences[cell[0]]  # and the position lookup
        assert pickle.dumps(result) == before
        assert_results_equal(pickle.loads(before), legacy_apply(applied))

    def test_plan_and_rerun_build_no_views_and_no_lookup(self, hospital, monkeypatch):
        built = []
        real = CellInference.__init__

        def spy(self, *args, **kwargs):
            built.append(1)
            real(self, *args, **kwargs)

        monkeypatch.setattr(CellInference, "__init__", spy)
        session = RepairSession(hospital.dirty, hospital.constraints,
                                config=config_for(hospital))
        session.run()
        variables = session.model.graph.variables
        assert variables._cells is None
        first, second = (
            Cell(int(variables.tids[vid]), variables.attributes[code])
            for vid, code in zip([0, 1], variables.attribute_codes[:2].tolist())
        )
        assert not variables.is_evidence[:2].any()
        session.feedback(first, variables.domain_of(0)[-1])  # a clamp
        session.feedback(second, "Nowhere")  # out of the domain
        result = session.rerun()
        assert built == []
        assert variables._cells is None
        assert result.num_repairs == len(hospital.dirty.diff(result.repaired))

