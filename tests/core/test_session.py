"""Tests for the interactive repair session (Section 2.2 feedback loop)."""

import numpy as np
import pytest

from repro.core.config import HoloCleanConfig
from repro.core.pipeline import HoloClean
from repro.core.session import RepairSession
from repro.core.stages import resolve_feedback
from repro.data.generators.flights import generate_flights
from repro.data.generators.hospital import generate_hospital
from repro.eval.harness import holoclean_config_for
from repro.dataset.dataset import Cell
from repro.inference.softmax import SoftmaxTrainer


@pytest.fixture
def session(figure1_dataset, figure1_constraints):
    return RepairSession(figure1_dataset, figure1_constraints,
                         config=HoloCleanConfig(tau=0.3, epochs=30, seed=1))


class TestRun:
    def test_run_matches_pipeline_behaviour(self, session):
        result = session.run()
        assert result.inferences[Cell(0, "Zip")].chosen_value == "60608"
        assert result.inferences[Cell(3, "City")].chosen_value == "Chicago"

    def test_rerun_without_run_runs(self, session):
        result = session.rerun()
        assert result.inferences

    def test_run_identical_to_facade(self, session, figure1_dataset,
                                     figure1_constraints):
        """A feedback-free session is byte-identical to HoloClean.repair()."""
        mine = session.run()
        theirs = HoloClean(session.context.config).repair(figure1_dataset,
                                                  figure1_constraints)
        assert set(mine.inferences) == set(theirs.inferences)
        for cell, want in theirs.inferences.items():
            got = mine.inferences[cell]
            assert got.chosen_value == want.chosen_value
            assert got.confidence == want.confidence
            assert got.domain == want.domain
            np.testing.assert_array_equal(got.marginal, want.marginal)
        assert mine.repaired == theirs.repaired
        assert mine.size_report == theirs.size_report
        assert mine.training_losses == theirs.training_losses

    def test_session_uses_engine_fast_path(self, session):
        """Sessions thread the Engine into detection/compilation/featurization
        — pinned by the grounding counters only the engine path emits."""
        result = session.run()
        assert session.context.engine is not None
        assert any(str(key).startswith("grounding_")
                   for key in result.size_report)

    def test_results_report_phase_timings(self, session):
        first = session.run()
        assert set(first.timings) == {"detect", "compile", "repair"}
        assert all(t >= 0 for t in first.timings.values())
        session.feedback(Cell(0, "Zip"), "60608")
        second = session.rerun()
        # A rerun skips detect and compile, so their phases are 0; the
        # learning+inference phase is this rerun's learn, infer, apply.
        assert set(second.timings) == {"detect", "compile", "repair"}
        assert second.timings["detect"] == second.timings["compile"] == 0.0
        timings = session.context.timings
        assert list(timings) == ["learn", "infer", "apply"]
        assert second.timings["repair"] == pytest.approx(sum(timings.values()))

    def test_rerun_reuses_detection_and_model(self, session):
        session.run()
        detection = session.context.detection
        model = session.context.model
        session.rerun()
        assert session.context.detection is detection
        assert session.context.model is model


class TestReviewQueue:
    def test_low_confidence_requires_run(self, session):
        with pytest.raises(RuntimeError, match="run"):
            session.low_confidence()

    def test_low_confidence_sorted_ascending(self, session):
        session.run()
        queue = session.low_confidence(below=1.01)
        confidences = [inf.confidence for inf in queue]
        assert confidences == sorted(confidences)

    def test_threshold_filters(self, session):
        session.run()
        assert all(inf.confidence < 0.9
                   for inf in session.low_confidence(below=0.9))


class TestFeedback:
    def test_feedback_clamps_cell(self, session):
        session.run()
        cell = Cell(0, "Zip")
        session.feedback(cell, "60609")  # user insists the original is right
        result = session.rerun()
        assert result.inferences[cell].chosen_value == "60609"
        assert result.inferences[cell].confidence == 1.0
        assert result.repaired.value(0, "Zip") == "60609"

    def test_feedback_outside_domain_applied_directly(self, session):
        session.run()
        cell = Cell(3, "City")
        session.feedback(cell, "Evanston")  # not a candidate
        result = session.rerun()
        assert result.repaired.value(3, "City") == "Evanston"
        assert result.inferences[cell].confidence == 1.0

    def test_feedback_keyed_by_a_plain_tuple(self, session):
        """``(tid, attribute)`` names the same cell as its ``Cell``, for a
        clamp and for an out-of-domain value alike."""
        session.run()
        session.feedback((0, "Zip"), "60609")
        session.feedback((3, "City"), "Evanston")
        result = session.rerun()
        assert all(type(cell) is Cell for cell in session.context.feedback)
        assert result.inferences[(0, "Zip")].chosen_value == "60609"
        assert result.inferences[Cell(3, "City")].chosen_value == "Evanston"
        assert result.repaired.value(3, "City") == "Evanston"
        with pytest.raises(KeyError, match="not a noisy cell"):
            session.feedback((999, "Zip"), "x")

    def test_feedback_value_is_normalised_like_a_loaded_one(self):
        """A padded confirmation of the observed value is that value: a
        clamp and a training label, not an out-of-domain repair that the
        dataset (which strips it) never shows."""
        hospital = generate_hospital(num_rows=120)
        session = RepairSession(hospital.dirty, hospital.constraints,
                                config=holoclean_config_for(hospital))
        first = session.run()
        cell = Cell(0, "City")
        observed = hospital.dirty.cell_value(cell)
        session.feedback(cell, f"  {observed} ")
        result = session.rerun()
        assert session.context.feedback == {cell: observed}
        resolved = resolve_feedback(session.model, session.context.feedback)
        assert resolved.out_of_domain == {}
        assert resolved.extra_ids == [session.model.graph.variables.by_cell(cell).vid]
        assert result.repaired.cell_value(cell) == observed
        assert result.num_repairs == len(hospital.dirty.diff(result.repaired))
        assert first.num_repairs == len(hospital.dirty.diff(first.repaired))

    def test_feedback_on_unknown_cell_rejected(self, session):
        session.run()
        with pytest.raises(KeyError, match="not a noisy cell"):
            session.feedback(Cell(5, "State"), "IL")

    def test_feedback_count(self, session):
        session.run()
        assert session.feedback_count == 0
        session.feedback(Cell(0, "Zip"), "60608")
        assert session.feedback_count == 1

    def test_feedback_retrains_other_cells(self, session):
        """Verified labels act as evidence for the remaining queries."""
        first = session.run()
        session.feedback(Cell(0, "Zip"), "60608")
        second = session.rerun()
        # All other inferences still produced, distributions intact.
        assert set(second.inferences) == set(first.inferences)
        for cell, inf in second.inferences.items():
            assert inf.marginal.sum() == pytest.approx(1.0)


class TestFeedbackOnTrainingVariables:
    """Flights flags every cell noisy, so the model trains on weak labels
    and a verified cell is already a training variable."""

    @pytest.fixture
    def trained_on(self, monkeypatch):
        """The (ids, labels) of every ``SoftmaxTrainer.train`` call."""
        calls = []
        real = SoftmaxTrainer.train

        def spy(trainer, ids, labels, **layout):
            calls.append((list(ids), list(labels)))
            return real(trainer, ids, labels, **layout)

        monkeypatch.setattr(SoftmaxTrainer, "train", spy)
        return calls

    def test_verified_label_replaces_the_weak_one(self, trained_on):
        flights = generate_flights(num_flights=8)
        config = HoloCleanConfig(
            tau=flights.recommended_tau, epochs=10,
            source_entity_attributes=flights.source_entity_attributes)
        session = RepairSession(flights.dirty, flights.constraints, config=config)
        session.run()
        model = session.model
        weak = dict(zip(model.evidence_ids, model.evidence_labels))
        verified = {}
        for vid in model.query_ids:
            info = model.graph.variables[vid]
            truth = flights.clean.cell_value(info.cell)
            index = info.candidate_index(truth)
            if index is not None and weak.get(vid, index) != index:
                verified[info.cell] = (vid, truth, index)
        assert len(verified) >= 5  # weak labels the user overrules
        for cell, (_, truth, _) in verified.items():
            session.feedback(cell, truth)
        result = session.rerun()

        ids, labels = trained_on[-1]
        assert len(set(ids)) == len(ids) == len(model.evidence_ids)
        trained = dict(zip(ids, labels))
        for cell, (vid, truth, index) in verified.items():
            assert trained[vid] == index
            assert result.repaired.cell_value(cell) == truth
        untouched = set(weak) - {vid for vid, _, _ in verified.values()}
        assert all(trained[vid] == weak[vid] for vid in untouched)

    def test_verified_cell_outside_the_training_set_is_appended(
            self, figure1_dataset, figure1_constraints, trained_on):
        config = HoloCleanConfig(tau=0.3, epochs=10, weak_label_training=False)
        session = RepairSession(figure1_dataset, figure1_constraints,
                                config=config)
        session.run()
        model = session.model
        info = model.graph.variables.by_cell(Cell(0, "Zip"))
        assert info.vid not in model.evidence_ids
        session.feedback(info.cell, "60609")
        session.rerun()
        ids, labels = trained_on[-1]
        assert ids == model.evidence_ids + [info.vid]
        assert labels[-1] == info.candidate_index("60609")
