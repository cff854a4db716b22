"""Tests for data-programming style error detection (§7 direction)."""

import gc
import weakref

import pytest

from repro.data import generate_hospital
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
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
from repro.oracle import Statistics


@pytest.fixture
def dataset():
    schema = Schema(["Zip", "State"])
    return Dataset(schema, [
        ["60608", "IL"],
        ["6x608", "IL"],     # malformed zip
        ["60609", "ZZ"],     # bad state
        [None, "IL"],        # missing zip
    ])


class TestLabelingFunction:
    def test_invalid_verdict_rejected(self, dataset):
        lf = LabelingFunction("bad", lambda ds, c: 42)
        with pytest.raises(ValueError, match="expected ERROR"):
            lf(dataset, Cell(0, "Zip"))

    def test_valid_verdicts_pass(self, dataset):
        for verdict in (ERROR, CLEAN, ABSTAIN):
            lf = LabelingFunction("ok", lambda ds, c, v=verdict: v)
            assert lf(dataset, Cell(0, "Zip")) == verdict


class TestBuilders:
    def test_lf_null(self, dataset):
        lf = lf_null()
        assert lf(dataset, Cell(3, "Zip")) == ERROR
        assert lf(dataset, Cell(0, "Zip")) == ABSTAIN

    def test_lf_pattern_format_check(self, dataset):
        lf = lf_pattern("Zip", r"\d{5}")
        assert lf(dataset, Cell(0, "Zip")) == CLEAN
        assert lf(dataset, Cell(1, "Zip")) == ERROR
        assert lf(dataset, Cell(0, "State")) == ABSTAIN

    def test_lf_pattern_denylist(self, dataset):
        lf = lf_pattern("State", r"Z+", matches_are_clean=False)
        assert lf(dataset, Cell(2, "State")) == ERROR
        assert lf(dataset, Cell(0, "State")) == CLEAN

    def test_lf_allowed_values(self, dataset):
        lf = lf_allowed_values("State", {"IL", "MA"})
        assert lf(dataset, Cell(0, "State")) == CLEAN
        assert lf(dataset, Cell(2, "State")) == ERROR

    def test_lf_rare_value(self):
        ds = Dataset(Schema(["A"]), [["common"]] * 9 + [["rare"]])
        lf = lf_rare_value("A", max_count=1)
        assert lf(ds, Cell(9, "A")) == ERROR
        assert lf(ds, Cell(0, "A")) == ABSTAIN

    def test_lf_rare_value_counts_after_a_write(self):
        ds = Dataset(Schema(["A"]), [["x"], ["y"], ["y"]])
        lf = lf_rare_value("A", max_count=1)
        assert lf(ds, Cell(0, "A")) == ERROR
        ds.set_value(1, "A", "x")  # x now occurs twice
        assert lf(ds, Cell(0, "A")) == ABSTAIN
        assert lf(ds, Cell(2, "A")) == ERROR

    def test_lf_rare_value_keeps_no_dataset_alive(self):
        lf = lf_rare_value("A", max_count=1)
        ds = Dataset(Schema(["A"]), [["x"], ["y"], ["y"]])
        assert lf(ds, Cell(0, "A")) == ERROR
        ref = weakref.ref(ds)
        del ds
        gc.collect()
        assert ref() is None

    def test_lf_rare_value_matches_row_scan_counts(self):
        ds = generate_hospital(num_rows=60).dirty
        stats = Statistics(ds)
        for attr in ds.schema.data_attributes:
            lf = lf_rare_value(attr, max_count=2)
            for tid in range(ds.num_tuples):
                value = ds.value(tid, attr)
                rare = value is not None and stats.frequency(attr, value) <= 2
                assert lf(ds, Cell(tid, attr)) == (ERROR if rare else ABSTAIN)


class TestProgrammaticDetector:
    def test_needs_functions(self):
        with pytest.raises(ValueError, match="at least one"):
            ProgrammaticDetector([])

    def test_single_function_detection(self, dataset):
        detector = ProgrammaticDetector([lf_pattern("Zip", r"\d{5}")])
        result = detector.detect(dataset)
        assert result.noisy_cells == {Cell(1, "Zip")}

    def test_votes_combine(self, dataset):
        detector = ProgrammaticDetector([
            lf_pattern("Zip", r"\d{5}"),
            lf_null(),
            lf_allowed_values("State", {"IL"}),
        ])
        result = detector.detect(dataset)
        assert result.noisy_cells == {Cell(1, "Zip"), Cell(3, "Zip"),
                                      Cell(2, "State")}

    def test_clean_votes_veto(self, dataset):
        """A heavier CLEAN vote suppresses a lighter ERROR vote."""
        always_error = LabelingFunction(
            "paranoid", lambda ds, c: ERROR, weight=1.0)
        trusted_format = LabelingFunction(
            "format", lambda ds, c: CLEAN
            if (ds.cell_value(c) or "").isdigit() else ABSTAIN, weight=2.0)
        detector = ProgrammaticDetector([always_error, trusted_format],
                                        attributes=["Zip"])
        result = detector.detect(dataset)
        assert Cell(0, "Zip") not in result.noisy_cells  # digits: vetoed
        assert Cell(1, "Zip") in result.noisy_cells      # "6x608": flagged

    def test_feeds_pipeline_as_extra_detector(self, figure1_dataset,
                                              figure1_constraints):
        from repro.core.config import HoloCleanConfig
        from repro.core.pipeline import HoloClean
        detector = ProgrammaticDetector(
            [lf_allowed_values("City", {"Chicago"})])
        hc = HoloClean(HoloCleanConfig(tau=0.3, epochs=20, seed=1))
        result = hc.repair(figure1_dataset, figure1_constraints,
                           extra_detectors=[detector])
        assert Cell(3, "City") in result.inferences
