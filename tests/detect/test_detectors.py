"""Tests for the outlier, null, external, and ensemble detectors."""

import numpy as np
import pytest

from repro.constraints.fd import parse_fd
from repro.constraints.matching import MatchingDependency, MatchPredicate
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Attribute, Schema
from repro.detect.ensemble import EnsembleDetector
from repro.detect.external import ExternalDetector
from repro.detect.nulls import NullDetector
from repro.detect.outliers import OutlierDetector
from repro.detect.violations import ViolationDetector
from repro.external.dictionary import ExternalDictionary


def clean_cells(detection, dataset, attributes=None):
    """``D_c = D \\ D_n`` off the noisy masks: the cells of ``attributes``
    (default: all) not flagged, in row-major order."""
    attributes = attributes if attributes is not None else dataset.schema.names
    flagged = np.zeros((dataset.num_tuples, len(attributes)), dtype=bool)
    for j, attribute in enumerate(attributes):
        mask = detection.masks.get(attribute, np.zeros(0, dtype=bool))
        flagged[: len(mask), j] = mask[: dataset.num_tuples]
    tids, positions = np.nonzero(~flagged)
    return [Cell(t, attributes[j]) for t, j in zip(tids.tolist(), positions.tolist())]


class TestOutlierDetector:
    def test_flags_rare_value_in_concentrated_attribute(self):
        rows = [["Chicago"]] * 50 + [["Chicagx"]]
        ds = Dataset(Schema(["City"]), rows)
        result = OutlierDetector(max_relative_frequency=0.05).detect(ds)
        assert result.noisy_cells == {Cell(50, "City")}

    def test_diverse_attribute_not_flagged(self):
        rows = [[f"value-{i}"] for i in range(50)]
        ds = Dataset(Schema(["Name"]), rows)
        result = OutlierDetector().detect(ds)
        assert not result.noisy_cells

    def test_respects_attribute_list(self):
        rows = [["Chicago", "x1"]] * 50 + [["Chicagx", "x2"]]
        ds = Dataset(Schema(["City", "Other"]), rows)
        result = OutlierDetector(attributes=["Other"]).detect(ds)
        assert all(c.attribute == "Other" for c in result.noisy_cells)

    def test_max_count_guard(self):
        rows = [["a"]] * 10 + [["b"]] * 5
        ds = Dataset(Schema(["X"]), rows)
        result = OutlierDetector(max_count=3,
                                 max_relative_frequency=0.5).detect(ds)
        assert not result.noisy_cells  # "b" occurs 5 > max_count times


class TestNullDetector:
    def test_flags_nulls(self):
        ds = Dataset(Schema(["A", "B"]), [["x", None], [None, "y"]])
        result = NullDetector().detect(ds)
        assert result.noisy_cells == {Cell(0, "B"), Cell(1, "A")}

    def test_attribute_filter(self):
        ds = Dataset(Schema(["A", "B"]), [[None, None]])
        result = NullDetector(attributes=["A"]).detect(ds)
        assert result.noisy_cells == {Cell(0, "A")}

    def test_skips_non_data_roles(self):
        schema = Schema([Attribute("Id", role="id"), Attribute("A")])
        ds = Dataset(schema, [[None, None]])
        result = NullDetector().detect(ds)
        assert result.noisy_cells == {Cell(0, "A")}


class TestExternalDetector:
    @pytest.fixture
    def dictionary(self):
        return ExternalDictionary("d", ["Ext_Zip", "Ext_City"], [
            {"Ext_Zip": "60608", "Ext_City": "Chicago"},
        ])

    @pytest.fixture
    def md(self):
        return MatchingDependency([MatchPredicate("Zip", "Ext_Zip")],
                                  "City", "Ext_City")

    def test_flags_disagreement(self, dictionary, md):
        ds = Dataset(Schema(["Zip", "City"]),
                     [["60608", "Cicago"], ["60608", "Chicago"]])
        result = ExternalDetector(dictionary, [md]).detect(ds)
        assert result.noisy_cells == {Cell(0, "City")}

    def test_unmatched_tuples_untouched(self, dictionary, md):
        ds = Dataset(Schema(["Zip", "City"]), [["99999", "Nowhere"]])
        result = ExternalDetector(dictionary, [md]).detect(ds)
        assert not result.noisy_cells

    def test_null_target_flagged(self, dictionary, md):
        ds = Dataset(Schema(["Zip", "City"]), [["60608", None]])
        result = ExternalDetector(dictionary, [md]).detect(ds)
        assert result.noisy_cells == {Cell(0, "City")}


class TestEnsembleDetector:
    def test_union_of_findings(self):
        ds = Dataset(Schema(["Zip", "City"]), [
            ["60608", "Chicago"],
            ["60608", "Cicago"],
            [None, "Boston"],
        ])
        dc = parse_fd("Zip -> City").to_denial_constraints()[0]
        ensemble = EnsembleDetector([ViolationDetector([dc]), NullDetector()])
        result = ensemble.detect(ds)
        assert Cell(2, "Zip") in result.noisy_cells       # from NullDetector
        assert Cell(1, "City") in result.noisy_cells      # from violations
        assert len(result.hypergraph) == 1                # hypergraph merged
        # D_c = D \ D_n, row-major, optionally restricted to attributes.
        assert clean_cells(result, ds) == [Cell(2, "City")]
        assert clean_cells(result, ds, ["Zip"]) == []
        assert clean_cells(NullDetector().detect(ds), ds, ["Zip"]) == [
            Cell(0, "Zip"), Cell(1, "Zip")]

    def test_requires_detectors(self):
        with pytest.raises(ValueError, match="at least one"):
            EnsembleDetector([])
