"""Tests for the four evaluation-dataset generators."""

import pytest

from repro.data import (
    generate_flights,
    generate_food,
    generate_hospital,
    generate_physicians,
    scaled,
)
from repro.detect.violations import ViolationDetector
from repro.obs.fingerprint import dataset_fingerprint

SMALL = {
    "hospital": lambda: generate_hospital(num_rows=120),
    "flights": lambda: generate_flights(num_flights=6),
    "food": lambda: generate_food(num_rows=150),
    "physicians": lambda: generate_physicians(num_rows=200),
}


@pytest.fixture(params=sorted(SMALL), ids=sorted(SMALL))
def generated(request):
    return SMALL[request.param]()


class TestCommonInvariants:
    def test_ground_truth_consistent(self, generated):
        generated.verify_ground_truth()

    def test_clean_dataset_satisfies_constraints(self, generated):
        detection = ViolationDetector(generated.constraints).detect(
            generated.clean)
        assert len(detection.hypergraph) == 0

    def test_dirty_dataset_has_violations(self, generated):
        detection = ViolationDetector(generated.constraints).detect(
            generated.dirty)
        assert len(detection.hypergraph) > 0

    def test_errors_exist_and_tracked(self, generated):
        assert generated.num_errors > 0
        assert 0 < generated.error_rate < 0.6

    def test_table2_row_fields(self, generated):
        row = generated.table2_row()
        assert row["tuples"] == generated.dirty.num_tuples
        assert row["ics"] == len(generated.constraints)
        assert row["violations"] > 0

    def test_deterministic_given_seed(self, generated):
        again = SMALL[generated.name]()
        assert again.dirty == generated.dirty
        assert again.error_cells == generated.error_cells


class TestColumnarInjection:
    def test_dirty_carries_no_row_cache(self, generated):
        # Error injection reads cells one at a time: no generator leaves
        # every row decoded next to the columns.
        assert generated.dirty._row_cache is None

    def test_seeded_data_unchanged(self):
        # Cell reads make the same RNG draws as the row reads they replaced.
        hospital = generate_hospital(num_rows=300, seed=7)
        flights = generate_flights(num_flights=10, seed=7)
        assert dataset_fingerprint(hospital.dirty) == "a2a3934a2bee"
        assert dataset_fingerprint(hospital.clean) == "f955181aa1bd"
        assert dataset_fingerprint(flights.dirty) == "7e11be51500c"
        assert dataset_fingerprint(flights.clean) == "33e79ceb21bd"


class TestHospital:
    def test_shape(self):
        g = generate_hospital(num_rows=120)
        assert g.dirty.num_tuples == 120
        assert len(g.dirty.schema) == 19
        assert len(g.constraints) == 9

    def test_errors_are_x_typos(self):
        g = generate_hospital(num_rows=120)
        for cell in sorted(g.error_cells)[:20]:
            dirty_v = g.dirty.cell_value(cell)
            clean_v = g.clean.cell_value(cell)
            assert len(dirty_v) == len(clean_v)
            assert "x" in dirty_v or "y" in dirty_v

    def test_error_rate_about_five_percent(self):
        g = generate_hospital(num_rows=500, error_rate=0.05)
        constrained_cells = 500 * 9  # the 9 corruptible attributes
        assert 0.02 < g.num_errors / constrained_cells < 0.09

    def test_has_external_dictionary(self):
        g = generate_hospital(num_rows=120)
        assert g.dictionaries and g.matching_dependencies


class TestFlights:
    def test_shape_matches_paper_structure(self):
        g = generate_flights(num_flights=6, num_sources=10)
        assert g.dirty.num_tuples == 60
        assert len(g.dirty.schema) == 6
        assert len(g.constraints) == 4

    def test_source_attribute_role(self):
        g = generate_flights(num_flights=4)
        assert g.dirty.schema.with_role("source") == ["Source"]
        assert g.source_entity_attributes == ("Flight",)

    def test_majority_of_cells_noisy(self):
        g = generate_flights(num_flights=10)
        detection = ViolationDetector(g.constraints).detect(g.dirty)
        assert len(detection.noisy_cells) > g.dirty.num_cells * 0.5

    def test_reliable_sources_err_rarely(self):
        g = generate_flights(num_flights=30, reliable_sources=4)
        from collections import Counter
        errors_by_source = Counter()
        for cell in g.error_cells:
            errors_by_source[g.dirty.value(cell.tid, "Source")] += 1
        reliable = [f"src_{s:02d}" for s in range(4)]
        rel_errors = sum(errors_by_source.get(s, 0) for s in reliable)
        unrel_errors = sum(n for s, n in errors_by_source.items()
                           if s not in reliable)
        assert rel_errors < unrel_errors / 5


class TestFood:
    def test_shape(self):
        g = generate_food(num_rows=150)
        assert g.dirty.num_tuples == 150
        assert len(g.dirty.schema) == 17
        assert len(g.constraints) == 7

    def test_inspection_id_not_repairable(self):
        g = generate_food(num_rows=150)
        assert "InspectionID" not in g.dirty.schema.data_attributes

    def test_contains_duplicate_inspections(self):
        g = generate_food(num_rows=300, duplicate_rate=0.3)
        seen = {}
        duplicates = 0
        for tid in g.clean.tuple_ids:
            key = (g.clean.value(tid, "Address"),
                   g.clean.value(tid, "InspectionDate"))
            duplicates += key in seen
            seen[key] = tid
        assert duplicates > 10


class TestPhysicians:
    def test_shape(self):
        g = generate_physicians(num_rows=200)
        assert g.dirty.num_tuples == 200
        assert len(g.dirty.schema) == 18
        assert len(g.constraints) == 9

    def test_systematic_errors_share_wrong_values(self):
        g = generate_physicians(num_rows=400)
        from collections import Counter
        wrong_cities = Counter(
            g.dirty.cell_value(c) for c in g.error_cells
            if c.attribute == "City")
        # Systematic: the same misspelling appears in many rows.
        assert wrong_cities and wrong_cities.most_common(1)[0][1] >= 3

    def test_zip_plus4_vs_plain_dictionary(self):
        g = generate_physicians(num_rows=200)
        zips = {g.dirty.value(t, "Zip") for t in g.dirty.tuple_ids}
        assert all("-" in z for z in zips)
        dict_zips = {e["Ext_Zip"] for e in g.dictionaries[0].entries}
        assert all("-" not in z for z in dict_zips)

    def test_recommended_tau(self):
        assert generate_physicians(num_rows=200).recommended_tau == 0.7


class TestScaling:
    def test_scaled_respects_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        assert scaled(100) == 200
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        assert scaled(100) == 10

    def test_scaled_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.001")
        assert scaled(100, minimum=5) == 5

    def test_invalid_scale_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "zero")
        with pytest.raises(ValueError, match="number"):
            scaled(100)
        monkeypatch.setenv("REPRO_SCALE", "-1")
        with pytest.raises(ValueError, match="positive"):
            scaled(100)
