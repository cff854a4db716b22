"""Tests for the denial-constraint violation detector."""

import pytest

from repro.constraints.denial import DenialConstraint
from repro.constraints.fd import parse_fd
from repro.constraints.parser import parse_dc
from repro.constraints.predicates import Operator, Predicate, TupleRef
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.detect.violations import QuadraticScanError, ViolationDetector


@pytest.fixture
def zip_city_data():
    schema = Schema(["Zip", "City"])
    return Dataset(schema, [
        ["60608", "Chicago"],
        ["60608", "Chicago"],
        ["60608", "Cicago"],   # violates Zip -> City against t0/t1
        ["02134", "Boston"],
    ])


@pytest.fixture
def zip_city_dc():
    return parse_fd("Zip -> City").to_denial_constraints()[0]


class TestFdViolations:
    def test_detects_violating_pairs(self, zip_city_data, zip_city_dc):
        result = ViolationDetector([zip_city_dc]).detect(zip_city_data)
        assert len(result.hypergraph) == 2  # (0,2) and (1,2)
        tids = {frozenset(v.tids) for v in result.hypergraph.violations}
        assert tids == {frozenset({0, 2}), frozenset({1, 2})}

    def test_noisy_cells_cover_both_sides(self, zip_city_data, zip_city_dc):
        result = ViolationDetector([zip_city_dc]).detect(zip_city_data)
        assert Cell(2, "City") in result.noisy_cells
        assert Cell(0, "City") in result.noisy_cells
        assert Cell(0, "Zip") in result.noisy_cells
        assert Cell(3, "City") not in result.noisy_cells

    def test_clean_dataset_yields_nothing(self, zip_city_dc):
        ds = Dataset(Schema(["Zip", "City"]),
                     [["1", "A"], ["1", "A"], ["2", "B"]])
        result = ViolationDetector([zip_city_dc]).detect(ds)
        assert len(result.hypergraph) == 0
        assert not result.noisy_cells

    def test_null_join_keys_skipped(self, zip_city_dc):
        ds = Dataset(Schema(["Zip", "City"]),
                     [[None, "A"], [None, "B"], ["1", "C"]])
        result = ViolationDetector([zip_city_dc]).detect(ds)
        assert len(result.hypergraph) == 0

    def test_composite_join(self):
        dc = parse_fd("City,State -> Zip").to_denial_constraints()[0]
        ds = Dataset(Schema(["City", "State", "Zip"]), [
            ["Chicago", "IL", "60608"],
            ["Chicago", "IL", "60609"],
            ["Chicago", "MA", "60610"],   # different state: no violation
        ])
        result = ViolationDetector([dc]).detect(ds)
        assert {frozenset(v.tids) for v in result.hypergraph.violations} == \
            {frozenset({0, 1})}


class TestSingleTupleConstraints:
    def test_constant_predicate(self):
        dc = parse_dc('t1&EQ(t1.State,"XX")')
        ds = Dataset(Schema(["State"]), [["XX"], ["IL"]])
        result = ViolationDetector([dc]).detect(ds)
        assert result.noisy_cells == {Cell(0, "State")}

    def test_intra_tuple_comparison(self):
        dc = DenialConstraint([
            Predicate(TupleRef(1, "Start"), Operator.GT, TupleRef(1, "End"))])
        ds = Dataset(Schema(["Start", "End"]), [["5", "3"], ["1", "9"]])
        result = ViolationDetector([dc]).detect(ds)
        assert {c.tid for c in result.noisy_cells} == {0}


class TestOrderSensitivePredicates:
    def test_both_directions_checked(self):
        # ¬(t1.Grp = t2.Grp ∧ t1.Sal > t2.Sal ∧ t1.Rank < t2.Rank)
        dc = DenialConstraint([
            Predicate(TupleRef(1, "Grp"), Operator.EQ, TupleRef(2, "Grp")),
            Predicate(TupleRef(1, "Sal"), Operator.GT, TupleRef(2, "Sal")),
            Predicate(TupleRef(1, "Rank"), Operator.LT, TupleRef(2, "Rank")),
        ])
        ds = Dataset(Schema(["Grp", "Sal", "Rank"]), [
            ["g", "50", "2"],   # lower salary, higher rank
            ["g", "100", "1"],  # violates as t1 against t0? 100>50 and 1<2 ✓
        ])
        result = ViolationDetector([dc]).detect(ds)
        assert len(result.hypergraph) == 1

    def test_quadratic_guard(self):
        dc = DenialConstraint([
            Predicate(TupleRef(1, "A"), Operator.GT, TupleRef(2, "A"))])
        ds = Dataset(Schema(["A"]), [[str(i)] for i in range(30)])
        detector = ViolationDetector([dc], max_quadratic_tuples=10)
        with pytest.raises(QuadraticScanError):
            detector.detect(ds)

    def test_quadratic_allowed_when_small(self):
        dc = DenialConstraint([
            Predicate(TupleRef(1, "A"), Operator.GT, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.LT, TupleRef(2, "B"))])
        ds = Dataset(Schema(["A", "B"]), [["2", "1"], ["1", "2"]])
        result = ViolationDetector([dc], max_quadratic_tuples=10).detect(ds)
        assert len(result.hypergraph) == 1


class TestCaps:
    def test_max_pairs_cap(self, zip_city_dc):
        rows = [["1", f"city{i}"] for i in range(10)]  # all conflict pairwise
        ds = Dataset(Schema(["Zip", "City"]), rows)
        detector = ViolationDetector([zip_city_dc],
                                     max_pairs_per_constraint=5)
        result = detector.detect(ds)
        assert len(result.hypergraph) == 5
        assert detector.truncated == [zip_city_dc.name]
        # Exactly at the cap nothing was dropped.
        detector.max_pairs_per_constraint = 45
        assert len(detector.detect(ds).hypergraph) == 45
        assert detector.truncated == []


class TestEngineArgument:
    def test_foreign_engine_is_rejected(self, zip_city_data, zip_city_dc):
        from repro.engine import Engine

        detector = ViolationDetector([zip_city_dc],
                                     engine=Engine(zip_city_data.copy()))
        with pytest.raises(ValueError,
                           match="engine was built over a different dataset"):
            detector.detect(zip_city_data)
