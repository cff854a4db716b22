"""Tests for denial constraints (Section 3.1 semantics)."""

import pytest

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Const, Operator, Predicate, TupleRef


@pytest.fixture
def zip_state_dc():
    """Example 2: ¬(t1.Zip = t2.Zip ∧ t1.State ≠ t2.State)."""
    return DenialConstraint([
        Predicate(TupleRef(1, "Zip"), Operator.EQ, TupleRef(2, "Zip")),
        Predicate(TupleRef(1, "State"), Operator.NEQ, TupleRef(2, "State")),
    ], name="zip_state")


class TestStructure:
    def test_needs_predicates(self):
        with pytest.raises(ValueError, match="at least one"):
            DenialConstraint([])

    def test_is_single_tuple(self, zip_state_dc):
        assert not zip_state_dc.is_single_tuple
        single = DenialConstraint([
            Predicate(TupleRef(1, "Age"), Operator.LT, Const("0"))])
        assert single.is_single_tuple

    def test_attributes(self, zip_state_dc):
        assert zip_state_dc.attributes == {"Zip", "State"}

    def test_attributes_of(self, zip_state_dc):
        assert zip_state_dc.attributes_of(1) == {"Zip", "State"}
        assert zip_state_dc.attributes_of(2) == {"Zip", "State"}

    def test_equijoin_and_residual_split(self, zip_state_dc):
        assert len(zip_state_dc.equijoin_predicates) == 1
        assert zip_state_dc.equijoin_predicates[0].left.attribute == "Zip"
        assert len(zip_state_dc.residual_predicates) == 1

    def test_default_name_generated(self):
        dc = DenialConstraint([
            Predicate(TupleRef(1, "Zip"), Operator.EQ, TupleRef(2, "Zip"))])
        assert dc.name


class TestEvaluation:
    def test_violates_when_all_predicates_hold(self, zip_state_dc):
        assert zip_state_dc.violates({"Zip": "1", "State": "IL"},
                                     {"Zip": "1", "State": "MA"})

    def test_no_violation_when_any_predicate_fails(self, zip_state_dc):
        assert not zip_state_dc.violates({"Zip": "1", "State": "IL"},
                                         {"Zip": "2", "State": "MA"})
        assert not zip_state_dc.violates({"Zip": "1", "State": "IL"},
                                         {"Zip": "1", "State": "IL"})

    def test_null_blocks_violation(self, zip_state_dc):
        assert not zip_state_dc.violates({"Zip": None, "State": "IL"},
                                         {"Zip": None, "State": "MA"})

    def test_violation_depends_on_tuple_order(self):
        dc = DenialConstraint([
            Predicate(TupleRef(1, "Sal"), Operator.GT, TupleRef(2, "Sal")),
            Predicate(TupleRef(1, "Rank"), Operator.LT, TupleRef(2, "Rank")),
        ])
        low = {"Sal": "100", "Rank": "1"}
        high = {"Sal": "50", "Rank": "2"}
        assert dc.violates(low, high)
        assert not dc.violates(high, low)

    def test_single_tuple_violation(self):
        dc = DenialConstraint([
            Predicate(TupleRef(1, "State"), Operator.EQ, Const("IL")),
            Predicate(TupleRef(1, "Zip"), Operator.EQ, Const("99999")),
        ])
        assert dc.violates({"State": "IL", "Zip": "99999"})
        assert not dc.violates({"State": "IL", "Zip": "60608"})

    def test_str_shows_quantifier(self, zip_state_dc):
        assert "∀t1,t2" in str(zip_state_dc)
