"""Tests for constraint factors and the factor graph container."""

import numpy as np
import pytest

from repro.dataset.dataset import Cell
from repro.inference.factor_graph import ConstraintFactor, FactorGraph
from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
from repro.inference.variables import VariableBlock


def make_graph():
    space = FeatureSpace()
    builder = FeatureMatrixBuilder(space)
    block = VariableBlock()
    for i in range(3):
        block.add(Cell(i, "A"), ["x", "y"], 0, is_evidence=(i == 2))
        v = builder.start_variable(2)
        builder.add(v, 0, ("f",), 1.0)
    return FactorGraph(block, builder.build(), space)


def agree_factor(v1, v2, weight=2.0):
    """-1 when the two variables take different candidate indices."""
    table = np.array([[1, -1], [-1, 1]], dtype=np.int8)
    return ConstraintFactor((v1, v2), table, weight, "agree")


class TestConstraintFactor:
    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimensions"):
            ConstraintFactor((0,), np.ones((2, 2), dtype=np.int8), 1.0)

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="once"):
            ConstraintFactor((0, 0), np.ones((2, 2), dtype=np.int8), 1.0)

    def test_value(self):
        f = agree_factor(0, 1)
        assert f.value({0: 0, 1: 0}) == 1.0
        assert f.value({0: 0, 1: 1}) == -1.0

    def test_arity(self):
        assert agree_factor(0, 1).arity == 2


class TestFactorGraph:
    def test_unary_scores_are_one_flat_vector_cut_by_var_row_start(self):
        g = make_graph()
        scores = g.matrix.scores(np.array([2.0]))
        starts = g.matrix.var_row_start
        assert len(starts) == 3 + 1
        assert list(scores[starts[0] : starts[1]]) == [2.0, 0.0]

    def test_size_report(self):
        g = make_graph()
        g.add_factor(agree_factor(0, 1))
        report = g.size_report()
        assert report["variables"] == 3
        assert report["query_variables"] == 2
        assert report["constraint_factors"] == 1
        assert report["factor_table_cells"] == 4
        assert report["feature_entries"] == 3


class TestVariableBlock:
    def test_duplicate_cell_rejected(self):
        block = VariableBlock()
        block.add(Cell(0, "A"), ["x"], 0, is_evidence=False)
        with pytest.raises(ValueError, match="duplicate"):
            block.add(Cell(0, "A"), ["y"], 0, is_evidence=False)

    def test_by_cell(self):
        block = VariableBlock()
        info = block.add(Cell(0, "A"), ["x"], 0, is_evidence=False)
        assert block.by_cell(Cell(0, "A")) == info  # a view, equal by value
        assert block.by_cell(Cell(9, "Z")) is None

    def test_evidence_and_query_ids(self):
        block = VariableBlock()
        block.add(Cell(0, "A"), ["x"], 0, is_evidence=True)
        block.add(Cell(1, "A"), ["x"], 0, is_evidence=False)
        assert block.evidence_ids() == [0]
        assert block.query_ids() == [1]

    def test_observed_index_requires_evidence(self):
        block = VariableBlock()
        info = block.add(Cell(0, "A"), ["x", "y"], 1, is_evidence=False)
        with pytest.raises(ValueError, match="not evidence"):
            _ = info.observed_index

    def test_candidate_index(self):
        block = VariableBlock()
        info = block.add(Cell(0, "A"), ["x", "y"], 0, is_evidence=False)
        assert info.candidate_index("y") == 1
        assert info.candidate_index("zzz") is None
