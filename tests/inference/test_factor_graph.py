"""Tests for the columnar factor store and the factor graph container."""

import numpy as np
import pytest

from repro.dataset.dataset import Cell
from repro.inference.factor_graph import FactorColumns, FactorGraph
from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
from repro.inference.variables import VariableBlock

AGREE = np.array([[1, -1], [-1, 1]], dtype=np.int8)


def make_graph(sizes=(2, 2, 2)):
    space = FeatureSpace()
    builder = FeatureMatrixBuilder(space)
    block = VariableBlock()
    for i, size in enumerate(sizes):
        domain = ["x", "y", "z"][:size]
        block.add(Cell(i, "A"), domain, 0, is_evidence=(i == 2))
        v = builder.start_variable(size)
        builder.add(v, 0, ("f",), 1.0)
    return FactorGraph(block, builder.build(), space)


class TestAppendValidation:
    def test_dimension_check(self):
        with pytest.raises(ValueError, match="dimensions"):
            make_graph().add_factor((0,), np.ones((2, 2), dtype=np.int8), 1.0)

    def test_duplicate_variables_rejected(self):
        with pytest.raises(ValueError, match="once"):
            make_graph().add_factor((0, 0), np.ones((2, 2), dtype=np.int8), 1.0)

    def test_mismatched_table_shape_rejected(self):
        graph = make_graph(sizes=(2, 3, 2))
        with pytest.raises(ValueError, match="shape"):
            graph.add_factor((0, 1), np.ones((2, 2), dtype=np.int8), 1.0)
        # Same cell count, axes swapped: still the wrong shape.
        with pytest.raises(ValueError, match="shape"):
            graph.add_factor((0, 1), np.ones((3, 2), dtype=np.int8), 1.0)

    @pytest.mark.parametrize("vid", [-1, 3, 99])
    def test_out_of_range_variable_rejected(self, vid):
        # A negative id used to index the last variable inside Gibbs; a
        # too-large one raised IndexError from inside its kernel.
        graph = make_graph()
        with pytest.raises(ValueError, match="outside"):
            graph.add_factor((0, vid), AGREE, 1.0)
        batch = FactorColumns.rows(
            np.array([[0, 1], [1, vid]]), np.stack([AGREE] * 2), 1.0, "b"
        )
        with pytest.raises(ValueError, match="outside"):
            graph.add_factors(batch)
        assert len(graph.factors) == 0

    def test_batch_checks_every_row(self):
        graph = make_graph(sizes=(2, 3, 2))
        duplicate = FactorColumns.rows(
            np.array([[0, 2], [2, 2]]), np.stack([AGREE] * 2), 1.0, "d"
        )
        with pytest.raises(ValueError, match="once"):
            graph.add_factors(duplicate)
        # Tables of four cells over a 2 x 3 pair of domains.
        short = FactorColumns.rows(
            np.array([[0, 2], [0, 1]]), np.stack([AGREE] * 2), 1.0, "s"
        )
        with pytest.raises(ValueError, match="shape"):
            graph.add_factors(short)
        assert len(graph.factors) == 0


class TestFactorColumns:
    def test_appends_join_in_order_over_one_names_list(self):
        graph = make_graph(sizes=(2, 3, 2))
        graph.add_factor((0, 2), AGREE, 2.0, "agree")
        batch = FactorColumns.rows(
            np.array([[1], [1]]), np.array([[1, -1, 1], [-1, 1, 1]]), 0.5, "other"
        )
        assert graph.add_factors(batch) == 2
        graph.add_factor((2, 0), -AGREE, 1.0, "agree")
        factors = graph.factors
        assert len(factors) == 4 and factors.names == ["agree", "other"]
        assert factors.codes.tolist() == [0, 1, 1, 0]
        assert factors.var_indptr.tolist() == [0, 2, 3, 4, 6]
        assert factors.var_ids.tolist() == [0, 2, 1, 1, 2, 0]
        assert factors.cell_indptr.tolist() == [0, 4, 7, 10, 14]
        assert factors.weights.tolist() == [2.0, 0.5, 0.5, 1.0]
        assert factors.cells.dtype == np.int8 and factors.var_ids.dtype == np.int64
        ids, table, weight, name = graph.factor(2)
        assert (ids, weight, name) == ((1,), 0.5, "other")
        assert table.tolist() == [-1, 1, 1]
        assert graph.factor(3)[1].tolist() == (-AGREE).tolist()
        assert graph.factors is factors  # joined once, then read as is

    def test_take_reorders_ragged_rows(self):
        graph = make_graph(sizes=(2, 3, 2))
        graph.add_factor((0, 2), AGREE, 2.0, "a")
        graph.add_factor((1,), np.array([1, -1, 1]), 1.0, "b")
        taken = graph.factors.take(np.array([1, 0]))
        assert taken.var_ids.tolist() == [1, 0, 2]
        assert taken.cells.tolist() == [1, -1, 1, 1, -1, -1, 1]
        assert [taken.names[c] for c in taken.codes] == ["b", "a"]

    def test_empty_graph_has_no_factors(self):
        graph = make_graph()
        assert not graph.factors and len(graph.factors) == 0
        assert graph.add_factors(FactorColumns.concat([])) == 0
        assert graph.size_report()["factor_table_cells"] == 0


class TestFactorGraph:
    def test_unary_scores_are_one_flat_vector_cut_by_var_row_start(self):
        g = make_graph()
        scores = g.matrix.scores(np.array([2.0]))
        starts = g.matrix.var_row_start
        assert len(starts) == 3 + 1
        assert list(scores[starts[0] : starts[1]]) == [2.0, 0.0]

    def test_size_report(self):
        g = make_graph()
        g.add_factor((0, 1), AGREE, 2.0, "agree")
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
