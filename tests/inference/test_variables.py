"""The columnar variable catalog against the object list it replaced.

``ReferenceBlock`` is the pre-columnar ``VariableBlock`` — one
``VariableInfo`` per variable in a list, a ``dict[Cell, int]`` beside it —
kept here as the oracle: every view and every array the columnar block
hands out must agree with it, in order, through mixed ``add`` /
``add_block`` calls and across a pickle round trip.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.dataset import Cell
from repro.inference.variables import (
    DomainRelation,
    Marginals,
    VariableBlock,
    VariableInfo,
)

#: What a ``ColumnStore`` would hand over: "ghost" and "" are candidates
#: outside the data, and attribute "C" has no table at all.
TABLES = {"A": ["x", "y", "z"], "B": ["y", "x"]}
VALUES = st.sampled_from(["x", "y", "z", "ghost", ""])
#: One variable's marginal, ties and NaNs included.
MARGINAL = st.lists(st.sampled_from([0.0, 0.25, 0.5, np.nan]), min_size=1, max_size=5)


class ReferenceBlock:
    def __init__(self):
        self.infos: list[VariableInfo] = []
        self.by_cell: dict[Cell, int] = {}

    def add(self, cell, domain, init_index, is_evidence):
        if cell in self.by_cell:
            raise ValueError(f"duplicate variable for cell {cell}")
        self.by_cell[cell] = len(self.infos)
        self.infos.append(
            VariableInfo(len(self.infos), cell, list(domain), init_index, is_evidence)
        )


@st.composite
def variable_specs(draw):
    """Batches of (cell, domain, init_index) rows with distinct cells."""
    cells = draw(
        st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from("ABC")),
            unique=True,
            max_size=14,
        )
    )
    rows = []
    for tid, attribute in cells:
        domain = draw(st.lists(VALUES, unique=True, max_size=4))
        init = draw(st.integers(-1, len(domain) - 1)) if domain else -1
        rows.append((Cell(tid, attribute), domain, init))
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=3)))
    bounds = [0, *cuts, len(rows)]
    batches = [rows[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    flags = draw(st.lists(st.booleans(), min_size=len(batches), max_size=len(batches)))
    return list(zip(batches, flags))


def build(batches, seeded=True):
    block = VariableBlock(TABLES if seeded else None)
    reference = ReferenceBlock()
    for batch, is_evidence in batches:
        if len(batch) == 1:  # the one-at-a-time entry point
            cell, domain, init = batch[0]
            info = block.add(cell, domain, init, is_evidence)
            assert info == VariableInfo(
                len(reference.infos), cell, domain, init, is_evidence
            )
        else:
            ids = block.add_block(
                [cell for cell, _, _ in batch],
                [domain for _, domain, _ in batch],
                [init for _, _, init in batch],
                is_evidence,
            )
            assert list(ids) == list(
                range(len(reference.infos), len(reference.infos) + len(batch))
            )
        for cell, domain, init in batch:
            reference.add(cell, domain, init, is_evidence)
    return block, reference


def assert_equivalent(block: VariableBlock, reference: ReferenceBlock):
    infos = reference.infos
    assert len(block) == len(infos)
    assert list(block) == infos
    assert [block[vid] for vid in range(len(infos))] == infos
    assert [block.by_cell(info.cell) for info in infos] == infos
    assert block.by_cell(Cell(99, "A")) is None
    probes = [v.cell for v in infos][::-1] + [Cell(99, "A"), Cell(0, "Q")]
    assert block.rows_of(probes).tolist() == [v.vid for v in infos][::-1] + [-1, -1]
    # A plain (tid, attribute) tuple finds the same row as its Cell.
    tuples = list(map(tuple, probes))
    assert block.rows_of(tuples).tolist() == block.rows_of(probes).tolist()
    assert [block.by_cell(tuple(info.cell)) for info in infos] == infos
    assert block.evidence_ids() == [v.vid for v in infos if v.is_evidence]
    assert block.query_ids() == [v.vid for v in infos if not v.is_evidence]
    assert block.tids.tolist() == [v.cell.tid for v in infos]
    assert block.init_index.tolist() == [v.init_index for v in infos]
    assert block.is_evidence.tolist() == [v.is_evidence for v in infos]
    assert np.diff(block.domain_indptr).tolist() == [v.domain_size for v in infos]
    names = [block.attributes[code] for code in block.attribute_codes.tolist()]
    assert names == [v.cell.attribute for v in infos]
    assert block.cells_of() == [v.cell for v in infos]
    assert block.domains_of() == [v.domain for v in infos]
    some = list(range(len(infos)))[::-2]
    assert block.cells_of(some) == [infos[v].cell for v in some]
    assert block.domains_of(some) == [infos[v].domain for v in some]
    if infos:
        assert block[-1] == infos[-1]
    with pytest.raises(IndexError):
        block[len(infos)]


@given(variable_specs(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_columnar_block_matches_object_list(batches, seeded):
    block, reference = build(batches, seeded)
    assert_equivalent(block, reference)
    assert_equivalent(pickle.loads(pickle.dumps(block)), reference)


@given(variable_specs())
@settings(max_examples=50, deadline=None)
def test_codes_of_values_in_the_data_are_the_stores(batches):
    block, _ = build(batches)
    for attribute in block.attributes:
        table = block.tables[block.attribute_code(attribute)]
        seed = TABLES.get(attribute, [])
        assert table[: len(seed)] == seed  # the store's codes, then extensions
        assert len(set(table)) == len(table)
    assert TABLES == {"A": ["x", "y", "z"], "B": ["y", "x"]}  # seeds are copied


def test_empty_block():
    block = VariableBlock()
    assert len(block) == 0 and list(block) == []
    assert block.evidence_ids() == [] and block.query_ids() == []
    assert block.domains_of() == [] and block.cells_of() == []
    assert list(block.add_block([], [], [], is_evidence=False)) == []
    assert len(pickle.loads(pickle.dumps(block))) == 0


def test_duplicate_cell_raises_and_leaves_the_block_intact():
    block = VariableBlock()
    block.add(Cell(0, "A"), ["x"], 0, is_evidence=False)
    with pytest.raises(ValueError, match="duplicate variable for cell t0.A"):
        block.add_block(
            [Cell(1, "A"), Cell(0, "A")], [["x"], ["y"]], [0, 0], is_evidence=True
        )
    with pytest.raises(ValueError, match="duplicate variable for cell t2.A"):
        block.add_block([Cell(2, "A")] * 2, [["x"], ["y"]], [0, 0], is_evidence=True)
    assert len(block) == 1
    assert block.by_cell(Cell(1, "A")) is None and block.by_cell(Cell(2, "A")) is None
    assert block.add(Cell(1, "A"), ["y"], 0, is_evidence=True).vid == 1


def test_misaligned_block_rejected():
    with pytest.raises(ValueError, match="align"):
        VariableBlock().add_block([Cell(0, "A")], [["x"]], [], is_evidence=False)
    with pytest.raises(ValueError, match="align"):
        VariableBlock().add_block([Cell(0, "A")], [], [0], is_evidence=False)


def test_pickle_holds_no_object_per_variable():
    block = VariableBlock(TABLES)
    cells = [Cell(tid, "A") for tid in range(500)]
    block.add_block(cells, [["x", "y"]] * 500, [0] * 500, is_evidence=False)
    block.by_cell(cells[0])  # the lookup exists in memory, not in the pickle
    assert len(pickle.dumps(block)) < 500 * 40
    restored = pickle.loads(pickle.dumps(block))
    assert restored.by_cell(cells[499]).vid == 499


def test_cells_come_from_one_pool():
    """``cells_of`` hands out the lookup's keys, never fresh tuples: a rerun
    of apply then allocates no GC-tracked object per cell (on Flights the
    extra 8.5k a rerun pulled a full collection into ``rerepair_s``)."""
    block = VariableBlock()
    cells = [Cell(tid, "A") for tid in range(5)]
    block.add_block(cells, [["x"]] * 5, [0] * 5, is_evidence=False)
    assert all(a is b for a, b in zip(block.cells_of(), cells))
    assert block.cells_of([3, 1])[0] is cells[3]
    restored = pickle.loads(pickle.dumps(block))
    assert restored.cells_of([2])[0] is restored.cells_of()[2]


class TestDomainRelation:
    DOMAINS = {
        Cell(3, "B"): ["y", "ghost"],
        Cell(0, "A"): ["x"],
        Cell(3, "A"): [],
        Cell(1, "C"): ["", "x"],
    }

    def test_mapping_semantics(self):
        relation = DomainRelation(TABLES, self.DOMAINS)
        assert len(relation) == 4
        assert list(relation) == list(self.DOMAINS)  # key order kept
        assert dict(relation.items()) == self.DOMAINS
        assert Cell(3, "B") in relation and Cell(3, "C") not in relation
        assert relation.get(Cell(9, "A")) is None
        with pytest.raises(KeyError):
            relation[Cell(9, "A")]
        assert relation == self.DOMAINS
        assert all(isinstance(cell, Cell) for cell in relation)
        assert relation[(3, "B")] == ["y", "ghost"]
        assert "t3.B" not in relation and (3, "B", "x") not in relation

    def test_pickle_round_trip(self):
        restored = pickle.loads(pickle.dumps(DomainRelation(TABLES, self.DOMAINS)))
        assert list(restored.items()) == list(self.DOMAINS.items())

    def test_empty(self):
        assert len(DomainRelation(None, {})) == 0
        assert dict(DomainRelation(TABLES, {})) == {}


class TestMarginals:
    @pytest.fixture
    def marginals(self):
        probs = np.array([0.25, 0.75, 1.0, 0.5, 0.3, 0.2])
        return Marginals(np.array([7, 2, 5]), np.array([0, 2, 3, 6]), probs)

    def test_mapping_semantics(self, marginals):
        assert len(marginals) == 3
        assert 2 in marginals and 3 not in marginals
        assert list(marginals) == [7, 2, 5]  # var_ids order, not sorted
        assert [(v, m.tolist()) for v, m in marginals.items()] == [
            (7, [0.25, 0.75]),
            (2, [1.0]),
            (5, [0.5, 0.3, 0.2]),
        ]
        assert all(isinstance(v, int) for v in marginals)
        with pytest.raises(KeyError):
            marginals[3]

    def test_views_share_the_buffer(self, marginals):
        assert np.shares_memory(marginals[5], marginals.probs)
        marginals.probs[2] = 0.5
        assert marginals[2].tolist() == [0.5]

    def test_pickle_round_trip_equal(self, marginals):
        marginals[7]  # the lookup built on first read stays out of the pickle
        restored = pickle.loads(pickle.dumps(marginals))
        assert list(restored) == list(marginals)
        for vid in marginals:
            np.testing.assert_array_equal(restored[vid], marginals[vid])
        assert len(pickle.dumps(marginals)) < 600

    def test_argmax_is_np_argmax_per_variable(self, marginals):
        index, confidence = marginals.argmax([5, 7, 2, 5])
        assert index.tolist() == [0, 1, 0, 0]
        assert confidence.tolist() == [0.5, 0.75, 1.0, 0.5]
        with pytest.raises(KeyError):
            marginals.argmax([3])

    @given(st.lists(MARGINAL, max_size=8))
    @settings(max_examples=100, deadline=None)
    def test_argmax_ties_and_nans_follow_np_argmax(self, rows):
        sizes = [len(row) for row in rows]
        marginals = Marginals(
            np.arange(len(rows)),
            np.concatenate(([0], np.cumsum(sizes, dtype=np.int64))),
            np.array([p for row in rows for p in row], dtype=np.float32),
        )
        index, confidence = marginals.argmax(np.arange(len(rows))[::-1])
        want = [int(np.argmax(row)) for row in rows][::-1]
        assert index.tolist() == want
        assert confidence.dtype == np.float64
        expected = [np.float32(row[k]) for row, k in zip(rows[::-1], want)]
        np.testing.assert_array_equal(confidence, np.array(expected, dtype=np.float64))

    def test_empty(self):
        empty = Marginals(np.empty(0, np.int64), np.zeros(1, np.int64), np.empty(0))
        assert len(empty) == 0 and dict(empty) == {} and empty == {}
