"""The columnar dataset: rows in, code columns inside, the same rows out.

Every reference here is plain Python over row lists — the load rule, a
first-seen dictionary encode, edits applied to a list of lists — so the
columns are checked against what a row-major dataset would hold.
"""

from __future__ import annotations

import pickle
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataset.csv_io import read_csv, write_csv
from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.engine.store import ColumnStore
from repro.obs.fingerprint import dataset_fingerprint

NAMES = ["A", "B", "C"]
SCHEMA = Schema(NAMES)
#: Raw cell values: duplicates up to whitespace, blanks, NULL, and the
#: string "None" (which is a value, not NULL).
RAW = st.sampled_from(["x", " x", "x ", "y", "z", "", "  ", None, "None", "w w"])
ROWS = st.lists(st.lists(RAW, min_size=3, max_size=3), max_size=12)
#: Values an edit writes: some already present, some new to the table.
NEW = st.sampled_from(["x", "y", "fresh", " fresh ", "other", "", None])


def loaded(value):
    """The load rule, stated independently: strip; blank is NULL."""
    if value is None:
        return None
    value = value.strip()
    return value or None


def first_seen(column):
    """A fresh dictionary encode: codes in first-seen order, -1 = NULL."""
    book: dict[str, int] = {}
    codes = [-1 if v is None else book.setdefault(v, len(book)) for v in column]
    return codes, list(book)


def apply_edits(rows, edits):
    """``rows`` after the edits, and the same edits on a dataset."""
    expected = [[loaded(v) for v in row] for row in rows]
    dataset = Dataset(SCHEMA, rows)
    for k, position, value in edits:
        tid = k % len(rows)
        expected[tid][position] = loaded(value)
        dataset.set_value(tid, NAMES[position], value)
    return expected, dataset


EDITS = st.lists(
    st.tuples(st.integers(0, 100), st.integers(0, 2), NEW), min_size=1, max_size=10
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(rows=ROWS)
    def test_rows_to_columns_and_back(self, rows):
        dataset = Dataset(SCHEMA, rows)
        expected = [[loaded(v) for v in row] for row in rows]
        assert dataset.num_tuples == len(rows)
        for tid, row in enumerate(expected):
            assert dataset.row_ref(tid) == row
            assert dataset.tuple_dict(tid) == dict(zip(NAMES, row))
        fresh = Dataset(SCHEMA, rows)  # no row cache: values decode per cell
        for tid, row in enumerate(expected):
            assert [fresh.value(tid, a) for a in NAMES] == row
        for position, attribute in enumerate(NAMES):
            column = [row[position] for row in expected]
            codes, table = first_seen(column)
            stored, values = fresh.encoded(attribute)
            assert stored.dtype == np.int32
            assert stored.tolist() == codes and values == table
            assert fresh.decoded(attribute) == column
            assert fresh.active_domain(attribute) == table

    @settings(max_examples=30, deadline=None)
    @given(rows=ROWS)
    def test_csv_round_trip(self, rows):
        dataset = Dataset(SCHEMA, rows)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            write_csv(dataset, path)
            back = read_csv(path)
        assert back == dataset
        assert dataset_fingerprint(back) == dataset_fingerprint(dataset)


class TestEdits:
    @settings(max_examples=80, deadline=None)
    @given(rows=ROWS.filter(len), edits=EDITS)
    def test_edited_equals_freshly_built(self, rows, edits):
        expected, edited = apply_edits(rows, edits)
        fresh = Dataset(SCHEMA, expected)
        for tid, row in enumerate(expected):
            assert [edited.value(tid, a) for a in NAMES] == row
        assert edited == fresh
        assert dataset_fingerprint(edited) == dataset_fingerprint(fresh)
        store = ColumnStore(edited)
        for position, attribute in enumerate(NAMES):
            codes, table = first_seen([row[position] for row in expected])
            assert store.codes(attribute).tolist() == codes
            assert store.values(attribute) == table

    @settings(max_examples=40, deadline=None)
    @given(rows=ROWS.filter(len), edits=EDITS)
    def test_edit_and_undo(self, rows, edits):
        dataset = Dataset(SCHEMA, rows)
        before = dataset_fingerprint(dataset)
        originals = []
        for k, position, value in edits:
            tid, attribute = k % len(rows), NAMES[position]
            originals.append((tid, attribute, dataset.value(tid, attribute)))
            dataset.set_value(tid, attribute, value)
        for tid, attribute, value in reversed(originals):
            dataset.set_value(tid, attribute, value)
        assert dataset == Dataset(SCHEMA, rows)
        assert dataset_fingerprint(dataset) == before

    @settings(max_examples=40, deadline=None)
    @given(rows=ROWS.filter(len), edits=EDITS)
    def test_bulk_write_equals_cell_writes(self, rows, edits):
        expected, one_by_one = apply_edits(rows, edits)
        bulk = Dataset(SCHEMA, rows)
        last = {(k % len(rows), p): value for k, p, value in edits}
        table = ["x", "y", "fresh", " fresh ", "other", "", None]
        for position, attribute in enumerate(NAMES):
            cells = [(tid, v) for (tid, p), v in last.items() if p == position]
            tids = [tid for tid, _ in cells]
            codes = [table.index(v) if v is not None else -1 for _, v in cells]
            bulk.write(attribute, tids, codes, table)
        assert bulk == one_by_one == Dataset(SCHEMA, expected)


class TestCopies:
    @settings(max_examples=40, deadline=None)
    @given(rows=ROWS.filter(len), edits=EDITS)
    def test_copy_is_independent(self, rows, edits):
        original = Dataset(SCHEMA, rows)
        clone = original.copy()
        expected, _ = apply_edits(rows, edits)
        for k, position, value in edits:
            clone.set_value(k % len(rows), NAMES[position], value)
        assert original == Dataset(SCHEMA, rows)
        assert clone == Dataset(SCHEMA, expected)
        original.set_value(0, "A", "only-in-the-original")
        assert clone.value(0, "A") == expected[0][0]

    def test_store_is_a_snapshot(self):
        dataset = Dataset(SCHEMA, [["x", "y", "z"], ["x", None, "z"]])
        store = ColumnStore(dataset)
        codes, values = store.codes("A").copy(), list(store.values("A"))
        dataset.set_value(1, "A", "new")
        assert store.codes("A").tolist() == codes.tolist()
        assert store.values("A") == values
        assert ColumnStore(dataset).values("A") == ["x", "new"]

    def test_pickle_holds_columns_only(self):
        dataset = Dataset(SCHEMA, [["x", "y", "z"], ["x", None, "z"]])
        dataset.row_ref(0)  # builds the row cache, which is not state
        dataset.set_value(1, "B", "q")
        back = pickle.loads(pickle.dumps(dataset))
        assert back._row_cache is None
        assert back == dataset
        assert back.row_ref(1) == ["x", "q", "z"]
