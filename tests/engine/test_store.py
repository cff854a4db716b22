"""Tests for the columnar store's dictionary encoding."""

import numpy as np
import pytest

from repro.dataset.dataset import NULL_CODE, Dataset
from repro.dataset.schema import Schema
from repro.engine.store import ColumnStore


@pytest.fixture
def store(tiny_dataset) -> ColumnStore:
    return ColumnStore(tiny_dataset)


class TestEncoding:
    def test_codes_roundtrip(self, tiny_dataset, store):
        for attr in tiny_dataset.schema.names:
            decoded = store.decoded_column(attr)
            expected = [tiny_dataset.value(tid, attr)
                        for tid in tiny_dataset.tuple_ids]
            assert decoded == expected

    def test_null_encodes_to_sentinel(self, store):
        assert store.codes("C")[3] == NULL_CODE
        assert store.decode("C", NULL_CODE) is None

    def test_codes_are_first_seen_order(self, tiny_dataset, store):
        # The dictionary order must match Dataset.active_domain (first-seen).
        for attr in tiny_dataset.schema.names:
            assert store.values(attr) == tiny_dataset.active_domain(attr)

    def test_cardinality(self, store):
        assert store.cardinality("A") == 2
        assert store.cardinality("B") == 3
        assert store.cardinality("C") == 2

    def test_dtype_and_shape(self, tiny_dataset, store):
        for attr in tiny_dataset.schema.names:
            col = store.codes(attr)
            assert col.dtype == np.int32
            assert len(col) == tiny_dataset.num_tuples


class TestStoreSpace:
    def test_equal_values_get_equal_codes(self):
        ds = Dataset(Schema(["X", "Y"]), [
            ["a", "b"], ["b", "a"], ["c", None], ["a", "a"],
        ])
        space = ColumnStore(ds).space("X", "Y")
        sx, sy = space.fixed("X"), space.fixed("Y")
        # Row 3 has X == Y == "a": codes must coincide.
        assert sx[3] == sy[3]
        # Row 0: "a" vs "b" must differ; cross rows: X[0]=="a" == Y[1].
        assert sx[0] != sy[0]
        assert sx[0] == sy[1]
        # One codebook, X's values first: code i decodes to values[i].
        assert space.values == ["a", "b", "c"]
        assert [space.values[c] for c in sy[[0, 1, 3]]] == ["b", "a", "a"]
        # NULL stays the sentinel.
        assert sy[2] == NULL_CODE

    def test_single_attribute_is_the_store_code_space(self, store):
        space = store.space("A", "A")
        assert space.fixed("A") is store.codes("A")
        assert space.values is store.values("A")

    def test_both_argument_orders_give_one_space(self):
        ds = Dataset(Schema(["X", "Y"]), [["a", "b"], ["b", "a"]])
        store = ColumnStore(ds)
        xy = store.space("X", "Y")
        assert store.space("Y", "X") is xy
        assert xy.attributes == ("X", "Y")


class TestSnapshotSemantics:
    def test_store_is_a_snapshot(self, tiny_dataset):
        store = ColumnStore(tiny_dataset)
        before = store.decoded_column("A")
        tiny_dataset.set_value(0, "A", "mutated")
        assert store.decoded_column("A") == before
