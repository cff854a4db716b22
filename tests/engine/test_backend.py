"""The NumPy executor and its SQL rendering must agree byte-for-byte."""

import numpy as np
import pytest

from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.engine import Backend, Engine
from repro.engine.store import ColumnStore
from tests.engine.sqlite_backend import SQLiteBackend


@pytest.fixture
def dataset() -> Dataset:
    return Dataset(
        Schema(["Zip", "City", "State"]),
        [
            ["60608", "Chicago", "IL"],
            ["60608", "Chicago", "IL"],
            ["60608", "Cicago", "IL"],
            ["02134", "Boston", "MA"],
            [None, "Boston", "MA"],
            ["02134", None, "MA"],
            ["60601", "Chicago", "IL"],
        ],
    )


@pytest.fixture
def backends(dataset):
    store = ColumnStore(dataset)
    return Backend(store), SQLiteBackend(store)


class TestAgreement:
    def test_value_counts_agree(self, dataset, backends):
        np_be, sql_be = backends
        for attr in dataset.schema.names:
            assert np.array_equal(
                np_be.value_counts(attr), sql_be.value_counts(attr)
            ), attr

    def test_pair_value_counts_agree(self, dataset, backends):
        np_be, sql_be = backends
        names = dataset.schema.names
        for a in names:
            for b in names:
                if a == b:
                    continue
                assert np.array_equal(
                    np_be.pair_value_counts(a, b), sql_be.pair_value_counts(a, b)
                ), (a, b)

    def test_symmetric_join_pairs_agree(self, backends):
        np_be, sql_be = backends
        for attrs in (
            [("Zip", "Zip")],
            [("City", "City")],
            [("Zip", "Zip"), ("City", "City")],
        ):
            np_pairs = np_be.join_pairs(attrs)
            sql_pairs = sql_be.join_pairs(attrs)
            assert np.array_equal(np_pairs[0], sql_pairs[0]), attrs
            assert np.array_equal(np_pairs[1], sql_pairs[1]), attrs

    def test_asymmetric_join_pairs_agree(self, backends):
        np_be, sql_be = backends
        for attrs in (
            [("Zip", "City")],
            [("City", "State")],
            [("Zip", "City"), ("City", "Zip")],
        ):
            np_pairs = np_be.join_pairs(attrs)
            sql_pairs = sql_be.join_pairs(attrs)
            assert np.array_equal(np_pairs[0], sql_pairs[0]), attrs
            assert np.array_equal(np_pairs[1], sql_pairs[1]), attrs


class TestSemantics:
    def test_symmetric_pairs_skip_null_keys(self, backends):
        for backend in backends:
            left, right = backend.join_pairs([("Zip", "Zip")])
            pairs = set(zip(left.tolist(), right.tolist()))
            # Row 4 has a NULL zip: it must never join.
            assert all(4 not in pair for pair in pairs)
            assert (0, 1) in pairs and (3, 5) in pairs

    def test_counts_exclude_nulls(self, backends):
        for backend in backends:
            counts = backend.value_counts("Zip")
            assert int(counts.sum()) == 6  # 7 rows, one NULL


class TestEngineFacade:
    def test_lazy_build_and_refresh(self, dataset):
        engine = Engine(dataset)
        store = engine.store
        assert engine.store is store  # cached
        engine.refresh()
        assert engine.store is not store  # re-encoded

    def test_statistics_shared_instance(self, dataset):
        engine = Engine(dataset)
        assert engine.statistics() is engine.statistics()

    @pytest.mark.parametrize("options", [{}, {"backend": SQLiteBackend}])
    def test_close_then_reuse_rebuilds_backend(self, dataset, options):
        # close() used to leave the dead backend cached: the next kernel
        # call died with "Cannot operate on a closed database".
        engine = Engine(dataset, **options)
        before = {a: engine.backend.value_counts(a) for a in dataset.schema.names}
        closed = engine.backend
        engine.close()
        try:
            assert engine.backend is not closed
            for attr, counts in before.items():
                assert np.array_equal(engine.backend.value_counts(attr), counts)
        finally:
            engine.close()
