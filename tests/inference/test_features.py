"""Tests for the feature space and CSR feature matrix."""

import pickle

import numpy as np
import pytest

from repro.inference.features import FeatureMatrixBuilder, FeatureSpace


class TestFeatureSpace:
    def test_index_allocates_sequentially(self):
        space = FeatureSpace()
        assert space.index("a") == 0
        assert space.index("b") == 1
        assert space.index("a") == 0
        assert len(space) == 2

    def test_key_lookup(self):
        space = FeatureSpace()
        space.index(("cooc", "City"))
        assert space.key(0) == ("cooc", "City")

    def test_get_returns_none_for_unknown(self):
        assert FeatureSpace().get("missing") is None

    def test_freeze_blocks_new_keys(self):
        space = FeatureSpace()
        space.index("a")
        space.freeze()
        assert space.index("a") == 0  # existing keys still fine
        with pytest.raises(KeyError, match="frozen"):
            space.index("new")

    def test_fixed_weights(self):
        space = FeatureSpace()
        idx = space.set_fixed(("minimality",), 1.5)
        assert space.fixed_weights == {idx: 1.5}

    def test_contains(self):
        space = FeatureSpace()
        space.index("a")
        assert "a" in space and "b" not in space


class TestFeatureMatrixBuilder:
    def test_variable_registration(self):
        builder = FeatureMatrixBuilder(FeatureSpace())
        assert builder.start_variable(3) == 0
        assert builder.start_variable(2) == 1
        assert builder.num_vars == 2

    def test_zero_candidates_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            FeatureMatrixBuilder(FeatureSpace()).start_variable(0)

    def test_candidate_bounds_checked(self):
        builder = FeatureMatrixBuilder(FeatureSpace())
        v = builder.start_variable(2)
        with pytest.raises(IndexError):
            builder.add(v, 2, "f", 1.0)

    def test_add_entries_matches_sequential_adds(self):
        def sequential():
            builder = FeatureMatrixBuilder(FeatureSpace())
            builder.start_variable(2)
            builder.start_variable(3)
            builder.add(0, 0, "a", 1.0)
            builder.add(0, 1, "b", 2.0)
            builder.add(1, 2, "a", 3.0)
            builder.add(0, 1, "c", 4.0)  # second entry of the same row
            return builder

        batched = FeatureMatrixBuilder(FeatureSpace())
        batched.start_variable(2)
        batched.start_variable(3)
        var_ids = np.array([0, 0, 1, 0])
        cand_idx = np.array([0, 1, 2, 1])
        values = np.array([1.0, 2.0, 3.0, 4.0])
        batched.add_entries(var_ids, cand_idx, ["a", "b", "a", "c"], values)
        reference = sequential()
        want = reference.build()
        got = batched.build()
        assert reference.space._keys == batched.space._keys
        assert np.array_equal(got.row_ptr, want.row_ptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.values, want.values)

    def test_add_entries_accepts_resolved_indices(self):
        space = FeatureSpace()
        ka, kb = space.index("a"), space.index("b")
        builder = FeatureMatrixBuilder(space)
        builder.start_variable(2)
        keys = np.array([kb, ka])
        builder.add_entries(np.array([0, 0]), np.array([0, 1]), keys, [1.0, 2.0])
        matrix = builder.build()
        assert matrix.indices.tolist() == [kb, ka]
        assert matrix.values.tolist() == [1.0, 2.0]

    def test_one_chunk_builds_without_concatenating(self, monkeypatch):
        # The vectorized featurizer hands in one batch: copying it before
        # the sort added four entry-sized arrays to the compile stage's
        # memory peak.  The caller's arrays are read, never reordered.
        builder = FeatureMatrixBuilder(FeatureSpace())
        builder.start_variable(2)
        values = np.array([1.0, 2.0])
        builder.add_entries(np.array([0, 0]), np.array([1, 0]), ["a", "b"], values)

        def refuse(*args, **kwargs):
            raise AssertionError("one chunk was concatenated")

        monkeypatch.setattr(np, "concatenate", refuse)
        matrix = builder.build()
        assert matrix.indices.tolist() == [1, 0]
        assert matrix.values.tolist() == [2.0, 1.0]
        assert values.tolist() == [1.0, 2.0]

    def test_add_entries_interleaves_with_add_chronologically(self):
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        builder.start_variable(1)
        builder.add(0, 0, "a", 1.0)
        builder.add_entries(np.array([0]), np.array([0]), ["b"], [2.0])
        builder.add(0, 0, "c", 3.0)
        matrix = builder.build()
        # One row, entries in insertion order across both mechanisms.
        wanted = [space.index("a"), space.index("b"), space.index("c")]
        assert matrix.indices.tolist() == wanted
        assert matrix.values.tolist() == [1.0, 2.0, 3.0]

    def test_add_entries_validates(self):
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        builder.start_variable(2)
        with pytest.raises(IndexError):
            builder.add_entries(np.array([0]), np.array([2]), ["a"], [1.0])
        with pytest.raises(IndexError):  # unallocated feature index
            builder.add_entries(np.array([0]), np.array([0]), np.array([5]), [1.0])
        with pytest.raises(ValueError, match="align"):
            builder.add_entries(np.array([0, 0]), np.array([0]), ["a"], [1.0])

    def test_add_entries_empty_is_noop(self):
        builder = FeatureMatrixBuilder(FeatureSpace())
        builder.start_variable(2)
        empty = np.array([], dtype=np.int64)
        builder.add_entries(empty, empty, [], np.array([], dtype=np.float64))
        matrix = builder.build()
        assert matrix.num_entries == 0
        assert matrix.num_rows == 2

    def test_build_layout(self):
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        v0 = builder.start_variable(2)
        v1 = builder.start_variable(3)
        builder.add(v0, 0, "f0", 1.0)
        builder.add(v1, 2, "f1", 0.5)
        m = builder.build()
        assert m.num_vars == 2
        assert m.num_rows == 5
        assert list(m.var_row_start) == [0, 2, 5]
        assert m.num_entries == 2

    def test_scores_match_manual_dot_product(self):
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        v = builder.start_variable(2)
        builder.add(v, 0, "f0", 2.0)
        builder.add(v, 0, "f1", 1.0)
        builder.add(v, 1, "f1", 3.0)
        m = builder.build()
        w = np.array([0.5, -1.0])
        scores = m.scores(w)
        assert scores[0] == pytest.approx(2.0 * 0.5 + 1.0 * -1.0)
        assert scores[1] == pytest.approx(3.0 * -1.0)

    def test_scores_handle_empty_rows(self):
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        v = builder.start_variable(3)
        builder.add(v, 1, "f", 1.0)
        m = builder.build()
        scores = m.scores(np.array([2.0]))
        assert list(scores) == [0.0, 2.0, 0.0]

    def test_scores_reject_wrong_weight_length(self):
        builder = FeatureMatrixBuilder(FeatureSpace())
        v = builder.start_variable(1)
        builder.add(v, 0, "f", 1.0)
        m = builder.build()
        with pytest.raises(ValueError, match="feature space has"):
            m.scores(np.zeros(5))

    def test_var_scores_agree_with_global(self):
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        v0 = builder.start_variable(2)
        v1 = builder.start_variable(2)
        builder.add(v0, 1, "a", 1.0)
        builder.add(v1, 0, "b", 2.0)
        m = builder.build()
        w = np.array([1.5, 0.25])
        global_scores = m.scores(w)
        assert list(m.scores_for_rows(np.arange(2, 4), w)) == list(global_scores[2:4])

    def test_entry_row_ids(self):
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        v = builder.start_variable(2)
        builder.add(v, 0, "a", 1.0)
        builder.add(v, 1, "b", 1.0)
        builder.add(v, 1, "c", 1.0)
        m = builder.build()
        assert list(m.entry_row_ids()) == [0, 1, 1]

    def test_entries_of_follows_the_given_row_order(self):
        builder = FeatureMatrixBuilder(FeatureSpace())
        v = builder.start_variable(3)
        builder.add(v, 0, "a", 1.0)
        builder.add(v, 2, "b", 2.0)
        builder.add(v, 2, "c", 3.0)
        m = builder.build()
        source, position = m.entries_of(np.array([2, 1, 0]))
        assert source.tolist() == [1, 2, 0]
        assert position.tolist() == [0, 0, 2]

    def test_repeated_row_key_means_the_sum(self):
        # Production featurizers emit one entry per (row, key); a matrix
        # with a repeat (older checkpoints hold them) scores it as the sum.
        builder = FeatureMatrixBuilder(FeatureSpace())
        v = builder.start_variable(2)
        builder.add(v, 1, "f", 0.25)
        builder.add(v, 1, "f", 0.5)
        m = builder.build()
        assert m.num_entries == 2
        assert m.scores(np.array([2.0])).tolist() == [0.0, 1.5]

    def test_entryless_matrix_scores_float_zeros(self):
        # One-candidate variables carry no entries, so a matrix can be
        # empty; np.bincount counts in integers on empty input.
        builder = FeatureMatrixBuilder(FeatureSpace())
        builder.start_variables([1, 1])
        m = builder.build()
        for scores in (
            m.scores(np.zeros(0)),
            m.scores_for_rows(np.array([1, 0]), np.zeros(0)),
        ):
            assert scores.dtype == np.float64 and not scores.any()

    def test_stores_nothing_entry_sized_beside_indices_and_values(self):
        # What a checkpoint pickles: scoring must not cache row ids on it.
        builder = FeatureMatrixBuilder(FeatureSpace())
        v = builder.start_variable(2)
        builder.add(v, 0, "a", 1.0)
        m = builder.build()
        m.scores(np.ones(1))
        m.entry_row_ids()
        assert sorted(vars(m)) == [
            "indices",
            "num_features",
            "row_ptr",
            "values",
            "var_row_start",
        ]

    def test_matrix_pickled_with_cached_row_ids_still_loads(self):
        # Format-2 checkpoints written before the cache was deleted carry
        # a ``_row_ids`` array (and repeated (row, key) entries) in the
        # pickled state; both are ignored or summed, never an error.
        builder = FeatureMatrixBuilder(FeatureSpace())
        v = builder.start_variable(2)
        builder.add(v, 1, "f", 0.25)
        builder.add(v, 1, "f", 0.5)
        m = builder.build()
        m._row_ids = m.entry_row_ids()
        loaded = pickle.loads(pickle.dumps(m))
        assert loaded.scores(np.array([2.0])).tolist() == [0.0, 1.5]
