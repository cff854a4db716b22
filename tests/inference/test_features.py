"""Tests for the feature space and CSR feature matrix."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_add_rows_matches_sequential_adds(self):
        def sequential():
            builder = FeatureMatrixBuilder(FeatureSpace())
            builder.start_variable(2)
            builder.start_variable(3)
            builder.add(0, 0, "a", 1.0)
            builder.add(0, 1, "b", 2.0)
            builder.add(1, 2, "a", 3.0)
            builder.add(0, 1, "c", 4.0)  # second entry of the same row
            return builder

        space = FeatureSpace()
        batched = FeatureMatrixBuilder(space)
        batched.start_variables([2, 3])
        rows = batched.var_row_start[[0, 0, 1, 0]] + np.array([0, 1, 2, 1])
        keys = np.array([space.index(k) for k in ["a", "b", "a", "c"]])
        batched.add_rows(rows, keys, np.array([1.0, 2.0, 3.0, 4.0]))
        reference = sequential()
        want = reference.build()
        got = batched.build()
        assert reference.space._keys == batched.space._keys
        assert np.array_equal(got.row_ptr, want.row_ptr)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.values, want.values)

    def test_one_chunk_builds_without_concatenating(self, monkeypatch):
        # The vectorized featurizer hands in one batch: copying it before
        # the sort added four entry-sized arrays to the compile stage's
        # memory peak.  The caller's arrays are read, never reordered.
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        builder.start_variable(2)
        values = np.array([1.0, 2.0])
        keys = np.array([space.index("a"), space.index("b")])
        builder.add_rows(builder.var_row_start[[0, 0]] + [1, 0], keys, values)

        def refuse(*args, **kwargs):
            raise AssertionError("one chunk was concatenated")

        monkeypatch.setattr(np, "concatenate", refuse)
        matrix = builder.build()
        assert matrix.indices.tolist() == [1, 0]
        assert matrix.values.tolist() == [2.0, 1.0]
        assert values.tolist() == [1.0, 2.0]

    def test_add_rows_interleaves_with_add_chronologically(self):
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        builder.start_variable(1)
        builder.add(0, 0, "a", 1.0)
        builder.add_rows(np.array([0]), np.array([space.index("b")]), [2.0])
        builder.add(0, 0, "c", 3.0)
        matrix = builder.build()
        # One row, entries in insertion order across both mechanisms.
        wanted = [space.index("a"), space.index("b"), space.index("c")]
        assert matrix.indices.tolist() == wanted
        assert matrix.values.tolist() == [1.0, 2.0, 3.0]

    def test_add_rows_empty_is_noop(self):
        builder = FeatureMatrixBuilder(FeatureSpace())
        builder.start_variable(2)
        empty = np.array([], dtype=np.int64)
        builder.add_rows(empty, empty, np.array([], dtype=np.float64))
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


KEYS = ["a", "b", "c", "d"]


@st.composite
def hand_ins(draw):
    """Variable sizes and a sequence of builder calls over them.

    Each call is ``(method, entries)`` with entries ``(var, candidate, key
    index, value)``: ``add`` per entry with hashable keys, ``add_rows`` with
    rows from ``var_row_start`` in the drawn order (sorted or not, empty
    allowed).  A small key and value pool repeats (row, key) pairs; rows
    may get none.
    """
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=6))
    entry = st.integers(0, len(sizes) - 1).flatmap(
        lambda var: st.tuples(
            st.just(var),
            st.integers(0, sizes[var] - 1),
            st.integers(0, len(KEYS) - 1),
            st.sampled_from([0.25, 0.5, 1.0, -2.0, 3.0]),
        )
    )
    calls = st.tuples(
        st.sampled_from(["add", "add_rows", "add_rows_sorted"]),
        st.lists(entry, max_size=12),
    )
    return sizes, draw(st.lists(calls, max_size=6))


def reference_build(sizes, entries):
    """The layout a stable sort of every entry by row gives."""
    start = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=start[1:])
    if entries:
        var, cand, key, value = (np.array(column) for column in zip(*entries))
    else:
        var = cand = key = np.empty(0, dtype=np.int64)
        value = np.empty(0, dtype=np.float64)
    rows = start[var.astype(np.int64)] + cand.astype(np.int64)
    order = np.argsort(rows, kind="stable")
    row_ptr = np.zeros(start[-1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=start[-1]), out=row_ptr[1:])
    return {
        "var_row_start": start,
        "indices": key.astype(np.int64)[order],
        "values": value.astype(np.float64)[order],
        "row_ptr": row_ptr,
    }


@given(hand_ins())
@settings(max_examples=150, deadline=None)
def test_counting_sort_build_equals_a_stable_sort_by_row(case):
    sizes, calls = case
    space = FeatureSpace()
    for key in KEYS:
        space.index(key)
    builder = FeatureMatrixBuilder(space)
    builder.start_variables(sizes)
    entries = []
    for method, chunk in calls:
        if method == "add_rows_sorted":
            chunk = sorted(chunk, key=lambda e: builder.var_row_start[e[0]] + e[1])
        entries += chunk
        var, cand, key, value = (list(c) for c in zip(*chunk)) if chunk else [[]] * 4
        if method == "add":
            for args in zip(var, cand, (KEYS[k] for k in key), value):
                builder.add(*args)
        else:
            rows = builder.var_row_start[np.array(var, dtype=np.int64)]
            builder.add_rows(rows + np.array(cand, dtype=np.int64), key, value)
    matrix = builder.build()
    for name, want in reference_build(sizes, entries).items():
        got = getattr(matrix, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert matrix.num_features == len(KEYS)


class TestAddRows:
    def test_validates(self):
        space = FeatureSpace()
        space.index("a")
        builder = FeatureMatrixBuilder(space)
        builder.start_variables([2, 1])
        with pytest.raises(ValueError, match="align"):
            builder.add_rows(np.array([0, 1]), np.array([0]), np.array([1.0]))
        with pytest.raises(IndexError, match="row"):
            builder.add_rows(np.array([3]), np.array([0]), np.array([1.0]))
        with pytest.raises(IndexError, match="feature index"):
            builder.add_rows(np.array([0]), np.array([1]), np.array([1.0]))
        assert builder.build().num_entries == 0

    def test_chunks_are_read_in_place(self):
        # A chunk is scattered once into the matrix's arrays: the caller's
        # arrays are neither copied into the builder nor reordered.
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        builder.start_variables([2, 2])
        keys = np.array([space.index("a"), space.index("b"), space.index("a")])
        rows, values = np.array([3, 0, 1]), np.array([1.0, 2.0, 3.0])
        builder.add_rows(rows, keys, values)
        assert builder._chunks[0][0] is rows and builder._chunks[0][2] is values
        matrix = builder.build()
        assert matrix.row_ptr.tolist() == [0, 1, 2, 2, 3]
        assert matrix.indices.tolist() == [1, 0, 0]
        assert matrix.values.tolist() == [2.0, 3.0, 1.0]
        assert rows.tolist() == [3, 0, 1] and values.tolist() == [1.0, 2.0, 3.0]
