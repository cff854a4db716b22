"""Tests for the vectorized relational primitives."""

import numpy as np
import pytest

from repro.engine import ops


def brute_force_intra_pairs(keys):
    """Reference: naive bucket join (first-seen bucket order, i<j pairs)."""
    buckets = {}
    for row, key in enumerate(keys):
        if key >= 0:
            buckets.setdefault(key, []).append(row)
    out = []
    for members in buckets.values():
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                out.append((members[i], members[j]))
    return out


class TestCombineCodes:
    def test_single_column_passthrough(self):
        col = np.array([0, 2, -1, 1])
        combined = ops.combine_codes([col])
        assert combined.tolist() == [0, 2, -1, 1]

    def test_any_null_component_nullifies_key(self):
        a = np.array([0, 0, -1, 1])
        b = np.array([1, -1, 0, 1])
        combined = ops.combine_codes([a, b])
        assert combined[1] == -1
        assert combined[2] == -1
        assert combined[0] >= 0 and combined[3] >= 0

    def test_equal_rows_equal_keys(self):
        a = np.array([0, 1, 0, 1])
        b = np.array([2, 2, 2, 3])
        combined = ops.combine_codes([a, b])
        assert combined[0] == combined[2]
        assert len({combined[0], combined[1], combined[3]}) == 3

    def test_empty_input_raises(self):
        with pytest.raises(ValueError):
            ops.combine_codes([])


class TestCombineCodesPairwise:
    def test_cross_side_equality(self):
        c1 = [np.array([0, 1, 2]), np.array([5, 5, 5])]
        c2 = [np.array([1, 0, 2]), np.array([5, 5, 6])]
        k1, k2 = ops.combine_codes_pairwise(c1, c2)
        # Row composites: side1 = (0,5),(1,5),(2,5); side2 = (1,5),(0,5),(2,6).
        assert k1[0] == k2[1]
        assert k1[1] == k2[0]
        assert k1[2] != k2[2]

    def test_mismatched_arity_raises(self):
        with pytest.raises(ValueError):
            ops.combine_codes_pairwise([np.array([0])], [])


class TestCounts:
    def test_value_counts_skips_nulls(self):
        codes = np.array([0, 1, 1, -1, 2, 1])
        assert ops.value_counts(codes, 4).tolist() == [1, 3, 1, 0]

    def test_pair_code_counts(self):
        a = np.array([0, 0, 1, 0, -1])
        b = np.array([1, 1, 0, -1, 0])
        rows = ops.pair_code_counts(a, b, cardinality_b=2)
        assert rows.tolist() == [[0, 1, 2], [1, 0, 1]]

    def test_pair_code_counts_empty(self):
        rows = ops.pair_code_counts(np.array([-1]), np.array([0]), 1)
        assert rows.shape == (0, 3)


def walk_pairs(keys, budget):
    """A symmetric join of ``keys`` through the bounded bucket walk: its
    pairs concatenated, and the size of each chunk."""
    keys = np.asarray(keys, dtype=np.int64)
    rows = np.flatnonzero(keys >= 0)
    bucket_ids, member_tids = ops.bucket_memberships(keys[rows], rows)
    pairs, sizes = [], []
    for chunk in ops.bucket_chunks(bucket_ids, member_tids, budget,
                                   ops.bucket_pairs):
        left, right = chunk()
        sizes.append(len(left))
        pairs += zip(left.tolist(), right.tolist())
    return pairs, sizes


class TestBucketChunks:
    @pytest.mark.parametrize("budget", [1, 2, 3, 7, 65_536])
    def test_matches_brute_force_order(self, budget):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(0, 40))
            keys = rng.integers(-1, 5, size=n)
            pairs, sizes = walk_pairs(keys, budget)
            assert pairs == brute_force_intra_pairs(keys.tolist())
            # Only a single leading member may open more than the budget.
            assert all(size <= max(budget, n - 1) for size in sizes)

    def test_all_null_yields_nothing(self):
        assert walk_pairs([-1, -1, -1], 4) == ([], [])

    def test_runs_are_maximal_and_oversized_items_stand_alone(self):
        weights = np.array([2, 0, 3, 9, 1, 1, 0, 5])
        assert list(ops.bounded_runs(weights, 5)) == [
            (0, 3), (3, 4), (4, 7), (7, 8)]
        assert list(ops.bounded_runs(np.array([], dtype=np.int64), 5)) == []


class TestMatchingPairs:
    @staticmethod
    def brute_force(key1, key2):
        """Reference: the naive asymmetric probe with back-edge dedup."""
        buckets = {}
        for row, key in enumerate(key2):
            if key >= 0:
                buckets.setdefault(key, []).append(row)
        out = []
        for a, key in enumerate(key1):
            if key < 0:
                continue
            for b in buckets.get(key, ()):
                if b > a:
                    out.append((a, b))
                elif b < a and key1[b] != key1[a]:
                    out.append((a, b))
        return out

    def test_matches_naive_probe_with_dedup(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(0, 30))
            key1 = rng.integers(-1, 4, size=n)
            key2 = rng.integers(-1, 4, size=n)
            left, right = ops.matching_pairs(key1, key2)
            left, right = ops.dedup_ordered_pairs(left, right, key1)
            assert list(zip(left.tolist(), right.tolist())) == \
                self.brute_force(key1.tolist(), key2.tolist())

    def test_no_self_pairs(self):
        key = np.array([0, 0, 0])
        left, right = ops.matching_pairs(key, key)
        assert not np.any(left == right)


class TestSortSearchSetOps:
    """``np.unique`` / ``np.isin`` answers without importing ``numpy.ma``."""

    @pytest.mark.parametrize("seed", range(5))
    def test_against_numpy(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.integers(-5, 40, size=rng.integers(0, 60))
        keys = rng.integers(-5, 40, size=rng.integers(0, 30))
        np.testing.assert_array_equal(ops.sorted_unique(values), np.unique(values))
        np.testing.assert_array_equal(ops.member_mask(values, keys),
                                      np.isin(values, keys))
        assert ops.sorted_unique(values).dtype == values.dtype
