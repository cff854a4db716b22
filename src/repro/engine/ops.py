"""Vectorized relational primitives over coded columns.

These are the building blocks of the engine's DeepDive-style grounding
queries: composite-key encoding, group-by pair enumeration (the self-join
``Tuple(t1), Tuple(t2)`` restricted to equal join keys), ordered hash
joins for asymmetric keys, and frequency / co-occurrence counting.

All functions operate on integer code arrays where ``-1`` encodes NULL;
rows whose key contains a NULL never join (a missing value cannot witness
a violation).  Pair enumeration reproduces the *exact* pair order of the
naive hash join in :mod:`repro.oracle.violations` so that engine-produced
violation lists are byte-identical to the oracle's, and the bounded
walks (:func:`bucket_chunks`, :func:`bounded_runs`) cut that order into
chunks without reordering it.
"""

from __future__ import annotations

from functools import partial

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


# A bare ``np.unique(x)`` or a large ``np.isin`` imports ``numpy.ma`` on
# NumPy 2.x (≈ 14-20 ms and ≈ 1 MB, once per process); these two are the
# same answers from a sort and a binary search.
def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` of a 1-d array: its distinct values, sorted."""
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def member_mask(values: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``np.isin(values, keys)``: which ``values`` occur among ``keys``."""
    keys = np.sort(keys)
    if not len(keys):
        return np.zeros(len(values), dtype=bool)
    at = np.minimum(np.searchsorted(keys, values), len(keys) - 1)
    return keys[at] == values


def segment_positions(counts: np.ndarray) -> np.ndarray:
    """``0 .. counts[k]-1`` within each segment, concatenated.

    The companion of :func:`expand_ranges`: where that flattens *where*
    each segment's elements live, this numbers them *within* their
    segment — the candidate-index axis of a CSR expansion, or the
    position-in-bucket counter of a bounded bucket walk.
    """
    counts = np.asarray(counts, dtype=np.int64)
    total = int(counts.sum())
    if total == 0:
        return _EMPTY
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


def expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The concatenation of ``[starts[k], starts[k] + counts[k])`` ranges.

    The shared kernel of every variable-width gather in the engine:
    expanding CSR rows, hash-join probe buckets, and sparse-matrix row
    slices all reduce to "for each ``k``, the ``counts[k]`` consecutive
    indices from ``starts[k]``" — :func:`segment_positions` offset by
    each segment's start, with no Python loop.
    """
    starts = np.asarray(starts, dtype=np.int64)
    counts = np.asarray(counts, dtype=np.int64)
    within = segment_positions(counts)
    if not len(within):
        return _EMPTY
    return np.repeat(starts, counts) + within


def take_csr(indptr: np.ndarray, codes: np.ndarray,
             rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of the CSR ``(indptr, codes)``, as a CSR of their own."""
    rows = np.asarray(rows, dtype=np.int64)
    sizes = indptr[rows + 1] - indptr[rows]
    return (np.concatenate(([0], np.cumsum(sizes))),
            codes[expand_ranges(indptr[rows], sizes)])


def merge_csr(indptr1: np.ndarray, codes1: np.ndarray, indptr2: np.ndarray,
              codes2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise concatenation of two CSRs: row ``i`` lists the first's
    codes of row ``i``, then the second's."""
    counts1, counts2 = np.diff(indptr1), np.diff(indptr2)
    indptr = np.concatenate(([0], np.cumsum(counts1 + counts2)))
    codes = np.empty(int(indptr[-1]), dtype=np.int64)
    codes[expand_ranges(indptr[:-1], counts1)] = codes1
    codes[expand_ranges(indptr[:-1] + counts1, counts2)] = codes2
    return indptr, codes


def csr_positions(indptr: np.ndarray, codes: np.ndarray,
                  targets: np.ndarray) -> np.ndarray:
    """Position of ``targets[i]`` in row ``i`` of the CSR (``-1``: absent)."""
    sizes = np.diff(indptr)
    hit = np.flatnonzero(codes == np.repeat(targets, sizes))
    out = np.full(len(sizes), -1, dtype=np.int64)
    out[np.repeat(np.arange(len(sizes)), sizes)[hit]] = segment_positions(sizes)[hit]
    return out


def combine_codes(columns: list[np.ndarray]) -> np.ndarray:
    """Collapse several coded columns into one composite key column.

    Rows where any component is NULL (``< 0``) get key ``-1``.  Composite
    keys are dense group ids (via :func:`numpy.unique`), so they are safe
    from overflow regardless of per-column cardinalities.
    """
    if not columns:
        raise ValueError("need at least one column to combine")
    cols = [np.asarray(c, dtype=np.int64) for c in columns]
    valid = cols[0] >= 0
    for col in cols[1:]:
        valid &= col >= 0
    out = np.full(len(cols[0]), -1, dtype=np.int64)
    if len(cols) == 1:
        out[valid] = cols[0][valid]
        return out
    stacked = np.stack([c[valid] for c in cols], axis=1)
    if len(stacked):
        _, inverse = np.unique(stacked, axis=0, return_inverse=True)
        out[valid] = inverse
    return out


def value_counts(codes: np.ndarray, cardinality: int) -> np.ndarray:
    """Occurrences per code (NULLs excluded), as a dense array."""
    valid = codes[codes >= 0]
    return np.bincount(valid, minlength=cardinality)


def pair_code_counts(codes_a: np.ndarray, codes_b: np.ndarray,
                     cardinality_b: int) -> np.ndarray:
    """Co-occurrence counts of two coded columns.

    Returns an ``(k, 3)`` array of ``[code_a, code_b, count]`` rows for
    every pair appearing at least once, sorted by ``(code_a, code_b)``.
    Rows where either side is NULL are ignored.
    """
    valid = (codes_a >= 0) & (codes_b >= 0)
    a = codes_a[valid].astype(np.int64)
    b = codes_b[valid].astype(np.int64)
    if not len(a):
        return np.empty((0, 3), dtype=np.int64)
    # unique-sort, not bincount: memory stays O(rows) even when both
    # attributes are near-unique (cardinality_a x cardinality_b huge).
    joint = a * cardinality_b + b
    present, counts = np.unique(joint, return_counts=True)
    return np.column_stack((present // cardinality_b,
                            present % cardinality_b,
                            counts))


def combine_codes_pairwise(columns1: list[np.ndarray],
                           columns2: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Composite keys for two column lists over one shared dictionary.

    ``combine_codes`` applied to each side separately would assign
    unrelated group ids; here both sides' rows are pooled before the
    :func:`numpy.unique` pass so ``key1[a] == key2[b]`` iff all components
    are pairwise equal.  Each per-position column pair must already share
    a code space (see :meth:`ColumnStore.shared_codes`).
    """
    if len(columns1) != len(columns2):
        raise ValueError("both sides must have the same number of columns")
    if len(columns1) == 1:
        # Single column: the shared codes are already valid keys (NULL is
        # exactly -1, matching the composite-key convention).
        return (np.asarray(columns1[0], dtype=np.int64),
                np.asarray(columns2[0], dtype=np.int64))
    pooled = [np.concatenate((np.asarray(c1, dtype=np.int64),
                              np.asarray(c2, dtype=np.int64)))
              for c1, c2 in zip(columns1, columns2)]
    combined = combine_codes(pooled)
    n = len(columns1[0])
    return combined[:n], combined[n:]


# ---------------------------------------------------------------------------
# Pair enumeration
# ---------------------------------------------------------------------------
def _expand_contiguous_pairs(values: np.ndarray, starts: np.ndarray,
                             sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nested-loop ``(i, j)`` pairs within each contiguous run of ``values``.

    The shared kernel of the symmetric joins: for every run
    ``values[starts[g]:starts[g] + sizes[g]]``, emits all ``i < j``
    position pairs in nested-loop order, runs in order.
    """
    n = len(values)
    boundary = np.zeros(n, dtype=bool)
    boundary[starts] = True
    group_index = np.cumsum(boundary) - 1           # group id per position
    ends = (starts + sizes)[group_index]            # exclusive end per position
    partners = ends - np.arange(n) - 1              # pairs each position opens
    if not partners.sum():
        return _EMPTY, _EMPTY
    positions = expand_ranges(np.arange(1, n + 1), partners)
    return np.repeat(values, partners), values[positions]


def probe_counts(key1: np.ndarray, key2: np.ndarray) -> np.ndarray:
    """Per probe row ``a``, the pairs :func:`matching_pairs` gives it.

    The number of rows ``b != a`` with ``key2[b] == key1[a]`` (NULL keys
    pair with nothing), before :func:`dedup_ordered_pairs` drops any:
    an upper bound on the row's share of the deduped join.
    """
    key1 = np.asarray(key1, dtype=np.int64)
    key2 = np.asarray(key2, dtype=np.int64)
    build = np.sort(key2[key2 >= 0])
    counts = (np.searchsorted(build, key1, side="right")
              - np.searchsorted(build, key1, side="left"))
    counts[key1 < 0] = 0
    return counts - ((key1 == key2) & (key1 >= 0))


def matching_pairs(key1: np.ndarray, key2: np.ndarray, start: int = 0,
                   stop: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Ordered pairs ``(a, b)`` with ``key1[a] == key2[b]`` and ``a != b``,
    for the probe rows ``start <= a < stop`` (all rows by default).

    Both keys must be coded over the same dictionary; NULL (``-1``) never
    matches.  This is the probe side of an asymmetric hash join — the
    caller applies :func:`dedup_ordered_pairs` to reproduce the naive
    detector's unordered-pair semantics.  Pairs come out sorted by
    ``(a, b)``, the naive probe order, so consecutive probe-row ranges
    concatenate to the whole join.
    """
    key1 = np.asarray(key1, dtype=np.int64)
    key2 = np.asarray(key2, dtype=np.int64)
    build_rows = np.nonzero(key2 >= 0)[0]
    probe_rows = start + np.nonzero(key1[start:stop] >= 0)[0]
    if not len(build_rows) or not len(probe_rows):
        return _EMPTY, _EMPTY
    build_order = build_rows[np.argsort(key2[build_rows], kind="stable")]
    build_keys = key2[build_order]
    lo = np.searchsorted(build_keys, key1[probe_rows], side="left")
    hi = np.searchsorted(build_keys, key1[probe_rows], side="right")
    counts = hi - lo
    if not counts.sum():
        return _EMPTY, _EMPTY
    left = np.repeat(probe_rows, counts)
    right = build_order[expand_ranges(lo, counts)]
    keep = left != right
    left, right = left[keep], right[keep]
    # Probe rows ascend already; within one probe row the build bucket is
    # sorted by row (stable sort over equal keys preserves row order), so
    # the stream is lexicographic (a, b) — same as the naive loop.
    return left, right


# ---------------------------------------------------------------------------
# Bucket joins (detection's symmetric joins, DC-factor grounding)
# ---------------------------------------------------------------------------
def bucket_memberships(codes: np.ndarray,
                       tids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Normalise a candidate-membership scan into dense bucket ids.

    ``codes``/``tids`` are parallel arrays listing, in scan order, which
    candidate value (code) each tuple may take — the relation the naive
    :class:`~repro.core.partition.PairEnumerator` builds its value→tuples
    buckets from.  Returns one row per distinct ``(value, tid)`` pair as
    ``(bucket_ids, member_tids)``, sorted by ``(bucket, tid)``, where
    buckets are numbered by the first appearance of their value in the
    scan — exactly the insertion order of the naive enumerator's bucket
    dict.
    """
    codes = np.asarray(codes, dtype=np.int64)
    tids = np.asarray(tids, dtype=np.int64)
    if not len(codes):
        return _EMPTY, _EMPTY
    _, first_idx, inverse = np.unique(codes, return_index=True,
                                      return_inverse=True)
    rank_of = np.empty(len(first_idx), dtype=np.int64)
    rank_of[np.argsort(first_idx, kind="stable")] = np.arange(len(first_idx))
    ranks = rank_of[inverse]
    # One composite sort both dedups (value, tid) rows and orders them by
    # (bucket rank, tid) — the order bucket-by-bucket enumeration needs.
    stride = int(tids.max()) + 1
    combined = sorted_unique(ranks * stride + tids)
    return combined // stride, combined % stride


def gather_csr_rows(indptr: np.ndarray, codes: np.ndarray, rows: np.ndarray,
                    width: int) -> np.ndarray:
    """Equal-width CSR rows gathered into a dense ``(len(rows), width)`` grid.

    Every selected row must hold exactly ``width`` codes (the caller
    groups rows by width first); the grid preserves each row's code
    order.  This is the candidate-axis materialisation of the vectorized
    factor-table builder: one gather replaces ``len(rows)`` Python-level
    domain walks.
    """
    rows = np.asarray(rows, dtype=np.int64)
    starts = np.asarray(indptr, dtype=np.int64)[rows]
    return np.asarray(codes)[starts[:, None] + np.arange(width, dtype=np.int64)]


def bucket_extents(bucket_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start offset and size of each bucket in a sorted membership.

    ``bucket_ids`` must be sorted (as produced by
    :func:`bucket_memberships`); buckets come back in ascending id order,
    i.e. the naive enumerator's first-seen bucket order.
    """
    bucket_ids = np.asarray(bucket_ids)
    if not len(bucket_ids):
        return _EMPTY, _EMPTY
    boundary = np.empty(len(bucket_ids), dtype=bool)
    boundary[0] = True
    boundary[1:] = bucket_ids[1:] != bucket_ids[:-1]
    starts = np.nonzero(boundary)[0]
    sizes = np.diff(np.append(starts, len(bucket_ids)))
    return starts, sizes


def bucket_pairs(bucket_ids: np.ndarray,
                 member_tids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every unordered pair of tuples sharing a bucket, no dedup.

    Input rows must be sorted by ``(bucket, tid)``.  Pairs come bucket by
    bucket, in nested-loop ``(left, right)`` order within each — the
    naive hash join's stream when every tuple sits in one bucket.
    """
    starts, sizes = bucket_extents(bucket_ids)
    return _expand_contiguous_pairs(np.asarray(member_tids, dtype=np.int64),
                                    starts, sizes)


def bucket_join_pairs(bucket_ids: np.ndarray,
                      member_tids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduped unordered pairs of tuples sharing a candidate bucket.

    Input rows must be sorted by ``(bucket, tid)`` (see
    :func:`bucket_memberships`).  Pairs are emitted bucket by bucket, in
    nested-loop ``(left, right)`` order within each bucket, with a pair
    kept only in the *first* bucket containing both tuples — the exact
    stream (set and order) of the naive enumerator's bucket walk.
    """
    left, right = bucket_pairs(bucket_ids, member_tids)
    if not len(left):
        return _EMPTY, _EMPTY
    # Cross-bucket dedup keeping the first occurrence: the stream is
    # already in emission order, so `np.unique(..., return_index=True)`
    # marks each pair's earliest position and sorting those positions
    # restores the order.
    stride = int(np.asarray(member_tids).max()) + 1
    _, first = np.unique(left * stride + right, return_index=True)
    keep = np.sort(first)
    return left[keep], right[keep]


def bucket_pair_block(members: np.ndarray, start: int,
                      end: int) -> tuple[np.ndarray, np.ndarray]:
    """The nested-loop pairs one bucket's members ``[start, end)`` lead.

    ``members`` is one sorted bucket; the block holds every ``(members[i],
    members[j])`` with ``start <= i < end`` and ``j > i``, in the exact
    nested ``(i, j)`` order, so consecutive blocks concatenate to the
    bucket's whole walk.
    """
    members = np.asarray(members, dtype=np.int64)
    counts = len(members) - 1 - np.arange(start, end)
    left = np.repeat(members[start:end], counts)
    positions = expand_ranges(np.arange(start + 1, end + 1), counts)
    return left, members[positions]


def bounded_runs(weights: np.ndarray, budget: int):
    """Consecutive index ranges ``(start, end)`` covering ``weights``.

    Each range is as long as it can be with its weights summing to at
    most ``budget``; an item whose weight alone exceeds the budget is a
    range of its own.  One binary search per range.
    """
    cumulative = np.cumsum(weights)
    start = 0
    while start < len(cumulative):
        base = int(cumulative[start - 1]) if start else 0
        end = int(np.searchsorted(cumulative, base + budget, side="right"))
        end = max(end, start + 1)
        yield start, end
        start = end


def bucket_chunks(bucket_ids: np.ndarray, member_tids: np.ndarray,
                  budget: int, join_run):
    """A sorted bucket membership's pair walk, as bounded lazy chunks.

    Yields zero-argument callables, each computing one chunk's ``(left,
    right)`` arrays, in walk order: a run of whole consecutive buckets
    whose nested-loop pairs total at most ``budget``, handed to
    ``join_run(bucket_ids, member_tids)`` as one call; or, for a single
    bucket of more pairs than that, a :func:`bucket_pair_block` of
    consecutive leading members opening at most ``budget`` pairs (one
    member, when it alone opens more).  Nothing is joined until a chunk
    is called, so a caller holds one chunk's pairs at a time and can
    time each chunk by itself.
    """
    starts, sizes = bucket_extents(bucket_ids)
    per_bucket = sizes * (sizes - 1) // 2
    for first, last in bounded_runs(per_bucket, budget):
        lo, hi = int(starts[first]), int(starts[last - 1] + sizes[last - 1])
        if per_bucket[first] <= budget:
            yield partial(join_run, bucket_ids[lo:hi], member_tids[lo:hi])
            continue
        members = member_tids[lo:hi]
        opened = np.arange(hi - lo - 1, 0, -1)
        for start, end in bounded_runs(opened, budget):
            yield partial(bucket_pair_block, members, start, end)


def dedup_ordered_pairs(left: np.ndarray, right: np.ndarray,
                        probe_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop back-edges already covered by the naive join's forward pass.

    The naive asymmetric join yields ``(a, b)`` with ``b < a`` only when
    ``key1[b] != key1[a]`` (otherwise the unordered pair was produced when
    ``b`` played the probe side).  Mirror that rule exactly.
    """
    if not len(left):
        return left, right
    keep = (right > left) | (probe_key[right] != probe_key[left])
    return left[keep], right[keep]
