"""Reference violation detection: every join tuple-at-a-time.

:class:`NaiveViolationDetector` is the detector the engine's join is
pinned against: a Python hash join over the rows (or, for a constraint
with no equality predicate, a nested loop over every pair) and per-pair
predicate evaluation on the decoded values.  Production runs none of it.
"""

from __future__ import annotations

from collections import defaultdict

from repro.constraints.predicates import Predicate
from repro.dataset.dataset import Dataset
from repro.detect.violations import ViolationDetector, _join_sides, _pair_attributes


class NaiveViolationDetector(ViolationDetector):
    """:class:`ViolationDetector` with no vectorized join or mask.

    Every two-tuple constraint runs the Python hash join and per-pair
    predicate evaluation; every single-tuple constraint is checked tuple
    by tuple.
    """

    def _detect_single(self, engine, dataset, dc, hypergraph) -> None:
        tids = [
            tid for tid in dataset.tuple_ids if dc.violates(dataset.tuple_dict(tid))
        ]
        hypergraph.add_block(dc.name, tids, [sorted(dc.attributes_of(1))])

    def _detect_pairs(self, engine, dataset, dc, hypergraph) -> None:
        joins = dc.equijoin_predicates
        if joins:
            pair_iter = self._hash_join_pairs(dataset, joins)
        else:
            pair_iter = self._all_pairs(dataset, dc)
        rows = self._violating_rows(dataset, dc, pair_iter)
        hypergraph.add_block(dc.name, rows, _pair_attributes(dc))

    def _violating_rows(self, dataset: Dataset, dc, pairs) -> list[tuple[int, int]]:
        """Per-pair evaluation of ``dc``'s residual predicates over ``(t1,
        t2)`` candidate pairs; returns the violating pairs oriented the way
        they violate, up to ``max_pairs_per_constraint``."""
        predicates = dc.residual_predicates
        rows: list[tuple[int, int]] = []
        row_cache = _RowDictCache(dataset)
        for t1, t2 in pairs:
            v1 = row_cache.get(t1)
            v2 = row_cache.get(t2)
            # Order-sensitive predicates (<, >) may only fire with the pair
            # flipped; the join yields each unordered pair once, so check
            # the reverse direction explicitly.
            if all(p.evaluate(v1, v2) for p in predicates):
                row = (t1, t2)
            elif all(p.evaluate(v2, v1) for p in predicates):
                row = (t2, t1)
            else:
                continue
            if len(rows) >= self.max_pairs_per_constraint:
                self._note_truncated(dc)
                break
            rows.append(row)
        return rows

    def _hash_join_pairs(self, dataset: Dataset, joins: list[Predicate]):
        """Yield unordered candidate pairs sharing all join keys."""
        t1_attrs = [_join_sides(p)[0] for p in joins]
        t2_attrs = [_join_sides(p)[1] for p in joins]
        t1_idx = [dataset.schema.index_of(a) for a in t1_attrs]
        t2_idx = [dataset.schema.index_of(a) for a in t2_attrs]
        symmetric = t1_attrs == t2_attrs

        buckets: dict[tuple, list[int]] = defaultdict(list)
        for tid in dataset.tuple_ids:
            row = dataset.row_ref(tid)
            key = tuple(row[i] for i in t2_idx)
            if any(v is None for v in key):
                continue
            buckets[key].append(tid)

        if symmetric:
            for tids in buckets.values():
                for i in range(len(tids)):
                    for j in range(i + 1, len(tids)):
                        yield tids[i], tids[j]
        else:
            for tid in dataset.tuple_ids:
                row = dataset.row_ref(tid)
                key = tuple(row[i] for i in t1_idx)
                if any(v is None for v in key):
                    continue
                for other in buckets.get(key, ()):
                    if other > tid:  # each unordered pair once
                        yield tid, other
                    elif other < tid:
                        # pair handled when `other` played t1, unless keys
                        # differ asymmetrically; re-check that case
                        other_key = tuple(dataset.row_ref(other)[i] for i in t1_idx)
                        if other_key != key:
                            yield tid, other

    def _all_pairs(self, dataset: Dataset, dc):
        n = dataset.num_tuples
        self._check_quadratic(dc, n)
        for t1 in range(n):
            for t2 in range(t1 + 1, n):
                yield t1, t2


class _RowDictCache:
    """Small LRU-free memo of tuple_dict results for the join inner loop."""

    def __init__(self, dataset: Dataset, capacity: int = 4096):
        self._dataset = dataset
        self._cache: dict[int, dict[str, str | None]] = {}
        self._capacity = capacity

    def get(self, tid: int) -> dict[str, str | None]:
        hit = self._cache.get(tid)
        if hit is None:
            hit = self._dataset.tuple_dict(tid)
            if len(self._cache) >= self._capacity:
                self._cache.clear()
            self._cache[tid] = hit
        return hit
