"""The relational executor of the grounding engine.

:class:`Backend` runs the engine's relational plan — group-by counts,
the detection join over composite keys and the candidate-domain bucket
join — as vectorized NumPy over the :class:`~repro.engine.store.ColumnStore`.
It is the one execution path, in one process: grounding stages call it
and their own kernels directly.  Grounding cost is kept down by
materialising less (τ tested on the count table,
:mod:`repro.core.vector_domain`; the detection join streamed in bounded
chunks, :meth:`Backend.join_chunks`), not by fanning out: workers would
each rebuild the attribute blocks and pickle their entries back, which
costs more than it saves at any size measured (10k–50k rows, 2 cores).

The detection join has one path for every two-tuple constraint: a
symmetric join walks its key's buckets (a join-free constraint is one
bucket of every tuple), an asymmetric one walks probe-row ranges, and
either way the pairs come in chunks of at most ``_JOIN_CHUNK_PAIRS``, in
the naive hash join's order, so memory is one chunk's pairs however
skewed the key.

The two counts and the three join executors (``_symmetric_pairs``,
``_asymmetric_pairs``, ``_domain_pairs``) are the seam the equivalence
tests override with the same plan written as SQL
(``tests/engine/sqlite_backend.py``), handed to
``Engine(dataset, backend=...)`` as a class.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.engine import ops
from repro.engine.store import ColumnStore
from repro.obs.trace import deep_span

#: A join specification: one ``(t1 attribute, t2 attribute)`` pair per
#: equality predicate.
JoinAttrs = list[tuple[str, str]]

#: Most candidate pairs one chunk of the detection join holds — the
#: ``factor_chunk_pairs`` default.  Every join of the benchmark's
#: workloads fits in one chunk; a skewed key at 100k rows streams in a
#: few hundred.
_JOIN_CHUNK_PAIRS = 65_536


class Backend:
    """Vectorized NumPy execution directly over the column store.

    ``join_chunks`` reproduces the naive detector's pair stream exactly:
    symmetric joins (same attributes on both sides) yield unordered pairs
    ``left < right`` bucket by bucket, buckets in the order of their first
    tuple and nested-loop pairs within each; asymmetric joins yield
    ordered pairs in probe order with the naive back-edge dedup applied.
    """

    #: Label of the ``engine.*`` deep spans.
    name = "numpy"

    def __init__(self, store: ColumnStore):
        self.store = store
        #: join_attrs → (key1, key2, symmetric); safe because the store is
        #: an immutable snapshot.  Constraints joining on the same
        #: attributes share one composite-key construction.
        self._key_cache: dict[tuple, tuple[np.ndarray, np.ndarray, bool]] = {}

    # -- counts ---------------------------------------------------------
    def value_counts(self, attribute: str) -> np.ndarray:
        """Occurrences per code of one attribute (dense, NULLs excluded)."""
        return ops.value_counts(
            self.store.codes(attribute), self.store.cardinality(attribute)
        )

    def pair_value_counts(self, attr_a: str, attr_b: str) -> np.ndarray:
        """``(k, 3)`` rows of ``[code_a, code_b, count]`` co-occurrences."""
        return ops.pair_code_counts(
            self.store.codes(attr_a),
            self.store.codes(attr_b),
            self.store.cardinality(attr_b),
        )

    # -- keys -----------------------------------------------------------
    def _keys_for(self, join_attrs: JoinAttrs) -> tuple[np.ndarray, np.ndarray, bool]:
        cache_key = tuple(join_attrs)
        cached = self._key_cache.get(cache_key)
        if cached is None:
            t1_attrs = [a for a, _ in join_attrs]
            t2_attrs = [b for _, b in join_attrs]
            if not join_attrs:
                # No equality predicate: one bucket of every tuple.
                key = np.zeros(self.store.num_rows, dtype=np.int64)
                cached = (key, key, True)
            elif t1_attrs == t2_attrs:
                key = ops.combine_codes([self.store.codes(a) for a in t1_attrs])
                cached = (key, key, True)
            else:
                cols1, cols2 = [], []
                for attr1, attr2 in join_attrs:
                    shared1, shared2 = self.store.shared_codes(attr1, attr2)
                    cols1.append(shared1)
                    cols2.append(shared2)
                key1, key2 = ops.combine_codes_pairwise(cols1, cols2)
                cached = (key1, key2, False)
            self._key_cache[cache_key] = cached
        return cached

    # -- joins ----------------------------------------------------------
    def join_chunks(self, join_attrs: JoinAttrs):
        """The join's tuple-id pairs as ``(left, right)`` chunks of at most
        ``_JOIN_CHUNK_PAIRS`` pairs, in stream order (class docstring).

        ``join_attrs = []`` pairs every tuple with every other.  Each chunk
        is computed under an ``engine.join_pairs`` deep span of its own,
        and only when the caller asks for it.
        """
        budget = _JOIN_CHUNK_PAIRS
        key1, key2, symmetric = self._keys_for(join_attrs)
        if symmetric:
            rows = np.flatnonzero(key1 >= 0)
            bucket_ids, member_tids = ops.bucket_memberships(key1[rows], rows)
            chunks = ops.bucket_chunks(
                bucket_ids, member_tids, budget, self._symmetric_pairs
            )
        else:
            counts = ops.probe_counts(key1, key2)
            chunks = (
                partial(self._probe_range, key1, key2, start, stop)
                for start, stop in ops.bounded_runs(counts, budget)
            )
        label = str(join_attrs)
        for chunk in chunks:
            with deep_span("engine.join_pairs", backend=self.name, join=label) as sp:
                left, right = chunk()
                if sp is not None:
                    sp.attributes["pairs"] = int(len(left))
            # Over the budget only when one tuple alone pairs with more
            # tuples than that: hand its pairs on in budget-sized slices.
            for start in range(0, len(left), budget):
                yield left[start : start + budget], right[start : start + budget]

    def join_pairs(self, join_attrs: JoinAttrs) -> tuple[np.ndarray, np.ndarray]:
        """Every pair of :meth:`join_chunks`, concatenated."""
        chunks = list(self.join_chunks(join_attrs))
        if not chunks:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        lefts, rights = zip(*chunks)
        return np.concatenate(lefts), np.concatenate(rights)

    def _probe_range(self, key1: np.ndarray, key2: np.ndarray, start: int, stop: int):
        """The asymmetric join's pairs for probe rows ``[start, stop)``."""
        left, right = self._asymmetric_pairs(key1, key2, start, stop)
        return ops.dedup_ordered_pairs(left, right, key1)

    def domain_join_pairs(
        self, bucket_ids: np.ndarray, member_tids: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Candidate-domain bucket join for DC-factor grounding.

        Input is a normalised bucket membership (one row per distinct
        ``(bucket, tid)``, sorted by ``(bucket, tid)`` — see
        :func:`~repro.engine.ops.bucket_memberships`); output is every
        unordered tuple pair sharing a bucket, deduped to its first
        bucket, in the naive enumerator's exact emission order.
        """
        bucket_ids = np.asarray(bucket_ids, dtype=np.int64)
        member_tids = np.asarray(member_tids, dtype=np.int64)
        if not len(bucket_ids):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        with deep_span(
            "engine.domain_join_pairs",
            backend=self.name,
            buckets=int(bucket_ids[-1]) + 1,
        ) as sp:
            left, right = self._domain_pairs(bucket_ids, member_tids)
            if sp is not None:
                sp.attributes["pairs"] = int(len(left))
            return left, right

    def close(self) -> None:
        """Release what the backend holds (nothing, for plain arrays)."""

    # -- executors ------------------------------------------------------
    def _symmetric_pairs(self, bucket_ids: np.ndarray, member_tids: np.ndarray):
        return ops.bucket_pairs(bucket_ids, member_tids)

    def _asymmetric_pairs(
        self, key1: np.ndarray, key2: np.ndarray, start: int, stop: int
    ):
        return ops.matching_pairs(key1, key2, start, stop)

    def _domain_pairs(self, bucket_ids: np.ndarray, member_tids: np.ndarray):
        return ops.bucket_join_pairs(bucket_ids, member_tids)
