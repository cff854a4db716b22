"""Algorithm 3: tuple partitioning, and pair enumeration for DC factors.

Grounding the factor rules of Algorithm 1 naively requires the self-join
``Tuple(t1), Tuple(t2)`` — quadratic in |D|.  The paper bounds this two
ways, both implemented here:

* **Join-aware enumeration** (what DeepDive's grounding query does): only
  tuple pairs whose equality-join keys can possibly match under the pruned
  candidate domains are considered.
* **Partitioning** (Algorithm 3): pairs are further restricted to the
  connected components of the per-constraint conflict hypergraph, limiting
  factors to ``O(Σ_g |g|²)`` instead of ``O(|Σ| |D|²)``.

Grounding runs through the engine-backed :class:`VectorPairEnumerator`,
which pushes the candidate-domain self-join into the relational backend
(the paper's DBMS grounding).  A constraint without an equality join is a
join on a constant key: every tuple is in one bucket, which streams and
caps like any other.  The tuple-at-a-time reference whose pair stream the
engine enumerator reproduces byte for byte — set *and* order — is
:class:`repro.oracle.PairEnumerator`.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import TupleRef
from repro.dataset.dataset import Cell, Dataset
from repro.detect.hypergraph import ConflictHypergraph
from repro.engine import Engine, engine_for, ops
from repro.engine.space import CodeSpaces
from repro.inference.variables import CellColumns, as_columns
from repro.obs.trace import deep_enabled, deep_span


@dataclass(frozen=True)
class TupleGroup:
    """One entry of Algorithm 3's output: (σ, tuples in one component)."""

    constraint_name: str
    tids: frozenset[int]


def tuple_groups(hypergraph: ConflictHypergraph) -> list[TupleGroup]:
    """Algorithm 3: per-constraint connected components of violating tuples."""
    groups: list[TupleGroup] = []
    for name in hypergraph.constraint_names:
        for component in hypergraph.tuple_components(name):
            groups.append(TupleGroup(name, frozenset(component)))
    return groups


class VectorPairEnumerator:
    """Engine-backed pair enumeration: the grounding self-join as a plan.

    Enumerates the tuple pairs over which one DC's factors are grounded:
    join feasibility is decided against the pruned ``domains`` of the
    query cells and every other cell's initial value — exactly the
    assignments a factor could take — with the backend's hash-join
    primitives, and ``max_pairs`` caps the pairs of one constraint:

    * the candidate values every cell may take are gathered **once** per
      join attribute from the query catalog into a cell→domain-codes index
      (:meth:`~repro.engine.store.ColumnStore.candidate_index`, reused
      across constraints sharing the attribute and across Algorithm 3
      groups, and by the factor-table builder handed the same ``spaces``);
    * Algorithm 3 tuple components are intersected with the join via one
      vectorized component-id lookup over the tuple-id space, not a
      per-component Python set scan;
    * the pair stream is emitted in the reference enumerator's **exact**
      order (bucket first-seen order, lexicographic within a bucket,
      first-bucket dedup).

    Groups whose estimated pair count exceeds ``stream_budget`` are not
    materialised at once: their buckets are enumerated in fixed-size
    chunks of at most ``chunk_pairs`` estimated pairs each, keeping peak
    memory bounded while still covering every pair deterministically —
    Physicians-scale joins stream instead of being truncated.
    """

    def __init__(
        self,
        engine: Engine | None,
        dataset: Dataset,
        domains: CellColumns | Mapping[Cell, list[str]],
        max_pairs: int = 200_000,
        chunk_pairs: int = 65_536,
        stream_budget: int = 1_048_576,
        spaces: CodeSpaces | None = None,
    ):
        self.dataset = dataset
        self.max_pairs = max_pairs
        self.engine = engine_for(dataset, engine)
        self.chunk_pairs = max(1, chunk_pairs)
        self.stream_budget = max(self.chunk_pairs, stream_budget)
        self._indexes: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
        # The query domains as a catalog (a mapping is encoded once): every
        # join attribute's index is a gather of its codes in a code space.
        # ``spaces``, when given, are the ones of that catalog.
        store = self.engine.store
        self._space = spaces or CodeSpaces(store, as_columns(domains, store))
        #: Counters for the size report: emitted pairs, enumerated groups,
        #: groups that took the chunked streaming path, and streaming
        #: chunk calls (materialised groups take one call, not counted).
        self.stats = {"pairs": 0, "groups": 0, "streamed_groups": 0, "chunks": 0}

    # ------------------------------------------------------------------
    # Array-chunk API (the engine's native product)
    # ------------------------------------------------------------------
    def pair_chunks(
        self,
        dc: DenialConstraint,
        *,
        use_partitioning: bool = False,
        hypergraph: ConflictHypergraph | None = None,
    ):
        """The constraint's pair stream as ``(left, right)`` array chunks.

        The concatenation of the yielded chunks is the reference
        enumerator's tuple stream — same pairs, same order, same
        ``max_pairs`` cap — delivered columnar.  Flags are keyword-only:
        ``use_partitioning`` restricts pairs to Algorithm 3 components of
        ``hypergraph``.  Under deep tracing each chunk's production time
        is recorded in its own ``ground.pair_chunk`` span (the span clocks
        the enumerator, not the consumer).
        """
        inner = self._pair_chunks(dc, use_partitioning, hypergraph)
        if not deep_enabled():
            return inner
        return self._traced_chunks(dc, inner)

    def _traced_chunks(self, dc: DenialConstraint, inner):
        while True:
            with deep_span("ground.pair_chunk", constraint=dc.name) as sp:
                try:
                    left, right = next(inner)
                except StopIteration:
                    return
                if sp is not None:
                    sp.attributes["pairs"] = int(len(left))
            yield left, right

    def _pair_chunks(
        self,
        dc: DenialConstraint,
        use_partitioning: bool,
        hypergraph: ConflictHypergraph | None,
    ):
        remaining = [self.max_pairs]
        if not use_partitioning or hypergraph is None:
            tids = np.arange(self.dataset.num_tuples, dtype=np.int64)
            yield from self._group_chunks(dc, tids, remaining)
            return
        yield from self._partitioned_chunks(dc, hypergraph, remaining)

    def _partitioned_chunks(
        self, dc: DenialConstraint, hypergraph: ConflictHypergraph, remaining: list[int]
    ):
        """All Algorithm 3 groups of one constraint, fused when small.

        Components are disjoint, so namespacing each bucket key by its
        component id turns the whole per-group walk into **one** backend
        join whose first-seen bucket order is exactly the concatenation
        of the per-group orders.  Only when the fused estimate blows the
        streaming budget does enumeration fall back to group-at-a-time
        chunking (same stream, bounded memory).  One ``max_pairs`` cap is
        shared across groups, as in the reference walk.
        """
        components = hypergraph.tuple_components(dc.name)
        layout = self._component_layout(components)
        if layout is None:
            return
        members, labels = layout
        indptr, codes = self._combined_index(dc)
        row_codes, row_tids, counts = _take_rows(indptr, codes, members)
        if not len(row_codes):
            return
        row_groups = np.repeat(labels, counts)
        composite = row_groups * (int(row_codes.max()) + 1) + row_codes
        bucket_ids, member_tids = ops.bucket_memberships(composite, row_tids)
        _, sizes = ops.bucket_extents(bucket_ids)
        estimated = int((sizes * (sizes - 1) // 2).sum())
        if estimated <= min(self.stream_budget, 4 * remaining[0]):
            self.stats["groups"] += len(components)
            yield from self._materialise_group(bucket_ids, member_tids, remaining)
            return
        # Over budget: stream group by group, reusing the fused membership.
        # Composite bucket ranks are assigned in group-major scan order, so
        # each group's rows form one contiguous slice of the fused arrays.
        lookup = np.full(self.dataset.num_tuples, -1, dtype=np.int64)
        lookup[members] = labels
        row_label = lookup[member_tids]
        group_bounds = np.concatenate(
            ([0], np.nonzero(np.diff(row_label))[0] + 1, [len(row_label)])
        )
        # repro: allow-loop per-group walk over O(groups) slice bounds, not per-row
        for k in range(len(group_bounds) - 1):
            lo, hi = int(group_bounds[k]), int(group_bounds[k + 1])
            yield from self._bucketed_chunks(
                bucket_ids[lo:hi], member_tids[lo:hi], remaining
            )
            if remaining[0] <= 0:
                return

    # ------------------------------------------------------------------
    def _component_layout(
        self, components: list[set[int]]
    ) -> tuple[np.ndarray, np.ndarray] | None:
        """Component membership as one vectorized component-id lookup.

        Builds a tuple→component-id array and sorts the member tuples
        once (stably, so ids stay ascending within a component).  Returns
        ``(members, labels)``: every member tuple id with its component's
        index, components in their own order.
        """
        if not components:
            return None
        comp_of = np.full(self.dataset.num_tuples, -1, dtype=np.int64)
        for k, component in enumerate(components):
            comp_of[np.fromiter(component, dtype=np.int64, count=len(component))] = k
        members = np.nonzero(comp_of >= 0)[0]
        labels = comp_of[members]
        order = np.argsort(labels, kind="stable")
        return members[order], labels[order]

    def _combined_index(self, dc: DenialConstraint) -> tuple[np.ndarray, np.ndarray]:
        """CSR of candidate codes per tuple for the constraint's join key.

        Row ``t`` concatenates the candidates of ``(t, attr1)`` and — for
        cross-attribute joins, in the pair's one code space — ``(t, attr2)``,
        in the reference enumerator's scan order.  A constraint without an
        equality join gets one code 0 per tuple: the constant key that
        puts every tuple in one bucket.  Cached per attribute pair.
        """
        key: tuple[str, ...] = ()
        if dc.equijoin_predicates:
            pred = dc.equijoin_predicates[0]
            assert isinstance(pred.right, TupleRef)
            key = (pred.left.attribute, pred.right.attribute)
            if pred.left.tuple_index != 1:
                key = key[::-1]
        cached = self._indexes.get(key)
        if cached is None:
            if not key:
                n = self.dataset.num_tuples
                cached = (np.arange(n + 1, dtype=np.int64), np.zeros(n, dtype=np.int64))
            else:
                attr1, attr2 = key
                space = self._space(*key)
                first = space.csr(attr1)
                cached = (first.indptr, first.codes)
                if attr2 != attr1:
                    second = space.csr(attr2)
                    cached = ops.merge_csr(*cached, second.indptr, second.codes)
            self._indexes[key] = cached
        return cached

    # ------------------------------------------------------------------
    def _materialise_group(
        self, bucket_ids: np.ndarray, member_tids: np.ndarray, remaining: list[int]
    ):
        """One backend join for a whole under-budget group, budget-clipped."""
        left, right = self.engine.backend.domain_join_pairs(bucket_ids, member_tids)
        take = min(len(left), remaining[0])
        if take > 0:
            remaining[0] -= take
            self.stats["pairs"] += take
            yield left[:take], right[:take]

    def _group_chunks(
        self, dc: DenialConstraint, tids: np.ndarray, remaining: list[int]
    ):
        """Yield one group's pairs as arrays, materialised or streamed.

        ``remaining`` is a one-element mutable budget shared across the
        groups of one constraint (the reference enumerator's global cap).
        """
        if remaining[0] <= 0 or not len(tids):
            return
        indptr, codes = self._combined_index(dc)
        row_codes, row_tids, _ = _take_rows(indptr, codes, tids)
        bucket_ids, member_tids = ops.bucket_memberships(row_codes, row_tids)
        yield from self._bucketed_chunks(bucket_ids, member_tids, remaining)

    def _bucketed_chunks(
        self, bucket_ids: np.ndarray, member_tids: np.ndarray, remaining: list[int]
    ):
        """One group's normalised bucket membership → pair-array chunks."""
        if not len(bucket_ids) or remaining[0] <= 0:
            return
        self.stats["groups"] += 1
        _, sizes = ops.bucket_extents(bucket_ids)
        estimated = int((sizes * (sizes - 1) // 2).sum())

        # Materialise small groups in one backend call; stream anything
        # whose raw pair estimate dwarfs the budget or the memory bound.
        if estimated <= min(self.stream_budget, 4 * remaining[0]):
            yield from self._materialise_group(bucket_ids, member_tids, remaining)
            return

        self.stats["streamed_groups"] += 1
        stride = int(member_tids.max()) + 1
        seen = np.empty(0, dtype=np.int64)
        # Runs of whole buckets go through one backend join each; a
        # bucket larger than a chunk streams its nested pair walk in
        # bounded blocks instead of materialising O(|bucket|²) pairs.
        join = self.engine.backend.domain_join_pairs
        for unit in ops.bucket_chunks(bucket_ids, member_tids, self.chunk_pairs, join):
            self.stats["chunks"] += 1
            chunk, seen = self._fresh_clip(*unit(), stride, seen, remaining)
            if chunk is not None:
                yield chunk
            if remaining[0] <= 0:
                return

    def _fresh_clip(
        self,
        left: np.ndarray,
        right: np.ndarray,
        stride: int,
        seen: np.ndarray,
        remaining: list[int],
    ) -> tuple[tuple[np.ndarray, np.ndarray] | None, np.ndarray]:
        """Drop already-emitted pairs, apply the budget, record the rest.

        The backend dedups only within one call; across chunks the
        emitted pairs are tracked as a sorted encoded array (a pair is
        kept by the chunk of its first bucket, as in the reference walk).
        """
        if not len(left):
            return None, seen
        encoded = left * stride + right
        if len(seen):
            slot = np.searchsorted(seen, encoded)
            slot_safe = np.minimum(slot, len(seen) - 1)
            fresh = ~((slot < len(seen)) & (seen[slot_safe] == encoded))
            left, right, encoded = left[fresh], right[fresh], encoded[fresh]
        take = min(len(left), remaining[0])
        if take <= 0:
            return None, seen
        remaining[0] -= take
        self.stats["pairs"] += take
        # Keep `seen` sorted for the searchsorted probe above.  NumPy's
        # stable sort is a radix sort for integer dtypes, so re-sorting
        # the concatenation stays near-linear in |seen| per chunk (and
        # |seen| itself is bounded by the max_pairs cap).
        seen = np.sort(np.concatenate((seen, np.sort(encoded[:take]))), kind="stable")
        return (left[:take], right[:take]), seen


def make_pair_enumerator(
    dataset: Dataset,
    domains: CellColumns | Mapping[Cell, list[str]],
    engine: Engine | None = None,
    max_pairs: int = 200_000,
    chunk_pairs: int = 65_536,
    stream_budget: int = 1_048_576,
    spaces: CodeSpaces | None = None,
) -> VectorPairEnumerator:
    """:class:`VectorPairEnumerator` under its dataset-first call shape.

    Kept only because the repository benchmark (``bench_e2e``) and the
    compiler construct their enumerator through this name and these
    keywords; it adds nothing to the constructor.
    """
    return VectorPairEnumerator(
        engine,
        dataset,
        domains,
        max_pairs=max_pairs,
        chunk_pairs=chunk_pairs,
        stream_budget=stream_budget,
        spaces=spaces,
    )


# ---------------------------------------------------------------------------
# CSR helpers for the candidate-domain indexes
# ---------------------------------------------------------------------------
def _take_rows(
    indptr: np.ndarray, codes: np.ndarray, tids: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Concatenate the CSR rows of ``tids``, tagging each code with its tid.

    Returns ``(row_codes, row_tids, counts)`` where ``counts[k]`` is the
    number of rows contributed by ``tids[k]`` (so callers can repeat
    further per-tid labels alongside).
    """
    counts = indptr[tids + 1] - indptr[tids]
    source = ops.expand_ranges(indptr[tids], counts)
    if not len(source):
        return source, source, counts
    return codes[source], np.repeat(tids, counts), counts
