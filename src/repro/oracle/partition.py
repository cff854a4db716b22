"""Reference DC-factor pair enumeration: the grounding self-join per pair.

:class:`PairEnumerator` walks one constraint's join-feasible tuple pairs
in Python sets and dicts; production runs the same join on the engine
(:class:`~repro.core.partition.VectorPairEnumerator`), whose concatenated
``pair_chunks`` equal :meth:`PairEnumerator.pairs_for` — same pairs, same
order, same ``max_pairs`` cap.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import TupleRef
from repro.dataset.dataset import Cell, Dataset
from repro.detect.hypergraph import ConflictHypergraph


class PairEnumerator:
    """Enumerates the tuple pairs over which one DC's factors are grounded.

    ``domains`` are the pruned candidate domains of the *query* cells;
    every other cell contributes its initial value only.  ``max_pairs``
    caps the pairs of one constraint.
    """

    def __init__(self, dataset: Dataset, domains: Mapping, max_pairs: int = 200_000):
        self.dataset = dataset
        self.domains = domains
        self.max_pairs = max_pairs

    # ------------------------------------------------------------------
    def _cell_values(self, tid: int, attr: str) -> list[str]:
        """Candidate values a cell can take (init value for evidence cells)."""
        cell = Cell(tid, attr)
        dom = self.domains.get(cell)
        if dom is not None:
            return dom
        v = self.dataset.value(tid, attr)
        return [v] if v is not None else []

    def join_pairs(self, dc: DenialConstraint, restrict_to: frozenset | None = None):
        """Yield unordered tuple pairs whose join keys may coincide.

        For each equality predicate ``t1.A = t2.B`` a tuple pair is
        feasible only if some candidate of one side's cell equals some
        candidate of the other side's.  Tuples are bucketed by candidate
        value per join attribute and pairs are read off bucket by bucket.
        Constraints without equality predicates fall back to all pairs
        within ``restrict_to``.
        """
        joins = dc.equijoin_predicates
        tids = sorted(self.dataset.tuple_ids if restrict_to is None else restrict_to)
        if not joins:
            yield from self._all_pairs(tids)
            return

        # Use the first equality predicate for bucketing; remaining join
        # predicates are enforced by the factor table itself.
        pred = joins[0]
        assert isinstance(pred.right, TupleRef)
        if pred.left.tuple_index == 1:
            attr1, attr2 = pred.left.attribute, pred.right.attribute
        else:
            attr1, attr2 = pred.right.attribute, pred.left.attribute

        buckets: dict[str, set[int]] = defaultdict(set)
        for tid in tids:
            for value in self._cell_values(tid, attr1):
                buckets[value].add(tid)
            if attr2 != attr1:
                for value in self._cell_values(tid, attr2):
                    buckets[value].add(tid)

        emitted: set[tuple[int, int]] = set()
        for bucket in buckets.values():
            members = sorted(bucket)
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    pair = (members[i], members[j])
                    if pair not in emitted:
                        emitted.add(pair)
                        yield pair
                        if len(emitted) >= self.max_pairs:
                            return

    def _all_pairs(self, tids: list[int]):
        count = 0
        for i in range(len(tids)):
            for j in range(i + 1, len(tids)):
                yield tids[i], tids[j]
                count += 1
                if count >= self.max_pairs:
                    return

    # ------------------------------------------------------------------
    def pairs_for(
        self,
        dc: DenialConstraint,
        use_partitioning: bool,
        hypergraph: ConflictHypergraph | None,
    ):
        """All pairs to ground for one constraint under the chosen strategy."""
        if not use_partitioning or hypergraph is None:
            yield from self.join_pairs(dc)
            return
        seen: set[tuple[int, int]] = set()
        for component in hypergraph.tuple_components(dc.name):
            for pair in self.join_pairs(dc, restrict_to=frozenset(component)):
                if pair not in seen:
                    seen.add(pair)
                    yield pair
                    if len(seen) >= self.max_pairs:
                        return
