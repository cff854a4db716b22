"""Reference violation detection: every join tuple-at-a-time."""

from __future__ import annotations

from repro.detect.violations import ViolationDetector


class NaiveViolationDetector(ViolationDetector):
    """:class:`ViolationDetector` with no vectorized join or mask.

    Every two-tuple constraint runs the Python hash join and per-pair
    predicate evaluation that production keeps for join-free constraints
    and for joins over its ``max_engine_pairs`` guard; every single-tuple
    constraint is checked tuple by tuple.
    """

    def _detect_single(self, engine, dataset, dc, hypergraph) -> None:
        tids = [
            tid for tid in dataset.tuple_ids if dc.violates(dataset.tuple_dict(tid))
        ]
        hypergraph.add_block(dc.name, tids, [sorted(dc.attributes_of(1))])

    def _detect_pairs_engine(self, engine, dataset, dc, hypergraph) -> None:
        self._detect_pairs(dataset, dc, hypergraph)
