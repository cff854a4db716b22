"""Reference violation detection: every join tuple-at-a-time."""

from __future__ import annotations

from repro.detect.violations import ViolationDetector


class NaiveViolationDetector(ViolationDetector):
    """:class:`ViolationDetector` with no vectorized join.

    Every two-tuple constraint runs the Python hash join and per-pair
    predicate evaluation that production keeps for join-free constraints
    and for joins over its ``max_engine_pairs`` guard.
    """

    def _detect_pairs_engine(self, engine, dataset, dc, hypergraph) -> None:
        self._detect_pairs(dataset, dc, hypergraph)
