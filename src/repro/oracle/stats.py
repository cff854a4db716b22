"""Row-scan statistics: the counts Algorithm 2 and Section 4.2 read.

The tuple-at-a-time reference for the engine's code tables
(:class:`~repro.engine.stats.EngineStatistics`): value frequencies and
pairwise co-occurrence counts as ``Counter`` objects, each built by one
Python scan of the rows per attribute (pair).  The reference domain
pruner reads ``Pr[v | v_c'] = #(v, v_c' together) / #(v_c')`` off them
and the reference featurizers read the same counts, so the equivalence
tests can demand byte-identical domains and features from the engine.
"""

from __future__ import annotations

from collections import Counter

from repro.dataset.dataset import Dataset


class Statistics:
    """Frequency and co-occurrence counts over a :class:`Dataset`.

    NULL neither counts as a value nor conditions anything, matching the
    paper's treatment of missing data as cells to be inferred rather than
    observations.  Counters are built on first use per attribute (ordered
    attribute pair) and cached; they are shared, so callers must not
    mutate them.
    """

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self._single: dict[str, Counter] = {}
        self._pair: dict[tuple[str, str], Counter] = {}

    def counts(self, attribute: str) -> Counter:
        """Value → occurrence count for one attribute, in first-seen order."""
        cached = self._single.get(attribute)
        if cached is None:
            idx = self._dataset.schema.index_of(attribute)
            cached = Counter()
            for tid in self._dataset.tuple_ids:
                v = self._dataset.row_ref(tid)[idx]
                if v is not None:
                    cached[v] += 1
            self._single[attribute] = cached
        return cached

    def frequency(self, attribute: str, value: str) -> int:
        """Number of tuples where ``attribute = value``."""
        return self.counts(attribute).get(value, 0)

    def most_common(self, attribute: str, k: int = 1) -> list[tuple[str, int]]:
        return self.counts(attribute).most_common(k)

    def pair_counts(self, attr_a: str, attr_b: str) -> Counter:
        """(value_a, value_b) → co-occurrence count, in caller order."""
        if attr_a == attr_b:
            raise ValueError("co-occurrence requires two distinct attributes")
        cached = self._pair.get((attr_a, attr_b))
        if cached is None:
            ia = self._dataset.schema.index_of(attr_a)
            ib = self._dataset.schema.index_of(attr_b)
            cached = Counter()
            for tid in self._dataset.tuple_ids:
                row = self._dataset.row_ref(tid)
                va, vb = row[ia], row[ib]
                if va is not None and vb is not None:
                    cached[(va, vb)] += 1
            self._pair[(attr_a, attr_b)] = cached
        return cached

    def cooccurring_values(
        self, attr: str, given_attr: str, given_value: str
    ) -> dict[str, int]:
        """All values of ``attr`` co-occurring with ``given_attr=given_value``.

        Returns value → joint count; the candidate-generation inner loop of
        Algorithm 2 iterates this mapping instead of the full active domain,
        which is equivalent (values that never co-occur have Pr = 0 < τ).
        """
        out: dict[str, int] = {}
        for (va, vb), n in self.pair_counts(attr, given_attr).items():
            if vb == given_value:
                out[va] = n
        return out
