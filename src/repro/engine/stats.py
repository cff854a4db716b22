"""Engine-backed dataset statistics.

Drop-in replacement for :class:`repro.dataset.stats.Statistics`: the same
interface and byte-identical results, but single-column frequencies and
pairwise co-occurrence counts come from the backend's vectorized
group-bys instead of Python row scans, and the reference pruner's and
featurizer's hot query :meth:`cooccurring_values` is served from a
prebuilt index (one dict lookup per call) instead of a full scan of the
pair counter per cell.  The production pruner and featurizer read the
code-space tables (:meth:`joint_code_counts`, :meth:`conditional_table`)
directly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from repro.dataset.stats import Statistics
from repro.obs.trace import deep_span


class EngineStatistics(Statistics):
    """Statistics computed by a grounding :class:`~repro.engine.Engine`."""

    def __init__(self, engine):
        super().__init__(engine.dataset)
        self._engine = engine
        #: (attr, given_attr) → {given_value: {value: joint count}}
        self._cooc_index: dict[tuple[str, str], dict[str, dict[str, int]]] = {}
        #: attr → dense per-code counts (the backend group-by, cached).
        self._code_counts: dict[str, np.ndarray] = {}
        #: (attr_a, attr_b) → (k, 3) [code_a, code_b, count] rows.
        self._joint_codes: dict[tuple[str, str], np.ndarray] = {}
        #: (attr, given_attr) → CSR conditional lookup (see below).
        self._conditional: dict[
            tuple[str, str], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    # ------------------------------------------------------------------
    # Code-space counts (shared by the Counter builders below and the
    # vectorized featurizer, which consumes codes directly)
    # ------------------------------------------------------------------
    def code_counts(self, attribute: str) -> np.ndarray:
        """Occurrences per dictionary code of one attribute (cached)."""
        cached = self._code_counts.get(attribute)
        if cached is None:
            cached = self._engine.backend.value_counts(attribute)
            self._code_counts[attribute] = cached
        return cached

    def joint_code_counts(self, attr_a: str, attr_b: str) -> np.ndarray:
        """``(k, 3)`` co-occurrence rows sorted by ``(code_a, code_b)``.

        Cached per *ordered* pair, because each orientation has its own
        sort order; both come from one backend group-by.  The second is the
        first's rows with the code columns swapped, re-sorted by one
        ``lexsort`` over its ``k`` rows instead of a group-by over every
        tuple.  Algorithm 2 (:meth:`conditional_table`) and the vectorized
        co-occurrence featurizer both read the ``(context, attribute)``
        orientation, so the featurizer asks for no table the pruner did
        not.  Either build is one ``stats.pair_counts`` deep span.
        """
        key = (attr_a, attr_b)
        cached = self._joint_codes.get(key)
        if cached is None:
            swapped = self._joint_codes.get((attr_b, attr_a))
            with deep_span(
                "stats.pair_counts",
                pair=f"{attr_a},{attr_b}",
                derived=swapped is not None,
            ) as sp:
                if swapped is None:
                    cached = self._engine.backend.pair_value_counts(attr_a, attr_b)
                else:
                    order = np.lexsort((swapped[:, 0], swapped[:, 1]))
                    cached = swapped[order][:, [1, 0, 2]]
                if sp is not None:
                    sp.attributes["rows"] = len(cached)
            self._joint_codes[key] = cached
        return cached

    def conditional_table(
        self, attr: str, given_attr: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR view of ``joint_code_counts`` keyed by the *given* code.

        Returns ``(indptr, codes, counts)``: for a context code ``g`` of
        ``given_attr``, the candidate codes of ``attr`` co-occurring with
        it are ``codes[indptr[g]:indptr[g + 1]]`` with joint frequencies
        in the matching ``counts`` slice — the code-space form of the
        ``cooccurring_values`` dict that Algorithm 2's vectorized pruner
        expands without any per-cell dict materialisation.
        """
        key = (attr, given_attr)
        cached = self._conditional.get(key)
        if cached is None:
            rows = self.joint_code_counts(given_attr, attr)
            cardinality = self._engine.store.cardinality(given_attr)
            per_given = np.bincount(rows[:, 0], minlength=cardinality)
            indptr = np.zeros(cardinality + 1, dtype=np.int64)
            np.cumsum(per_given, out=indptr[1:])
            cached = (indptr, rows[:, 1], rows[:, 2])
            self._conditional[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Vectorized count builders
    # ------------------------------------------------------------------
    def _build_counts(self, attribute: str) -> Counter:
        store = self._engine.store
        counts = self.code_counts(attribute)
        values = store.values(attribute)
        return Counter({values[code]: int(n) for code, n in enumerate(counts) if n})

    def _build_pair_counts(self, key: tuple[str, str]) -> Counter:
        store = self._engine.store
        rows = self.joint_code_counts(key[0], key[1])
        values_a = store.values(key[0])
        values_b = store.values(key[1])
        return Counter(
            {(values_a[a], values_b[b]): int(n) for a, b, n in rows.tolist()}
        )

    # ------------------------------------------------------------------
    # Indexed conditional lookups
    # ------------------------------------------------------------------
    def cooccurring_values(
        self, attr: str, given_attr: str, given_value: str
    ) -> dict[str, int]:
        index_key = (attr, given_attr)
        index = self._cooc_index.get(index_key)
        if index is None:
            index = {}
            # Built from the same counters the naive path scans, so the
            # per-given-value dicts match it entry for entry.
            if attr <= given_attr:
                for (va, vb), n in self.pair_counts(attr, given_attr).items():
                    index.setdefault(vb, {})[va] = n
            else:
                for (vb, va), n in self.pair_counts(given_attr, attr).items():
                    index.setdefault(vb, {})[va] = n
            self._cooc_index[index_key] = index
        hit = index.get(given_value)
        # Shared cache — callers must not mutate.  Every caller (the
        # naive pruner, the co-occurrence featurizer, SCARE's candidate
        # scan) only reads, so the per-call defensive copy the naive
        # implementation implies is skipped on this hot path.
        return hit if hit is not None else {}

    # ------------------------------------------------------------------
    def drop_caches(self) -> None:
        """Forget every memoised count (also called by ``Engine.refresh``)."""
        super().invalidate()
        self._cooc_index.clear()
        self._code_counts.clear()
        self._joint_codes.clear()
        self._conditional.clear()

    def invalidate(self) -> None:
        """Drop caches and re-encode the store after dataset mutation."""
        self.drop_caches()
        self._engine.refresh()
