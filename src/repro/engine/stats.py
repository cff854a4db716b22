"""The counts Algorithm 2 and the Section 4.2 features read, as code tables.

Single-column frequencies and pairwise co-occurrence counts come from the
backend's vectorized group-bys over the engine's
:class:`~repro.engine.store.ColumnStore` and stay in code space: dense
per-code counts (:meth:`EngineStatistics.code_counts`), sorted
``(code_a, code_b, count)`` rows per ordered attribute pair
(:meth:`EngineStatistics.joint_code_counts`) and their CSR view keyed by
the conditioning code (:meth:`EngineStatistics.conditional_table`).  No
value string is looked up; a caller decodes codes through
``store.values`` when it needs one.  The equivalence tests compare these
tables against the row-scan counters of :mod:`repro.oracle`.
"""

from __future__ import annotations

import numpy as np

from repro.obs.trace import deep_span


class EngineStatistics:
    """Code-space counts computed by a grounding :class:`~repro.engine.Engine`."""

    def __init__(self, engine):
        self._engine = engine
        #: attr → dense per-code counts (the backend group-by, cached).
        self._code_counts: dict[str, np.ndarray] = {}
        #: (attr_a, attr_b) → (k, 3) [code_a, code_b, count] rows.
        self._joint_codes: dict[tuple[str, str], np.ndarray] = {}
        #: (attr, given_attr) → CSR conditional lookup (see below).
        self._conditional: dict[
            tuple[str, str], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

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
        in the matching ``counts`` slice: the values ``v`` that Algorithm
        2's ``Pr[v | g]`` can select, which the pruner expands without any
        per-cell dict.
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

    def drop_caches(self) -> None:
        """Forget every memoised count (called by ``Engine.refresh``)."""
        self._code_counts.clear()
        self._joint_codes.clear()
        self._conditional.clear()
