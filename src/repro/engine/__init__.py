"""Vectorized relational engine for grounding (the paper's DBMS layer).

HoloClean grounds its probabilistic model with relational queries inside
a DBMS (Postgres + DeepDive, §4–5 of the paper); this package is the
reproduction's equivalent subsystem:

* :mod:`~repro.engine.store` — :class:`ColumnStore`, a dictionary-encoded
  columnar snapshot of a dataset;
* :mod:`~repro.engine.ops` — vectorized join / group-by / counting
  primitives over coded columns;
* :mod:`~repro.engine.stats` — :class:`EngineStatistics`, engine-computed
  frequencies and co-occurrences behind the standard ``Statistics`` API
  (its ``conditional_table`` is the full ``(attr, given)`` count table;
  Algorithm 2's τ is tested on that table once, by the pruner in
  :mod:`repro.core.vector_domain`, which caches the surviving rows);
* :mod:`~repro.engine.backend` — :class:`Backend`, the one executor of
  the relational plan (vectorized NumPy joins and group-by counts).

The :class:`Engine` facade bundles one store with one backend; the
pipeline builds one per repair and hands it to the violation detector and
the compiler.  Every grounding entry point takes ``engine=None`` to mean
"build one over my dataset" (:func:`engine_for`) — there is no engine-less
grounding path.  The tuple-at-a-time reference implementations the
equivalence tests compare against live in :mod:`repro.oracle`.
"""

from __future__ import annotations

from repro.dataset.dataset import Dataset
from repro.engine.backend import Backend
from repro.engine.store import NULL_CODE, ColumnStore
from repro.obs.trace import deep_span


class Engine:
    """One dataset's column store plus the relational executor over it.

    Construction is cheap; the store and backend are built lazily on
    first use and cached.  ``refresh()`` drops them so the next access
    re-encodes the (mutated) dataset.  ``backend`` is a class
    ``(store) -> backend`` — the seam the equivalence tests inject their
    SQL rendering of the plan through; production never passes it.
    """

    def __init__(self, dataset: Dataset, backend: type[Backend] = Backend):
        self.dataset = dataset
        self._backend_class = backend
        self._store: ColumnStore | None = None
        self._backend: Backend | None = None
        self._statistics = None

    # ------------------------------------------------------------------
    @property
    def store(self) -> ColumnStore:
        if self._store is None:
            with deep_span("engine.encode", tuples=self.dataset.num_tuples):
                self._store = ColumnStore(self.dataset)
        return self._store

    @property
    def backend(self) -> Backend:
        if self._backend is None:
            self._backend = self._backend_class(self.store)
        return self._backend

    def statistics(self):
        """An :class:`~repro.engine.stats.EngineStatistics` over this engine
        (one shared instance, so counts feed the domain pruner and the
        co-occurrence featurizers without recomputation)."""
        if self._statistics is None:
            from repro.engine.stats import EngineStatistics

            self._statistics = EngineStatistics(self)
        return self._statistics

    def close(self) -> None:
        """Release backend resources.

        The closed backend is dropped, so a later access rebuilds one
        lazily over the same store instead of reaching a dead handle.
        """
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def refresh(self) -> None:
        """Invalidate the encoded snapshot after the dataset was mutated."""
        self.close()
        self._store = None
        if self._statistics is not None:
            # Cached counts were computed from the stale encoding; drop
            # them so any caller still holding the instance stays honest.
            stats = self._statistics
            self._statistics = None
            stats.drop_caches()

    def __repr__(self) -> str:
        return (
            f"Engine(backend={self._backend_class.__name__}, "
            f"dataset={self.dataset.name!r})"
        )


def engine_for(dataset: Dataset, engine: Engine | None = None) -> Engine:
    """``engine`` checked against ``dataset``; a fresh one for ``None``.

    The one place grounding entry points resolve their ``engine=``
    argument: an engine encodes one dataset, so handing it another is a
    caller bug and raises instead of grounding over the wrong snapshot.
    """
    if engine is None:
        return Engine(dataset)
    if engine.dataset is not dataset:
        raise ValueError("engine was built over a different dataset")
    return engine


__all__ = ["Backend", "ColumnStore", "Engine", "NULL_CODE", "engine_for"]
