"""Pluggable relational backends for the grounding engine.

The :class:`Backend` protocol is the narrow waist between HoloClean's
grounding logic and whatever executes the relational plan.  Two
implementations ship:

* :class:`NumpyBackend` — the default; joins and counts are vectorized
  NumPy over the :class:`~repro.engine.store.ColumnStore`.
* :class:`SQLiteBackend` — materialises the coded columns into an
  in-memory ``sqlite3`` database and runs the same operations as SQL,
  proving the paper's DBMS-grounding story end-to-end behind the same
  interface.

Both backends return identical arrays in identical order, so they are
interchangeable anywhere the engine is used.
"""

from __future__ import annotations

import itertools
import sqlite3
from array import array
from typing import Protocol, runtime_checkable

import numpy as np

from repro.engine import ops
from repro.engine.store import ColumnStore
from repro.obs.trace import deep_span

#: A join specification: one ``(t1 attribute, t2 attribute)`` pair per
#: equality predicate.
JoinAttrs = list[tuple[str, str]]


@runtime_checkable
class Backend(Protocol):
    """What the grounding engine needs from an execution backend."""

    name: str
    store: ColumnStore
    #: Processes a fan-out spreads over (1 on single-process backends);
    #: callers size their task lists and stream windows from it.
    workers: int
    #: Fan-out counters (``workers`` / ``calls`` / ``tasks``), surfaced as
    #: ``grounding_shards_*``; empty on backends that never fan out.
    shard_stats: dict[str, int]

    def value_counts(self, attribute: str) -> np.ndarray:
        """Occurrences per code of one attribute (dense, NULLs excluded)."""
        ...

    def pair_value_counts(self, attr_a: str, attr_b: str) -> np.ndarray:
        """``(k, 3)`` rows of ``[code_a, code_b, count]`` co-occurrences."""
        ...

    def join_pairs(self, join_attrs: JoinAttrs) -> tuple[np.ndarray, np.ndarray]:
        """Tuple-id pairs whose join keys coincide (see :class:`_BaseBackend`)."""
        ...

    def estimated_join_pairs(self, join_attrs: JoinAttrs) -> int:
        """Pairs :meth:`join_pairs` would materialise (histogram estimate).

        Production callers (the violation detector's memory guard) rely on
        this to reroute pathological joins to a streaming path before any
        pair array is allocated.
        """
        ...

    def domain_join_pairs(self, bucket_ids: np.ndarray,
                          member_tids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Candidate-domain bucket join for DC-factor grounding.

        Input is a normalised bucket membership (one row per distinct
        ``(bucket, tid)``, sorted by ``(bucket, tid)`` — see
        :func:`~repro.engine.ops.bucket_memberships`); output is every
        unordered tuple pair sharing a bucket, deduped to its first
        bucket, in the naive enumerator's exact emission order.
        """
        ...

    def shard_map(self, kind: str, tasks: list[tuple], **context) -> list | None:
        """Run compiler-level ``tasks`` of one ``kind`` on worker processes.

        Returns the results in task order, or ``None`` for "run them
        inline" — always on single-process backends, and on a sharding
        backend whose pool is unavailable.  ``context`` names the phase
        artifacts workers need beyond the column store.
        """
        ...

    def close(self) -> None:
        """Release what the backend holds (connections, pools, memory)."""
        ...


class _BaseBackend:
    """Shared key construction; subclasses supply the join executors.

    ``join_pairs`` reproduces the naive detector's pair stream exactly:
    symmetric joins (same attributes on both sides) yield unordered pairs
    ``left < right`` in bucket order; asymmetric joins yield ordered
    pairs in probe order with the naive back-edge dedup applied.
    """

    name = "base"
    workers = 1

    def __init__(self, store: ColumnStore):
        self.store = store
        self.shard_stats: dict[str, int] = {}
        #: join_attrs → (key1, key2, symmetric); safe because the store is
        #: an immutable snapshot.  Lets estimated_join_pairs + join_pairs
        #: share one composite-key construction per constraint.
        self._key_cache: dict[tuple, tuple[np.ndarray, np.ndarray, bool]] = {}

    # -- keys -----------------------------------------------------------
    def _keys_for(self, join_attrs: JoinAttrs) -> tuple[np.ndarray, np.ndarray, bool]:
        cache_key = tuple(join_attrs)
        cached = self._key_cache.get(cache_key)
        if cached is None:
            t1_attrs = [a for a, _ in join_attrs]
            t2_attrs = [b for _, b in join_attrs]
            if t1_attrs == t2_attrs:
                key = ops.combine_codes(
                    [self.store.codes(a) for a in t1_attrs])
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

    def join_pairs(self, join_attrs: JoinAttrs) -> tuple[np.ndarray, np.ndarray]:
        with deep_span("engine.join_pairs", backend=self.name,
                       join=str(join_attrs)) as sp:
            key1, key2, symmetric = self._keys_for(join_attrs)
            if symmetric:
                left, right = self._symmetric_pairs(key1)
            else:
                left, right = self._asymmetric_pairs(key1, key2)
                left, right = ops.dedup_ordered_pairs(left, right, key1)
            if sp is not None:
                sp.attributes["pairs"] = int(len(left))
            return left, right

    def estimated_join_pairs(self, join_attrs: JoinAttrs) -> int:
        """Pairs the join would materialise, from key histograms only.

        O(rows) — lets callers bail out to a streaming path before a
        pathological join (near-constant key) allocates huge arrays.
        """
        key1, key2, symmetric = self._keys_for(join_attrs)
        if symmetric:
            return ops.estimate_symmetric_pairs(key1)
        return ops.estimate_matching_pairs(key1, key2)

    def domain_join_pairs(self, bucket_ids: np.ndarray,
                          member_tids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        bucket_ids = np.asarray(bucket_ids, dtype=np.int64)
        member_tids = np.asarray(member_tids, dtype=np.int64)
        if not len(bucket_ids):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        with deep_span("engine.domain_join_pairs", backend=self.name,
                       buckets=int(bucket_ids[-1]) + 1) as sp:
            left, right = self._domain_pairs(bucket_ids, member_tids)
            if sp is not None:
                sp.attributes["pairs"] = int(len(left))
            return left, right

    def shard_map(self, kind: str, tasks: list[tuple], **context) -> None:
        return None

    def close(self) -> None:
        pass

    # -- executors (subclass responsibility) ----------------------------
    def _symmetric_pairs(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _asymmetric_pairs(self, key1: np.ndarray,
                          key2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def _domain_pairs(self, bucket_ids: np.ndarray,
                      member_tids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError


class NumpyBackend(_BaseBackend):
    """Vectorized NumPy execution directly over the column store."""

    name = "numpy"

    def value_counts(self, attribute: str) -> np.ndarray:
        return ops.value_counts(self.store.codes(attribute),
                                self.store.cardinality(attribute))

    def pair_value_counts(self, attr_a: str, attr_b: str) -> np.ndarray:
        return ops.pair_code_counts(self.store.codes(attr_a),
                                    self.store.codes(attr_b),
                                    self.store.cardinality(attr_b))

    def _symmetric_pairs(self, keys: np.ndarray):
        return ops.intra_group_pairs(keys)

    def _asymmetric_pairs(self, key1: np.ndarray, key2: np.ndarray):
        return ops.matching_pairs(key1, key2)

    def _domain_pairs(self, bucket_ids: np.ndarray, member_tids: np.ndarray):
        return ops.bucket_join_pairs(bucket_ids, member_tids)


class SQLiteBackend(_BaseBackend):
    """The same relational plan executed by an in-memory SQL DBMS.

    The coded columns are loaded once into a table ``cells(tid, c0..ck)``
    (codes as INTEGER, NULL for missing); counts are ``GROUP BY`` queries
    and joins are indexed self-joins over per-call key tables.
    """

    name = "sqlite"

    def __init__(self, store: ColumnStore):
        super().__init__(store)
        self._db = sqlite3.connect(":memory:")
        self._column_names = {a: f"c{i}"
                              for i, a in enumerate(store.attributes)}
        self._load()

    def _load(self) -> None:
        cols = ", ".join(f"{c} INTEGER" for c in self._column_names.values())
        self._db.execute(f"CREATE TABLE cells (tid INTEGER PRIMARY KEY, {cols})")
        columns = [self.store.codes(a) for a in self.store.attributes]
        rows = (
            (tid, *(int(col[tid]) if col[tid] >= 0 else None for col in columns))
            for tid in range(self.store.num_rows)
        )
        placeholders = ", ".join("?" * (len(columns) + 1))
        self._db.executemany(f"INSERT INTO cells VALUES ({placeholders})", rows)
        self._db.commit()

    # -- counts ---------------------------------------------------------
    def value_counts(self, attribute: str) -> np.ndarray:
        col = self._column_names[attribute]
        out = np.zeros(self.store.cardinality(attribute), dtype=np.int64)
        query = (f"SELECT {col}, COUNT(*) FROM cells "
                 f"WHERE {col} IS NOT NULL GROUP BY {col}")
        for code, count in self._db.execute(query):
            out[code] = count
        return out

    def pair_value_counts(self, attr_a: str, attr_b: str) -> np.ndarray:
        ca, cb = self._column_names[attr_a], self._column_names[attr_b]
        query = (f"SELECT {ca}, {cb}, COUNT(*) FROM cells "
                 f"WHERE {ca} IS NOT NULL AND {cb} IS NOT NULL "
                 f"GROUP BY {ca}, {cb} ORDER BY {ca}, {cb}")
        return self._fetch_columns(self._db.execute(query), width=3)

    # -- joins ----------------------------------------------------------
    def _key_table(self, *keys: np.ndarray) -> list[str]:
        """(Re)create the temp key table ``jk`` and return its key columns."""
        names = [f"k{i}" for i in range(len(keys))]
        self._db.execute("DROP TABLE IF EXISTS jk")
        cols = ", ".join(f"{k} INTEGER" for k in names)
        self._db.execute(f"CREATE TEMP TABLE jk (tid INTEGER PRIMARY KEY, {cols})")
        rows = zip(range(len(keys[0])),
                   *[(int(v) if v >= 0 else None for v in key) for key in keys])
        placeholders = ", ".join("?" * (len(keys) + 1))
        self._db.executemany(f"INSERT INTO jk VALUES ({placeholders})", rows)
        for k in names:
            self._db.execute(f"CREATE INDEX jk_{k} ON jk ({k})")
        return names

    #: Rows fetched per ``fetchmany`` round trip: large enough to amortise
    #: the cursor call, small enough that the transient row tuples of one
    #: batch stay cache-resident.
    FETCH_BATCH = 65_536

    @classmethod
    def _fetch_columns(cls, cursor: sqlite3.Cursor, width: int) -> np.ndarray:
        """Drain a cursor into a ``(rows, width)`` int64 array.

        Fetches in bounded ``fetchmany`` batches and appends through an
        ``array``-module adapter, so only one batch of Python row tuples
        is ever alive — not the whole result set (the ROADMAP's
        row-tuple-materialisation issue).
        """
        adapter = array("q")
        while True:
            rows = cursor.fetchmany(cls.FETCH_BATCH)
            if not rows:
                break
            adapter.extend(itertools.chain.from_iterable(rows))
        if not adapter:
            return np.empty((0, width), dtype=np.int64)
        return np.frombuffer(adapter, dtype=np.int64).reshape(-1, width)

    @classmethod
    def _fetch_pairs(cls, cursor: sqlite3.Cursor) -> tuple[np.ndarray, np.ndarray]:
        table = cls._fetch_columns(cursor, width=2)
        return (np.ascontiguousarray(table[:, 0]),
                np.ascontiguousarray(table[:, 1]))

    def _symmetric_pairs(self, keys: np.ndarray):
        (k,) = self._key_table(keys)
        # Bucket order = order of each key's first tuple, as in the naive
        # hash join (and the NumPy backend).
        query = (
            "SELECT a.tid, b.tid FROM jk a "
            f"JOIN jk b ON b.{k} = a.{k} AND b.tid > a.tid "
            f"JOIN (SELECT {k} AS key, MIN(tid) AS first FROM jk "
            f"      WHERE {k} IS NOT NULL GROUP BY {k}) g ON g.key = a.{k} "
            "ORDER BY g.first, a.tid, b.tid")
        pairs = self._fetch_pairs(self._db.execute(query))
        self._db.execute("DROP TABLE IF EXISTS jk")
        return pairs

    def _asymmetric_pairs(self, key1: np.ndarray, key2: np.ndarray):
        k1, k2 = self._key_table(key1, key2)
        query = (
            "SELECT a.tid, b.tid FROM jk a "
            f"JOIN jk b ON b.{k2} = a.{k1} AND b.tid != a.tid "
            "ORDER BY a.tid, b.tid")
        pairs = self._fetch_pairs(self._db.execute(query))
        self._db.execute("DROP TABLE IF EXISTS jk")
        return pairs

    def _domain_pairs(self, bucket_ids: np.ndarray, member_tids: np.ndarray):
        """Candidate-domain bucket join as SQL over a temp membership table.

        A pair is grouped to its smallest (= first-seen) bucket; ordering
        by ``(that bucket, t1, t2)`` reproduces the naive enumerator's
        bucket-walk emission order.
        """
        self._db.execute("DROP TABLE IF EXISTS dm")
        self._db.execute("CREATE TEMP TABLE dm (b INTEGER, tid INTEGER)")
        self._db.executemany(
            "INSERT INTO dm VALUES (?, ?)",
            zip((int(b) for b in bucket_ids), (int(t) for t in member_tids)))
        self._db.execute("CREATE INDEX dm_b ON dm (b)")
        query = (
            "SELECT t1, t2 FROM ("
            "  SELECT a.tid AS t1, b.tid AS t2, MIN(a.b) AS first "
            "  FROM dm a JOIN dm b ON b.b = a.b AND b.tid > a.tid "
            "  GROUP BY a.tid, b.tid) "
            "ORDER BY first, t1, t2")
        pairs = self._fetch_pairs(self._db.execute(query))
        self._db.execute("DROP TABLE IF EXISTS dm")
        return pairs

    def close(self) -> None:
        self._db.close()


_BACKENDS: dict[str, object] = {}


def register_backend(name: str, factory, *, replace: bool = False) -> None:
    """Register ``factory`` under ``name`` for :func:`make_backend`.

    ``factory`` is any callable ``factory(store, **options) -> Backend``
    (typically the backend class itself).  Backends self-register at
    import time — adding a DuckDB or Postgres backend needs no edits to
    the engine or to config validation, which both read this registry.
    Re-registering an existing name raises unless ``replace=True``.
    """
    if not name or not isinstance(name, str):
        raise ValueError(f"backend name must be a non-empty string, got {name!r}")
    if name in _BACKENDS and not replace:
        raise ValueError(f"engine backend {name!r} is already registered")
    _BACKENDS[name] = factory


def backend_names() -> tuple[str, ...]:
    """Currently registered backend names, in registration order."""
    return tuple(_BACKENDS)


def make_backend(store: ColumnStore, name: str = "numpy", **options) -> Backend:
    """Instantiate the named registered backend over a column store.

    ``options`` are forwarded to the backend factory (e.g.
    ``workers=`` / ``inner=`` for the parallel backend).
    """
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown engine backend {name!r}; pick one of {backend_names()}"
        ) from None
    return factory(store, **options)


register_backend("numpy", NumpyBackend)
register_backend("sqlite", SQLiteBackend)


def __getattr__(name: str):
    # ``BACKEND_NAMES`` is kept for backwards compatibility but computed
    # on access: a module-load-time snapshot would miss backends that
    # register after this module imports (e.g. "parallel").
    if name == "BACKEND_NAMES":
        return backend_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
