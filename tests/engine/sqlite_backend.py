"""The engine's relational plan executed by an in-memory SQL DBMS.

A test double, not a product: the paper grounds its model inside a DBMS,
and this subclass of the one :class:`~repro.engine.backend.Backend`
proves the vectorized plan ≡ the same plan as SQL — identical arrays in
identical order — by overriding the two counts and the three join
executors.  Inject it with ``Engine(dataset, backend=SQLiteBackend)``.
"""

from __future__ import annotations

import itertools
import sqlite3
from array import array

import numpy as np

from repro.engine.backend import Backend
from repro.engine.store import ColumnStore


class SQLiteBackend(Backend):
    """Counts as ``GROUP BY`` queries, joins as indexed self-joins.

    The coded columns are loaded once into a table ``cells(tid, c0..ck)``
    (codes as INTEGER, NULL for missing); joins run over per-call key
    tables.
    """

    name = "sqlite"

    #: Rows per ``fetchmany`` round trip: results drain through an
    #: ``array``-module adapter, one bounded batch of row tuples at a time.
    FETCH_BATCH = 65_536

    def __init__(self, store: ColumnStore):
        super().__init__(store)
        self._db = sqlite3.connect(":memory:")
        self._column_names = {a: f"c{i}" for i, a in enumerate(store.attributes)}
        cols = ", ".join(f"{c} INTEGER" for c in self._column_names.values())
        self._db.execute(f"CREATE TABLE cells (tid INTEGER PRIMARY KEY, {cols})")
        columns = [store.codes(a) for a in store.attributes]
        rows = (
            (tid, *(int(col[tid]) if col[tid] >= 0 else None for col in columns))
            for tid in range(store.num_rows)
        )
        placeholders = ", ".join("?" * (len(columns) + 1))
        self._db.executemany(f"INSERT INTO cells VALUES ({placeholders})", rows)
        self._db.commit()

    def close(self) -> None:
        self._db.close()

    # -- counts ---------------------------------------------------------
    def value_counts(self, attribute: str) -> np.ndarray:
        col = self._column_names[attribute]
        out = np.zeros(self.store.cardinality(attribute), dtype=np.int64)
        query = (
            f"SELECT {col}, COUNT(*) FROM cells "
            f"WHERE {col} IS NOT NULL GROUP BY {col}"
        )
        for code, count in self._db.execute(query):
            out[code] = count
        return out

    def pair_value_counts(self, attr_a: str, attr_b: str) -> np.ndarray:
        ca, cb = self._column_names[attr_a], self._column_names[attr_b]
        query = (
            f"SELECT {ca}, {cb}, COUNT(*) FROM cells "
            f"WHERE {ca} IS NOT NULL AND {cb} IS NOT NULL "
            f"GROUP BY {ca}, {cb} ORDER BY {ca}, {cb}"
        )
        return self._fetch_columns(self._db.execute(query), width=3)

    # -- joins ----------------------------------------------------------
    def _key_table(self, *keys: np.ndarray) -> list[str]:
        """(Re)create the temp key table ``jk`` and return its key columns."""
        names = [f"k{i}" for i in range(len(keys))]
        self._db.execute("DROP TABLE IF EXISTS jk")
        cols = ", ".join(f"{k} INTEGER" for k in names)
        self._db.execute(f"CREATE TEMP TABLE jk (tid INTEGER PRIMARY KEY, {cols})")
        rows = zip(
            range(len(keys[0])),
            *[(int(v) if v >= 0 else None for v in key) for key in keys],
        )
        placeholders = ", ".join("?" * (len(keys) + 1))
        self._db.executemany(f"INSERT INTO jk VALUES ({placeholders})", rows)
        for k in names:
            self._db.execute(f"CREATE INDEX jk_{k} ON jk ({k})")
        return names

    @classmethod
    def _fetch_columns(cls, cursor: sqlite3.Cursor, width: int) -> np.ndarray:
        """Drain a cursor into a ``(rows, width)`` int64 array."""
        adapter = array("q")
        while True:
            rows = cursor.fetchmany(cls.FETCH_BATCH)
            if not rows:
                break
            adapter.extend(itertools.chain.from_iterable(rows))
        if not adapter:
            return np.empty((0, width), dtype=np.int64)
        return np.frombuffer(adapter, dtype=np.int64).reshape(-1, width)

    def _pairs(self, query: str, table: str) -> tuple[np.ndarray, np.ndarray]:
        pairs = self._fetch_columns(self._db.execute(query), width=2)
        self._db.execute(f"DROP TABLE IF EXISTS {table}")
        return np.ascontiguousarray(pairs[:, 0]), np.ascontiguousarray(pairs[:, 1])

    def _membership_table(self, bucket_ids: np.ndarray, member_tids: np.ndarray):
        """(Re)create the temp bucket-membership table ``dm(b, tid)``."""
        self._db.execute("DROP TABLE IF EXISTS dm")
        self._db.execute("CREATE TEMP TABLE dm (b INTEGER, tid INTEGER)")
        self._db.executemany(
            "INSERT INTO dm VALUES (?, ?)",
            zip((int(b) for b in bucket_ids), (int(t) for t in member_tids)),
        )
        self._db.execute("CREATE INDEX dm_b ON dm (b)")

    def _symmetric_pairs(self, bucket_ids: np.ndarray, member_tids: np.ndarray):
        # Buckets are numbered in the order of their first tuple, so
        # ordering by (bucket, t1, t2) is the naive hash join's order.
        self._membership_table(bucket_ids, member_tids)
        query = (
            "SELECT a.tid, b.tid FROM dm a "
            "JOIN dm b ON b.b = a.b AND b.tid > a.tid "
            "ORDER BY a.b, a.tid, b.tid"
        )
        return self._pairs(query, "dm")

    def _asymmetric_pairs(
        self, key1: np.ndarray, key2: np.ndarray, start: int, stop: int
    ):
        k1, k2 = self._key_table(key1, key2)
        query = (
            "SELECT a.tid, b.tid FROM jk a "
            f"JOIN jk b ON b.{k2} = a.{k1} AND b.tid != a.tid "
            f"WHERE a.tid >= {int(start)} AND a.tid < {int(stop)} "
            "ORDER BY a.tid, b.tid"
        )
        return self._pairs(query, "jk")

    def _domain_pairs(self, bucket_ids: np.ndarray, member_tids: np.ndarray):
        # A pair is grouped to its smallest (= first-seen) bucket; ordering
        # by (that bucket, t1, t2) reproduces the naive enumerator's
        # bucket-walk emission order.
        self._membership_table(bucket_ids, member_tids)
        query = (
            "SELECT t1, t2 FROM ("
            "  SELECT a.tid AS t1, b.tid AS t2, MIN(a.b) AS first "
            "  FROM dm a JOIN dm b ON b.b = a.b AND b.tid > a.tid "
            "  GROUP BY a.tid, b.tid) "
            "ORDER BY first, t1, t2"
        )
        return self._pairs(query, "dm")
