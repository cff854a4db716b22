"""Warm-session store: an LRU cache of repair contexts keyed by content.

The serving layer amortizes the expensive detect + compile stages
across requests: the first request for a (dataset, constraint-set)
pair pays them once, and every later request — feedback rounds,
marginal queries, re-inference under new learning knobs — re-enters
the retained :class:`~repro.core.stages.RepairContext` through the
staged plan, where detect and compile skip themselves because their
artifacts are already present.

Sessions are keyed by *content*, not by caller: the
:class:`SessionKey` folds the dataset fingerprint and the
constraint-set fingerprint (:mod:`repro.obs.fingerprint`), so two
clients uploading the same problem share one warm context, and the
session id is deterministic — a client can compute it before its
first request.

Capacity is bounded: admitting a session beyond ``capacity`` evicts
the least-recently-used one, handing it to the ``on_evict`` callback
(the service checkpoints it to disk there, then releases its engine).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.core.stages import RepairContext
from repro.obs.fingerprint import combine_fingerprints


class SessionKey(NamedTuple):
    """Content identity of a session.

    ``dataset`` and ``constraints`` are the short content hashes from
    :mod:`repro.obs.fingerprint`.  The config fingerprint is
    deliberately *not* part of the key: re-running a session under new
    learning knobs is exactly the warm path the store exists for.
    """

    dataset: str
    constraints: str

    @property
    def session_id(self) -> str:
        """Deterministic session id derived from the content hashes."""
        return combine_fingerprints(self.dataset, self.constraints)

    @classmethod
    def for_context(cls, ctx: RepairContext) -> "SessionKey":
        parts = ctx.fingerprints()
        return cls(dataset=parts["dataset"], constraints=parts["constraints"])


@dataclass
class Session:
    """One warm repair context plus its serving bookkeeping."""

    sid: str
    key: SessionKey
    ctx: RepairContext
    created_at: float = field(default_factory=time.time)
    last_used: float = 0.0
    requests: int = 0
    #: True once a checkpointed stage ran after the last successful save
    #: of this session's checkpoint: eviction saves only then.
    unsaved: bool = False
    #: Serializes jobs touching this context — stage plans mutate it,
    #: so two concurrent requests for the same session must queue.
    lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def __post_init__(self) -> None:
        if not self.last_used:
            self.last_used = self.created_at

    def touch(self) -> None:
        self.last_used = time.time()
        self.requests += 1


class SessionStore:
    """A thread-safe LRU cache of live :class:`Session` objects.

    ``on_evict`` (if given) receives every session displaced by
    capacity pressure or :meth:`clear(evict=True)` — but *not* sessions
    removed explicitly via :meth:`remove`, which is the "purge, don't
    preserve" path.
    """

    def __init__(
        self,
        capacity: int = 16,
        on_evict: Callable[[Session], None] | None = None,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self.on_evict = on_evict
        self._lock = threading.Lock()
        self._sessions: OrderedDict[str, Session] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, sid: str) -> Session | None:
        """The session with this id, marked most-recently-used."""
        with self._lock:
            session = self._sessions.get(sid)
            if session is None:
                self.misses += 1
                return None
            self._sessions.move_to_end(sid)
            self.hits += 1
            session.touch()
            return session

    def lookup(self, key: SessionKey) -> Session | None:
        """The session for this content key, if warm."""
        return self.get(key.session_id)

    def peek(self, sid: str) -> Session | None:
        """Like :meth:`get` but without touching recency or counters."""
        with self._lock:
            return self._sessions.get(sid)

    def admit(self, key: SessionKey, ctx: RepairContext) -> Session:
        """Insert (or replace) the session for this key.

        Returns the live session; evicts the least-recently-used entry
        when the insert pushes the store past capacity.
        """
        sid = key.session_id
        evicted: list[Session] = []
        with self._lock:
            old = self._sessions.pop(sid, None)
            if old is not None:
                evicted.append(old)
            session = Session(sid=sid, key=key, ctx=ctx)
            self._sessions[sid] = session
            while len(self._sessions) > self.capacity:
                _, displaced = self._sessions.popitem(last=False)
                self.evictions += 1
                evicted.append(displaced)
        if self.on_evict is not None:
            for session_out in evicted:
                self.on_evict(session_out)
        return session

    def remove(self, sid: str) -> Session | None:
        """Drop the session without invoking ``on_evict``."""
        with self._lock:
            return self._sessions.pop(sid, None)

    def evict(self, sid: str) -> Session | None:
        """Drop the session through the ``on_evict`` callback."""
        with self._lock:
            session = self._sessions.pop(sid, None)
            if session is not None:
                self.evictions += 1
        if session is not None and self.on_evict is not None:
            self.on_evict(session)
        return session

    def clear(self, evict: bool = False) -> None:
        """Drop every session (through ``on_evict`` when ``evict``)."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        if evict and self.on_evict is not None:
            for session in sessions:
                self.on_evict(session)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def __contains__(self, sid: str) -> bool:
        with self._lock:
            return sid in self._sessions

    def session_ids(self) -> list[str]:
        """Resident ids, least- to most-recently-used."""
        with self._lock:
            return list(self._sessions)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "sessions": len(self._sessions),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
