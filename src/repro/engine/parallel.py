"""Multi-core sharded grounding: a process-pool wrapper around any backend.

HoloClean's original system leans on the DBMS to parallelize grounding
(Rekatsinas et al., VLDB 2017, §4); this module is the reproduction's
equivalent: a :class:`ParallelBackend` that wraps an inner backend and fans
the engine's deterministic, independent work units — value-bucket ranges of
a symmetric join, probe-row ranges of an asymmetric join, bucket ranges of
a candidate-domain join, and the compiler-level prune / featurize / factor
tasks — out to a ``multiprocessing`` pool, merging results back in
canonical order so every artifact stays **byte-identical** to the
single-process oracle.

Workers receive the dictionary-encoded :class:`ColumnStore` columns once,
through one ``multiprocessing.shared_memory`` block of ``int32`` codes
(not per-chunk pickles), rebuild the dataset and engine from it at pool
start, and keep per-phase heavy objects (domain pruner, factor-table
builder, featurizer) cached for the pool's lifetime.  The pool uses the
``fork`` start method; where that is unavailable, or pool / shared-memory
creation fails, every sharded operation silently degrades to the inner
backend — parallelism is an optimization, never a requirement.

Determinism notes (each proved byte-identical in ``tests/engine``):

* symmetric joins shard by contiguous ranges of value buckets in emission
  (first-member) order; bucket first members are distinct, so shard
  concatenation equals the global ``intra_group_pairs`` stream;
* asymmetric joins shard by contiguous probe-row ranges (the build side is
  global), preserving probe order; the parent applies the back-edge dedup;
* domain joins shard by contiguous bucket ranges with within-shard
  first-bucket dedup; the parent re-runs the global first-occurrence dedup
  over the concatenation, which commutes with sharding.
"""

from __future__ import annotations

import multiprocessing
import os
import weakref
from dataclasses import dataclass

import numpy as np

from repro.dataset.dataset import Dataset
from repro.engine import ops
from repro.engine.backend import (
    Backend,
    JoinAttrs,
    _BaseBackend,
    make_backend,
    register_backend,
)
from repro.engine.store import ColumnStore
from repro.obs.trace import deep_span

_EMPTY = np.empty(0, dtype=np.int64)


# ---------------------------------------------------------------------------
# Shared-memory shipping of the column store
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SharedStoreSpec:
    """Everything a worker needs to rebuild the engine's world.

    The int32 code columns travel through one shared-memory block (viewed
    zero-copy by every worker); the value dictionaries and schema are small
    and ride along in the spec itself.
    """

    shm_name: str
    num_rows: int
    attributes: tuple[str, ...]
    values: dict[str, list[str]]
    schema: object
    dataset_name: str
    start_method: str


def _share_store(store: ColumnStore):
    """Copy the store's coded columns into one shared-memory block."""
    from multiprocessing import shared_memory

    attrs = tuple(store.attributes)
    rows = store.num_rows
    shm = shared_memory.SharedMemory(create=True, size=max(4 * rows * len(attrs), 1))
    block = np.ndarray((len(attrs), rows), dtype=np.int32, buffer=shm.buf)
    for i, attr in enumerate(attrs):
        block[i, :] = store.codes(attr)
    spec = SharedStoreSpec(
        shm_name=shm.name,
        num_rows=rows,
        attributes=attrs,
        values={a: store.values(a) for a in attrs},
        schema=store.dataset.schema,
        dataset_name=store.dataset.name,
        start_method=multiprocessing.get_start_method(allow_none=True) or "fork",
    )
    return shm, spec


class _WorkerState:
    """One worker's reconstruction of the parent's engine world.

    Built once per pool (re)start; byte-identical to the parent because
    every piece is a deterministic function of the shared coded columns.
    """

    def __init__(self, spec: SharedStoreSpec, context: dict):
        from multiprocessing import shared_memory

        self.spec = spec
        self.context = context
        self.caches: dict = {}
        self.shm = shared_memory.SharedMemory(name=spec.shm_name)
        # Close (not unlink — the parent owns the segment) when this
        # state is collected, so a worker that outlives one pool start
        # does not accumulate mappings.
        weakref.finalize(self, _close_shm, self.shm)
        if spec.start_method != "fork":
            # Attaching registers the segment with this process's resource
            # tracker, which would unlink it when the worker exits.  Under
            # fork the tracker is shared with the parent (which owns the
            # segment), so no unregister is needed — or wanted.
            try:
                from multiprocessing import resource_tracker

                resource_tracker.unregister(self.shm._name, "shared_memory")
            except Exception:
                pass
        block = np.ndarray(
            (len(spec.attributes), spec.num_rows), dtype=np.int32, buffer=self.shm.buf
        )
        codes = {attr: block[i] for i, attr in enumerate(spec.attributes)}
        dataset = Dataset(spec.schema, name=spec.dataset_name)
        columns = []
        for attr in spec.attributes:
            values = spec.values[attr]
            columns.append(
                [None if c < 0 else values[c] for c in codes[attr].tolist()]
            )
        if columns:
            dataset._rows = [list(row) for row in zip(*columns)]
        else:
            dataset._rows = [[] for _ in range(spec.num_rows)]
        store = ColumnStore.from_arrays(dataset, codes, spec.values)

        from repro.engine import Engine

        engine = Engine(dataset)
        engine._store = store
        self.dataset = dataset
        self.engine = engine
        self.backend = engine.backend


_WORKER: _WorkerState | None = None


def _init_worker(spec: SharedStoreSpec, context: dict) -> None:
    global _WORKER
    _WORKER = _WorkerState(spec, context)


# ---------------------------------------------------------------------------
# Deterministic shard plans (computed identically by parent and workers)
# ---------------------------------------------------------------------------
def _symmetric_plan(keys: np.ndarray):
    """The bucket layout ``ops.intra_group_pairs`` walks, in emission order.

    Returns ``(order, starts, sizes, emission)`` where ``order`` holds the
    non-NULL rows sorted by key (rows ascending within a bucket), buckets
    are delimited by ``starts``/``sizes``, and ``emission`` lists bucket
    indices by their first (minimum) member row — the order the naive hash
    join, and therefore ``intra_group_pairs``, emits buckets in.
    """
    keys = np.asarray(keys)
    rows = np.nonzero(keys >= 0)[0]
    if not len(rows):
        return None
    order = rows[np.argsort(keys[rows], kind="stable")]
    starts, sizes = ops.bucket_extents(keys[order])
    emission = np.argsort(order[starts], kind="stable")
    return order, starts, sizes, emission


def _expand_symmetric_range(plan, lo: int, hi: int):
    """Nested-loop pairs of emission-order buckets ``[lo, hi)`` of a plan."""
    order, starts, sizes, emission = plan
    pick = emission[lo:hi]
    if not len(pick):
        return _EMPTY, _EMPTY
    pick_sizes = sizes[pick]
    members = order[ops.expand_ranges(starts[pick], pick_sizes)]
    if not len(members):
        return _EMPTY, _EMPTY
    pick_starts = np.concatenate(([0], np.cumsum(pick_sizes)[:-1]))
    left, right, _ = ops._expand_contiguous_pairs(members, pick_starts, pick_sizes)
    return (
        left.astype(np.int64, copy=False),
        right.astype(np.int64, copy=False),
    )


def _balanced_ranges(weights: np.ndarray, parts: int) -> list[tuple[int, int]]:
    """Split ``[0, len(weights))`` into ≤ ``parts`` contiguous ranges of
    roughly equal total weight (deterministic, empty ranges dropped)."""
    n = len(weights)
    if n == 0:
        return []
    cumulative = np.cumsum(weights)
    total = int(cumulative[-1])
    if total <= 0 or parts <= 1:
        return [(0, n)]
    out: list[tuple[int, int]] = []
    lo = 0
    for k in range(parts):
        target = total * (k + 1) // parts
        hi = int(np.searchsorted(cumulative, target, side="left")) + 1
        hi = min(hi, n)
        if hi > lo:
            out.append((lo, hi))
            lo = hi
    if lo < n:
        out.append((lo, n))
    return out


def _concat_pairs(results) -> tuple[np.ndarray, np.ndarray]:
    lefts = [left for left, _ in results]
    rights = [right for _, right in results]
    if not lefts:
        return _EMPTY, _EMPTY
    return np.concatenate(lefts), np.concatenate(rights)


# ---------------------------------------------------------------------------
# Worker-side task handlers
# ---------------------------------------------------------------------------
def _task_symmetric(state: _WorkerState, join_attrs, lo: int, hi: int):
    plan = state.caches.get(("sym", join_attrs))
    if plan is None:
        key, _, _ = state.backend._keys_for(list(join_attrs))
        plan = _symmetric_plan(key)
        state.caches[("sym", join_attrs)] = plan
    if plan is None:
        return _EMPTY, _EMPTY
    return _expand_symmetric_range(plan, lo, hi)


def _task_asymmetric(state: _WorkerState, join_attrs, lo: int, hi: int):
    key1, key2, _ = state.backend._keys_for(list(join_attrs))
    masked = np.full(len(key1), -1, dtype=np.int64)
    masked[lo:hi] = key1[lo:hi]
    return ops.matching_pairs(masked, key2)


def _task_domain(state: _WorkerState, bucket_ids, member_tids):
    return ops.bucket_join_pairs(bucket_ids, member_tids)


def _task_prune(state: _WorkerState, cells, params):
    # Workers replay the parent's set-at-a-time kernel (one vectorized
    # pass per attribute group of the chunk), not per-cell DomainPruner
    # clones — pruning a shard is the same computation as pruning the
    # whole cell set restricted to it, so results merge byte-identically.
    if state.caches.get("pruner_params") != params:
        from repro.core.vector_domain import VectorDomainPruner

        tau, max_domain, strategy, attributes = params
        state.caches["pruner"] = VectorDomainPruner(
            state.engine,
            tau=tau,
            max_domain=max_domain,
            attributes=list(attributes),
            strategy=strategy,
        )
        state.caches["pruner_params"] = params
    return state.caches["pruner"].prune(cells)


def _task_factor(state: _WorkerState, ci: int, left, right):
    builder = state.caches.get("factor_builder")
    if builder is None:
        from repro.core.factor_tables import VectorFactorTableBuilder

        constraints, variables, domains, max_table_cells, weight = state.context[
            "factors"
        ]
        builder = VectorFactorTableBuilder(
            state.engine, state.dataset, variables, domains, max_table_cells, weight
        )
        state.caches["factor_builder"] = builder
        state.caches["factor_constraints"] = constraints
    dc = state.caches["factor_constraints"][ci]
    before = dict(builder.stats)
    factors, skipped = builder._ground_chunk(dc, left, right)
    delta = {key: builder.stats[key] - before[key] for key in builder.stats}
    return factors, skipped, delta


def _task_dc_features(state: _WorkerState, di: int, mode: str):
    featurizer = state.caches.get("featurizer")
    if featurizer is None:
        from repro.core.featurize import FeaturizationContext
        from repro.core.vector_featurize import VectorFeaturizer

        specs, constraints, config, sequence = state.context["featurize"]
        fctx = FeaturizationContext(state.dataset, state.engine.statistics(), config)
        featurizer = VectorFeaturizer(state.engine, fctx, constraints)
        featurizer._build_blocks(specs)
        state.caches["featurizer"] = featurizer
        state.caches["featurize_sequence"] = sequence
    dc = state.caches["featurize_sequence"][di]
    if mode == "single":
        return featurizer._single_dc(dc)
    return featurizer._pair_dc(dc)


def _task_stream(state: _WorkerState, *unit):
    from repro.core.partition import VectorPairEnumerator

    return VectorPairEnumerator._run_stream_unit(unit, state.backend)


_TASK_HANDLERS = {
    "sym": _task_symmetric,
    "asym": _task_asymmetric,
    "domain": _task_domain,
    "prune": _task_prune,
    "factor": _task_factor,
    "dcfeat": _task_dc_features,
    "stream": _task_stream,
}


def _run_task(task):
    return _TASK_HANDLERS[task[0]](_WORKER, *task[1:])


def _close_shm(shm) -> None:
    try:
        shm.close()
    except BufferError:
        # A live ndarray view still references the buffer; the mapping
        # is released with the process instead.
        pass


def _release_handles(handles: dict) -> None:
    pool = handles.pop("pool", None)
    if pool is not None:
        pool.terminate()
    shm = handles.pop("shm", None)
    if shm is not None:
        try:
            shm.close()
            shm.unlink()
        except Exception:
            pass


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------
class ParallelBackend(_BaseBackend):
    """Fan deterministic grounding work units out to a worker pool.

    Wraps an ``inner`` backend (by registry name or instance); counts and
    under-threshold joins delegate to it unchanged, large joins shard.  The
    compiler-level fan-outs (prune / featurize / factor / stream tasks) go
    through :meth:`shard_map`, which returns ``None`` when the pool is
    unavailable so callers ground inline.
    """

    name = "parallel"

    def __init__(
        self,
        store: ColumnStore,
        workers: int | None = None,
        inner: str | Backend = "numpy",
        min_pairs: int = 4096,
    ):
        super().__init__(store)
        if workers is None:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        if isinstance(inner, str):
            if inner == self.name:
                raise ValueError("parallel backend cannot wrap itself")
            inner = make_backend(store, inner)
        self.inner: Backend = inner
        #: Joins estimated below this many pairs run on the inner backend
        #: (fan-out overhead would dominate).  Tests set 0 to force shards.
        self.min_pairs = int(min_pairs)
        #: Fan-out counters surfaced as ``grounding_shards_*``: configured
        #: worker count, shard_map calls, and total work units dispatched.
        self.shard_stats = {"workers": self.workers, "calls": 0, "tasks": 0}
        self._context: dict = {}
        self._spec: SharedStoreSpec | None = None
        self._broken = False
        self._handles: dict = {}
        self._finalizer = weakref.finalize(self, _release_handles, self._handles)

    # -- pool lifecycle -------------------------------------------------
    def _ensure_pool(self):
        if self._broken:
            return None
        pool = self._handles.get("pool")
        if pool is not None:
            return pool
        if "fork" not in multiprocessing.get_all_start_methods():
            self._broken = True
            return None
        try:
            if self._handles.get("shm") is None:
                shm, spec = _share_store(self.store)
                self._handles["shm"] = shm
                self._spec = spec
            ctx = multiprocessing.get_context("fork")
            pool = ctx.Pool(
                self.workers,
                initializer=_init_worker,
                initargs=(self._spec, dict(self._context)),
            )
        except Exception:
            self._broken = True
            return None
        self._handles["pool"] = pool
        return pool

    def _close_pool(self) -> None:
        pool = self._handles.pop("pool", None)
        if pool is not None:
            pool.terminate()
            pool.join()

    def available(self) -> bool:
        """Whether sharded dispatch is currently possible."""
        return self._ensure_pool() is not None

    def close(self) -> None:
        """Terminate the pool, release shared memory, close the inner."""
        self._close_pool()
        shm = self._handles.pop("shm", None)
        if shm is not None:
            shm.close()
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self.inner.close()

    # -- generic ordered fan-out ----------------------------------------
    def _try_map(self, tasks: list[tuple], label: str):
        """Run ``tasks`` on the pool, results in task order; None if broken."""
        pool = self._ensure_pool()
        if pool is None:
            return None
        self.shard_stats["calls"] += 1
        self.shard_stats["tasks"] += len(tasks)
        try:
            with deep_span(
                "parallel.shard_map",
                kind=label,
                tasks=len(tasks),
                workers=self.workers,
            ):
                return pool.map(_run_task, tasks, chunksize=1)
        except Exception:
            self._broken = True
            self._close_pool()
            return None

    # -- counts: delegate ------------------------------------------------
    def value_counts(self, attribute: str) -> np.ndarray:
        return self.inner.value_counts(attribute)

    def pair_value_counts(self, attr_a: str, attr_b: str) -> np.ndarray:
        return self.inner.pair_value_counts(attr_a, attr_b)

    # -- joins: sharded --------------------------------------------------
    def join_pairs(self, join_attrs: JoinAttrs) -> tuple[np.ndarray, np.ndarray]:
        with deep_span(
            "engine.join_pairs", backend=self.name, join=str(join_attrs)
        ) as sp:
            key1, key2, symmetric = self._keys_for(join_attrs)
            if symmetric:
                left, right = self._sharded_symmetric(join_attrs, key1)
            else:
                left, right = self._sharded_asymmetric(join_attrs, key1, key2)
                left, right = ops.dedup_ordered_pairs(left, right, key1)
            if sp is not None:
                sp.attributes["pairs"] = int(len(left))
            return left, right

    def _sharded_symmetric(self, join_attrs: JoinAttrs, keys: np.ndarray):
        if ops.estimate_symmetric_pairs(keys) < self.min_pairs:
            return self.inner._symmetric_pairs(keys)
        plan = _symmetric_plan(keys)
        if plan is None:
            return self.inner._symmetric_pairs(keys)
        _, _, sizes, emission = plan
        weights = sizes[emission] * (sizes[emission] - 1) // 2
        ranges = _balanced_ranges(weights, self.workers)
        if len(ranges) <= 1:
            return self.inner._symmetric_pairs(keys)
        spec = tuple(tuple(pair) for pair in join_attrs)
        results = self._try_map(
            [("sym", spec, lo, hi) for lo, hi in ranges], "join_pairs"
        )
        if results is None:
            return self.inner._symmetric_pairs(keys)
        return _concat_pairs(results)

    def _sharded_asymmetric(
        self, join_attrs: JoinAttrs, key1: np.ndarray, key2: np.ndarray
    ):
        if ops.estimate_matching_pairs(key1, key2) < self.min_pairs:
            return self.inner._asymmetric_pairs(key1, key2)
        build = np.sort(key2[key2 >= 0], kind="stable")
        probe_rows = np.nonzero(key1 >= 0)[0]
        if not len(build) or not len(probe_rows):
            return self.inner._asymmetric_pairs(key1, key2)
        probe_keys = key1[probe_rows]
        counts = np.searchsorted(build, probe_keys, side="right") - np.searchsorted(
            build, probe_keys, side="left"
        )
        ranges = _balanced_ranges(counts, self.workers)
        if len(ranges) <= 1:
            return self.inner._asymmetric_pairs(key1, key2)
        spec = tuple(tuple(pair) for pair in join_attrs)
        # Contiguous probe-index ranges become contiguous row ranges; the
        # build side stays global in every shard, so concatenating shards
        # in range order reproduces the global probe order exactly.
        tasks = [
            ("asym", spec, int(probe_rows[lo]), int(probe_rows[hi - 1]) + 1)
            for lo, hi in ranges
        ]
        results = self._try_map(tasks, "join_pairs")
        if results is None:
            return self.inner._asymmetric_pairs(key1, key2)
        return _concat_pairs(results)

    def _domain_pairs(self, bucket_ids: np.ndarray, member_tids: np.ndarray):
        starts, sizes = ops.bucket_extents(bucket_ids)
        weights = sizes * (sizes - 1) // 2
        if int(weights.sum()) < self.min_pairs:
            return self.inner._domain_pairs(bucket_ids, member_tids)
        ranges = _balanced_ranges(weights, self.workers)
        if len(ranges) <= 1:
            return self.inner._domain_pairs(bucket_ids, member_tids)
        tasks = []
        for lo, hi in ranges:
            a = int(starts[lo])
            b = int(starts[hi - 1] + sizes[hi - 1])
            tasks.append(("domain", bucket_ids[a:b], member_tids[a:b]))
        results = self._try_map(tasks, "domain_join_pairs")
        if results is None:
            return self.inner._domain_pairs(bucket_ids, member_tids)
        left, right = _concat_pairs(results)
        if not len(left):
            return left, right
        # Shards dedup within themselves; a pair spanning two shards'
        # buckets needs the global first-occurrence pass, same as
        # ops.bucket_join_pairs runs over the unsharded stream.
        stride = int(member_tids.max()) + 1
        _, first = np.unique(left * stride + right, return_index=True)
        keep = np.sort(first)
        return left[keep], right[keep]

    # -- compiler-level fan-out -------------------------------------------
    def shard_map(self, kind: str, tasks: list[tuple], **context):
        """Run ``(kind, *task)`` work units on the pool, in task order.

        Task kinds: ``prune`` ``(cells, params)`` with ``params =
        (tau, max_domain, strategy, attributes)``; ``dcfeat`` ``(di, mode)``
        under a ``featurize=`` context; ``factor`` ``(ci, left, right)``
        under a ``factors=`` context; ``stream`` enumerator units
        (``("domain", bucket_ids, member_tids)`` / ``("block", members,
        start, budget)``).  A context object not seen before restarts the
        pool, and the ``fork`` start method hands it to the new workers
        without pickling.  Returns ``None`` when the pool is unavailable.
        """
        if kind not in _TASK_HANDLERS:
            raise ValueError(f"unknown shard task kind {kind!r}")
        if any(self._context.get(key) is not value for key, value in context.items()):
            self._context.update(context)
            self._close_pool()
        if not tasks:
            return []
        return self._try_map([(kind, *task) for task in tasks], kind)


register_backend("parallel", ParallelBackend)
