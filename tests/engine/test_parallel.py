"""ParallelBackend: sharded grounding must be byte-identical to the oracle.

Covers the backend registry (self-registration, replacement, config
validation against the live registry), join / domain-join byte-equality
against :class:`NumpyBackend` at several worker counts on the paper's
generators and on hypothesis-random datasets, the enumerator's sharded
streaming path (including oversized-bucket nested-loop blocks), the
broken-pool degradation contract, and full-pipeline equality with
``parallel_workers`` on.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro import HoloCleanConfig, RepairContext, RepairPlan
from repro.core.partition import PairEnumerator, VectorPairEnumerator
from repro.data.generators.flights import generate_flights
from repro.data.generators.hospital import generate_hospital
from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.detect.violations import ViolationDetector
from repro.engine import Engine, NumpyBackend, make_backend, register_backend
from repro.engine.backend import _BACKENDS, backend_names
from repro.engine.parallel import ParallelBackend
from repro.engine.store import ColumnStore
from repro.oracle import DomainPruner

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def hospital():
    return generate_hospital(num_rows=160)


@pytest.fixture(scope="module")
def flights():
    return generate_flights(num_flights=7)


def join_specs(dataset):
    """Symmetric and asymmetric join shapes over the first few attributes."""
    a, b, c = dataset.schema.names[:3]
    return [
        [(a, a)],
        [(b, b), (c, c)],
        [(a, b)],
        [(b, c), (c, b)],
    ]


# ---------------------------------------------------------------------------
# The backend registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_builtins_self_register(self):
        assert {"numpy", "sqlite", "parallel"} <= set(backend_names())

    def test_duplicate_name_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            register_backend("", NumpyBackend)

    def test_register_replace_and_config_validation(self, hospital):
        calls = []

        def factory(store, **options):
            calls.append(options)
            return NumpyBackend(store)

        register_backend("test-dummy", factory)
        try:
            assert "test-dummy" in backend_names()
            # Config validation reads the live registry: a just-registered
            # backend is accepted with no core edits.
            config = HoloCleanConfig(engine_backend="test-dummy")
            assert config.engine_backend == "test-dummy"
            store = ColumnStore(hospital.dirty)
            backend = make_backend(store, "test-dummy", flag=1)
            assert isinstance(backend, NumpyBackend)
            assert calls == [{"flag": 1}]
            register_backend("test-dummy", NumpyBackend, replace=True)
            assert isinstance(make_backend(store, "test-dummy"), NumpyBackend)
        finally:
            _BACKENDS.pop("test-dummy", None)

    def test_unknown_backend_raises(self, hospital):
        store = ColumnStore(hospital.dirty)
        with pytest.raises(ValueError, match="unknown engine backend"):
            make_backend(store, "postgres")
        with pytest.raises(ValueError, match="unknown engine backend"):
            HoloCleanConfig(engine_backend="postgres")
        with pytest.raises(ValueError, match="unknown engine backend"):
            Engine(hospital.dirty, backend="duckdb")

    def test_parallel_cannot_wrap_itself(self, hospital):
        store = ColumnStore(hospital.dirty)
        with pytest.raises(ValueError, match="wrap itself"):
            ParallelBackend(store, inner="parallel")

    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="parallel_workers"):
            HoloCleanConfig(parallel_workers=-1)

    def test_staged_api_exports(self):
        for name in (
            "RepairContext",
            "RepairPlan",
            "DetectStage",
            "CompileStage",
            "LearnStage",
            "InferStage",
            "ApplyStage",
            "RunReport",
            "register_backend",
            "backend_names",
        ):
            assert name in repro.__all__
            assert getattr(repro, name) is not None


# ---------------------------------------------------------------------------
# Join byte-equality against the single-process oracle
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_join_pairs_identical(name, workers, request):
    dataset = request.getfixturevalue(name).dirty
    store = ColumnStore(dataset)
    oracle = NumpyBackend(store)
    backend = ParallelBackend(store, workers=workers, min_pairs=0)
    try:
        for attrs in join_specs(dataset):
            expected = oracle.join_pairs(attrs)
            actual = backend.join_pairs(attrs)
            assert np.array_equal(actual[0], expected[0]), attrs
            assert np.array_equal(actual[1], expected[1]), attrs
            assert backend.estimated_join_pairs(attrs) == (
                oracle.estimated_join_pairs(attrs)
            )
        if workers >= 2:
            # Work actually fanned out (one-worker plans stay inner).
            assert backend.shard_stats["calls"] > 0
            assert backend.shard_stats["tasks"] >= backend.shard_stats["calls"]
    finally:
        backend.close()


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_domain_join_pairs_identical(workers):
    rng = np.random.default_rng(7)
    # Random memberships normalised to one sorted row per (bucket, tid),
    # with one oversized bucket to exercise uneven shard balancing.
    buckets = rng.integers(0, 40, size=500).astype(np.int64)
    tids = rng.integers(0, 120, size=500).astype(np.int64)
    buckets[:120] = 3
    encoded = np.unique(buckets * 1000 + tids)
    bucket_ids, member_tids = encoded // 1000, encoded % 1000
    store = ColumnStore(Dataset(Schema(["A"]), [["x"]]))
    oracle = NumpyBackend(store)
    backend = ParallelBackend(store, workers=workers, min_pairs=0)
    try:
        expected = oracle.domain_join_pairs(bucket_ids, member_tids)
        actual = backend.domain_join_pairs(bucket_ids, member_tids)
        assert len(expected[0]) > 0
        assert np.array_equal(actual[0], expected[0])
        assert np.array_equal(actual[1], expected[1])
        empty = np.empty(0, dtype=np.int64)
        left, right = backend.domain_join_pairs(empty, empty)
        assert not len(left) and not len(right)
    finally:
        backend.close()


def test_counts_delegate_to_inner(hospital):
    store = ColumnStore(hospital.dirty)
    oracle = NumpyBackend(store)
    backend = ParallelBackend(store, workers=2, min_pairs=0)
    try:
        for attr in hospital.dirty.schema.names[:4]:
            assert np.array_equal(
                backend.value_counts(attr), oracle.value_counts(attr)
            ), attr
        a, b = hospital.dirty.schema.names[:2]
        assert np.array_equal(
            backend.pair_value_counts(a, b), oracle.pair_value_counts(a, b)
        )
        assert backend.shard_stats["calls"] == 0  # counts never fan out
    finally:
        backend.close()


def test_broken_pool_degrades_to_inner(hospital):
    store = ColumnStore(hospital.dirty)
    oracle = NumpyBackend(store)
    backend = ParallelBackend(store, workers=2, min_pairs=0)
    backend._broken = True  # simulate fork / pool / shm failure
    try:
        assert backend.available() is False
        for attrs in join_specs(hospital.dirty):
            expected = oracle.join_pairs(attrs)
            actual = backend.join_pairs(attrs)
            assert np.array_equal(actual[0], expected[0]), attrs
            assert np.array_equal(actual[1], expected[1]), attrs
        # The compiler-level fan-out reports unavailability ("run inline")
        # instead of failing — the same answer a serial backend gives.
        assert backend.shard_map("prune", [([object()], ())]) is None
        assert oracle.shard_map("prune", [([object()], ())]) is None
        assert backend.shard_stats["calls"] == 0
        with pytest.raises(ValueError, match="unknown shard task kind"):
            backend.shard_map("bogus", [])
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Sharded enumerator streaming (domain-run and oversized-bucket block units)
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_enumerator_streams_identical(name, workers, request):
    generated = request.getfixturevalue(name)
    dataset = generated.dirty
    detection = ViolationDetector(generated.constraints).detect(dataset)
    domains = DomainPruner(dataset, tau=generated.recommended_tau).domains(
        sorted(detection.noisy_cells)
    )
    dcs = [dc for dc in generated.constraints if not dc.is_single_tuple]
    naive = PairEnumerator(dataset, domains, max_pairs=97)
    engine = Engine(dataset)
    engine._backend = ParallelBackend(engine.store, workers=workers, min_pairs=0)
    # Tiny chunks force the streaming path everywhere, with nested-loop
    # blocks on buckets whose pair count exceeds chunk_pairs.
    streamed = VectorPairEnumerator(
        engine, dataset, domains, max_pairs=97, chunk_pairs=11, stream_budget=1
    )
    try:
        for dc in dcs:
            for use_partitioning in (False, True):
                expected = list(
                    naive.pairs_for(dc, use_partitioning, detection.hypergraph)
                )
                actual = list(
                    streamed.pairs_for(dc, use_partitioning, detection.hypergraph)
                )
                assert actual == expected, (dc.name, use_partitioning)
        assert streamed.stats["streamed_groups"] > 0
        assert streamed.stats["chunks"] > streamed.stats["streamed_groups"]
    finally:
        engine.close()


# ---------------------------------------------------------------------------
# Hypothesis: random datasets, every join shape
# ---------------------------------------------------------------------------
VALUE = st.sampled_from(["a", "b", "c", "10", "9", None])
ROWS = st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=4, max_size=24)


@settings(max_examples=15, deadline=None)
@given(rows=ROWS, workers=st.sampled_from([2, 3]))
def test_random_joins_identical(rows, workers):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    store = ColumnStore(dataset)
    oracle = NumpyBackend(store)
    backend = ParallelBackend(store, workers=workers, min_pairs=0)
    try:
        for attrs in (
            [("A", "A")],
            [("A", "A"), ("B", "B")],
            [("A", "B")],
            [("B", "C"), ("C", "B")],
        ):
            expected = oracle.join_pairs(attrs)
            actual = backend.join_pairs(attrs)
            assert np.array_equal(actual[0], expected[0]), attrs
            assert np.array_equal(actual[1], expected[1]), attrs
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# Full pipeline: parallel_workers must not change a single byte
# ---------------------------------------------------------------------------
def _snapshot(ctx):
    report = ctx.model.size_report()
    return (
        [
            (cell, inf.chosen_value, tuple(inf.domain), inf.marginal.tobytes())
            for cell, inf in ctx.result.inferences.items()
        ],
        ctx.result.repaired._rows,
        {k: v for k, v in report.items() if not k.startswith("grounding_shards")},
    )


@pytest.mark.parametrize("variant", [None, "dc-feats+dc-factors+partitioning"])
def test_pipeline_identical(variant, hospital):
    def config(workers):
        knobs = dict(tau=hospital.recommended_tau, parallel_workers=workers)
        if variant is None:
            return HoloCleanConfig(**knobs)
        return HoloCleanConfig.variant(variant, **knobs)

    def run(workers):
        ctx = RepairContext(
            hospital.dirty.copy(name="hospital"),
            list(hospital.constraints),
            config(workers),
        )
        ctx = RepairPlan.default().run(ctx)
        try:
            keys = list(ctx.model.graph.space._keys)
            return _snapshot(ctx), ctx.model.size_report(), keys
        finally:
            if ctx.engine is not None:
                ctx.engine.close()

    serial, serial_report, serial_keys = run(0)
    parallel, parallel_report, parallel_keys = run(2)
    assert parallel == serial
    # Both sides run the same path and sharded dcfeat batches come back in
    # plan order, so even the index order of the feature keys is equal.
    assert parallel_keys == serial_keys
    assert parallel_report["grounding_shards_workers"] == 2
    assert parallel_report["grounding_shards_calls"] > 0
    assert "grounding_shards_calls" not in serial_report
