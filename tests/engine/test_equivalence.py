"""The engine's contract: byte-identical results to the naive oracle.

The naive Python references (:mod:`repro.oracle`: tuple-at-a-time
violation detection, row-scan statistics, the whole naive compiler) are
the correctness oracle; every engine backend must reproduce their output
*exactly* — same noisy cells, same violation list in the same order, the
same counts once the code tables are decoded, the same pruned domains, the
same repairs — on the paper's generators and on adversarial random datasets.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Const, Operator, Predicate, TupleRef
from repro.core.config import HoloCleanConfig
from repro.core.stages import RepairContext, RepairPlan
from repro.core.vector_domain import VectorDomainPruner
from repro.data.generators.flights import generate_flights
from repro.data.generators.hospital import generate_hospital
from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.detect.hypergraph import Violation
from repro.detect.violations import ViolationDetector
from repro.engine import Backend, Engine
from repro.engine import backend as backend_module
from repro.engine.stats import EngineStatistics
from repro.oracle import (
    DomainPruner,
    NaiveModelCompiler,
    NaiveViolationDetector,
    Statistics,
)
from tests.engine.sqlite_backend import SQLiteBackend

BACKENDS = {"numpy": Backend, "sqlite": SQLiteBackend}


@pytest.fixture(scope="module")
def hospital():
    return generate_hospital(num_rows=320)


@pytest.fixture(scope="module")
def flights():
    return generate_flights(num_flights=12)


def naive_detection(generated):
    return NaiveViolationDetector(generated.constraints).detect(generated.dirty)


def detect_columnar(detector, dataset):
    """``detector.detect(dataset)``, which must not build one ``Violation``:
    detection appends tuple-id rows, objects exist only on ``.violations``."""
    with mock.patch("repro.detect.hypergraph.Violation", wraps=Violation) as built:
        detection = detector.detect(dataset)
        assert built.call_count == 0
        assert len(detection.hypergraph.violations) == built.call_count
    return detection


# ---------------------------------------------------------------------------
# Violation detection on the paper's generators
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_violations_identical_on_generators(name, backend, request):
    generated = request.getfixturevalue(name)
    naive = naive_detection(generated)
    engine = Engine(generated.dirty, backend=BACKENDS[backend])
    fast = detect_columnar(
        ViolationDetector(generated.constraints, engine=engine), generated.dirty
    )
    assert fast.noisy_cells == naive.noisy_cells
    # Byte-identical including order: the factor-grounding stages walk the
    # violation list, so ordering is part of the contract.
    assert fast.hypergraph.violations == naive.hypergraph.violations
    assert len(naive.hypergraph) > 0  # the comparison is not vacuous


# ---------------------------------------------------------------------------
# Noisy cells: per-attribute masks over tuple ids
# ---------------------------------------------------------------------------
def assert_masks_are_naive_noisy_set(fast, naive):
    """``fast``'s masks flag exactly the cells of ``naive``'s violations,
    read off its ``Violation`` objects (not off any mask)."""
    expected = {cell for v in naive.hypergraph.violations for cell in v.cells}
    assert fast.noisy_cells == naive.noisy_cells == expected
    assert fast.num_noisy == len(expected)
    assert set(fast.masks) == {cell.attribute for cell in expected}
    for attribute, mask in fast.masks.items():
        assert mask.dtype == np.bool_
        flagged = np.flatnonzero(mask).tolist()
        assert flagged == sorted(c.tid for c in expected if c.attribute == attribute)


@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_noisy_masks_identical_on_generators(name, request):
    generated = request.getfixturevalue(name)
    naive = naive_detection(generated)
    fast = ViolationDetector(generated.constraints).detect(generated.dirty)
    assert_masks_are_naive_noisy_set(fast, naive)
    assert naive.num_noisy > 0  # the comparison is not vacuous


# ---------------------------------------------------------------------------
# Statistics: the engine's code tables decoded ≡ the row-scan counters
# ---------------------------------------------------------------------------
def decoded_counts(engine, attr):
    """``code_counts(attr)`` as ``(value, count)`` pairs in code order."""
    values = engine.store.values(attr)
    counts = engine.statistics().code_counts(attr).tolist()
    return [(values[code], n) for code, n in enumerate(counts) if n]


def decoded_pairs(engine, attr_a, attr_b):
    """``joint_code_counts(attr_a, attr_b)`` as ``(value_a, value_b) →
    count``; the table's rows must be sorted by ``(code_a, code_b)``."""
    rows = engine.statistics().joint_code_counts(attr_a, attr_b).tolist()
    assert [row[:2] for row in rows] == sorted(row[:2] for row in rows)
    va, vb = engine.store.values(attr_a), engine.store.values(attr_b)
    return {(va[a], vb[b]): n for a, b, n in rows}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_statistics_identical_on_generators(name, backend, request):
    generated = request.getfixturevalue(name)
    dataset = generated.dirty
    naive = Statistics(dataset)
    engine = Engine(dataset, backend=BACKENDS[backend])
    attrs = dataset.schema.names
    for attr in attrs:
        # Codes are first-seen, the order the row scan counts in.
        assert decoded_counts(engine, attr) == list(naive.counts(attr).items()), attr
    for a in attrs[:4]:
        for b in attrs[:4]:
            if a == b:
                continue
            assert decoded_pairs(engine, a, b) == naive.pair_counts(a, b), (a, b)
            indptr, codes, counts = engine.statistics().conditional_table(a, b)
            values_a, values_b = engine.store.values(a), engine.store.values(b)
            for given in list(naive.counts(b))[:5]:
                g = values_b.index(given)
                span = slice(indptr[g], indptr[g + 1])
                decoded = {
                    values_a[code]: n
                    for code, n in zip(codes[span].tolist(), counts[span].tolist())
                }
                expected = naive.cooccurring_values(a, b, given)
                assert decoded == expected, (a, b, given)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_domains_identical_on_generators(name, backend, request):
    generated = request.getfixturevalue(name)
    dataset = generated.dirty
    noisy = sorted(naive_detection(generated).noisy_cells)
    tau = generated.recommended_tau
    naive_domains = DomainPruner(dataset, Statistics(dataset), tau=tau).domains(noisy)
    engine = Engine(dataset, backend=BACKENDS[backend])
    fast_domains = VectorDomainPruner(engine, tau=tau).domains(noisy)
    # Exact equality: same cells, same candidate lists, same ranking order.
    assert fast_domains == naive_domains
    assert any(len(d) > 1 for d in naive_domains.values())


def test_engine_statistics_are_code_tables_only():
    # No base class and no row-scan Counter API: production reads counts
    # only as code tables.
    assert EngineStatistics.__bases__ == (object,)
    public = {name for name in vars(EngineStatistics) if not name.startswith("_")}
    assert public == {
        "code_counts",
        "joint_code_counts",
        "conditional_table",
        "drop_caches",
    }


def test_engine_refresh_invalidates_statistics(flights):
    dataset = flights.dirty.copy()
    engine = Engine(dataset)
    stats = engine.statistics()
    attr = dataset.schema.names[1]
    before = dict(decoded_counts(engine, attr))
    old_value = dataset.value(0, attr)
    dataset.set_value(0, attr, "synthetic-new-value")
    engine.refresh()
    after = dict(decoded_counts(engine, attr))
    assert after != before
    assert after["synthetic-new-value"] == 1
    assert after.get(old_value, 0) == before[old_value] - 1
    # An instance held across the refresh dropped its stale counts.
    fresh = engine.statistics().code_counts(attr)
    assert stats.code_counts(attr).tolist() == fresh.tolist()


def test_pathological_join_falls_back_to_naive(monkeypatch):
    # A constant join key explodes quadratically; the join must stream it
    # in bounded chunks and still produce identical violations.
    rows = [["k", str(i % 7)] for i in range(60)]
    dataset = Dataset(Schema(["K", "V"]), rows)
    dc = DenialConstraint(
        [
            Predicate(TupleRef(1, "K"), Operator.EQ, TupleRef(2, "K")),
            Predicate(TupleRef(1, "V"), Operator.NEQ, TupleRef(2, "V")),
        ],
        name="const_key",
    )
    naive = NaiveViolationDetector([dc]).detect(dataset)
    monkeypatch.setattr(backend_module, "_JOIN_CHUNK_PAIRS", 10)
    guarded = ViolationDetector([dc], engine=Engine(dataset)).detect(dataset)
    assert guarded.hypergraph.violations == naive.hypergraph.violations


# ---------------------------------------------------------------------------
# Full pipeline: naive reference vs every backend
# ---------------------------------------------------------------------------
def naive_repair(dataset, constraints, config):
    """The default plan with detection and compilation done by the oracle."""
    ctx = RepairContext(dataset=dataset, constraints=constraints, config=config)
    ctx.detection = NaiveViolationDetector(constraints).detect(dataset)
    compiler = NaiveModelCompiler(dataset, constraints, config, ctx.detection)
    ctx.model = compiler.compile()
    return RepairPlan.default().run(ctx).result


def test_pipeline_repairs_identical_across_engines(hospital):
    naive = naive_repair(hospital.dirty, hospital.constraints, HoloCleanConfig())
    results = {"naive": naive}
    for label, backend in BACKENDS.items():
        ctx = RepairContext(
            dataset=hospital.dirty,
            constraints=list(hospital.constraints),
            config=HoloCleanConfig(),
            engine=Engine(hospital.dirty, backend=backend),
        )
        results[label] = RepairPlan.default().run(ctx).result
    baseline = results["naive"]
    for label in BACKENDS:
        result = results[label]
        assert result.repaired == baseline.repaired, label
        assert set(result.inferences) == set(baseline.inferences), label


# ---------------------------------------------------------------------------
# Adversarial random datasets (property test)
# ---------------------------------------------------------------------------
# At threshold 0.5, "ab" ≈ "a" and "ab" ≈ "abd"; "10" and "9" order differently
# as numbers and as strings.
VALUE = st.sampled_from(["a", "b", "ab", "abd", "10", "9", None])
ROWS = st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=0, max_size=14)

RANDOM_DCS = [
    # FD-style symmetric join with inequality residual.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.NEQ, TupleRef(2, "B")),
        ],
        name="fd_a_b",
    ),
    # Asymmetric join across attributes (exercises shared code spaces).
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "B")),
            Predicate(TupleRef(1, "C"), Operator.NEQ, TupleRef(2, "C")),
        ],
        name="asym_ab",
    ),
    # Order residual: fires in one orientation only.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "C"), Operator.GT, TupleRef(2, "C")),
        ],
        name="order_c",
    ),
    # Binary similarity next to an inequality.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.SIM, TupleRef(2, "B"), 0.5),
            Predicate(TupleRef(1, "B"), Operator.NEQ, TupleRef(2, "B")),
        ],
        name="sim_b",
    ),
    # Negated similarity across attributes (shared codebook).
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.NSIM, TupleRef(2, "C"), 0.5),
        ],
        name="nsim_bc",
    ),
    # Constant and same-tuple residuals.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "C"), Operator.EQ, TupleRef(2, "C")),
            Predicate(TupleRef(1, "A"), Operator.GT, TupleRef(1, "B")),
            Predicate(TupleRef(2, "A"), Operator.NEQ, Const("a")),
        ],
        name="const_same_tuple",
    ),
    # Single-tuple: same-tuple similarity and a constant order.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.SIM, TupleRef(1, "B"), 0.5),
            Predicate(TupleRef(1, "C"), Operator.LT, Const("10")),
        ],
        name="single_sim_const",
    ),
]


@settings(max_examples=60, deadline=None)
@given(rows=ROWS)
def test_random_datasets_identical(rows):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    naive = NaiveViolationDetector(RANDOM_DCS).detect(dataset)
    for backend in BACKENDS:
        engine = Engine(dataset, backend=BACKENDS[backend])
        fast = detect_columnar(ViolationDetector(RANDOM_DCS, engine=engine), dataset)
        assert_masks_are_naive_noisy_set(fast, naive)
        assert fast.hypergraph.violations == naive.hypergraph.violations, backend
        if dataset.num_tuples:
            naive_stats = Statistics(dataset)
            for attr in ("A", "B", "C"):
                expected = list(naive_stats.counts(attr).items())
                assert decoded_counts(engine, attr) == expected
            for pair in (("A", "C"), ("C", "A")):
                assert decoded_pairs(engine, *pair) == naive_stats.pair_counts(*pair)
