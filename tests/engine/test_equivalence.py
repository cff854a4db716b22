"""The engine's contract: byte-identical results to the naive oracle.

The naive Python references (:mod:`repro.oracle`: tuple-at-a-time
violation detection, row-scan statistics, Algorithm 2 over them) are the
correctness oracle;
every engine backend must reproduce their output *exactly* — same noisy
cells, same violation list in the same order, same pruned domains —
on the paper's generators and on adversarial random datasets.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Const, Operator, Predicate, TupleRef
from repro.core.config import HoloCleanConfig
from repro.core.stages import RepairContext, RepairPlan
from repro.data.generators.flights import generate_flights
from repro.data.generators.hospital import generate_hospital
from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.dataset.stats import Statistics
from repro.detect.hypergraph import Violation
from repro.detect.violations import ViolationDetector
from repro.engine import Backend, Engine
from repro.engine import backend as backend_module
from repro.oracle import DomainPruner, NaiveModelCompiler, NaiveViolationDetector
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
# Statistics and Algorithm 2 domains
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_statistics_identical_on_generators(name, backend, request):
    generated = request.getfixturevalue(name)
    dataset = generated.dirty
    naive = Statistics(dataset)
    fast = Engine(dataset, backend=BACKENDS[backend]).statistics()
    attrs = dataset.schema.names
    for attr in attrs:
        assert fast.counts(attr) == naive.counts(attr), attr
    for a in attrs[:4]:
        for b in attrs[:4]:
            if a == b:
                continue
            assert fast.pair_counts(a, b) == naive.pair_counts(a, b), (a, b)
            sample = list(naive.counts(b))[:5]
            for given in sample:
                expected = naive.cooccurring_values(a, b, given)
                assert fast.cooccurring_values(a, b, given) == expected, (a, b, given)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_domains_identical_on_generators(name, backend, request):
    generated = request.getfixturevalue(name)
    dataset = generated.dirty
    noisy = sorted(naive_detection(generated).noisy_cells)
    naive_pruner = DomainPruner(dataset, tau=generated.recommended_tau)
    stats = Engine(dataset, backend=BACKENDS[backend]).statistics()
    fast_pruner = DomainPruner(dataset, stats=stats, tau=generated.recommended_tau)
    naive_domains = naive_pruner.domains(noisy)
    fast_domains = fast_pruner.domains(noisy)
    # Exact equality: same cells, same candidate lists, same ranking order.
    assert fast_domains == naive_domains
    assert any(len(d) > 1 for d in naive_domains.values())


def test_engine_refresh_invalidates_statistics(flights):
    dataset = flights.dirty.copy()
    engine = Engine(dataset)
    stats = engine.statistics()
    attr = dataset.schema.names[1]
    before = stats.counts(attr)
    old_value = dataset.value(0, attr)
    dataset.set_value(0, attr, "synthetic-new-value")
    engine.refresh()
    after = engine.statistics().counts(attr)
    assert after != before
    assert after["synthetic-new-value"] == 1
    assert after[old_value] == before[old_value] - 1


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
    return RepairPlan.default().starting_at("learn").run(ctx).result


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
        assert fast.noisy_cells == naive.noisy_cells, backend
        assert fast.hypergraph.violations == naive.hypergraph.violations, backend
        if dataset.num_tuples:
            naive_stats = Statistics(dataset)
            fast_stats = engine.statistics()
            for attr in ("A", "B", "C"):
                assert fast_stats.counts(attr) == naive_stats.counts(attr)
            pair = ("A", "C")
            assert fast_stats.pair_counts(*pair) == naive_stats.pair_counts(*pair)
