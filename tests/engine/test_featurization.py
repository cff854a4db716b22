"""Vectorized featurization must equal the naive stack, key for key.

The contract of :class:`repro.core.vector_featurize.VectorFeaturizer`:
the engine-grounded :class:`FeatureMatrix` has the naive per-(cell,
candidate) featurizer loop's rows, per-row entry order and values
*exactly*, and its :class:`FeatureSpace` holds the same key set with the
same pinned weights.  A weight is named by its key, so feature indices
are compared after relabelling the oracle's through the keys; the order
the production path allocates them in is its own contract
(:func:`test_allocation_contract`).  Checked on the paper's generators
(leave-one-out, weak-label and external-dictionary paths included) and on
adversarial random datasets.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Const, Operator, Predicate, TupleRef
from repro.core.compiler import ModelCompiler
from repro.core.config import HoloCleanConfig
from repro.core.featurize import FeaturizationContext
from repro.core.vector_featurize import VectorFeaturizer
from repro.data.generators.flights import generate_flights
from repro.data.generators.hospital import generate_hospital
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.detect.violations import ViolationDetector
from repro.engine import Engine
from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
from repro.oracle import NaiveModelCompiler


@pytest.fixture(scope="module")
def hospital():
    return generate_hospital(num_rows=260)


@pytest.fixture(scope="module")
def flights():
    return generate_flights(num_flights=12)


def compile_pair(dataset, constraints, config, backend="numpy", **external):
    """Compile once naive, once engine-backed, off one shared detection."""
    engine = Engine(dataset, backend=backend)
    detection = ViolationDetector(constraints, engine=engine).detect(dataset)
    naive = NaiveModelCompiler(
        dataset, constraints, config, detection, **external
    ).compile()
    compiler = ModelCompiler(
        dataset, constraints, config, detection, engine=engine, **external
    )
    return naive, compiler.compile()


def fixed_by_key(space):
    return {space.key(idx): value for idx, value in space.fixed_weights.items()}


def assert_identical(naive, fast):
    """The featurization contract: equal matrices, indices compared by key."""
    ns, fs = naive.graph.space, fast.graph.space
    assert len(fs) == len(ns) and set(fs._keys) == set(ns._keys)
    assert fixed_by_key(fs) == fixed_by_key(ns)
    mn, mf = naive.graph.matrix, fast.graph.matrix
    for name in ("var_row_start", "row_ptr", "values"):
        assert np.array_equal(getattr(mf, name), getattr(mn, name)), name
    relabel = np.array([fs.get(key) for key in ns._keys], dtype=np.int64)
    assert np.array_equal(relabel[mn.indices], mf.indices)
    assert mf.num_features == mn.num_features
    assert fast.query_ids == naive.query_ids
    assert fast.evidence_ids == naive.evidence_ids
    assert fast.evidence_labels == naive.evidence_labels
    assert fast.grounding["feature_path"] == "vector"
    assert fast.grounding["feature_entries"] == mn.num_entries


# ---------------------------------------------------------------------------
# The paper's generators
# ---------------------------------------------------------------------------
def test_hospital_identical(hospital):
    config = HoloCleanConfig(tau=hospital.recommended_tau)
    naive, fast = compile_pair(hospital.dirty, hospital.constraints, config)
    assert naive.graph.matrix.num_entries > 0
    assert_identical(naive, fast)


def test_hospital_identical_sqlite(hospital):
    config = HoloCleanConfig(tau=hospital.recommended_tau)
    naive, fast = compile_pair(
        hospital.dirty,
        hospital.constraints,
        config,
        backend="sqlite",
    )
    assert_identical(naive, fast)


def test_flights_identical_weak_label_path(flights):
    # Flights: source featurizer + entity groups + the weak-label path
    # (every cell violates something, so evidence is scarce).
    config = HoloCleanConfig(
        tau=flights.recommended_tau,
        source_entity_attributes=flights.source_entity_attributes,
    )
    naive, fast = compile_pair(flights.dirty, flights.constraints, config)
    assert any(key[0] == "src" for key in naive.graph.space._keys)
    assert_identical(naive, fast)


def test_value_tying_identical(flights):
    config = HoloCleanConfig(
        tau=flights.recommended_tau,
        cooccur_tying="value",
        source_entity_attributes=flights.source_entity_attributes,
    )
    naive, fast = compile_pair(flights.dirty, flights.constraints, config)
    assert_identical(naive, fast)


def test_external_matches_identical(hospital):
    # External-dictionary matches have no vectorized family: the naive
    # adapter is the only batch whose entries arrive in arbitrary
    # per-entry order, and it lands between the cooccur and DC families.
    config = HoloCleanConfig(tau=hospital.recommended_tau)
    naive, fast = compile_pair(
        hospital.dirty,
        hospital.constraints,
        config,
        dictionaries=hospital.dictionaries,
        matching_dependencies=hospital.matching_dependencies,
    )
    assert fast.grounding["feature_naive_families"] == 1
    assert sum(key[0] == "ext" for key in fast.graph.space._keys) == 1
    assert_identical(naive, fast)


def test_similarity_and_single_tuple_dcs_fall_back(hospital):
    # A binary-similarity DC cannot evaluate in code space (naive
    # fallback), a constant single-tuple DC can; both must keep the
    # featurizer's per-row entry order.
    constraints = hospital.constraints + [
        DenialConstraint(
            [
                Predicate(TupleRef(1, "City"), Operator.EQ, TupleRef(2, "City")),
                Predicate(TupleRef(1, "State"), Operator.SIM, TupleRef(2, "State")),
            ],
            name="sim_fallback",
        ),
        DenialConstraint(
            [
                Predicate(TupleRef(1, "State"), Operator.NEQ, Const("AL")),
            ],
            name="single_const",
        ),
    ]
    config = HoloCleanConfig(tau=hospital.recommended_tau)
    naive, fast = compile_pair(hospital.dirty, constraints, config)
    assert fast.grounding["feature_dc_fallbacks"] == 1
    assert_identical(naive, fast)


def test_partner_cap_identical(hospital):
    # A tiny partner cap exercises the first-K-non-self truncation rule.
    config = HoloCleanConfig(tau=hospital.recommended_tau, max_dc_feature_partners=3)
    naive, fast = compile_pair(hospital.dirty, hospital.constraints, config)
    assert_identical(naive, fast)


def test_signal_toggles_identical(hospital):
    config = HoloCleanConfig(
        tau=hospital.recommended_tau,
        use_frequency=False,
        use_dc_feats=False,
        evidence_negatives=0,
    )
    naive, fast = compile_pair(hospital.dirty, hospital.constraints, config)
    assert_identical(naive, fast)


# ---------------------------------------------------------------------------
# The allocation rule (the production path's own contract, no oracle)
# ---------------------------------------------------------------------------
FAMILY_RANK = {"minimality": 0, "freq": 1, "cooc": 2, "src": 3, "ext": 4, "dc": 5}


def test_allocation_contract(flights):
    # Indices follow default_featurizers order: the minimality prior
    # first, then one contiguous block of keys per family.
    config = HoloCleanConfig(
        tau=flights.recommended_tau,
        source_entity_attributes=flights.source_entity_attributes,
    )
    _, fast = compile_pair(flights.dirty, flights.constraints, config)
    keys = fast.graph.space._keys
    assert keys[0] == ("minimality",)
    ranks = [FAMILY_RANK[key[0].rstrip("*")] for key in keys]
    assert ranks == sorted(ranks)
    assert set(ranks) == {0, 1, 2, 3, 5}


def test_allocation_skips_keys_without_a_nonzero_entry():
    # Leave-one-out makes every frequency of a cell's own unique value 0:
    # ("freq", "A") is in its batch's key list but carries no entry the
    # naive loop would keep, so it gets no index; B's batch comes after.
    dataset = Dataset(Schema(["A", "B"]), [["x", "1"], ["y", "1"], ["z", "2"]])
    config = HoloCleanConfig(use_cooccur=False, use_dc_feats=False)
    engine = Engine(dataset)
    context = FeaturizationContext(dataset, engine.statistics(), config)
    specs = [(Cell(0, "A"), ["x"]), (Cell(1, "B"), ["1", "2"])]
    builder = FeatureMatrixBuilder(FeatureSpace())
    builder.start_variables([len(domain) for _, domain in specs])
    stats = VectorFeaturizer(engine, context, []).featurize(specs, builder)
    assert builder.space._keys == [("minimality",), ("freq", "B"), ("freq*",)]
    matrix = builder.build()
    assert stats["feature_entries"] == matrix.num_entries == 6
    assert matrix.values.tolist() == [1.0, 1.0, 0.5, 0.5, 0.5, 0.5]


# ---------------------------------------------------------------------------
# Adversarial random datasets (property test)
# ---------------------------------------------------------------------------
VALUE = st.sampled_from(["a", "b", "c", "1", "2", None])
ROWS = st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=1, max_size=14)

RANDOM_DCS = [
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.NEQ, TupleRef(2, "B")),
        ],
        name="fd_a_b",
    ),
    # Cross-attribute join: exercises shared code spaces.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "B")),
            Predicate(TupleRef(1, "C"), Operator.NEQ, TupleRef(2, "C")),
        ],
        name="asym_ab",
    ),
    # Ordering residual under mixed numeric/lexicographic coercion.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "B"), Operator.EQ, TupleRef(2, "B")),
            Predicate(TupleRef(1, "C"), Operator.GT, TupleRef(2, "C")),
        ],
        name="order_c",
    ),
    # Constant predicate plus a no-equijoin constraint (full cross join).
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.NEQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.EQ, Const("a")),
        ],
        name="no_equijoin",
    ),
]


@settings(max_examples=50, deadline=None)
@given(rows=ROWS, tau=st.sampled_from([0.0, 0.5]))
def test_random_datasets_identical(rows, tau):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    config = HoloCleanConfig(tau=tau, max_dc_feature_partners=2)
    naive, fast = compile_pair(dataset, RANDOM_DCS, config)
    assert_identical(naive, fast)
