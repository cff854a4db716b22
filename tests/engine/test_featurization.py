"""Vectorized featurization must equal the reference stack, key for key.

The contract of :class:`repro.core.vector_featurize.VectorFeaturizer`:
the engine-grounded :class:`FeatureMatrix` has the rows, per-row entry
order and values of the reference per-(cell, candidate) loop over
:func:`repro.oracle.default_featurizers` *exactly*, and its
:class:`FeatureSpace` holds the same key set with the same pinned weights.
A weight is named by its key, so feature indices are compared after
relabelling the oracle's through the keys; the order the production path
allocates them in is its own contract (:func:`test_allocation_contract`).
Both sides hold only entries that can move an answer: one per (row,
weight key) — the pair-tied back-off ``("cooc*",)`` carries the sum of
the row's per-pair values — and none on a one-candidate variable.
Checked on the paper's generators (leave-one-out, weak-label and
external-dictionary paths included) and on adversarial random datasets.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.denial import DenialConstraint
from repro.constraints.matching import MatchingDependency, MatchPredicate
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
from repro.engine import Backend, Engine
from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
from repro.inference.variables import VariableBlock
from repro.oracle import (
    ConstraintFeaturizer,
    ExternalMatchFeaturizer,
    NaiveModelCompiler,
    Statistics,
    default_featurizers,
)
from tests.engine.sqlite_backend import SQLiteBackend


@pytest.fixture(scope="module")
def hospital():
    return generate_hospital(num_rows=260)


@pytest.fixture(scope="module")
def flights():
    return generate_flights(num_flights=12)


def compile_pair(dataset, constraints, config, backend=Backend, **external):
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


def assert_lean(matrix):
    """One entry per (row, key) and none on a one-candidate variable."""
    pairs = np.stack([matrix.entry_row_ids(), matrix.indices], axis=1)
    assert len(np.unique(pairs, axis=0)) == matrix.num_entries
    single = matrix.var_row_start[:-1][np.diff(matrix.var_row_start) == 1]
    assert not np.diff(matrix.row_ptr)[single].any()


def is_pair_tied(key):
    return key[0] == "cooc" and len(key) == 3  # ("cooc", attr, other)


def cooccur_row_sums(model):
    """Per row: the sum of its pair-tied ``("cooc", attr, other)`` values,
    in storage order, and the value of its back-off ``("cooc*",)``."""
    matrix, keys = model.graph.matrix, model.graph.space._keys
    rows = matrix.entry_row_ids()

    def row_sums(flags):
        hit = np.array(flags, dtype=bool)[matrix.indices]
        return np.bincount(rows[hit], matrix.values[hit], matrix.num_rows)

    per_pair = row_sums([is_pair_tied(key) for key in keys])
    return per_pair, row_sums([key == ("cooc*",) for key in keys])


def assert_identical(naive, fast):
    """The featurization contract: equal matrices, indices compared by key."""
    for model in (naive, fast):
        assert_lean(model.graph.matrix)
        assert np.array_equal(*cooccur_row_sums(model))
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
        backend=SQLiteBackend,
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


def test_external_matches_identical(hospital):
    # External-dictionary matches ground as one group-by of the Matched
    # facts per attribute block and dictionary, between the source and DC
    # families: the reference featurizer never runs on the production path.
    config = HoloCleanConfig(tau=hospital.recommended_tau)
    dataset = hospital.dirty
    external = dict(
        dictionaries=hospital.dictionaries,
        matching_dependencies=hospital.matching_dependencies,
    )
    engine = Engine(dataset)
    detection = ViolationDetector(hospital.constraints, engine=engine).detect(dataset)
    naive = NaiveModelCompiler(
        dataset, hospital.constraints, config, detection, **external
    ).compile()
    reference = AssertionError("reference external featurizer")
    with mock.patch.object(ExternalMatchFeaturizer, "features", side_effect=reference):
        fast = ModelCompiler(
            dataset, hospital.constraints, config, detection, engine=engine, **external
        ).compile()
    assert sum(key[0] == "ext" for key in fast.graph.space._keys) == 1
    assert_identical(naive, fast)


def test_agreeing_matches_are_one_entry_of_their_count(hospital):
    # Two matching dependencies of one dictionary agreeing on a City give
    # the candidate one ("ext", k) entry of value 2.0, not two of 1.0
    # (assert_lean inside assert_identical rules the second form out).
    twin = MatchingDependency(
        [MatchPredicate("ZipCode", "Ext_Zip")], "City", "Ext_City", name="md_city_twin"
    )
    config = HoloCleanConfig(tau=hospital.recommended_tau)
    naive, fast = compile_pair(
        hospital.dirty,
        hospital.constraints,
        config,
        dictionaries=hospital.dictionaries,
        matching_dependencies=hospital.matching_dependencies + [twin],
    )
    assert_identical(naive, fast)
    matrix, space = fast.graph.matrix, fast.graph.space
    ext = matrix.values[matrix.indices == space.get(("ext", "us-addresses"))]
    assert set(ext.tolist()) == {1.0, 2.0}  # State: one dependency; City: two


@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_backoff_is_the_sum_of_the_pair_values(name, request):
    # Pair tying: ("cooc*",) appears once on a row and carries the sum of
    # the row's ("cooc", attr, other) values, taken in schema order.  The
    # equality itself is asserted for every case through assert_identical
    # (the 50 random datasets included); here it is shown not to be vacuous.
    generated = request.getfixturevalue(name)
    config = HoloCleanConfig(
        tau=generated.recommended_tau,
        source_entity_attributes=generated.source_entity_attributes,
    )
    _, fast = compile_pair(generated.dirty, generated.constraints, config)
    per_pair, backoff = cooccur_row_sums(fast)
    assert np.array_equal(per_pair, backoff)
    matrix, space = fast.graph.matrix, fast.graph.space
    pair_tied = np.array([is_pair_tied(key) for key in space._keys])
    once = (matrix.indices == space.get(("cooc*",))).sum()
    assert 0 < once == (backoff > 0).sum() < pair_tied[matrix.indices].sum()


def test_similarity_and_single_tuple_dcs_run_on_codes(hospital):
    # Binary similarity (≈ and its negation) and a constant single-tuple
    # DC evaluate in code space like every other predicate: the naive
    # ConstraintFeaturizer never runs on the production path, and the
    # matrix keeps the oracle's per-row entry order.
    constraints = hospital.constraints + [
        DenialConstraint(
            [
                Predicate(TupleRef(1, "City"), Operator.EQ, TupleRef(2, "City")),
                Predicate(TupleRef(1, "State"), Operator.SIM, TupleRef(2, "State")),
            ],
            name="sim_state",
        ),
        DenialConstraint(
            [
                Predicate(TupleRef(1, "ZipCode"), Operator.EQ, TupleRef(2, "ZipCode")),
                Predicate(TupleRef(1, "City"), Operator.NSIM, TupleRef(2, "City")),
            ],
            name="nsim_city",
        ),
        DenialConstraint(
            [
                Predicate(TupleRef(1, "State"), Operator.NEQ, Const("AL")),
            ],
            name="single_const",
        ),
    ]
    config = HoloCleanConfig(tau=hospital.recommended_tau)
    dataset = hospital.dirty
    engine = Engine(dataset)
    detection = ViolationDetector(constraints, engine=engine).detect(dataset)
    naive = NaiveModelCompiler(dataset, constraints, config, detection).compile()
    naive_dc = AssertionError("naive DC batch")
    with (
        mock.patch.object(ConstraintFeaturizer, "features", side_effect=naive_dc),
        mock.patch.object(
            ConstraintFeaturizer, "_count_violations", side_effect=naive_dc
        ),
        mock.patch.object(DenialConstraint, "violates", side_effect=naive_dc),
    ):
        fast = ModelCompiler(
            dataset, constraints, config, detection, engine=engine
        ).compile()
    assert_identical(naive, fast)
    dc_keys = {key[1] for key in fast.graph.space._keys if key[0] == "dc"}
    assert {"sim_state", "nsim_city", "single_const"} <= dc_keys


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
    # Indices follow family order: the minimality prior first, then one
    # contiguous block of keys per family.
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


def featurize_specs(specs):
    """The production featurizer alone over hand-written specs."""
    dataset = Dataset(Schema(["A", "B"]), [["x", "1"], ["y", "1"], ["z", "2"]])
    config = HoloCleanConfig(use_cooccur=False, use_dc_feats=False)
    engine = Engine(dataset)
    context = FeaturizationContext(dataset, engine.statistics(), config)
    builder = FeatureMatrixBuilder(FeatureSpace())
    builder.start_variables([len(domain) for _, domain in specs])
    stats = VectorFeaturizer(engine, context, []).featurize(specs, builder)
    return stats, builder.space._keys, builder.build()


def test_allocation_skips_keys_without_a_nonzero_entry():
    # Leave-one-out makes the frequency of a cell's own unique value 0 and
    # "w" is not in the data: ("freq", "A") is in its batch's key list but
    # carries no entry the naive loop would keep, so it gets no index; B's
    # batch comes after.
    specs = [(Cell(0, "A"), ["x", "w"]), (Cell(1, "B"), ["1", "2"])]
    stats, keys, matrix = featurize_specs(specs)
    assert keys == [("minimality",), ("freq", "B"), ("freq*",)]
    assert stats["feature_entries"] == matrix.num_entries == 6
    assert stats["feature_rows"] == matrix.num_rows == 4
    assert matrix.values.tolist() == [1.0, 1.0, 0.5, 0.5, 0.5, 0.5]


def test_one_candidate_spec_allocates_no_key_and_emits_no_entry():
    # The mirror: a one-candidate variable keeps its row and nothing else.
    # On its own it leaves the space empty; beside a two-candidate
    # variable, ("freq", "A") (0.5 on "y" otherwise) is never allocated.
    stats, keys, matrix = featurize_specs([(Cell(0, "A"), ["y"])])
    assert keys == [] and matrix.num_rows == 1
    assert stats["feature_entries"] == matrix.num_entries == 0
    assert stats["feature_rows"] == 0
    specs = [(Cell(0, "A"), ["y"]), (Cell(1, "B"), ["1", "2"])]
    stats, keys, matrix = featurize_specs(specs)
    assert keys == [("minimality",), ("freq", "B"), ("freq*",)]
    assert stats["feature_rows"] == 2 and matrix.num_rows == 3
    assert np.diff(matrix.row_ptr).tolist() == [0, 3, 2]


def test_frequency_emits_no_zero(hospital):
    # Leave-one-out makes a value only its own cell holds, or one absent
    # from the data, weigh 0: _frequency drops those rows where they arise,
    # so no batch the emitter hands on holds a zero and every batch's rows
    # ascend (the builder's counting sort needs no sort for them).
    config = HoloCleanConfig(tau=hospital.recommended_tau)
    dataset = hospital.dirty
    detection = ViolationDetector(hospital.constraints).detect(dataset)
    model = ModelCompiler(dataset, hospital.constraints, config, detection).compile()
    engine = Engine(dataset)
    context = FeaturizationContext(dataset, engine.statistics(), config)
    featurizer = VectorFeaturizer(engine, context, hospital.constraints)
    featurizer._build_blocks(model.graph.variables)
    rows = sum(len(block.flat_row) for block in featurizer._blocks.values())
    batches = featurizer._frequency()
    assert batches
    for batch in batches:
        assert batch.value.all()
        assert (np.diff(batch.row) >= 0).all()
    assert 0 < sum(len(batch.row) for batch in batches) < 2 * rows


def test_a_builder_of_other_variables_is_refused():
    # Entries carry catalog domain positions as matrix rows, so the
    # builder's variables must be the catalog's: one extra is a ValueError
    # before any key is allocated.
    dataset = Dataset(Schema(["A", "B"]), [["x", "1"], ["y", "1"], ["z", "2"]])
    engine = Engine(dataset)
    config = HoloCleanConfig(use_cooccur=False, use_dc_feats=False)
    context = FeaturizationContext(dataset, engine.statistics(), config)
    specs = [(Cell(0, "A"), ["x", "y"]), (Cell(1, "B"), ["1", "2"])]
    builder = FeatureMatrixBuilder(FeatureSpace())
    builder.start_variables([2, 2, 2])
    with pytest.raises(ValueError, match="catalog"):
        VectorFeaturizer(engine, context, []).featurize(specs, builder)
    assert len(builder.space) == 0


def featurize_with(featurizer, specs):
    builder = FeatureMatrixBuilder(FeatureSpace())
    builder.start_variables([len(domain) for _, domain in specs])
    stats = featurizer.featurize(specs, builder)
    return stats, builder.space._keys, builder.build()


def test_a_second_call_equals_a_fresh_instance():
    # Blocks, code spaces, the featurized rows and the counters belong to one
    # call: a reused featurizer once kept the first call's code spaces and
    # crashed inside _count_dc_violations on the second.
    generated = generate_hospital(num_rows=150, seed=3)
    config = HoloCleanConfig(tau=generated.recommended_tau)
    dataset, constraints = generated.dirty, generated.constraints
    engine = Engine(dataset)
    detection = ViolationDetector(constraints, engine=engine).detect(dataset)
    model = ModelCompiler(
        dataset, constraints, config, detection, engine=engine
    ).compile()
    specs = [(info.cell, info.domain) for info in model.graph.variables]
    context = FeaturizationContext(dataset, engine.statistics(), config)
    reused = VectorFeaturizer(engine, context, constraints)
    featurize_with(reused, specs)
    half = specs[len(specs) // 2 :]
    stats, keys, matrix = featurize_with(reused, half)
    fresh = featurize_with(VectorFeaturizer(engine, context, constraints), half)
    assert keys == fresh[1] and stats == fresh[0]
    assert stats["feature_rows"] == matrix.num_rows - sum(
        len(domain) for _, domain in half if len(domain) < 2
    )
    for name in ("var_row_start", "row_ptr", "indices", "values"):
        assert np.array_equal(getattr(matrix, name), getattr(fresh[2], name)), name


# ---------------------------------------------------------------------------
# Adversarial random datasets (property test)
# ---------------------------------------------------------------------------
VALUE = st.sampled_from(["a", "b", "c", "ab", "1", "2", None])
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
    # Binary similarity ("ab" ≈ "a" and "ab" ≈ "b" at 0.5) next to an inequality.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.SIM, TupleRef(2, "B"), 0.5),
            Predicate(TupleRef(1, "B"), Operator.NEQ, TupleRef(2, "B")),
        ],
        name="sim_b",
    ),
    # Cross-attribute negated similarity plus a same-tuple residual.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "C"), Operator.EQ, TupleRef(2, "C")),
            Predicate(TupleRef(1, "A"), Operator.NSIM, TupleRef(2, "B"), 0.5),
            Predicate(TupleRef(1, "B"), Operator.LT, TupleRef(1, "C")),
        ],
        name="nsim_ab",
    ),
    # Single-tuple: same-tuple similarity and a constant.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.SIM, TupleRef(1, "C"), 0.5),
            Predicate(TupleRef(1, "B"), Operator.NEQ, Const("a")),
        ],
        name="single_sim",
    ),
]


@settings(max_examples=50, deadline=None)
@given(rows=ROWS, tau=st.sampled_from([0.0, 0.5]))
def test_random_datasets_identical(rows, tau):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    config = HoloCleanConfig(tau=tau, max_dc_feature_partners=2)
    naive, fast = compile_pair(dataset, RANDOM_DCS, config)
    assert_identical(naive, fast)


# Candidate lists with values the data never holds ("ghost", "0.5").
DOMAIN = st.lists(
    st.sampled_from(["a", "b", "1", "2", "ghost", "0.5"]),
    unique=True,
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(rows=ROWS, data=st.data())
def test_specs_outside_the_data_match_the_naive_stack(rows, data):
    # The (cell, domain) adapter encodes candidates the data never holds
    # into extended codes; the code spaces of the cross-attribute and order
    # DCs extend their codebooks with them.  Reference: the naive stack.
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    cells = data.draw(
        st.lists(
            st.tuples(st.integers(0, len(rows) - 1), st.sampled_from("ABC")),
            unique=True,
            min_size=1,
            max_size=10,
        )
    )
    specs = [(Cell(tid, attr), data.draw(DOMAIN)) for tid, attr in cells]
    config = HoloCleanConfig(max_dc_feature_partners=2)
    engine = Engine(dataset)
    context = FeaturizationContext(dataset, engine.statistics(), config)
    _, fast_keys, fast = featurize_with(
        VectorFeaturizer(engine, context, RANDOM_DCS), specs
    )
    # A catalog whose tables do not start with the store's dictionaries is
    # re-encoded first, not read with the wrong codes.
    unseeded = VariableBlock()
    unseeded.add_block(*zip(*specs), [-1] * len(specs), is_evidence=False)
    builder = FeatureMatrixBuilder(FeatureSpace())
    builder.start_variables([len(domain) for _, domain in specs])
    VectorFeaturizer(engine, context, RANDOM_DCS).featurize(unseeded, builder)
    assert builder.space._keys == fast_keys
    recoded = builder.build()
    for name in ("var_row_start", "row_ptr", "indices", "values"):
        assert np.array_equal(getattr(recoded, name), getattr(fast, name)), name
    naive = FeatureMatrixBuilder(FeatureSpace())
    naive.start_variables([len(domain) for _, domain in specs])
    # The reference featurizers count with the row scan.
    naive_context = FeaturizationContext(dataset, Statistics(dataset), config)
    featurizers = default_featurizers(naive_context, RANDOM_DCS)
    for vid, (cell, domain) in enumerate(specs):
        if len(domain) < 2:
            continue
        for featurizer in featurizers:
            for candidate, entries in enumerate(featurizer.features(cell, domain)):
                for key, value in entries:
                    if value != 0.0:
                        naive.add(vid, candidate, key, value)
    keys, matrix = naive.space._keys, naive.build()
    assert set(fast_keys) == set(keys)
    for name in ("var_row_start", "row_ptr", "values"):
        assert np.array_equal(getattr(fast, name), getattr(matrix, name)), name
    relabel = np.array([fast_keys.index(key) for key in keys], dtype=np.int64)
    assert np.array_equal(relabel[matrix.indices], fast.indices)
