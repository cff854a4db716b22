"""VectorPairEnumerator's contract: byte-identical to the naive oracle.

The engine-backed enumerator's concatenated ``pair_chunks`` must reproduce
the naive ``PairEnumerator``'s DC-factor pair stream exactly — same pairs,
same order — on the paper's generators and on adversarial random datasets,
for every backend, in both grounding modes (join-only and Algorithm 3
partitioned), through the chunked streaming path, and under ``max_pairs``
truncation; constraints without an equality join included.  On top of the
streams, engine-grounded factor graphs must equal naively grounded ones
factor for factor.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Const, Operator, Predicate, TupleRef
from repro.core.compiler import ModelCompiler
from repro.core.config import HoloCleanConfig
from repro.core.partition import VectorPairEnumerator, make_pair_enumerator
from repro.data.generators.flights import generate_flights
from repro.data.generators.hospital import generate_hospital
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.detect.violations import ViolationDetector
from repro.engine import Backend, Engine
from repro.oracle import DomainPruner, NaiveModelCompiler, PairEnumerator
from tests.engine.sqlite_backend import SQLiteBackend

BACKENDS = {"numpy": Backend, "sqlite": SQLiteBackend}


@pytest.fixture(scope="module")
def hospital():
    return generate_hospital(num_rows=160)


@pytest.fixture(scope="module")
def flights():
    return generate_flights(num_flights=7)


def stream(enumerator, dc, use_partitioning, hypergraph):
    """The engine enumerator's chunks flattened into the oracle's tuples."""
    chunks = enumerator.pair_chunks(
        dc, use_partitioning=use_partitioning, hypergraph=hypergraph
    )
    return [
        pair for left, right in chunks for pair in zip(left.tolist(), right.tolist())
    ]


class OneComponent:
    """A hypergraph stand-in whose only component is ``tids``."""

    def __init__(self, tids):
        self.tids = set(tids)

    def tuple_components(self, name):
        return [self.tids]


def prepared(generated):
    """(dataset, detection, domains, two-tuple constraints) for one run."""
    dataset = generated.dirty
    detection = ViolationDetector(generated.constraints).detect(dataset)
    domains = DomainPruner(dataset, tau=generated.recommended_tau).domains(
        sorted(detection.noisy_cells)
    )
    dcs = [dc for dc in generated.constraints if not dc.is_single_tuple]
    return dataset, detection, domains, dcs


# ---------------------------------------------------------------------------
# Identical pair streams on the paper's generators
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("name", ["hospital", "flights"])
def test_streams_identical_on_generators(name, backend, request):
    dataset, detection, domains, dcs = prepared(request.getfixturevalue(name))
    naive = PairEnumerator(dataset, domains)
    vector = VectorPairEnumerator(
        Engine(dataset, backend=BACKENDS[backend]), dataset, domains
    )
    assert dcs, "generators must exercise two-tuple constraints"
    for dc in dcs:
        for use_partitioning in (False, True):
            hypergraph = detection.hypergraph
            expected = list(naive.pairs_for(dc, use_partitioning, hypergraph))
            actual = stream(vector, dc, use_partitioning, hypergraph)
            # Exact equality, order included: grounding walks this stream.
            assert actual == expected, (dc.name, use_partitioning)
            assert expected, dc.name  # the comparison is not vacuous


@pytest.mark.parametrize("backend", BACKENDS)
def test_chunked_path_identical(backend, hospital):
    """A tiny chunk size forces the streaming path on every group."""
    dataset, detection, domains, dcs = prepared(hospital)
    naive = PairEnumerator(dataset, domains)
    chunked = VectorPairEnumerator(
        Engine(dataset, backend=BACKENDS[backend]),
        dataset,
        domains,
        chunk_pairs=7,
        stream_budget=1,
    )
    for dc in dcs:
        for use_partitioning in (False, True):
            args = (dc, use_partitioning, detection.hypergraph)
            expected = list(naive.pairs_for(*args))
            assert stream(chunked, *args) == expected, args[:2]
    assert chunked.stats["streamed_groups"] > 0
    assert chunked.stats["chunks"] > chunked.stats["streamed_groups"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_max_pairs_truncation_identical(backend, hospital):
    dataset, detection, domains, dcs = prepared(hospital)
    naive = PairEnumerator(dataset, domains, max_pairs=97)
    vector = VectorPairEnumerator(
        Engine(dataset, backend=BACKENDS[backend]), dataset, domains, max_pairs=97
    )
    streamed = VectorPairEnumerator(
        Engine(dataset, backend=BACKENDS[backend]),
        dataset,
        domains,
        max_pairs=97,
        chunk_pairs=11,
        stream_budget=1,
    )
    for dc in dcs:
        for use_partitioning in (False, True):
            args = (dc, use_partitioning, detection.hypergraph)
            expected = list(naive.pairs_for(*args))
            assert len(expected) <= 97
            assert expected == stream(vector, *args)
            assert expected == stream(streamed, *args)


def test_join_pairs_restricted_matches_naive(hospital):
    dataset, detection, domains, dcs = prepared(hospital)
    naive = PairEnumerator(dataset, domains)
    vector = VectorPairEnumerator(Engine(dataset), dataset, domains)
    dc = dcs[0]
    component = next(iter(detection.hypergraph.tuple_components(dc.name)))
    restricted = frozenset(component)
    expected = list(naive.join_pairs(dc, restrict_to=restricted))
    assert stream(vector, dc, True, OneComponent(restricted)) == expected


NO_EQUIJOIN = DenialConstraint(
    [
        Predicate(TupleRef(1, "A"), Operator.LT, TupleRef(2, "A")),
        Predicate(TupleRef(1, "B"), Operator.NEQ, TupleRef(2, "B")),
    ],
    name="no_equijoin",
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "options",
    [{}, {"max_pairs": 7}, {"stream_budget": 1}],
    ids=["default", "max_pairs=7", "stream_budget=1"],
)
def test_non_equijoin_fallback_matches_naive_and_counts_pairs(backend, options):
    # A join-free constraint is a join on a constant key: one bucket of
    # every tuple (or of one component), capped and streamed like any other.
    rows = [[str(i % 4), str(i % 3)] for i in range(9)]
    dataset = Dataset(Schema(["A", "B"]), rows)
    dc = NO_EQUIJOIN
    detection = ViolationDetector([dc]).detect(dataset)
    naive = PairEnumerator(dataset, {}, max_pairs=options.get("max_pairs", 200_000))
    engine = Engine(dataset, backend=BACKENDS[backend])
    vector = VectorPairEnumerator(engine, dataset, {}, chunk_pairs=5, **options)
    for use_partitioning in (False, True):
        args = (dc, use_partitioning, detection.hypergraph)
        assert stream(vector, *args) == list(naive.pairs_for(*args))
    # The join-free path participates in the stats bookkeeping too
    # (size_report's grounding_pairs relies on it).
    total = sum(
        len(list(naive.pairs_for(dc, p, detection.hypergraph))) for p in (False, True)
    )
    assert vector.stats["pairs"] == total > 0
    if "stream_budget" in options:
        assert vector.stats["streamed_groups"] > 0


def test_make_pair_enumerator_always_engine_backed(hospital):
    dataset = hospital.dirty
    engine = Engine(dataset)
    given = make_pair_enumerator(dataset, {}, engine=engine)
    assert type(given) is VectorPairEnumerator and given.engine is engine
    # No engine means "build one over my dataset", never "go naive".
    built = make_pair_enumerator(dataset, {}, engine=None)
    assert type(built) is VectorPairEnumerator
    assert built.engine.dataset is dataset
    # An engine built over a different dataset is a caller bug.
    with pytest.raises(ValueError, match="engine was built over a different dataset"):
        make_pair_enumerator(hospital.clean.copy(), {}, engine=engine)


def test_enumerator_rejects_foreign_engine(hospital):
    engine = Engine(hospital.dirty)
    with pytest.raises(ValueError, match="different dataset"):
        VectorPairEnumerator(engine, hospital.clean.copy(), {})


# ---------------------------------------------------------------------------
# Factor graphs: engine grounding must equal naive grounding byte for byte
# ---------------------------------------------------------------------------
def factor_signature(graph):
    signature = []
    for i in range(len(graph.factors)):
        var_ids, table, weight, name = graph.factor(i)
        signature.append((name, var_ids, weight, table.shape, table.tobytes()))
    return signature


# No equality predicate: grounded over one constant-key bucket of every tuple.
JOIN_FREE = DenialConstraint(
    [
        Predicate(TupleRef(1, "State"), Operator.EQ, Const("GA")),
        Predicate(TupleRef(2, "State"), Operator.EQ, Const("PA")),
    ],
    name="no_ga_pa_pair",
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "use_partitioning, extra",
    [(False, []), (True, []), (False, [JOIN_FREE]), (True, [JOIN_FREE])],
    ids=["False", "True", "False-join-free", "True-join-free"],
)
def test_factor_graphs_identical(backend, use_partitioning, extra, hospital):
    dataset = hospital.dirty
    constraints = hospital.constraints + extra
    detection = ViolationDetector(constraints).detect(dataset)
    config = HoloCleanConfig(
        use_dc_factors=True,
        use_partitioning=use_partitioning,
        tau=hospital.recommended_tau,
    )
    naive_model = NaiveModelCompiler(dataset, constraints, config, detection).compile()
    engine = Engine(dataset, backend=BACKENDS[backend])
    engine_model = ModelCompiler(
        dataset, constraints, config, detection, engine=engine
    ).compile()
    naive_factors = factor_signature(naive_model.graph)
    engine_factors = factor_signature(engine_model.graph)
    assert len(naive_factors) > 0
    # Same factors, same order — the grounded graphs are byte-identical.
    assert engine_factors == naive_factors
    assert engine_model.skipped_factors == naive_model.skipped_factors
    assert engine_model.grounding["pairs"] == naive_model.grounding["pairs"]
    assert engine_model.grounding["enumerator"] == "VectorPairEnumerator"
    assert naive_model.grounding["enumerator"] == "PairEnumerator"
    # Every enumerated pair went through the batched table builder (no
    # silent fallback to the per-pair loop).
    assert engine_model.grounding["table_pairs"] == engine_model.grounding["pairs"] > 0
    if extra:
        assert any(name == JOIN_FREE.name for name, *_ in engine_factors)


# ---------------------------------------------------------------------------
# Vectorized factor-table construction: byte-identical grounded graphs
# ---------------------------------------------------------------------------
# Values mix numerics, strings, and numeric-looking strings whose numeric
# and lexicographic orders disagree ("10" < "9" as strings) — the
# adversarial cases for code-space inequality evaluation — plus NULLs.
TABLE_VALUE = st.sampled_from(["1", "2", "10", "9", "5a", None])
TABLE_ROWS = st.lists(
    st.tuples(TABLE_VALUE, TABLE_VALUE, TABLE_VALUE), min_size=2, max_size=14
)

TABLE_DCS = [
    # FD-style symmetric join with inequality residual.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.NEQ, TupleRef(2, "B")),
        ],
        name="fd_a_b",
    ),
    # Ordering predicate across tuples (OrderKeys, mixed coercion).
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "C"), Operator.LT, TupleRef(2, "C")),
        ],
        name="ord_c",
    ),
    # Cross-attribute join plus a constant ordering predicate.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "B")),
            Predicate(TupleRef(1, "C"), Operator.GTE, Const("2")),
        ],
        name="cross_const",
    ),
    # Same-tuple ordering inside a two-tuple constraint.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "B"), Operator.EQ, TupleRef(2, "B")),
            Predicate(TupleRef(1, "A"), Operator.GT, TupleRef(1, "C")),
        ],
        name="same_tuple_ord",
    ),
    # Binary similarity across attributes (at 0.5, "1" ≈ "10").
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.SIM, TupleRef(2, "C"), 0.5),
            Predicate(TupleRef(1, "C"), Operator.NEQ, TupleRef(2, "C")),
        ],
        name="sim_bc",
    ),
    # Negated similarity, no equijoin (grounded over the cross join).
    DenialConstraint(
        [
            Predicate(TupleRef(1, "B"), Operator.NSIM, TupleRef(2, "B"), 0.5),
            Predicate(TupleRef(1, "A"), Operator.LTE, Const("2")),
        ],
        name="nsim_b",
    ),
    # Single-tuple constraints (grounded per tuple, not per pair).
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(1, "B")),
        ],
        name="single_ab",
    ),
    # ... against constants,
    DenialConstraint(
        [
            Predicate(TupleRef(1, "B"), Operator.EQ, Const("10")),
            Predicate(TupleRef(1, "C"), Operator.NEQ, Const("9")),
        ],
        name="single_const",
    ),
    # ... through an order predicate (mixed coercion) and an ordered constant,
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.LT, TupleRef(1, "C")),
            Predicate(TupleRef(1, "B"), Operator.LTE, Const("9")),
        ],
        name="single_ord",
    ),
    # ... and through similarity (at 0.5, "1" ≈ "10").
    DenialConstraint(
        [
            Predicate(TupleRef(1, "B"), Operator.SIM, TupleRef(1, "C"), 0.5),
        ],
        name="single_sim",
    ),
]


def single_tuple_rows(model, constraints):
    """The tuples the single-tuple constraints ground over: per constraint,
    every tuple with a query variable on an attribute it reads."""
    variables = model.graph.variables
    total = 0
    for dc in constraints:
        if dc.is_single_tuple:
            codes = [variables.attribute_code(a) for a in dc.attributes_of(1)]
            query = ~variables.is_evidence & np.isin(variables.attribute_codes, codes)
            total += len(np.unique(variables.tids[query]))
    return total


@settings(max_examples=30, deadline=None)
@given(
    rows=TABLE_ROWS,
    max_table=st.sampled_from([1, 6, 4096]),
    use_partitioning=st.booleans(),
)
def test_vectorized_tables_match_naive(rows, max_table, use_partitioning):
    """Engine-grounded factor graphs equal the per-pair oracle byte for
    byte — table contents, var-id order, and skip counts — across NULLs,
    inequality predicates, single-tuple DCs, and ``max_factor_table``
    caps."""
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    detection = ViolationDetector(TABLE_DCS).detect(dataset)
    config = HoloCleanConfig(
        use_dc_factors=True,
        use_partitioning=use_partitioning,
        tau=0.1,
        max_factor_table=max_table,
    )
    naive_model = NaiveModelCompiler(dataset, TABLE_DCS, config, detection).compile()
    expected = factor_signature(naive_model.graph)
    for backend in BACKENDS:
        engine = Engine(dataset, backend=BACKENDS[backend])
        engine_model = ModelCompiler(
            dataset, TABLE_DCS, config, detection, engine=engine
        ).compile()
        where = (backend, max_table, use_partitioning)
        assert factor_signature(engine_model.graph) == expected, where
        assert engine_model.skipped_factors == naive_model.skipped_factors
        assert engine_model.grounding["pairs"] == naive_model.grounding["pairs"]
        # Every pair, similarity DCs included, went through the builder, and
        # so did every tuple of a single-tuple constraint.
        grounding = engine_model.grounding
        tuples = single_tuple_rows(engine_model, TABLE_DCS)
        assert grounding["table_pairs"] == grounding["pairs"] + tuples, where


def test_single_tuple_factors_identical_on_hospital():
    """A single-tuple constraint grounds on the table builder, one factor
    per touched tuple in ascending tuple id, like the per-cell oracle."""
    generated = generate_hospital(num_rows=300)
    dataset = generated.dirty
    no_al = DenialConstraint(
        [Predicate(TupleRef(1, "State"), Operator.EQ, Const("AL"))], name="no_al"
    )
    constraints = generated.constraints + [no_al]
    detection = ViolationDetector(constraints).detect(dataset)
    config = HoloCleanConfig(use_dc_factors=True, tau=generated.recommended_tau)
    naive_model = NaiveModelCompiler(dataset, constraints, config, detection).compile()
    engine_model = ModelCompiler(
        dataset, constraints, config, detection, engine=Engine(dataset)
    ).compile()
    expected = factor_signature(naive_model.graph)
    assert factor_signature(engine_model.graph) == expected
    assert sum(name == "no_al" for name, *_ in expected) > 0
    assert engine_model.skipped_factors == naive_model.skipped_factors
    grounding = engine_model.grounding
    assert grounding["pairs"] == naive_model.grounding["pairs"] > 0
    tuples = single_tuple_rows(engine_model, [no_al])
    assert tuples > 0
    assert grounding["table_pairs"] == grounding["pairs"] + tuples


def test_single_tuple_factors_ascend_by_tuple_id():
    """Touched tuples are walked in ascending id on both paths, also where
    a Python set of them would not iterate in that order."""
    touched = [5, 17, 300, 1000]
    rows = [[str(i % 10), "AL" if i in touched else "AK"] for i in range(1001)]
    dataset = Dataset(Schema(["Zip", "State"]), rows)
    no_al = DenialConstraint(
        [Predicate(TupleRef(1, "State"), Operator.EQ, Const("AL"))], name="no_al"
    )
    detection = ViolationDetector([no_al]).detect(dataset)
    config = HoloCleanConfig(use_dc_factors=True, tau=0.0)
    for compiler in (NaiveModelCompiler, ModelCompiler):
        model = compiler(dataset, [no_al], config, detection).compile()
        graph = model.graph
        tids = [
            int(graph.variables.tids[graph.factor(i)[0][0]])
            for i in range(len(graph.factors))
        ]
        assert tids == touched, compiler.__name__


def test_binary_similarity_grounds_on_the_array_path():
    """Binary similarity grounds through the batched table builder like
    every other predicate, identically to the per-pair oracle."""
    rows = [
        ["x", "Chicago"],
        ["x", "Chicagoo"],
        ["x", "Boston"],
        ["y", "Chicago"],
        ["y", "Chicagoo"],
        ["x", None],
    ]
    dataset = Dataset(Schema(["A", "B"]), rows)
    dc = DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.SIM, TupleRef(2, "B")),
            Predicate(TupleRef(1, "B"), Operator.NEQ, TupleRef(2, "B")),
        ],
        name="sim_dc",
    )
    detection = ViolationDetector([dc]).detect(dataset)
    config = HoloCleanConfig(use_dc_factors=True, tau=0.1)
    naive_model = NaiveModelCompiler(dataset, [dc], config, detection).compile()
    engine_model = ModelCompiler(
        dataset, [dc], config, detection, engine=Engine(dataset)
    ).compile()
    assert factor_signature(engine_model.graph) == factor_signature(naive_model.graph)
    assert len(engine_model.graph.factors) > 0
    # Every enumerated pair went through the vectorized builder.
    assert engine_model.grounding["table_pairs"] == engine_model.grounding["pairs"] > 0


# ---------------------------------------------------------------------------
# Adversarial random datasets (property tests)
# ---------------------------------------------------------------------------
VALUE = st.sampled_from(["a", "b", "c", "d", None])
ROWS = st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=0, max_size=12)
# Random candidate domains, including values absent from the dataset.
DOMAIN_VALUE = st.sampled_from(["a", "b", "c", "d", "zz-unseen"])
DOMAINS = st.dictionaries(
    st.tuples(st.integers(min_value=0, max_value=11), st.sampled_from(["A", "B", "C"])),
    st.lists(DOMAIN_VALUE, min_size=0, max_size=3, unique=True),
    max_size=8,
)

RANDOM_DCS = [
    # FD-style symmetric join with inequality residual.
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "A")),
            Predicate(TupleRef(1, "B"), Operator.NEQ, TupleRef(2, "B")),
        ],
        name="fd_a_b",
    ),
    # Asymmetric join across attributes (exercises shared codebooks).
    DenialConstraint(
        [
            Predicate(TupleRef(1, "A"), Operator.EQ, TupleRef(2, "B")),
            Predicate(TupleRef(1, "C"), Operator.NEQ, TupleRef(2, "C")),
        ],
        name="asym_ab",
    ),
]


@settings(max_examples=40, deadline=None)
@given(rows=ROWS, raw_domains=DOMAINS)
def test_random_datasets_identical(rows, raw_domains):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    domains = {
        Cell(tid, attr): list(dom)
        for (tid, attr), dom in raw_domains.items()
        if tid < dataset.num_tuples
    }
    detection = ViolationDetector(RANDOM_DCS).detect(dataset)
    naive = PairEnumerator(dataset, domains)
    for backend in BACKENDS:
        engine = Engine(dataset, backend=BACKENDS[backend])
        vector = VectorPairEnumerator(engine, dataset, domains)
        chunked = VectorPairEnumerator(
            engine, dataset, domains, chunk_pairs=3, stream_budget=1
        )
        for dc in RANDOM_DCS:
            for use_partitioning in (False, True):
                where = (backend, dc.name, use_partitioning)
                args = (dc, use_partitioning, detection.hypergraph)
                expected = list(naive.pairs_for(*args))
                assert expected == stream(vector, *args), where
                assert expected == stream(chunked, *args), (*where, "chunked")


# ---------------------------------------------------------------------------
# The engine pipeline end to end with DC factors on
# ---------------------------------------------------------------------------
def test_grounding_report_in_size_report(hospital):
    from repro.core.pipeline import HoloClean

    config = HoloCleanConfig(
        use_dc_factors=True,
        use_partitioning=True,
        tau=hospital.recommended_tau,
        epochs=5,
        gibbs_burn_in=2,
        gibbs_sweeps=4,
    )
    result = HoloClean(config).repair(hospital.dirty, hospital.constraints)
    assert result.size_report["grounding_enumerator"] == "VectorPairEnumerator"
    assert result.size_report["grounding_pairs"] > 0
