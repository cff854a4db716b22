"""Detection's one join: bounded chunks, the oracle's output.

Every two-tuple constraint streams through ``Backend.join_chunks`` in
chunks of at most ``_JOIN_CHUNK_PAIRS`` pairs.  Whatever the budget, the
concatenated violations are the tuple-at-a-time detector's, order and
orientation included, and the per-constraint cap cuts at exactly the cap
in stream order, across chunk boundaries.
"""

import logging
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Const, Operator, Predicate, TupleRef
from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.detect.violations import ViolationDetector
from repro.engine import Engine
from repro.engine import backend as backend_module
from repro.oracle import NaiveViolationDetector
from tests.engine.sqlite_backend import SQLiteBackend

BUDGETS = [1, 2, 3, 7, backend_module._JOIN_CHUNK_PAIRS]


def binary(a, op, b, threshold=None, left=1, right=2):
    extra = () if threshold is None else (threshold,)
    return Predicate(TupleRef(left, a), op, TupleRef(right, b), *extra)


CONSTRAINTS = [
    DenialConstraint(
        [binary("A", Operator.EQ, "A"), binary("B", Operator.NEQ, "B")],
        name="symmetric",
    ),
    DenialConstraint(
        [binary("A", Operator.EQ, "B"), binary("C", Operator.NEQ, "C")],
        name="cross_attribute",
    ),
    DenialConstraint(
        [binary("B", Operator.NEQ, "B"), binary("C", Operator.LT, "C")],
        name="join_free",
    ),
    DenialConstraint(
        [
            binary("A", Operator.EQ, "A"),
            binary("C", Operator.EQ, "C"),
            binary("B", Operator.SIM, "B", 0.5),
        ],
        name="two_key_columns",
    ),
    DenialConstraint(
        [binary("A", Operator.EQ, "A"), binary("C", Operator.GT, "C")],
        name="order_residual",
    ),
    DenialConstraint(
        [
            binary("A", Operator.SIM, "B", 0.5, right=1),
            Predicate(TupleRef(1, "C"), Operator.LT, Const("10")),
        ],
        name="single_tuple",
    ),
]

# None is a NULL key: it joins nothing.
VALUE = st.sampled_from(["a", "b", "ab", "10", "9", None])
ROWS = st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=0, max_size=14)


def blocks_of(detection):
    return [
        (b.constraint_name, b.tids.tolist(), b.attributes)
        for b in detection.hypergraph.blocks
    ]


@settings(max_examples=40, deadline=None)
@given(rows=ROWS)
def test_every_budget_gives_the_oracle_violations(rows):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    naive = NaiveViolationDetector(CONSTRAINTS).detect(dataset)
    for budget in BUDGETS:
        with mock.patch.object(backend_module, "_JOIN_CHUNK_PAIRS", budget):
            for backend in (None, SQLiteBackend):
                options = {} if backend is None else {"backend": backend}
                engine = Engine(dataset, **options)
                try:
                    fast = ViolationDetector(CONSTRAINTS, engine=engine).detect(dataset)
                finally:
                    engine.close()
                assert blocks_of(fast) == blocks_of(naive), (budget, backend)
                assert fast.noisy_cells == naive.noisy_cells, (budget, backend)


CONSTANT_KEY = DenialConstraint(
    [binary("K", Operator.EQ, "K"), binary("V", Operator.NEQ, "V")],
    name="constant_key",
)


def constant_key_rows(n):
    """One join bucket of ``n`` tuples, every pair of them violating."""
    return Dataset(Schema(["K", "V"]), [["k", str(i)] for i in range(n)])


def test_cap_falling_mid_chunk_keeps_exactly_the_cap(monkeypatch):
    # 40 tuples: 780 violating pairs, in chunks of at most 100; the cap of
    # 250 falls inside the third chunk.
    dataset = constant_key_rows(40)
    monkeypatch.setattr(backend_module, "_JOIN_CHUNK_PAIRS", 100)
    naive = NaiveViolationDetector([CONSTANT_KEY], max_pairs_per_constraint=250)
    want = naive.detect(dataset)
    detector = ViolationDetector(
        [CONSTANT_KEY], max_pairs_per_constraint=250, engine=Engine(dataset)
    )
    # A handler of its own: the CLI's configure() stops propagation to
    # the root logger pytest's log capture listens on.
    records: list[logging.LogRecord] = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = records.append
    logger = logging.getLogger("repro.detect")
    logger.addHandler(handler)
    try:
        detected = detector.detect(dataset)
    finally:
        logger.removeHandler(handler)
    (block,) = detected.hypergraph.blocks
    assert len(block.tids) == 250
    assert blocks_of(detected) == blocks_of(want)
    assert detector.truncated == naive.truncated == ["constant_key"]
    warnings = [record.getMessage() for record in records]
    assert len(warnings) == 1
    assert "constant_key" in warnings[0]
    assert "max_pairs_per_constraint=250" in warnings[0]


def test_cap_equal_to_the_violations_truncates_nothing(monkeypatch):
    # The cap is reached at the last violation of a chunk boundary: nothing
    # was dropped, so nothing is reported.
    dataset = constant_key_rows(10)  # 45 violations
    monkeypatch.setattr(backend_module, "_JOIN_CHUNK_PAIRS", 9)
    detector = ViolationDetector(
        [CONSTANT_KEY], max_pairs_per_constraint=45, engine=Engine(dataset)
    )
    assert len(detector.detect(dataset).hypergraph) == 45
    assert detector.truncated == []


def test_no_residual_call_sees_more_than_the_budget():
    # 400 tuples share one key: 79,800 candidate pairs, more than one chunk.
    dataset = constant_key_rows(400)
    budget = backend_module._JOIN_CHUNK_PAIRS
    seen = []
    residual_rows = ViolationDetector._residual_rows

    def spy(self, engine, dc, t1s, *rest):
        seen.append(len(t1s))
        return residual_rows(self, engine, dc, t1s, *rest)

    with mock.patch.object(ViolationDetector, "_residual_rows", spy):
        detector = ViolationDetector([CONSTANT_KEY], engine=Engine(dataset))
        detected = detector.detect(dataset)
    assert sum(seen) == 400 * 399 // 2 > budget
    assert max(seen) <= budget
    naive = NaiveViolationDetector([CONSTANT_KEY]).detect(dataset)
    assert blocks_of(detected) == blocks_of(naive)


def test_one_tuple_pairing_beyond_the_budget_is_sliced(monkeypatch):
    # Tuple 0 pairs with every other tuple across attributes: its probe row
    # alone holds more pairs than a chunk.
    rows = [["x", "y"]] + [["z", "x"] for _ in range(12)]
    dataset = Dataset(Schema(["A", "B"]), rows)
    dc = DenialConstraint(
        [binary("A", Operator.EQ, "B"), binary("B", Operator.NEQ, "B")],
        name="probe_heavy",
    )
    monkeypatch.setattr(backend_module, "_JOIN_CHUNK_PAIRS", 5)
    backend = Engine(dataset).backend
    sizes = [len(left) for left, _ in backend.join_chunks([("A", "B")])]
    assert sum(sizes) == 12 and max(sizes) <= 5
    detected = ViolationDetector([dc], engine=Engine(dataset)).detect(dataset)
    naive = NaiveViolationDetector([dc]).detect(dataset)
    assert blocks_of(detected) == blocks_of(naive)


@pytest.mark.parametrize("budget", BUDGETS)
def test_join_pairs_is_the_concatenated_chunks(monkeypatch, budget):
    rows = [["k", "1"], ["k", "2"], [None, "1"], ["j", "k"], ["k", "3"], ["j", "j"]]
    dataset = Dataset(Schema(["K", "V"]), rows)
    monkeypatch.setattr(backend_module, "_JOIN_CHUNK_PAIRS", budget)
    backend = Engine(dataset).backend
    for join in ([("K", "K")], [("K", "V")], []):
        chunks = list(backend.join_chunks(join))
        left, right = backend.join_pairs(join)
        assert all(len(c[0]) <= budget for c in chunks)
        assert np.array_equal(left, np.concatenate([c[0] for c in chunks]))
        assert np.array_equal(right, np.concatenate([c[1] for c in chunks]))
