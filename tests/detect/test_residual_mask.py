"""The detector's residual mask: which passes run and on how many pairs.

Violations themselves are pinned byte-for-byte against the naive detector
in ``tests/engine/test_equivalence.py``; these tests pin the work the
vectorized path does to get them.  A residual that swapping the pair
cannot change (``t1.A ≠ t2.A``, the shape of every FD) gets no backward
pass, and the predicate masks are conjoined over every pair until one
predicate is selective, after which only its survivors are evaluated.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Const, Operator, Predicate, TupleRef
from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.detect import violations
from repro.detect.violations import ViolationDetector, _residual_mask
from repro.engine import Engine
from repro.oracle import NaiveViolationDetector


def binary(a, op, b, threshold=None):
    extra = () if threshold is None else (threshold,)
    return Predicate(TupleRef(1, a), op, TupleRef(2, b), *extra)


JOIN = binary("A", Operator.EQ, "A")

RESIDUALS = {
    "neq": ([binary("B", Operator.NEQ, "B")], False),
    "sim": ([binary("B", Operator.SIM, "B", 0.5)], False),
    "nsim_and_neq": (
        [binary("B", Operator.NSIM, "B", 0.5), binary("C", Operator.NEQ, "C")],
        False,
    ),
    "order": ([binary("C", Operator.GT, "C")], True),
    "cross_attribute_neq": ([binary("B", Operator.NEQ, "C")], True),
    "neq_and_order": (
        [binary("B", Operator.NEQ, "B"), binary("C", Operator.LT, "C")],
        True,
    ),
}

ROWS = [
    ["k", "ab", "1"],
    ["k", "a", "2"],
    ["k", "b", "1"],
    ["k", "ab", "3"],
    ["j", "b", "2"],
    ["j", "a", None],
    ["j", None, "1"],
]


@pytest.mark.parametrize("name", sorted(RESIDUALS))
def test_backward_pass_runs_only_when_a_swap_can_matter(name):
    residuals, backward = RESIDUALS[name]
    dc = DenialConstraint([JOIN, *residuals], name=name)
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in ROWS])
    engine = Engine(dataset)
    passes, depth = [], [0]

    def spy(*args):  # counts the outermost calls: one per direction
        passes.append(depth[0] == 0)
        depth[0] += 1
        try:
            return _residual_mask(*args)
        finally:
            depth[0] -= 1

    with mock.patch.object(violations, "_residual_mask", spy):
        detected = ViolationDetector([dc], engine=engine).detect(dataset)
    assert sum(passes) == (2 if backward else 1)
    naive = NaiveViolationDetector([dc]).detect(dataset)
    (got,) = detected.hypergraph.blocks
    (want,) = naive.hypergraph.blocks
    assert np.array_equal(got.tids, want.tids)


def mask_lengths(predicates, rows1, rows2, store):
    """``_residual_mask`` with the element count of every predicate call."""
    lengths = []
    evaluate = Predicate.evaluate_coded

    def spy(self, left, right, book):
        lengths.append(len(left))
        return evaluate(self, left, right, book)

    with mock.patch.object(Predicate, "evaluate_coded", spy):
        mask = _residual_mask(store, predicates, rows1, rows2)
    return mask, lengths


def test_masks_are_conjoined_until_a_predicate_is_selective():
    # 100 tuples, B unique per tuple, C constant but for one tuple.
    rows = [[str(i), "c" if i else "d"] for i in range(100)]
    store = Engine(Dataset(Schema(["B", "C"]), rows)).store
    rows1 = np.arange(100)
    rows2 = (rows1 + 1) % 100
    b_differs = binary("B", Operator.NEQ, "B")  # every pair survives
    c_differs = binary("C", Operator.NEQ, "C")  # 2 of 100 pairs survive
    mask, lengths = mask_lengths([b_differs, b_differs, c_differs], rows1, rows2, store)
    assert lengths == [100, 100, 100]  # nothing selective: no compaction
    assert mask.sum() == 2
    mask, lengths = mask_lengths([c_differs, b_differs, b_differs], rows1, rows2, store)
    assert lengths == [100, 2, 2]  # after the selective one, survivors only
    assert sorted(np.flatnonzero(mask).tolist()) == [0, 99]


VALUE = st.sampled_from(["a", "b", "ab", "1", "2", None])
PREDICATES = [
    binary("A", Operator.NEQ, "A"),
    binary("A", Operator.EQ, "B"),
    binary("B", Operator.LT, "C"),
    binary("A", Operator.SIM, "C", 0.5),
    Predicate(TupleRef(2, "C"), Operator.NEQ, Const("a")),
    Predicate(TupleRef(1, "B"), Operator.GTE, TupleRef(1, "C")),
]


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(st.tuples(VALUE, VALUE, VALUE), min_size=1, max_size=12),
    chosen=st.lists(st.sampled_from(PREDICATES), min_size=1, max_size=4),
    data=st.data(),
)
def test_mask_equals_the_per_pair_conjunction(rows, chosen, data):
    dataset = Dataset(Schema(["A", "B", "C"]), [list(r) for r in rows])
    store = Engine(dataset).store
    tid = st.integers(0, len(rows) - 1)
    pairs = data.draw(st.lists(st.tuples(tid, tid), max_size=40))
    rows1 = np.array([p[0] for p in pairs], dtype=np.int64)
    rows2 = np.array([p[1] for p in pairs], dtype=np.int64)
    mask = _residual_mask(store, chosen, rows1, rows2)
    want = [
        all(p.evaluate(dataset.tuple_dict(t1), dataset.tuple_dict(t2)) for p in chosen)
        for t1, t2 in pairs
    ]
    assert mask.tolist() == want
