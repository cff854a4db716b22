"""The DC feature kernel against the naive per-partner walk.

:meth:`VectorFeaturizer._count_dc_violations` evaluates a two-tuple
constraint once per (candidate row, distinct partner group) of the row's
join bucket and corrects for the one window tuple the naive walk skips.
These tests pin its counts to
:meth:`repro.oracle.ConstraintFeaturizer._count_violations` exactly, one (cell,
candidate, tuple position) at a time: at every edge of the partner
window, under NULLs and candidates the data never holds, and for every
shape of two-tuple constraint.  A spy test on Flights bounds the number
of predicate evaluations, so a return to per-partner evaluation fails
here and not only in a timing.
"""

from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Operator, Predicate, TupleRef
from repro.core.compiler import ModelCompiler
from repro.core.config import HoloCleanConfig
from repro.core.featurize import FeaturizationContext
from repro.core.vector_featurize import VectorFeaturizer
from repro.data.generators.flights import generate_flights
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.detect.violations import ViolationDetector
from repro.engine import Engine
from repro.oracle import ConstraintFeaturizer


def pred(left, op, right):
    (i, a), (j, b) = left, right
    return Predicate(TupleRef(i, a), op, TupleRef(j, b))


EQ, NEQ, GT, LT = Operator.EQ, Operator.NEQ, Operator.GT, Operator.LT

#: One constraint per two-tuple shape the kernel must handle.
DCS = {
    "fd": DenialConstraint(
        [pred((1, "A"), EQ, (2, "A")), pred((1, "B"), NEQ, (2, "B"))], name="fd"
    ),
    "cross_join": DenialConstraint(
        [pred((1, "A"), EQ, (2, "D")), pred((1, "B"), NEQ, (2, "B"))],
        name="cross_join",
    ),
    "order": DenialConstraint(
        [pred((1, "A"), EQ, (2, "A")), pred((1, "C"), GT, (2, "C"))], name="order"
    ),
    "two_residuals": DenialConstraint(
        [
            pred((1, "A"), EQ, (2, "A")),
            pred((1, "B"), NEQ, (2, "B")),
            pred((1, "C"), NEQ, (2, "C")),
        ],
        name="two_residuals",
    ),
    "join_only": DenialConstraint([pred((1, "A"), EQ, (2, "D"))], name="join_only"),
    "join_free": DenialConstraint(
        [pred((1, "B"), NEQ, (2, "B")), pred((1, "C"), LT, (2, "C"))], name="join_free"
    ),
}

CAP = 2

# Join buckets on A, for a partner cap of 2: k2 holds exactly CAP tuples,
# k3 CAP + 1 and k4 CAP + 2.  Tuple 7 sits beyond k4's three-tuple window,
# tuple 8 has a NULL residual and tuple 9 a NULL join key.  D carries
# key-like values for the cross-attribute join.
ROWS = [
    ["k4", "x", "1", "k3"],
    ["k2", "x", "2", "k4"],
    ["k4", "y", "3", "k4"],
    ["k3", "x", "1", "k2"],
    ["k4", "x", "2", None],
    ["k3", "y", "2", "k4"],
    ["k2", "y", "1", "k3"],
    ["k4", "z", "3", "k4"],
    ["k3", None, "3", "k3"],
    [None, "y", "1", "k4"],
]

#: Per attribute, every candidate: a join candidate moves the cell to
#: another bucket, and "ghost" / "9" are values the data never holds.
DOMAINS = {
    "A": ["k2", "k3", "k4", "ghost"],
    "B": ["x", "y", "z", "ghost"],
    "C": ["1", "2", "3", "9"],
    "D": ["k2", "k3", "k4"],
}


def edge_dataset():
    return Dataset(Schema(["A", "B", "C", "D"]), [list(r) for r in ROWS])


def all_specs(dataset, domains):
    return [
        (Cell(tid, attr), domain)
        for tid in dataset.tuple_ids
        for attr, domain in domains.items()
    ]


def count_pairs(dataset, dcs, specs, cap):
    """Per (constraint, position, attribute): the kernel's counts and the
    naive walk's, one per (cell, candidate) row of the block."""
    config = HoloCleanConfig(max_dc_feature_partners=cap)
    engine = Engine(dataset)
    context = FeaturizationContext(dataset, engine.statistics(), config)
    naive = ConstraintFeaturizer(context, dcs)
    fast = VectorFeaturizer(engine, context, dcs)
    fast._build_blocks(specs)
    out = {}
    for dc in dcs:
        for attr, block in fast._blocks.items():
            for pos in (1, 2):
                if attr not in dc.attributes_of(pos):
                    continue
                got = fast._count_dc_violations(dc, pos, block)
                tids = np.repeat(block.tids, block.sizes).tolist()
                values = [block.values[code] for code in block.flat_code.tolist()]
                want = [
                    naive._count_violations(dc, Cell(tid, attr), value, pos)
                    for tid, value in zip(tids, values)
                ]
                out[dc.name, pos, attr] = (got.tolist(), want)
    return out


@pytest.mark.parametrize("cap", [0, 1, CAP, 3, 100])
@pytest.mark.parametrize("name", sorted(DCS))
def test_counts_equal_the_naive_walk(name, cap):
    dataset = edge_dataset()
    pairs = count_pairs(dataset, [DCS[name]], all_specs(dataset, DOMAINS), cap)
    assert pairs
    for key, (got, want) in pairs.items():
        assert got == want, key
    if cap:
        assert any(any(want) for _, want in pairs.values())


def counts_of(pairs, key, tid, dataset):
    """The kernel's counts for one cell, keyed by candidate."""
    got, want = pairs[key]
    attr = key[2]
    cells = [(t, value) for t in dataset.tuple_ids for value in DOMAINS[attr]]
    assert got == want
    return {value: got[i] for i, (t, value) in enumerate(cells) if t == tid}


def test_window_edges_spelled_out():
    # The partner rule on the fd constraint, cap 2, position 1, cell B: the
    # first two non-self tuples of the bucket in ascending tuple id.
    dataset = edge_dataset()
    specs = all_specs(dataset, {"B": DOMAINS["B"]})
    pairs = count_pairs(dataset, [DCS["fd"]], specs, CAP)
    key = ("fd", 1, "B")
    # k2 (exactly cap): tuple 1's one partner is tuple 6 ("y").
    assert counts_of(pairs, key, 1, dataset) == {"x": 1, "y": 0, "z": 1, "ghost": 1}
    # k3 (cap + 1), own tuple inside the window: partners 5 ("y") and 8
    # (NULL, never a violation).
    assert counts_of(pairs, key, 3, dataset) == {"x": 1, "y": 0, "z": 1, "ghost": 1}
    # k4 (cap + 2), own tuple 0 inside the window: partners 2 ("y"), 4 ("x").
    assert counts_of(pairs, key, 0, dataset) == {"x": 1, "y": 1, "z": 2, "ghost": 2}
    # k4, own tuple 7 beyond the window: partners 0 ("x") and 2 ("y"); the
    # window's last tuple, 4, is not examined.
    assert counts_of(pairs, key, 7, dataset) == {"x": 1, "y": 1, "z": 2, "ghost": 2}
    # A NULL join key joins nothing.
    assert counts_of(pairs, key, 9, dataset) == {"x": 0, "y": 0, "z": 0, "ghost": 0}


def test_a_join_candidate_moves_the_cell_to_another_bucket():
    # Tuple 0 (k4, "x") with candidate A = "k3" is compared with k3's first
    # two tuples, 3 ("x") and 5 ("y"), and its own tuple is not among them;
    # candidate "k4" keeps it in its own bucket, where it is skipped.
    dataset = edge_dataset()
    specs = all_specs(dataset, {"A": DOMAINS["A"]})
    pairs = count_pairs(dataset, [DCS["fd"]], specs, CAP)
    assert counts_of(pairs, ("fd", 1, "A"), 0, dataset) == {
        "k2": 1,
        "k3": 1,
        "k4": 1,
        "ghost": 0,
    }


VALUE = st.sampled_from(["k2", "k3", "x", "1", "2", None])
ROW = st.tuples(VALUE, VALUE, VALUE, VALUE)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(ROW, min_size=1, max_size=12), cap=st.integers(0, 4))
def test_random_data_equal_the_naive_walk(rows, cap):
    dataset = Dataset(Schema(["A", "B", "C", "D"]), [list(r) for r in rows])
    domains = {attr: ["k2", "x", "2", "ghost"] for attr in "ABCD"}
    pairs = count_pairs(dataset, list(DCS.values()), all_specs(dataset, domains), cap)
    for key, (got, want) in pairs.items():
        assert got == want, key


# ---------------------------------------------------------------------------
# Complexity: one evaluation per (row, distinct partner group), plus one
# ---------------------------------------------------------------------------
def max_distinct_groups(dataset, dc, partner_pos):
    """The most distinct partner-side value tuples any join bucket holds."""
    join = [
        p.left if p.left.tuple_index == partner_pos else p.right
        for p in dc.equijoin_predicates
    ]
    read = sorted(dc.attributes_of(partner_pos))
    groups = defaultdict(set)
    for tid in dataset.tuple_ids:
        row = dataset.tuple_dict(tid)
        key = tuple(row[ref.attribute] for ref in join)
        if None not in key:
            groups[key].add(tuple(row[a] for a in read))
    return max(len(g) for g in groups.values())


def test_flights_evaluates_once_per_distinct_partner_group():
    generated = generate_flights(num_flights=12)
    dataset, constraints = generated.dirty, generated.constraints
    config = HoloCleanConfig(
        tau=generated.recommended_tau,
        source_entity_attributes=generated.source_entity_attributes,
    )
    engine = Engine(dataset)
    detection = ViolationDetector(constraints, engine=engine).detect(dataset)
    model = ModelCompiler(
        dataset, constraints, config, detection, engine=engine
    ).compile()
    specs = [(info.cell, info.domain) for info in model.graph.variables]
    context = FeaturizationContext(dataset, engine.statistics(), config)
    fast = VectorFeaturizer(engine, context, constraints)
    fast._build_blocks(specs)

    lengths = []
    evaluate = Predicate.evaluate_coded

    def spy(self, left, right, book):
        lengths.append(len(left))
        return evaluate(self, left, right, book)

    evaluated = bound = per_partner = 0
    with mock.patch.object(Predicate, "evaluate_coded", spy):
        for dc in constraints:
            for attr, block in fast._blocks.items():
                for pos in (1, 2):
                    if attr not in dc.attributes_of(pos):
                        continue
                    del lengths[:]
                    fast._count_dc_violations(dc, pos, block)
                    rows = len(block.flat_row)
                    groups = max_distinct_groups(dataset, dc, 3 - pos)
                    evaluated += sum(lengths)
                    residuals = len(dc.residual_predicates)
                    bound += residuals * (rows * groups + rows)
                    per_partner += residuals * rows * 34
    assert 0 < evaluated <= bound
    # Every Flights bucket holds 34 tuples (one per source), and the bound
    # is far below what a per-partner walk evaluates.
    assert bound < per_partner / 2
