"""Tests for the conflict hypergraph and Algorithm 3 components."""

import pickle
from collections import defaultdict

import numpy as np
import pytest

from repro.constraints.parser import parse_dc
from repro.data import generate_flights, generate_hospital
from repro.dataset.dataset import Cell
from repro.detect import EnsembleDetector, ViolationDetector
from repro.detect.hypergraph import ConflictHypergraph, Violation, cells_of_masks


def graph(*violations):
    """A hypergraph of ``(name, tid, ...)`` violations over attribute A."""
    h = ConflictHypergraph()
    for name, *tids in violations:
        h.add_block(name, [tids], [("A",)] * len(tids))
    return h


def reference_components(violations):
    """The object-walking union-find the columnar one replaced: tuples
    registered in row-major first-appearance order, components in order
    of their first registered tuple."""
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for v in violations:
        first = find(v.tids[0])
        for other in v.tids[1:]:
            root = find(other)
            if root != first:
                parent[root] = first
    groups: dict[int, set[int]] = defaultdict(set)
    for x in parent:
        groups[find(x)].add(x)
    return list(groups.values())


class TestViolation:
    def test_requires_tuples(self):
        with pytest.raises(ValueError, match="at least one"):
            Violation("dc", (), ())
        with pytest.raises(ValueError, match="at least one"):
            ConflictHypergraph().add_block("dc", [], [])

    def test_frozen(self):
        violation = Violation("dc", (1, 2), (Cell(1, "A"), Cell(2, "A")))
        with pytest.raises(AttributeError):
            violation.tids = (3,)


class TestConflictHypergraph:
    def test_add_and_count(self):
        h = graph(("dc1", 1, 2), ("dc2", 3))
        assert len(h) == 2
        assert h.violation_count("dc1") == 1
        assert h.violation_count() == 2
        assert h.violation_count("missing") == 0

    def test_empty_block_adds_nothing(self):
        h = ConflictHypergraph()
        h.add_block("dc", np.empty((0, 2), dtype=np.int64), [("A",), ("B",)])
        h.add_block("dc", [], [("A",)])
        assert len(h) == 0 and h.constraint_names == [] and h.blocks == []

    def test_violations_materialise_rows_in_emission_order(self):
        h = ConflictHypergraph()
        h.add_block("dc1", [(1, 2), (4, 3)], [("A", "B"), ("C",)])
        h.add_block("dc2", [7], [("B",)])
        assert h.violations == [
            Violation("dc1", (1, 2), (Cell(1, "A"), Cell(1, "B"), Cell(2, "C"))),
            Violation("dc1", (4, 3), (Cell(4, "A"), Cell(4, "B"), Cell(3, "C"))),
            Violation("dc2", (7,), (Cell(7, "B"),)),
        ]
        assert all(type(t) is int for v in h.violations for t in v.tids)

    def test_by_constraint(self):
        h = graph(("dc1", 1, 2), ("dc1", 2, 3), ("dc2", 9, 10))
        assert [v.tids for v in h.by_constraint("dc1")] == [(1, 2), (2, 3)]
        assert h.by_constraint("missing") == []

    def test_cells_union(self):
        h = graph(("dc1", 1, 2), ("dc1", 2, 3))
        assert cells_of_masks(h.masks()) == {Cell(1, "A"), Cell(2, "A"), Cell(3, "A")}

    def test_cells_take_each_positions_attributes(self):
        h = ConflictHypergraph()
        h.add_block("dc", [(1, 2), (1, 3)], [("A", "B"), ("C",)])
        assert cells_of_masks(h.masks()) == {
            Cell(1, "A"),
            Cell(1, "B"),
            Cell(2, "C"),
            Cell(3, "C"),
        }

    def test_tuples(self):
        h = graph(("dc1", 1, 2), ("dc2", 7))
        assert h.tuples() == {1, 2, 7}

    def test_merge(self):
        a, b = graph(("dc1", 1, 2)), graph(("dc2", 3, 4))
        a.merge(b)
        assert len(a) == 2
        assert a.constraint_names == ["dc1", "dc2"]
        assert [v.tids for v in a.violations] == [(1, 2), (3, 4)]


class TestTupleComponents:
    def test_transitive_grouping(self):
        h = graph(("dc", 1, 2), ("dc", 2, 3), ("dc", 7, 8))
        assert h.tuple_components("dc") == [{1, 2, 3}, {7, 8}]

    def test_components_ordered_by_first_appearance(self):
        h = graph(("dc", 9, 8), ("dc", 1, 2), ("dc", 5), ("dc", 2, 8), ("dc", 4, 3))
        assert h.tuple_components("dc") == [{9, 8, 1, 2}, {5}, {4, 3}]
        assert h.tuple_components("dc") == reference_components(h.violations)

    def test_per_constraint_isolation(self):
        h = graph(("dc1", 1, 2), ("dc2", 2, 3))
        assert h.tuple_components("dc1") == [{1, 2}]
        assert h.tuple_components("dc2") == [{2, 3}]
        assert h.tuple_components("missing") == []

    def test_single_tuple_violation_is_singleton_component(self):
        h = graph(("dc", 5))
        assert h.tuple_components("dc") == [{5}]

    def test_all_components(self):
        h = graph(("dc1", 1, 2), ("dc2", 3))
        assert h.all_components() == {"dc1": [{1, 2}], "dc2": [{3}]}

    @pytest.mark.parametrize(
        "generated",
        [
            generate_hospital(num_rows=300, seed=5),
            generate_flights(num_flights=8, seed=5),
        ],
        ids=["hospital", "flights"],
    )
    def test_matches_reference_union_find_on_generators(self, generated):
        attribute = generated.dirty.schema.data_attributes[0]
        single = parse_dc(f't1&IQ(t1.{attribute},"no such value")', name="single")
        # Two detectors over overlapping constraints: the merged graph
        # holds several blocks per constraint name.
        detectors = [
            ViolationDetector(generated.constraints),
            ViolationDetector([*generated.constraints[:2], single]),
        ]
        h = EnsembleDetector(detectors).detect(generated.dirty).hypergraph
        assert len(h.blocks) > len(h.constraint_names) > 1
        for name in h.constraint_names:
            components = h.tuple_components(name)
            assert components == reference_components(h.by_constraint(name))
            assert all(type(t) is int for c in components for t in c)
        assert list(h.all_components()) == h.constraint_names


class TestPickle:
    def test_round_trip_preserves_violations_cells_and_block_order(self):
        generated = generate_flights(num_flights=50, seed=0)
        detection = ViolationDetector(generated.constraints).detect(generated.dirty)
        payload = pickle.dumps(detection, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(payload) < 2_000_000
        loaded = pickle.loads(payload)
        assert loaded.noisy_cells == detection.noisy_cells
        before, after = detection.hypergraph, loaded.hypergraph
        assert after.violations == before.violations
        assert len(after.blocks) == len(before.blocks) == len(generated.constraints)
        for got, want in zip(after.blocks, before.blocks):
            assert got.constraint_name == want.constraint_name
            assert got.attributes == want.attributes
            assert np.array_equal(got.tids, want.tids)
        assert after.all_components() == before.all_components()
