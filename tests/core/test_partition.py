"""Tests for Algorithm 3 and DC-factor pair enumeration."""

import pytest

from repro.constraints.fd import parse_fd
from repro.core.partition import tuple_groups
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.detect.violations import ViolationDetector
from repro.oracle import PairEnumerator


@pytest.fixture
def data():
    schema = Schema(["Zip", "City"])
    return Dataset(schema, [
        ["1", "A"], ["1", "B"],        # conflict component {0, 1}
        ["2", "C"], ["2", "D"],        # conflict component {2, 3}
        ["3", "E"], ["3", "E"],        # consistent: no component
    ])


@pytest.fixture
def dc():
    return parse_fd("Zip -> City").to_denial_constraints()[0]


class TestTupleGroups:
    def test_groups_follow_components(self, data, dc):
        hypergraph = ViolationDetector([dc]).detect(data).hypergraph
        groups = tuple_groups(hypergraph)
        tid_sets = sorted(sorted(g.tids) for g in groups)
        assert tid_sets == [[0, 1], [2, 3]]
        assert all(g.constraint_name == dc.name for g in groups)


class TestPairEnumerator:
    def test_join_pairs_from_shared_candidates(self, data, dc):
        domains = {Cell(0, "Zip"): ["1"], Cell(1, "Zip"): ["1"]}
        enumerator = PairEnumerator(data, domains)
        pairs = set(enumerator.join_pairs(dc))
        assert (0, 1) in pairs
        assert (4, 5) in pairs  # share init zip "3"
        assert (0, 2) not in pairs

    def test_candidate_overlap_creates_pairs(self, data, dc):
        # Give tuple 0 a candidate zip "2": it may now conflict with 2, 3.
        domains = {Cell(0, "Zip"): ["1", "2"]}
        enumerator = PairEnumerator(data, domains)
        pairs = set(enumerator.join_pairs(dc))
        assert (0, 2) in pairs and (0, 3) in pairs

    def test_restrict_to_component(self, data, dc):
        enumerator = PairEnumerator(data, {})
        pairs = set(enumerator.join_pairs(dc, restrict_to=frozenset({0, 1})))
        assert pairs == {(0, 1)}

    def test_max_pairs_cap(self, data, dc):
        rows = [["z", f"c{i}"] for i in range(20)]
        ds = Dataset(Schema(["Zip", "City"]), rows)
        enumerator = PairEnumerator(ds, {}, max_pairs=7)
        assert len(list(enumerator.join_pairs(dc))) == 7

    def test_partitioned_pairs(self, data, dc):
        hypergraph = ViolationDetector([dc]).detect(data).hypergraph
        enumerator = PairEnumerator(data, {})
        pairs = set(enumerator.pairs_for(dc, use_partitioning=True,
                                         hypergraph=hypergraph))
        # Partitioning drops the consistent pair (4, 5).
        assert pairs == {(0, 1), (2, 3)}

    def test_unpartitioned_includes_consistent_pairs(self, data, dc):
        enumerator = PairEnumerator(data, {})
        pairs = set(enumerator.pairs_for(dc, use_partitioning=False,
                                         hypergraph=None))
        assert (4, 5) in pairs

    def test_no_join_constraint_uses_all_pairs_within_group(self, data):
        from repro.constraints.denial import DenialConstraint
        from repro.constraints.predicates import Operator, Predicate, TupleRef
        dc = DenialConstraint([
            Predicate(TupleRef(1, "City"), Operator.GT, TupleRef(2, "City"))])
        enumerator = PairEnumerator(data, {}, max_pairs=100)
        pairs = list(enumerator.join_pairs(dc, restrict_to=frozenset({0, 1, 2})))
        assert len(pairs) == 3
