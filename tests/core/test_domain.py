"""Tests for Algorithm 2: domain pruning."""

import pytest

from repro.oracle import DomainPruner
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema


@pytest.fixture
def city_data():
    schema = Schema(["Zip", "City"])
    rows = [["60608", "Chicago"]] * 8 + [["60608", "Cicago"]] * 2
    rows += [["02134", "Boston"]] * 5
    return Dataset(schema, rows)


class TestCandidates:
    def test_threshold_filters(self, city_data):
        # Pr[Chicago | 60608] = 0.8, Pr[Cicago | 60608] = 0.2.
        pruner = DomainPruner(city_data, tau=0.5)
        cell = Cell(9, "City")  # a Cicago cell
        assert pruner.candidates(cell) == ["Cicago", "Chicago"]
        strict = DomainPruner(city_data, tau=0.9)
        # Chicago (0.8) now pruned; init value survives regardless.
        assert strict.candidates(cell) == ["Cicago"]

    def test_init_value_always_kept(self, city_data):
        pruner = DomainPruner(city_data, tau=0.99)
        assert pruner.candidates(Cell(9, "City")) == ["Cicago"]

    def test_candidates_ranked_by_conditional(self, city_data):
        pruner = DomainPruner(city_data, tau=0.1)
        cands = pruner.candidates(Cell(0, "City"))
        assert cands[0] == "Chicago"  # init (scored 1.0) first

    def test_cross_city_values_not_included(self, city_data):
        pruner = DomainPruner(city_data, tau=0.1)
        assert "Boston" not in pruner.candidates(Cell(0, "City"))

    def test_max_domain_truncates_but_keeps_init(self):
        schema = Schema(["K", "V"])
        rows = [["k", f"v{i}"] for i in range(10) for _ in range(2)]
        rows.append(["k", "rare"])
        ds = Dataset(schema, rows)
        pruner = DomainPruner(ds, tau=0.0, max_domain=3)
        cands = pruner.candidates(Cell(20, "V"))  # the "rare" cell
        assert len(cands) == 3
        assert "rare" in cands

    def test_monotone_in_tau(self, city_data):
        loose = DomainPruner(city_data, tau=0.1)
        tight = DomainPruner(city_data, tau=0.7)
        cell = Cell(9, "City")
        assert set(tight.candidates(cell)) <= set(loose.candidates(cell))

    def test_null_context_falls_back_to_most_frequent(self):
        schema = Schema(["A", "B"])
        ds = Dataset(schema, [["x", "common"], ["x", "common"],
                              ["x", "rare"], [None, None]])
        pruner = DomainPruner(ds, tau=0.5)
        assert pruner.candidates(Cell(3, "B")) == ["common"]

    def test_null_init_not_in_domain(self, city_data):
        city_data.set_value(0, "City", None)
        pruner = DomainPruner(city_data, tau=0.5)
        cands = pruner.candidates(Cell(0, "City"))
        assert None not in cands
        assert "Chicago" in cands


class TestDomains:
    def test_domains_many_cells(self, city_data):
        pruner = DomainPruner(city_data, tau=0.5)
        cells = [Cell(0, "City"), Cell(9, "City")]
        domains = pruner.domains(cells)
        assert set(domains) == set(cells)
        for domain in domains.values():
            assert domain

    def test_respects_attribute_filter(self, city_data):
        pruner = DomainPruner(city_data, tau=0.1, attributes=["City"])
        # Zip is not among the context attributes, so City candidates come
        # only from... (still from Zip? no — context excludes non-listed).
        cands = pruner.candidates(Cell(0, "City"))
        assert "Chicago" in cands
