"""Tests for the active-domain strategy and strategy validation."""

import pytest

from repro.oracle import DomainPruner
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema


@pytest.fixture
def data():
    schema = Schema(["Zip", "City"])
    rows = [["60608", "Chicago"]] * 6 + [["02134", "Boston"]] * 3
    rows.append(["99999", "Cicago"])
    return Dataset(schema, rows)


class TestActiveDomainStrategy:
    def test_returns_all_attribute_values(self, data):
        pruner = DomainPruner(data, strategy="active", max_domain=10)
        cands = pruner.candidates(Cell(9, "City"))
        assert set(cands) == {"Chicago", "Boston", "Cicago"}

    def test_most_frequent_first(self, data):
        pruner = DomainPruner(data, strategy="active", max_domain=10)
        assert pruner.candidates(Cell(9, "City"))[0] == "Chicago"

    def test_cap_keeps_init(self, data):
        pruner = DomainPruner(data, strategy="active", max_domain=2)
        cands = pruner.candidates(Cell(9, "City"))
        assert len(cands) == 2
        assert "Cicago" in cands  # init forced back in

    def test_ignores_tau(self, data):
        loose = DomainPruner(data, strategy="active", tau=0.1)
        tight = DomainPruner(data, strategy="active", tau=0.9)
        cell = Cell(9, "City")
        assert loose.candidates(cell) == tight.candidates(cell)

    def test_active_superset_of_cooccurrence(self, data):
        cell = Cell(9, "City")
        active = set(DomainPruner(data, strategy="active",
                                  max_domain=50).candidates(cell))
        pruned = set(DomainPruner(data, tau=0.3,
                                  max_domain=50).candidates(cell))
        assert pruned <= active

    def test_unknown_strategy_rejected(self, data):
        with pytest.raises(ValueError, match="strategy"):
            DomainPruner(data, strategy="bogus")


class TestConfigIntegration:
    def test_pipeline_accepts_active_strategy(self, figure1_dataset,
                                              figure1_constraints):
        from repro.core.config import HoloCleanConfig
        from repro.core.pipeline import HoloClean
        config = HoloCleanConfig(domain_strategy="active", epochs=10, seed=1)
        result = HoloClean(config).repair(figure1_dataset,
                                          figure1_constraints)
        assert result.inferences
