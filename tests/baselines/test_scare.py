"""Tests for the SCARE baseline (dependency-aware maximal likelihood)."""

import hashlib
import math
from collections import Counter

import pytest

from repro.baselines.base import MethodTimeout
from repro.baselines.scare import ScareRepair, block_codes, theil_u
from repro.data import generate_flights, generate_hospital
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Schema
from repro.engine import Engine
from repro.oracle import Statistics


@pytest.fixture
def duplicated_data():
    """Many duplicates of (code → name) plus one typo'd name."""
    schema = Schema(["Code", "Name", "Junk"])
    rows = []
    for i in range(30):
        rows.append(["C1", "Alpha", f"j{i % 4}"])
        rows.append(["C2", "Beta", f"j{i % 3}"])
    rows.append(["C1", "Alphx", "j0"])  # typo
    return Dataset(schema, rows)


class TestRepairs:
    def test_repairs_duplicate_supported_typo(self, duplicated_data):
        scare = ScareRepair(sample_fraction=1.0, min_log_gain=1.0)
        result = scare.run(duplicated_data)
        assert result.repairs.get(Cell(60, "Name")) == "Alpha"

    def test_clean_cells_untouched(self, duplicated_data):
        scare = ScareRepair(sample_fraction=1.0)
        result = scare.run(duplicated_data)
        wrong = [
            c
            for c in result.repairs
            if duplicated_data.cell_value(c) in ("Alpha", "Beta")
        ]
        assert not wrong

    def test_bounded_changes_per_tuple(self):
        schema = Schema(["A", "B", "C", "D"])
        rows = [["k", "x", "y", "z"]] * 20
        rows.append(["k", "q1", "q2", "q3"])  # three errors in one tuple
        ds = Dataset(schema, rows)
        scare = ScareRepair(
            sample_fraction=1.0, min_log_gain=0.5, max_changes_per_tuple=2
        )
        result = scare.run(ds)
        assert sum(1 for c in result.repairs if c.tid == 20) <= 2

    def test_abstains_when_observed_outside_block(self, duplicated_data):
        # With a tiny learning block, unseen observed values are skipped
        # rather than repaired blindly.
        scare = ScareRepair(sample_fraction=0.05, seed=1)
        result = scare.run(duplicated_data)
        for cell, value in result.repairs.items():
            assert value is not None


class TestDependencyWeights:
    def test_uncertainty_coefficient_ranges(self, duplicated_data):
        scare = ScareRepair(sample_fraction=1.0)
        stats = Engine(duplicated_data).statistics()
        u_informative = scare._uncertainty(stats, "Name", "Code")
        u_junk = scare._uncertainty(stats, "Name", "Junk")
        assert 0.0 <= u_junk <= u_informative <= 1.0
        assert u_informative > 0.9  # Code determines Name
        assert u_junk < 0.2

    def test_constant_attribute_zero_information(self):
        ds = Dataset(Schema(["A", "B"]), [["x", "c"], ["y", "c"]])
        scare = ScareRepair(sample_fraction=1.0)
        stats = Engine(ds).statistics()
        assert scare._uncertainty(stats, "B", "A") == 0.0

    def test_theil_u_matches_row_scan_counts(self):
        ds = generate_hospital(num_rows=100).dirty
        stats = Engine(ds).statistics()
        naive = Statistics(ds)
        attrs = ds.schema.data_attributes[:5]
        for target in attrs:
            for given in attrs:
                if given != target:
                    expected = row_scan_theil_u(naive, target, given)
                    got = theil_u(stats, target, given)
                    assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)


def row_scan_theil_u(stats, target, given):
    """``U(target | given)`` from the row-scan ``Counter`` statistics."""
    counts = list(stats.counts(target).values())
    total = sum(counts)
    h_target = -sum((n / total) * math.log(n / total) for n in counts)
    if total == 0 or h_target <= 1e-12:
        return 0.0
    pair = stats.pair_counts(target, given)
    by_given = Counter()
    for (_tv, gv), n in pair.items():
        by_given[gv] += n
    pair_total = sum(by_given.values())
    if pair_total == 0:
        return 0.0
    h_cond = -sum(
        (n / pair_total) * math.log(n / by_given[gv]) for (_tv, gv), n in pair.items()
    )
    return max(0.0, min(1.0, (h_target - h_cond) / h_target))


def repairs_fingerprint(result):
    """Count and digest of the sorted ``(tid, attribute, value)`` repairs."""
    items = sorted((c.tid, c.attribute, v) for c, v in result.repairs.items())
    return len(items), hashlib.sha256(repr(items).encode()).hexdigest()[:12]


class TestPinnedRepairs:
    """The default SCARE's repair sets on two generated instances, as the
    row-scan statistics gave them before SCARE read the engine's code
    tables; a change to how SCARE counts must not move one repair."""

    @pytest.mark.parametrize(
        "generate,expected",
        [
            (lambda: generate_flights(num_flights=70), (363, "7f549347cb54")),
            (lambda: generate_hospital(num_rows=100), (51, "54165c439dd7")),
        ],
        ids=["flights-70", "hospital-100"],
    )
    def test_repair_set_unchanged(self, generate, expected):
        result = ScareRepair().run(generate().dirty)
        assert repairs_fingerprint(result) == expected


class TestBlockCodes:
    def test_column_in_the_block_code_space(self):
        block = Dataset(Schema(["A"]), [["y"], ["x"], ["y"]])
        full = Dataset(Schema(["A"]), [["x"], [None], ["z"], ["y"]])
        values = Engine(block).store.values("A")
        assert values == ["y", "x"]
        # NULL stays -1; "z", absent from the block, takes len(values).
        assert block_codes(full, "A", values).tolist() == [1, -1, 2, 0]


class TestTimeout:
    def test_time_budget_raises(self, duplicated_data):
        scare = ScareRepair(time_budget=0.0)
        with pytest.raises(MethodTimeout):
            scare.run(duplicated_data)
