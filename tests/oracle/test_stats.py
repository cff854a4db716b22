"""Tests for repro.oracle.Statistics — the row-scan Algorithm 2 counts."""

import pytest

from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.oracle import Statistics


@pytest.fixture
def stats():
    schema = Schema(["City", "Zip", "State"])
    ds = Dataset(
        schema,
        [
            ["Chicago", "60608", "IL"],
            ["Chicago", "60608", "IL"],
            ["Chicago", "60609", "IL"],
            ["Cicago", "60608", "IL"],
            ["Boston", "02134", "MA"],
            ["Boston", None, "MA"],
        ],
    )
    return Statistics(ds)


class TestSingleCounts:
    def test_counts(self, stats):
        assert stats.counts("City")["Chicago"] == 3
        assert stats.counts("City")["Boston"] == 2

    def test_frequency_missing_value(self, stats):
        assert stats.frequency("City", "Nowhere") == 0

    def test_nulls_not_counted(self, stats):
        assert sum(stats.counts("Zip").values()) == 5

    def test_most_common(self, stats):
        assert stats.most_common("City", 1) == [("Chicago", 3)]


class TestPairCounts:
    def test_pair_counts_caller_order(self, stats):
        forward = stats.pair_counts("City", "Zip")
        assert forward[("Chicago", "60608")] == 2
        backward = stats.pair_counts("Zip", "City")
        assert backward[("60608", "Chicago")] == 2

    def test_same_attribute_rejected(self, stats):
        with pytest.raises(ValueError, match="distinct"):
            stats.pair_counts("City", "City")

    def test_null_rows_excluded_from_pairs(self, stats):
        # Boston/None row must not contribute to (City, Zip) pairs.
        assert stats.pair_counts("City", "Zip")[("Boston", "02134")] == 1
        assert sum(stats.pair_counts("City", "Zip").values()) == 5


class TestConditional:
    def test_paper_formula(self, stats):
        # Pr[City=Chicago | Zip=60608] = #(Chicago,60608) / #60608 = 2/3.
        joint = stats.cooccurring_values("City", "Zip", "60608")["Chicago"]
        assert joint / stats.frequency("Zip", "60608") == pytest.approx(2 / 3)

    def test_unseen_conditioning_value(self, stats):
        assert stats.cooccurring_values("City", "Zip", "99999") == {}
        assert stats.frequency("Zip", "99999") == 0

    def test_cooccurring_values(self, stats):
        values = stats.cooccurring_values("City", "Zip", "60608")
        assert values == {"Chicago": 2, "Cicago": 1}

    def test_cooccurring_values_reverse_direction(self, stats):
        values = stats.cooccurring_values("Zip", "City", "Chicago")
        assert values == {"60608": 2, "60609": 1}


class TestPairCountCaching:
    def test_swapped_orientation_cached(self, stats):
        """Both caller orders are served from cache after the first call,
        and each is the other with its value pairs swapped."""
        forward = stats.pair_counts("City", "Zip")
        swapped = stats.pair_counts("Zip", "City")
        assert stats.pair_counts("City", "Zip") is forward
        assert stats.pair_counts("Zip", "City") is swapped
        assert swapped == {(b, a): n for (a, b), n in forward.items()}
