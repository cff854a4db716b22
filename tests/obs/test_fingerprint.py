"""Content fingerprints: the identity layer under sessions and checkpoints."""

from __future__ import annotations

from repro.constraints.parser import format_dc, parse_dc
from repro.core.config import HoloCleanConfig
from repro.dataset.dataset import Dataset
from repro.dataset.schema import Schema
from repro.obs.fingerprint import (
    FINGERPRINT_HEX,
    combine_fingerprints,
    config_fingerprint,
    constraints_fingerprint,
    dataset_fingerprint,
)

_DC = "t1&t2&EQ(t1.City,t2.City)&IQ(t1.State,t2.State)"
_DC2 = "t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)"


def _dataset(rows, name="d"):
    return Dataset(Schema(["City", "State"]), rows, name=name)


class TestDatasetFingerprint:
    def test_name_is_not_content(self):
        rows = [["a", "b"], ["c", "d"]]
        assert dataset_fingerprint(_dataset(rows, "x")) == dataset_fingerprint(
            _dataset(rows, "y")
        )

    def test_cell_edit_changes_it(self):
        base = dataset_fingerprint(_dataset([["a", "b"]]))
        edited = dataset_fingerprint(_dataset([["a", "B"]]))
        assert base != edited

    def test_row_order_is_content(self):
        fwd = dataset_fingerprint(_dataset([["a", "b"], ["c", "d"]]))
        rev = dataset_fingerprint(_dataset([["c", "d"], ["a", "b"]]))
        assert fwd != rev

    def test_schema_is_content(self):
        rows = [["a", "b"]]
        other = Dataset(Schema(["City", "Zip"]), rows, name="d")
        assert dataset_fingerprint(_dataset(rows)) != dataset_fingerprint(other)

    def test_stable_across_copies(self):
        rows = [["a", "b"], [None, "d"]]
        assert dataset_fingerprint(_dataset(rows)) == dataset_fingerprint(
            _dataset([list(r) for r in rows])
        )


class TestConstraintsFingerprint:
    def test_round_trips_through_format(self):
        parsed = [parse_dc(_DC)]
        reparsed = [parse_dc(format_dc(dc)) for dc in parsed]
        assert constraints_fingerprint(parsed) == constraints_fingerprint(reparsed)

    def test_order_sensitive(self):
        a, b = parse_dc(_DC), parse_dc(_DC2)
        assert constraints_fingerprint([a, b]) != constraints_fingerprint([b, a])

    def test_extra_constraint_changes_it(self):
        a, b = parse_dc(_DC), parse_dc(_DC2)
        assert constraints_fingerprint([a]) != constraints_fingerprint([a, b])

    def test_similarity_threshold_is_content(self):
        # The ≈ threshold is not in the text; a DC without ≈ ignores it.
        sim = "t1&t2&EQ(t1.Zip,t2.Zip)&SIM(t1.City,t2.City)"
        loose, strict = parse_dc(sim, sim_threshold=0.3), parse_dc(sim)
        assert str(loose) == str(strict)
        assert constraints_fingerprint([loose]) != constraints_fingerprint([strict])
        plain, default = parse_dc(_DC, sim_threshold=0.3), parse_dc(_DC)
        assert constraints_fingerprint([plain]) == constraints_fingerprint([default])


class TestConfigFingerprint:
    def test_default_config_is_stable(self):
        assert config_fingerprint(HoloCleanConfig()) == config_fingerprint(
            HoloCleanConfig()
        )

    def test_field_change_registers(self):
        assert config_fingerprint(HoloCleanConfig()) != config_fingerprint(
            HoloCleanConfig(epochs=7)
        )

    def test_report_module_reexport(self):
        # config_fingerprint predates the fingerprint module; the old
        # import path must keep working.
        from repro.obs.report import config_fingerprint as legacy

        assert legacy is config_fingerprint


class TestCombine:
    def test_deterministic_and_sized(self):
        token = combine_fingerprints("aa", "bb")
        assert token == combine_fingerprints("aa", "bb")
        assert len(token) == FINGERPRINT_HEX
        assert token != combine_fingerprints("bb", "aa")

    def test_parts_are_delimited(self):
        assert combine_fingerprints("ab", "c") != combine_fingerprints("a", "bc")
