"""Tests for the reference signal featurizers (Section 4.2 groundings)."""

import pytest

from repro.constraints.fd import parse_fd
from repro.core.config import HoloCleanConfig
from repro.core.featurize import FeaturizationContext
from repro.dataset.dataset import Cell, Dataset
from repro.dataset.schema import Attribute, Schema
from repro.external.matcher import MatchedRelation
from repro.oracle import (
    ConstraintFeaturizer,
    CooccurFeaturizer,
    ExternalMatchFeaturizer,
    FrequencyFeaturizer,
    MinimalityFeaturizer,
    SourceFeaturizer,
    Statistics,
    default_featurizers,
)


def make_context(dataset, config=None, matched=None):
    return FeaturizationContext(dataset, Statistics(dataset),
                                config or HoloCleanConfig(),
                                matched=matched or [])


@pytest.fixture
def city_data():
    schema = Schema(["Zip", "City"])
    rows = [["60608", "Chicago"]] * 8 + [["60608", "Cicago"]]
    return Dataset(schema, rows)


class TestMinimalityFeaturizer:
    def test_fires_only_on_init_value(self, city_data):
        ctx = make_context(city_data)
        feats = MinimalityFeaturizer(ctx).features(
            Cell(8, "City"), ["Cicago", "Chicago"])
        assert feats[0] == [(("minimality",), 1.0)]
        assert feats[1] == []


class TestFrequencyFeaturizer:
    def test_leave_one_out(self, city_data):
        ctx = make_context(city_data)
        feats = FrequencyFeaturizer(ctx).features(
            Cell(8, "City"), ["Cicago", "Chicago"])
        # Cicago appears once; its own cell must not count: (1-1)/(9-1)=0.
        assert feats[0][0] == (("freq", "City"), 0.0)
        # Chicago: 8/(9-1) = 1.0.
        assert feats[1][0] == (("freq", "City"), 1.0)

    def test_emits_global_backoff(self, city_data):
        ctx = make_context(city_data)
        feats = FrequencyFeaturizer(ctx).features(Cell(0, "City"), ["Chicago"])
        keys = [k for k, _ in feats[0]]
        assert ("freq*",) in keys


class TestCooccurFeaturizer:
    def test_pair_tying_value_is_conditional(self, city_data):
        config = HoloCleanConfig(cooccur_smoothing=0.0)
        ctx = make_context(city_data, config)
        feats = CooccurFeaturizer(ctx).features(
            Cell(8, "City"), ["Cicago", "Chicago"])
        by_key_cicago = dict(feats[0])
        by_key_chicago = dict(feats[1])
        # Leave-one-out: Pr[Cicago | 60608] = (1-1)/(9-1) = 0 → no entry.
        assert ("cooc", "City", "Zip") not in by_key_cicago
        # Pr[Chicago | 60608] = 8/8 = 1.0.
        assert by_key_chicago[("cooc", "City", "Zip")] == pytest.approx(1.0)

    def test_smoothing_discounts(self, city_data):
        config = HoloCleanConfig(cooccur_smoothing=2.0)
        ctx = make_context(city_data, config)
        feats = CooccurFeaturizer(ctx).features(Cell(8, "City"), ["Chicago"])
        value = dict(feats[0])[("cooc", "City", "Zip")]
        assert value == pytest.approx(8 / (8 + 2))

    def test_null_context_skipped(self):
        ds = Dataset(Schema(["A", "B"]), [[None, "x"], ["v", "x"]])
        ctx = make_context(ds)
        feats = CooccurFeaturizer(ctx).features(Cell(0, "B"), ["x"])
        # Only co-occurrence with non-null attributes contributes — A of
        # tuple 0 is NULL, so nothing fires for pair (B, A).
        keys = [k for k, _ in feats[0]]
        assert ("cooc", "B", "A") not in keys


class TestSourceFeaturizer:
    @pytest.fixture
    def flights(self):
        schema = Schema([Attribute("Source", role="source"),
                         Attribute("Flight"), Attribute("Dep")])
        return Dataset(schema, [
            ["s1", "F1", "10:00"],
            ["s2", "F1", "10:00"],
            ["s3", "F1", "11:00"],
            ["s1", "F2", "09:00"],
        ])

    def test_votes_by_source(self, flights):
        config = HoloCleanConfig(source_entity_attributes=("Flight",))
        ctx = make_context(flights, config)
        feats = SourceFeaturizer(ctx).features(
            Cell(2, "Dep"), ["11:00", "10:00"])
        own = dict(feats[0])
        other = dict(feats[1])
        # Leave-one-out: s3's own vote for 11:00 is excluded.
        assert own == {}
        assert other == {("src", "s1"): 1.0, ("src", "s2"): 1.0}

    def test_no_entity_attrs_no_features(self, flights):
        ctx = make_context(flights, HoloCleanConfig())
        feats = SourceFeaturizer(ctx).features(Cell(0, "Dep"), ["10:00"])
        assert feats == [[]]

    def test_cross_entity_isolation(self, flights):
        config = HoloCleanConfig(source_entity_attributes=("Flight",))
        ctx = make_context(flights, config)
        feats = SourceFeaturizer(ctx).features(Cell(3, "Dep"), ["10:00"])
        # F2's group has only its own tuple: leave-one-out leaves nothing.
        assert feats == [[]]


class TestExternalMatchFeaturizer:
    def test_fires_on_matched_value(self, city_data):
        matched = MatchedRelation("dict-a", [8], ["City"], ["Chicago"], [1])
        ctx = make_context(city_data, matched=[matched])
        feats = ExternalMatchFeaturizer(ctx).features(
            Cell(8, "City"), ["Cicago", "Chicago"])
        assert feats[0] == []
        assert feats[1] == [(("ext", "dict-a"), 1.0)]


class TestConstraintFeaturizer:
    @pytest.fixture
    def setup(self):
        schema = Schema(["Zip", "City"])
        rows = [["60608", "Chicago"]] * 5 + [["60608", "Cicago"]]
        ds = Dataset(schema, rows)
        dcs = parse_fd("Zip -> City").to_denial_constraints()
        ctx = make_context(ds)
        return ds, ConstraintFeaturizer(ctx, dcs)

    def test_counts_violations_against_init_values(self, setup):
        ds, featurizer = setup
        feats = featurizer.features(Cell(5, "City"), ["Cicago", "Chicago"])
        cap = HoloCleanConfig().dc_feature_cap
        # Keeping "Cicago" violates against the 5 Chicago partners
        # in both tuple positions: count 10, capped then normalised.
        assert dict(feats[0])[("dc", "fd_Zip__City")] == pytest.approx(
            min(10.0, cap) / cap)
        # "Chicago" creates no violations.
        assert feats[1] == []

    def test_irrelevant_attribute_untouched(self, setup):
        _, featurizer = setup
        schema_attr_feats = featurizer.features(Cell(0, "Zip"), ["60608"])
        # Zip participates in the FD: keeping 60608 violates with the
        # Cicago tuple (both orders), so the feature fires.
        assert dict(schema_attr_feats[0])[("dc", "fd_Zip__City")] > 0

    def test_single_tuple_constraint(self):
        from repro.constraints.parser import parse_dc
        ds = Dataset(Schema(["State"]), [["XX"], ["IL"]])
        dc = parse_dc('t1&EQ(t1.State,"XX")', name="no_xx")
        ctx = make_context(ds)
        featurizer = ConstraintFeaturizer(ctx, [dc])
        feats = featurizer.features(Cell(0, "State"), ["XX", "IL"])
        assert dict(feats[0])[("dc", "no_xx")] == 1.0
        assert feats[1] == []

    def test_partner_cap_limits_count(self):
        schema = Schema(["Zip", "City"])
        rows = [["60608", "Chicago"]] * 50 + [["60608", "Cicago"]]
        ds = Dataset(schema, rows)
        dcs = parse_fd("Zip -> City").to_denial_constraints()
        config = HoloCleanConfig(max_dc_feature_partners=5,
                                 dc_feature_cap=1000.0)
        ctx = make_context(ds, config)
        featurizer = ConstraintFeaturizer(ctx, dcs)
        feats = featurizer.features(Cell(50, "City"), ["Cicago"])
        value = dict(feats[0])[("dc", "fd_Zip__City")]
        assert value <= 10 / 1000.0  # 5 partners per position max


class TestDefaultStack:
    def test_config_toggles(self, city_data):
        ctx = make_context(city_data, HoloCleanConfig(
            use_minimality=False, use_frequency=False))
        stack = default_featurizers(ctx, [])
        names = [f.name for f in stack]
        assert "minimality" not in names
        assert "frequency" not in names
        assert "cooccur" in names

    def test_external_requires_matches(self, city_data):
        ctx = make_context(city_data)
        stack = default_featurizers(ctx, [])
        assert "external" not in [f.name for f in stack]
