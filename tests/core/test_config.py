"""Tests for HoloCleanConfig and the Figure 5 variant presets."""

import numpy as np
import pytest

from repro.core.config import VARIANTS, HoloCleanConfig


class TestValidation:
    def test_defaults_valid(self):
        config = HoloCleanConfig()
        assert config.tau == 0.5
        assert config.use_dc_feats and not config.use_dc_factors

    @pytest.mark.parametrize("tau", [-0.1, 1.1])
    def test_tau_range(self, tau):
        with pytest.raises(ValueError, match="tau"):
            HoloCleanConfig(tau=tau)

    @pytest.mark.parametrize("count", [0, -1, 2.5, 3.0, "4", True, False, None])
    def test_max_domain_positive(self, count):
        # 2.5 or 3.0 used to construct and then raise IndexError inside the
        # domain pruner (a 500 over HTTP); True pruned every domain to one
        # candidate, so the run repaired nothing.
        assert HoloCleanConfig(max_domain=1).max_domain == 1
        assert HoloCleanConfig(max_domain=np.int64(6)).max_domain == 6
        with pytest.raises(ValueError, match="max_domain must be an integer >= 1"):
            HoloCleanConfig(max_domain=count)

    def test_cooccur_tying_removed(self):
        # Co-occurrence weights are tied per attribute pair, with no option:
        # an old config naming the field must fail, not run differently.
        with pytest.raises(TypeError, match="cooccur_tying"):
            HoloCleanConfig(cooccur_tying="pair")

    def test_some_signal_required(self):
        with pytest.raises(ValueError, match="at least one"):
            HoloCleanConfig(
                use_dc_feats=False,
                use_dc_factors=False,
                use_cooccur=False,
                use_minimality=False,
                use_frequency=False,
            )

    @pytest.mark.parametrize("field", ["epochs", "gibbs_burn_in", "gibbs_sweeps"])
    @pytest.mark.parametrize("count", [-3, 2.5, "4", True])
    def test_gibbs_counts_are_non_negative_integers(self, field, count):
        assert getattr(HoloCleanConfig(**{field: 0}), field) == 0
        assert getattr(HoloCleanConfig(**{field: np.int64(4)}), field) == 4
        with pytest.raises(ValueError, match=field):
            HoloCleanConfig(**{field: count})

    @pytest.mark.parametrize(
        "field", ["max_dc_feature_partners", "evidence_negatives", "max_training_cells"]
    )
    @pytest.mark.parametrize("count", [-5, -1, 2.5, 1.5, 2.0, "4", True])
    def test_kernel_counts_are_non_negative_integers(self, field, count):
        # Each used to construct and then crash inside a kernel: a negative
        # partner cap in np.repeat, a fractional one or a fractional
        # negative count in a numpy cast (a 500 over HTTP), a negative
        # training-cell cap in an array allocation.
        assert getattr(HoloCleanConfig(**{field: 0}), field) == 0
        assert getattr(HoloCleanConfig(**{field: np.int64(3)}), field) == 3
        with pytest.raises(ValueError, match=field):
            HoloCleanConfig(**{field: count})

    def test_only_the_training_cell_cap_may_be_none(self):
        assert HoloCleanConfig(max_training_cells=None).max_training_cells is None
        for field in ("max_dc_feature_partners", "evidence_negatives"):
            with pytest.raises(ValueError, match=field):
                HoloCleanConfig(**{field: None})

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("dc_feature_cap", 0.0),
            ("dc_feature_cap", -1.0),
            ("dc_feature_cap", float("inf")),
            ("dc_feature_cap", "10"),
            ("cooccur_smoothing", -1.0),
            ("cooccur_smoothing", float("nan")),
            ("cooccur_smoothing", None),
        ],
    )
    def test_feature_value_divisors_are_validated(self, field, bad):
        # 0/0 in the DC feature and x/0 in the co-occurrence conditional
        # used to "succeed" with an all-NaN column and zero repairs.
        with pytest.raises(ValueError, match=field):
            HoloCleanConfig(**{field: bad})
        assert HoloCleanConfig(cooccur_smoothing=0).cooccur_smoothing == 0
        assert HoloCleanConfig(dc_feature_cap=np.float64(3)).dc_feature_cap == 3

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("learning_rate", float("nan")),
            ("learning_rate", -0.1),
            ("learning_rate", 0.0),
            ("learning_rate", float("inf")),
            ("l2", float("inf")),
            ("l2", float("nan")),
            ("l2", -1e-4),
            ("minimality_weight", float("nan")),
            ("minimality_weight", float("inf")),
            ("dc_factor_weight", float("nan")),
            ("dc_factor_weight", float("-inf")),
            ("domain_strategy", "bogus"),
        ],
    )
    def test_values_that_silently_break_a_repair(self, field, bad):
        # Each one used to construct, then repair nothing (NaN rate, inf
        # l2, NaN minimality weight), everything at precision 0 (negative
        # rate), or fail only inside the compile stage (the strategy).
        with pytest.raises(ValueError, match=field):
            HoloCleanConfig(**{field: bad})

    def test_learning_and_weight_edges_accepted(self):
        config = HoloCleanConfig(
            learning_rate=np.float64(0.3),
            l2=0,
            minimality_weight=-1.0,
            dc_factor_weight=0.0,
            domain_strategy="active",
        )
        assert (config.learning_rate, config.l2) == (0.3, 0)
        assert (config.minimality_weight, config.dc_factor_weight) == (-1.0, 0.0)

    @pytest.mark.parametrize(
        "field,bad",
        [
            ("seed", -1),
            ("seed", 2.5),
            ("seed", True),
            ("seed", "7"),
            ("max_factor_pairs", 2.5),
            ("max_factor_pairs", -5),
            ("max_factor_pairs", 0),
            ("max_factor_table", 0),
            ("max_factor_table", 1.5),
            ("factor_chunk_pairs", float("nan")),
            ("factor_chunk_pairs", 0),
            ("factor_stream_budget", float("nan")),
            ("factor_stream_budget", 2.0),
        ],
    )
    def test_seed_and_factor_budgets_are_integers(self, field, bad):
        # Each used to construct and then raise inside the evidence
        # sampler (a negative or fractional seed) or the pair enumerator
        # (a fractional pair budget), or "succeed" with no DC factor (a
        # budget under 1); NaN slipped past the old ``< 1`` checks.
        with pytest.raises(ValueError, match=field):
            HoloCleanConfig(**{field: bad})

    def test_seed_and_factor_budget_edges_accepted(self):
        config = HoloCleanConfig(
            seed=0,
            max_factor_pairs=1,
            max_factor_table=1,
            factor_chunk_pairs=np.int64(1),
            factor_stream_budget=1,
        )
        assert (config.seed, config.max_factor_pairs) == (0, 1)
        assert config.max_factor_table == 1
        assert (config.factor_chunk_pairs, config.factor_stream_budget) == (1, 1)

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), -0.1, 7.0, "0.8", None]
    )
    def test_sim_threshold_in_unit_interval(self, bad):
        # NaN used to raise inside similar(); 7.0 silently stopped every
        # SIM match.
        with pytest.raises(ValueError, match="sim_threshold"):
            HoloCleanConfig(sim_threshold=bad)
        for edge in (0, 1.0, np.float64(0.5)):
            assert HoloCleanConfig(sim_threshold=edge).sim_threshold == edge

    @pytest.mark.parametrize("field", ["use_engine", "vector_domains"])
    def test_removed_engine_switches_are_not_fields(self, field):
        # The engine is mandatory: the flags that once routed around it
        # are gone, not ignored.
        with pytest.raises(TypeError, match=field):
            HoloCleanConfig(**{field: False})

    @pytest.mark.parametrize(
        "field, value", [("engine_backend", "numpy"), ("parallel_workers", 2)]
    )
    def test_removed_backend_knobs_are_not_fields(self, field, value):
        # One executor, one process: nothing to select.
        with pytest.raises(TypeError, match=field):
            HoloCleanConfig(**{field: value})

    @pytest.mark.parametrize("bad", ["Flight", 5, None, ["Flight", 3]])
    def test_entity_key_is_a_list_of_names(self, bad):
        # A bare string used to key entities letter by letter ('F', ...).
        with pytest.raises(ValueError, match="source_entity_attributes"):
            HoloCleanConfig(source_entity_attributes=bad)

    def test_entity_key_is_stored_as_a_tuple(self):
        config = HoloCleanConfig(source_entity_attributes=["Flight", "Date"])
        assert config.source_entity_attributes == ("Flight", "Date")
        widened = HoloCleanConfig().with_(source_entity_attributes=["Flight"])
        assert widened == HoloCleanConfig(source_entity_attributes=("Flight",))


class TestVariants:
    def test_all_variants_construct(self):
        for name in VARIANTS:
            config = HoloCleanConfig.variant(name)
            assert config.variant_name.startswith(name.split("+")[0])

    def test_dc_feats_default(self):
        config = HoloCleanConfig.variant("dc-feats")
        assert config.use_dc_feats
        assert not config.use_dc_factors
        assert not config.use_partitioning

    def test_dc_factors_partitioning(self):
        config = HoloCleanConfig.variant("dc-factors+partitioning")
        assert not config.use_dc_feats
        assert config.use_dc_factors
        assert config.use_partitioning

    def test_full_variant(self):
        config = HoloCleanConfig.variant("dc-feats+dc-factors+partitioning")
        assert config.use_dc_feats and config.use_dc_factors
        assert config.use_partitioning

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant"):
            HoloCleanConfig.variant("nope")

    def test_variant_overrides(self):
        config = HoloCleanConfig.variant("dc-feats", tau=0.9)
        assert config.tau == 0.9


class TestWith:
    def test_with_returns_modified_copy(self):
        base = HoloCleanConfig()
        changed = base.with_(tau=0.7)
        assert changed.tau == 0.7
        assert base.tau == 0.5

    def test_with_validates(self):
        with pytest.raises(ValueError):
            HoloCleanConfig().with_(tau=5.0)

    def test_variant_name_roundtrip(self):
        assert HoloCleanConfig.variant("dc-feats").variant_name == "dc-feats"
        full = HoloCleanConfig.variant("dc-feats+dc-factors+partitioning")
        assert full.variant_name == "dc-feats+dc-factors+partitioning"
