"""Tests for the compilation module (variables, evidence, factors)."""

import numpy as np
import pytest

from repro.core.compiler import ModelCompiler
from repro.core.config import HoloCleanConfig
from repro.dataset.dataset import Cell
from repro.detect.violations import ViolationDetector


@pytest.fixture
def compiled(figure1_dataset, figure1_constraints):
    config = HoloCleanConfig(tau=0.3, seed=1)
    detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
    compiler = ModelCompiler(figure1_dataset, figure1_constraints, config, detection)
    return compiler.compile(), detection


class TestVariables:
    def test_query_vars_cover_noisy_cells(self, compiled):
        model, detection = compiled
        query_cells = {model.graph.variables[v].cell for v in model.query_ids}
        repairable_noisy = {c for c in detection.noisy_cells}
        assert query_cells == repairable_noisy

    def test_query_domains_contain_init(self, compiled, figure1_dataset):
        model, _ = compiled
        for vid in model.query_ids:
            info = model.graph.variables[vid]
            init = figure1_dataset.cell_value(info.cell)
            if init is not None:
                assert init in info.domain

    def test_evidence_has_valid_labels(self, compiled):
        model, _ = compiled
        for vid, label in zip(model.evidence_ids, model.evidence_labels):
            info = model.graph.variables[vid]
            assert 0 <= label < info.domain_size

    def test_evidence_excludes_noisy_cells(self, compiled, figure1_dataset):
        model, detection = compiled
        # Weak-label ids (query vars reused for training) are allowed;
        # genuine evidence variables must be clean cells.
        for vid in model.evidence_ids:
            info = model.graph.variables[vid]
            if info.is_evidence:
                assert info.cell not in detection.noisy_cells


class TestEvidenceSampling:
    def test_max_training_cells_cap(self, figure1_dataset, figure1_constraints):
        config = HoloCleanConfig(tau=0.3, max_training_cells=10, seed=1)
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        model = ModelCompiler(
            figure1_dataset, figure1_constraints, config, detection
        ).compile()
        true_evidence = [
            v for v in model.evidence_ids if model.graph.variables[v].is_evidence
        ]
        assert len(true_evidence) <= 10

    def test_evidence_negatives_extend_domains(
        self, figure1_dataset, figure1_constraints
    ):
        config = HoloCleanConfig(tau=0.3, evidence_negatives=2, seed=1)
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        model = ModelCompiler(
            figure1_dataset, figure1_constraints, config, detection
        ).compile()
        sizes = [
            model.graph.variables[v].domain_size
            for v in model.evidence_ids
            if model.graph.variables[v].is_evidence
        ]
        assert sizes and all(s >= 2 for s in sizes)


class TestFactors:
    def test_no_factors_for_dc_feats(self, compiled):
        model, _ = compiled
        assert len(model.graph.factors) == 0 and not model.graph.factors

    def test_factors_grounded_for_dc_factors(
        self, figure1_dataset, figure1_constraints
    ):
        config = HoloCleanConfig.variant("dc-factors", tau=0.3, seed=1)
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        model = ModelCompiler(
            figure1_dataset, figure1_constraints, config, detection
        ).compile()
        assert len(model.graph.factors) > 0
        for i in range(len(model.graph.factors)):
            var_ids, table, _, _ = model.graph.factor(i)
            # Factors span only query variables.
            for vid in var_ids:
                assert not model.graph.variables[vid].is_evidence
            # Tables are non-constant (constant factors are dropped).
            assert (table == -1).any()
            assert (table == 1).any()

    def test_partitioning_grounds_fewer_or_equal_factors(
        self, figure1_dataset, figure1_constraints
    ):
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        counts = {}
        for name in ("dc-factors", "dc-factors+partitioning"):
            config = HoloCleanConfig.variant(name, tau=0.3, seed=1)
            model = ModelCompiler(
                figure1_dataset, figure1_constraints, config, detection
            ).compile()
            counts[name] = len(model.graph.factors)
        assert counts["dc-factors+partitioning"] <= counts["dc-factors"]


class TestProgramAndReport:
    def test_ddlog_program_present(self, compiled):
        model, _ = compiled
        text = "\n".join(model.ddlog_program)
        assert "Value?(t, a, d) :- Domain(t, a, d)" in text
        assert "!Value?" in text  # relaxed rules for dc-feats

    def test_size_report_keys(self, compiled):
        model, _ = compiled
        report = model.size_report()
        for key in (
            "variables",
            "query_variables",
            "feature_entries",
            "weights",
            "constraint_factors",
            "skipped_factors",
        ):
            assert key in report

    def test_minimality_weight_pinned(self, compiled):
        model, _ = compiled
        fixed = model.graph.space.fixed_weights
        idx = model.graph.space.get(("minimality",))
        assert idx is not None and idx in fixed

    def test_feature_space_frozen_after_compile(self, compiled):
        model, _ = compiled
        space = model.graph.space
        assert len(space) == model.graph.matrix.num_features
        with pytest.raises(KeyError, match="frozen"):
            space.index(("new",))
        assert space.index(("minimality",)) == space.get(("minimality",))


def sampled_cells(compiler, query_cells):
    """``_sample_evidence`` over ``query_cells``, decoded into cells."""
    names = compiler.engine.store.attributes
    tids = [cell.tid for cell in query_cells]
    codes = [names.index(cell.attribute) for cell in query_cells]
    sampled = compiler._sample_evidence(
        np.array(tids, dtype=np.int64), np.array(codes, dtype=np.int64)
    )
    return [
        Cell(tid, names[code])
        for tid, code in zip(*(column.tolist() for column in sampled))
    ]


class TestEvidenceMask:
    def test_mask_sampler_matches_reference(self, figure1_dataset, figure1_constraints):
        """The vectorized clean-cell sampler selects exactly the cells the
        old per-cell list comprehension selected — same order, same RNG
        stream — with and without the training cap."""
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        repairable = figure1_dataset.schema.data_attributes
        query_cells = {
            c for c in detection.noisy_cells if c.attribute in set(repairable)
        }
        for cap in (None, 5, 2):
            config = HoloCleanConfig(tau=0.3, seed=1, max_training_cells=cap)
            compiler = ModelCompiler(
                figure1_dataset, figure1_constraints, config, detection
            )
            reference = [
                Cell(tid, a)
                for tid in figure1_dataset.tuple_ids
                for a in repairable
                if Cell(tid, a) not in detection.noisy_cells
                and Cell(tid, a) not in query_cells
            ]
            if cap is not None and len(reference) > cap:
                rng = np.random.default_rng(config.seed)
                picked = rng.choice(len(reference), size=cap, replace=False)
                reference = [reference[i] for i in sorted(picked)]
            assert sampled_cells(compiler, sorted(query_cells)) == reference, cap


class TestColumnarCatalog:
    """The variable catalog and the ``Domain`` relation a compile emits."""

    @pytest.fixture
    def pruned(self, figure1_dataset, figure1_constraints):
        config = HoloCleanConfig(tau=0.3, seed=1)
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        compiler = ModelCompiler(
            figure1_dataset, figure1_constraints, config, detection
        )
        noisy = sorted(detection.noisy_cells)
        query = compiler._pruner.domains(noisy)
        evidence = compiler._pruner.domains(sampled_cells(compiler, noisy))
        return compiler, compiler.compile(), {**query, **evidence}

    def test_domain_relation_has_the_dicts_keys_order_and_lists(self, pruned):
        _, model, domains = pruned
        relation = model.relations.domain
        assert list(relation) == list(domains)
        assert dict(relation.items()) == domains
        assert model.relations.num_random_variables == len(domains)

    def test_candidate_codes_are_the_column_stores(self, pruned):
        compiler, model, _ = pruned
        store = compiler.engine.store
        for columns in (model.graph.variables, model.relations.domain):
            assert len(columns)
            # Every candidate came from the data: no table grew.
            assert columns.attributes == store.attributes
            assert columns.tables == [store.values(a) for a in store.attributes]
            rows = range(len(columns))
            for row, cell, domain in zip(
                rows, columns.cells_of(), columns.domains_of()
            ):
                lo, hi = columns.domain_indptr[row : row + 2]
                assert columns.domain_codes[lo:hi].tolist() == [
                    store.code_of(cell.attribute, value) for value in domain
                ]

    def test_store_dictionaries_are_not_shared(self, pruned):
        compiler, model, _ = pruned
        variables = model.graph.variables
        store_table = compiler.engine.store.values(variables.attributes[0])
        assert variables.tables[0] is not store_table
        assert variables.tables[0] is not model.relations.domain.tables[0]


class TestInitValueRelation:
    def test_relations_derive_init_values(self, compiled, figure1_dataset):
        model, _ = compiled
        relations = model.relations
        assert list(relations.init_values) == list(relations.domain)
        for cell, value in relations.init_values.items():
            assert value == figure1_dataset.cell_value(cell)

    def test_engine_and_naive_relations_identical(
        self, figure1_dataset, figure1_constraints
    ):
        """The compiler grounds against the engine-decoded InitValue
        relation in production; it must equal the naive probe map, key
        order included."""
        from repro.engine import Engine
        from repro.oracle import NaiveModelCompiler

        config = HoloCleanConfig(tau=0.3, seed=1)
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        naive = NaiveModelCompiler(
            figure1_dataset, figure1_constraints, config, detection
        ).compile()
        fast = ModelCompiler(
            figure1_dataset,
            figure1_constraints,
            config,
            detection,
            engine=Engine(figure1_dataset),
        ).compile()
        assert fast.relations.init_values == naive.relations.init_values
        assert list(fast.relations.init_values) == list(naive.relations.init_values)


class TestEngineArgument:
    def test_no_engine_means_build_one(self, compiled):
        # ``engine=None`` never selects a naive path: the compiler builds
        # an engine over its dataset and grounds through it.
        model, _ = compiled
        assert model.grounding["feature_path"] == "vector"
        assert model.grounding["prune_path"] == "vector"
        assert model.grounding["prune_cells"] > 0
        report = model.size_report()
        assert report["grounding_feature_path"] == "vector"
        assert report["grounding_prune_cells"] > 0

    def test_foreign_engine_is_rejected(
        self, figure1_dataset, figure1_constraints, compiled
    ):
        from repro.engine import Engine

        _, detection = compiled
        with pytest.raises(
            ValueError, match="engine was built over a different dataset"
        ):
            ModelCompiler(
                figure1_dataset,
                figure1_constraints,
                HoloCleanConfig(),
                detection,
                engine=Engine(figure1_dataset.copy()),
            )


class TestCodesFromPrunerToFeaturizer:
    @pytest.mark.parametrize("name", ["hospital", "flights"])
    def test_compile_never_decodes_candidates(self, name, monkeypatch):
        """Production compile hands Algorithm 2's codes on as codes: no
        string-keyed prune, no string encode, no per-attribute re-encode.
        Hospital grounds DC factors too (pair enumeration and factor tables
        read the same catalog); Flights takes the weak-label path."""
        from repro.core.vector_domain import VectorDomainPruner
        from repro.data import generate_flights, generate_hospital
        from repro.engine.store import ColumnStore
        from repro.eval.harness import holoclean_config_for
        from repro.inference.variables import CellColumns

        if name == "hospital":
            generated = generate_hospital(num_rows=120)
            overrides = {"use_dc_factors": True, "use_partitioning": True}
        else:
            generated = generate_flights(num_flights=6)
            overrides = {}
        config = holoclean_config_for(generated).with_(**overrides)
        detection = ViolationDetector(generated.constraints).detect(generated.dirty)

        def refuse(*args, **kwargs):
            raise AssertionError("compile decoded or re-encoded candidates")

        for owner, method in (
            (ColumnStore, "domain_code_index"),
            (VectorDomainPruner, "domains"),
            (CellColumns, "encode"),
        ):
            monkeypatch.setattr(owner, method, refuse)
        model = ModelCompiler(
            generated.dirty, generated.constraints, config, detection
        ).compile()
        assert len(model.query_ids) and len(model.evidence_ids)
        assert model.graph.matrix.num_entries
        if name == "hospital":
            assert model.grounding["pairs"] and model.graph.factors
