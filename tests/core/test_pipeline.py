"""End-to-end pipeline tests on the Figure 1 running example."""

import pytest

from repro.core.config import VARIANTS, HoloCleanConfig
from repro.core.pipeline import HoloClean
from repro.core.stages import CompileStage, DetectStage, LearnStage
from repro.dataset.dataset import Cell
from repro.detect.violations import ViolationDetector
from repro.inference.gibbs import GibbsSampler


@pytest.fixture
def result(figure1_dataset, figure1_constraints):
    hc = HoloClean(HoloCleanConfig(tau=0.3, epochs=40, seed=1))
    return hc.repair(figure1_dataset, figure1_constraints)


class TestRepairResult:
    def test_repairs_figure1_zip(self, result):
        repair = result.inferences[Cell(0, "Zip")]
        assert repair.chosen_value == "60608"
        assert repair.is_repair

    def test_repairs_figure1_city(self, result):
        repair = result.inferences[Cell(3, "City")]
        assert repair.chosen_value == "Chicago"

    def test_input_not_mutated(self, figure1_dataset, figure1_constraints):
        before = figure1_dataset.copy()
        HoloClean(HoloCleanConfig(tau=0.3, epochs=10, seed=1)).repair(
            figure1_dataset, figure1_constraints)
        assert figure1_dataset == before

    def test_repaired_dataset_reflects_repairs(self, result, figure1_dataset):
        for cell, inference in result.repairs.items():
            assert result.repaired.cell_value(cell) == inference.chosen_value
        # Non-repaired cells unchanged.
        untouched = [c for c in figure1_dataset.cells()
                     if c not in result.repairs]
        for cell in untouched[:50]:
            assert result.repaired.cell_value(cell) == \
                figure1_dataset.cell_value(cell)

    def test_marginals_are_distributions(self, result):
        for inference in result.inferences.values():
            assert inference.marginal.sum() == pytest.approx(1.0)
            assert inference.confidence == pytest.approx(
                inference.marginal.max())

    def test_timings_cover_three_phases(self, result):
        assert set(result.timings) == {"detect", "compile", "repair"}
        assert all(t >= 0 for t in result.timings.values())

    def test_summary_mentions_repairs(self, result):
        assert "repairs" in result.summary()

    def test_confidence_of(self, result):
        cell = Cell(0, "Zip")
        assert result.confidence_of(cell) == result.inferences[cell].confidence


#: Factor variants without partitioning: every cell of a violating tuple
#: is a query variable, and the chain freezes during its first sweep.
UNPARTITIONED_FACTOR_VARIANTS = ("dc-factors", "dc-feats+dc-factors")


class TestVariants:
    @pytest.mark.parametrize(
        "variant", [v for v in VARIANTS if v not in UNPARTITIONED_FACTOR_VARIANTS])
    def test_all_variants_repair_the_running_example(
            self, variant, figure1_dataset, figure1_constraints):
        config = HoloCleanConfig.variant(
            variant, tau=0.3, epochs=40, seed=1,
            gibbs_burn_in=5, gibbs_sweeps=20)
        result = HoloClean(config).repair(figure1_dataset, figure1_constraints)
        assert result.inferences[Cell(0, "Zip")].chosen_value == "60608"

    @pytest.mark.parametrize("variant", UNPARTITIONED_FACTOR_VARIANTS)
    def test_unpartitioned_factor_variants_repair_it_on_most_seeds(
            self, variant, figure1_dataset, figure1_constraints):
        # The first sweep freezes the chain into one of two DC-consistent
        # worlds: t0.Zip repaired, or t0 rewritten into the other
        # restaurant.  The second needs t0.DBAName *and* t0.Address both
        # resampled before t0.Zip: one order in three under a random
        # single-site scan (the old sampler repaired 2,030 of 3,000 chain
        # seeds), one in two if the two cells shared a colour class.  No
        # single seed can pin that, so the rate is asserted.
        config = HoloCleanConfig.variant(variant, tau=0.3, epochs=40, seed=1)
        ctx = HoloClean(config).context(figure1_dataset, figure1_constraints)
        for stage in (DetectStage(), CompileStage(), LearnStage()):
            ctx = stage.run(ctx)
        graph = ctx.model.graph
        zip_var = graph.variables.by_cell(Cell(0, "Zip"))
        repaired = zip_var.domain.index("60608")
        seeds = range(200)
        hits = sum(
            GibbsSampler(graph, ctx.weights, seed=seed)
            .run(burn_in=1, sweeps=3).map_index(zip_var.vid) == repaired
            for seed in seeds)
        assert hits / len(seeds) > 0.58  # halfway between 1/2 and 2/3

    def test_factor_variants_ground_factors(self, figure1_dataset,
                                            figure1_constraints):
        config = HoloCleanConfig.variant(
            "dc-factors", tau=0.3, epochs=10, seed=1,
            gibbs_burn_in=2, gibbs_sweeps=5)
        result = HoloClean(config).repair(figure1_dataset, figure1_constraints)
        assert result.size_report["constraint_factors"] > 0


class TestPrecomputedDetection:
    def test_detection_can_be_shared(self, figure1_dataset, figure1_constraints):
        detection = ViolationDetector(figure1_constraints).detect(figure1_dataset)
        hc = HoloClean(HoloCleanConfig(tau=0.3, epochs=10, seed=1))
        result = hc.repair(figure1_dataset, figure1_constraints,
                           detection=detection)
        assert result.timings["detect"] < 0.05  # skipped
        assert result.inferences
