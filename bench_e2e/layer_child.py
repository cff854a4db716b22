"""The layer pass: per-layer numbers, taken from outside the program.

One process, fresh contexts over the same inputs (after one unmeasured
plan that takes the process's first-touch costs):

1. the untraced default plan (its wall is what the stages must add up to);
2. the five ``Stage.run`` calls in order, each under a benchmark span;
3. each kernel called on its own through its module's public functions —
   engine micro-operations on one fresh engine, then detect → prune →
   featurize → (pairs → factor tables) chained on another, the way the
   compile stage shares one engine, so the kernels' sum can be set against
   ``stage.compile_s``.  What the compile stage does besides (evidence
   sampling, variable registration, matrix build) is reported as
   ``core.compile_other_s``, never hidden.

The cell sets and variable specs the kernels need are read off the
finished context of pass 2.  Prints one JSON line with the samples and
the spans.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from common import Recorder, Spans, read_meta


def join_attributes(dc) -> list[tuple[str, str]]:
    """``(t1 attribute, t2 attribute)`` per equijoin predicate of ``dc``."""
    sides = []
    for predicate in dc.equijoin_predicates:
        left, right = predicate.left, predicate.right
        if left.tuple_index == 1:
            sides.append((left.attribute, right.attribute))
        else:
            sides.append((right.attribute, left.attribute))
    return sides


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--rep", type=int, default=0)
    args = parser.parse_args()

    from repro.constraints.parser import parse_dcs
    from repro.core.config import HoloCleanConfig
    from repro.core.factor_tables import VectorFactorTableBuilder
    from repro.core.featurize import FeaturizationContext
    from repro.core.partition import make_pair_enumerator
    from repro.core.stages import LearnStage, RepairContext, RepairPlan
    from repro.core.vector_domain import VectorDomainPruner
    from repro.core.vector_featurize import VectorFeaturizer
    from repro.dataset.csv_io import read_csv
    from repro.detect.violations import ViolationDetector
    from repro.engine import Engine
    from repro.eval.metrics import evaluate_repairs
    from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
    from repro.inference.gibbs import GibbsSampler
    from repro.inference.softmax import SoftmaxTrainer
    from repro.serve.checkpoint import CheckpointStore

    meta = read_meta(args.inputs)
    config = HoloCleanConfig().with_(**meta["config"])
    source = meta["source_attribute"]

    rec = Recorder()
    spans = Spans(meta["workload"], args.rep, prefix=f"r{args.rep}.")

    def measure(metric: str, call):
        """Span + sample around one call into a layer."""
        with spans.span(metric.removesuffix("_s")) as span:
            result = call()
        rec.add(metric, span.seconds)
        return result

    def fresh_context(dataset, constraints):
        return RepairContext(
            dataset=dataset, constraints=list(constraints), config=config
        )

    with spans.span("layer_pass"):
        with spans.span("inputs"):
            dataset = measure(
                "dataset.read_csv_s",
                lambda: read_csv(args.inputs / "dirty.csv", source_attribute=source),
            )
            dc_lines = (args.inputs / "dcs.txt").read_text().splitlines()
            constraints = measure("constraints.parse_s", lambda: parse_dcs(dc_lines))

        # The first plan of a process pays first-touch costs (heap growth,
        # lazy imports) that the second does not; run one unmeasured so the
        # untraced plan and the stage pass meet the same conditions.
        with spans.span("plan.warmup"):
            RepairPlan.default().run(fresh_context(dataset, constraints))
        with spans.span("plan.untraced") as plan_span:
            RepairPlan.default().run(fresh_context(dataset, constraints))

        ctx = fresh_context(dataset, constraints)
        with spans.span("stages"):
            for stage in RepairPlan.default().stages:
                ctx = measure(f"stage.{stage.name}_s", lambda: stage.run(ctx))
        stage_sum = sum(rec.samples[f"stage.{s}_s"][0] for s in
                        ("detect", "compile", "learn", "infer", "apply"))
        rec.add("stage.sum_over_plan", stage_sum / plan_span.seconds)

        model = ctx.model
        variables = model.graph.variables
        specs = [(info.cell, info.domain) for info in variables]
        query_domains = {
            info.cell: info.domain for info in variables if not info.is_evidence
        }
        data_attributes = dataset.schema.data_attributes

        with spans.span("kernels"):
            # -- engine micro-operations, on an engine of their own -------
            micro = Engine(dataset)
            measure("engine.encode_s", lambda: micro.store)
            joins = [
                join_attributes(dc)
                for dc in constraints
                if not dc.is_single_tuple and dc.equijoin_predicates
            ]
            pairs = measure(
                "engine.join_pairs_s",
                lambda: sum(len(micro.backend.join_pairs(j)[0]) for j in joins),
            )
            rec.add("engine.join_pairs", pairs)
            stats = micro.statistics()
            ordered = [(a, b) for a in data_attributes for b in data_attributes if a != b]

            def count_everything():
                for attribute in data_attributes:
                    stats.code_counts(attribute)
                for a, b in ordered:
                    stats.joint_code_counts(a, b)

            measure("engine.stats_s", count_everything)
            measure(
                "engine.conditional_table_s",
                lambda: [stats.conditional_table(a, b) for a, b in ordered],
            )
            measure(
                "engine.domain_code_index_s",
                lambda: [
                    micro.store.domain_code_index(attribute, query_domains)
                    for attribute in data_attributes
                ],
            )
            micro.close()

            # -- the grounding kernels, chained on one engine --------------
            engine = Engine(dataset)
            detection = measure(
                "detect.violations_s",
                lambda: ViolationDetector(constraints, engine=engine).detect(dataset),
            )
            rec.add("detect.violations", len(detection.hypergraph))
            rec.add("detect.noisy_cells", len(detection.noisy_cells))

            repairable = set(data_attributes)
            query_cells = sorted(
                c for c in detection.noisy_cells if c.attribute in repairable
            )
            asked = set(query_cells)
            evidence_cells = sorted(c for c in model.relations.domain if c not in asked)
            pruner = VectorDomainPruner(
                engine,
                tau=config.tau,
                max_domain=config.max_domain,
                strategy=config.domain_strategy,
            )
            measure(
                "core.prune_s",
                lambda: (pruner.domains(query_cells), pruner.domains(evidence_cells)),
            )
            rec.add("core.prune_cells", pruner.stats["prune_cells"])
            rec.add("core.prune_candidates", pruner.stats["prune_candidates"])

            context = FeaturizationContext(dataset, engine.statistics(), config)
            builder = FeatureMatrixBuilder(FeatureSpace())
            builder.start_variables([len(domain) for _, domain in specs])
            featurizer = VectorFeaturizer(engine, context, constraints)
            feature_stats = measure(
                "core.featurize_s", lambda: featurizer.featurize(specs, builder)
            )
            rec.add("core.feature_entries", feature_stats["feature_entries"])

            kernel_sum = rec.samples["core.prune_s"][0] + rec.samples["core.featurize_s"][0]
            if config.use_dc_factors:
                enumerator = make_pair_enumerator(
                    dataset,
                    query_domains,
                    engine=engine,
                    max_pairs=config.max_factor_pairs,
                    chunk_pairs=config.factor_chunk_pairs,
                    stream_budget=config.factor_stream_budget,
                )
                tables = VectorFactorTableBuilder(
                    engine,
                    dataset,
                    variables,
                    query_domains,
                    max_table_cells=config.max_factor_table,
                    weight=config.dc_factor_weight,
                )
                grounded = [dc for dc in constraints if tables.supports(dc)]
                chunks = measure(
                    "core.pair_enum_s",
                    lambda: [
                        list(
                            enumerator.pair_chunks(
                                dc,
                                use_partitioning=config.use_partitioning,
                                hypergraph=detection.hypergraph,
                            )
                        )
                        for dc in grounded
                    ],
                )
                rec.add(
                    "core.pairs",
                    sum(len(left) for per_dc in chunks for left, _ in per_dc),
                )
                factors = measure(
                    "core.factor_tables_s",
                    lambda: sum(
                        len(tables.ground_chunk(dc, left, right)[0])
                        for dc, per_dc in zip(grounded, chunks)
                        for left, right in per_dc
                    ),
                )
                rec.add("core.factors", factors)
                kernel_sum += (
                    rec.samples["core.pair_enum_s"][0]
                    + rec.samples["core.factor_tables_s"][0]
                )
            engine.close()
            rec.add(
                "core.compile_other_s", rec.samples["stage.compile_s"][0] - kernel_sum
            )

            # -- learning and inference on the compiled model --------------
            outcome = measure("inference.learn_s", lambda: LearnStage.train(model, config))
            rec.add("inference.epochs", len(outcome.losses))
            rec.add("inference.training_cells", len(model.evidence_ids))
            measure(
                "inference.marginals_s",
                lambda: SoftmaxTrainer(model.graph.matrix).marginals(
                    outcome.weights, model.query_ids
                ),
            )
            if model.graph.factors:
                sampled = measure(
                    "inference.gibbs_s",
                    lambda: GibbsSampler(
                        model.graph, outcome.weights, seed=config.seed
                    ).run(burn_in=config.gibbs_burn_in, sweeps=config.gibbs_sweeps),
                )
                rec.add("inference.gibbs_samples", sampled.samples)
                rec.add("inference.gibbs_move_rate", sampled.move_rate)

            # -- the serving layer's checkpoint of the finished context ----
            store = CheckpointStore(args.inputs / "checkpoints")
            saved = measure("serve.checkpoint_save_s", lambda: store.save("layer", ctx))
            rec.add(
                "serve.checkpoint_bytes",
                sum(f.stat().st_size for f in saved.iterdir() if f.is_file()),
            )
            measure("serve.checkpoint_load_s", lambda: store.load("layer"))

        clean = read_csv(args.inputs / "clean.csv", source_attribute=source)
        rec.add_quality(evaluate_repairs(dataset, ctx.result.repaired, clean))

    rec.attempted = 1
    out = rec.to_json()
    out["spans"] = spans.spans
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
