"""The compilation module: signals → grounded probabilistic model.

Mirrors Figure 2's "Compilation Module": automatic featurization,
statistical analysis and candidate-repair generation (Algorithm 2), and
compilation to the probabilistic program whose grounding is the factor
graph (Sections 4 and 5).  The output bundles everything the repair
module needs: the variable block, the unary feature matrix, grounded
constraint factors (when denial constraints are kept as factors), and
the evidence labels for weight learning.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from repro.constraints.denial import DenialConstraint
from repro.constraints.matching import MatchingDependency
from repro.core.config import HoloCleanConfig
from repro.core.factor_tables import VectorFactorTableBuilder
from repro.core.featurize import FeaturizationContext
from repro.core.partition import make_pair_enumerator
from repro.core.relations import CompiledRelations, init_value_relation
from repro.core.vector_domain import (EntityVoteModes, VectorDomainPruner,
                                      merged_negative_domains)
from repro.core.vector_featurize import VectorFeaturizer
from repro.core import rules as ddlog
from repro.dataset.dataset import Cell, Dataset
from repro.detect.base import DetectionResult
from repro.engine import Engine, engine_for
from repro.external.dictionary import ExternalDictionary
from repro.external.matcher import match_dictionary
from repro.inference.factor_graph import ConstraintFactor, FactorGraph
from repro.inference.features import FeatureMatrixBuilder, FeatureSpace
from repro.inference.variables import DomainRelation, VariableBlock
from repro.obs.trace import deep_span


@dataclass
class CompiledModel:
    """A grounded model ready for learning and inference."""

    graph: FactorGraph
    relations: CompiledRelations
    evidence_ids: list[int]
    evidence_labels: list[int]
    query_ids: list[int]
    ddlog_program: list[str] = field(default_factory=list)
    skipped_factors: int = 0
    #: Grounding statistics: the featurization path and its ``feature_*``
    #: counters, plus — when DC factors are on — the pair-enumeration
    #: stage's enumerator kind, pairs walked, and the engine enumerator's
    #: group / streaming counters.
    grounding: dict[str, int | str] = field(default_factory=dict)

    def size_report(self) -> dict[str, int | str]:
        report: dict[str, int | str] = self.graph.size_report()
        report["skipped_factors"] = self.skipped_factors
        for key, value in self.grounding.items():
            report[f"grounding_{key}"] = value
        return report

    def content_fingerprint(self) -> str:
        """A stable short hash of the grounded model's content.

        Folds the dataset the model was compiled against with the
        grounded shape (the full :meth:`size_report` plus evidence and
        query counts).  The serving checkpoint layer stamps this into
        checkpoint metadata and verifies it on rehydration, so a
        checkpoint written for one model cannot silently resurrect
        another.
        """
        from repro.obs.fingerprint import combine_fingerprints, dataset_fingerprint

        shape = json.dumps(self.size_report(), sort_keys=True, default=str)
        return combine_fingerprints(
            dataset_fingerprint(self.relations.dataset),
            shape,
            str(len(self.evidence_ids)),
            str(len(self.query_ids)),
        )


class ModelCompiler:
    """Compiles one dataset + detection result into a :class:`CompiledModel`.

    Every grounding step runs set-at-a-time over ``engine`` (``None``
    builds one over ``dataset``; an engine built over another dataset
    raises ``ValueError``).  The step methods — :meth:`_prune_domains`,
    :meth:`_weak_labels`, :meth:`_evidence_negatives`,
    :meth:`_featurize_all`, :meth:`_ground_factors` — are the seams
    :class:`repro.oracle.NaiveModelCompiler` overrides with the
    tuple-at-a-time reference the equivalence tests compare against.
    """

    def __init__(self, dataset: Dataset, constraints: list[DenialConstraint],
                 config: HoloCleanConfig, detection: DetectionResult,
                 dictionaries: list[ExternalDictionary] = (),
                 matching_dependencies: list[MatchingDependency] = (),
                 engine: Engine | None = None):
        self.dataset = dataset
        self.constraints = list(constraints)
        self.config = config
        self.detection = detection
        self.dictionaries = list(dictionaries)
        self.matching_dependencies = list(matching_dependencies)
        self.engine = engine_for(dataset, engine)
        # One vectorized computation serves Algorithm 2 and the
        # co-occurrence featurizers.
        self.stats = self.engine.statistics()
        self._pruner = VectorDomainPruner(
            self.engine, tau=config.tau, max_domain=config.max_domain,
            strategy=config.domain_strategy)

    # ------------------------------------------------------------------
    def compile(self) -> CompiledModel:
        config = self.config
        repairable = set(self.dataset.schema.data_attributes)
        query_cells = sorted(
            c for c in self.detection.noisy_cells if c.attribute in repairable)

        with deep_span("compile.prune_domains", cells=len(query_cells)):
            query_domains = self._prune_domains(query_cells)

        evidence_cells = self._sample_evidence(set(query_domains))
        with deep_span("compile.prune_evidence", cells=len(evidence_cells)):
            evidence_domains = self._prune_domains(evidence_cells)

        # The slice of the InitValue relation this model grounds against,
        # materialised once (column-decoded by the engine) and consulted
        # for every variable's initial value instead of per-cell dataset
        # probes.  A lookup table of this method only: its order is free.
        init_values = init_value_relation(
            self.dataset, engine=self.engine,
            cells=[*query_domains, *evidence_domains])

        matched = self._ground_matched()
        context = FeaturizationContext(self.dataset, self.stats, config,
                                       matched=matched)

        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        # Seeded with the store's dictionaries: a candidate present in the
        # data carries the ColumnStore's code in the catalog too.
        store = self.engine.store
        value_tables = {a: store.values(a) for a in store.attributes}
        variables = VariableBlock(value_tables)

        # Query variables, registered block-at-a-time: the per-cell
        # add / start_variable / weak-label walk becomes array-shaped spec
        # construction plus one batched registration per block.
        query_specs = [(cell, query_domains[cell])
                       for cell in sorted(query_domains)]
        query_inits = [
            domain.index(init_values[cell])
            if init_values[cell] in domain else -1
            for cell, domain in query_specs]
        query_ids = list(variables.add_block(
            [cell for cell, _ in query_specs],
            [domain for _, domain in query_specs],
            query_inits, is_evidence=False))
        first_vid = builder.start_variables(
            [len(domain) for _, domain in query_specs])
        assert not query_ids or first_vid == query_ids[0]
        specs: list[tuple[Cell, list[str]]] = list(query_specs)
        labels = self._weak_labels(context, query_specs, query_inits)
        weak_candidates: list[tuple[int, int]] = [
            (vid, label)
            for vid, label, (_, domain) in zip(query_ids, labels, query_specs)
            if label >= 0 and len(domain) >= 2]

        sorted_evidence = sorted(evidence_domains)
        extended = self._evidence_negatives(
            sorted_evidence, [evidence_domains[cell]
                              for cell in sorted_evidence])
        evidence_specs: list[tuple[Cell, list[str]]] = []
        evidence_labels: list[int] = []  # the observed value: init index = label
        for cell, domain in zip(sorted_evidence, extended):
            init = init_values[cell]
            if init is None or init not in domain or len(domain) < 2:
                continue  # no training signal in a singleton/unlabelled cell
            evidence_specs.append((cell, domain))
            evidence_labels.append(domain.index(init))
        evidence_ids = list(variables.add_block(
            [cell for cell, _ in evidence_specs],
            [domain for _, domain in evidence_specs],
            evidence_labels, is_evidence=True))
        first_vid = builder.start_variables(
            [len(domain) for _, domain in evidence_specs])
        assert not evidence_ids or first_vid == evidence_ids[0]
        specs.extend(evidence_specs)

        with deep_span("compile.featurize", variables=len(specs)):
            feature_stats = self._featurize_all(context, specs, builder)

        if config.use_minimality and ("minimality",) in space:
            space.set_fixed(("minimality",), config.minimality_weight)
        with deep_span("compile.build_matrix") as sp:
            matrix = builder.build()
            if sp is not None:
                sp.attributes.update(entries=matrix.num_entries,
                                     features=matrix.num_features)
        space.freeze()
        graph = FactorGraph(variables, matrix, space)

        skipped = 0
        grounding: dict[str, int | str] = {**feature_stats,
                                           **self._pruner.stats}
        if config.use_dc_factors:
            skipped, factor_grounding = self._ground_factors(
                graph, query_domains)
            grounding.update(factor_grounding)

        relations = CompiledRelations(
            self.dataset,
            DomainRelation(value_tables, {**query_domains, **evidence_domains}),
            matched=matched)
        program = ddlog.compile_program(
            self.constraints,
            use_dc_feats=config.use_dc_feats,
            use_dc_factors=config.use_dc_factors,
            use_external=bool(matched),
            use_minimality=config.use_minimality,
            dc_factor_weight=config.dc_factor_weight)

        # Weak supervision (auto mode): when clean evidence is too scarce
        # to train on — Flights flags every cell noisy — fall back to
        # training on all cells with the observed value as a weak label.
        use_weak = config.weak_label_training
        if use_weak is None:
            use_weak = len(evidence_ids) < max(50, len(query_ids) // 20)
        if use_weak:
            evidence_ids = evidence_ids + [vid for vid, _ in weak_candidates]
            evidence_labels = (evidence_labels
                               + [label for _, label in weak_candidates])

        return CompiledModel(graph=graph, relations=relations,
                             evidence_ids=evidence_ids,
                             evidence_labels=evidence_labels,
                             query_ids=query_ids, ddlog_program=program,
                             skipped_factors=skipped, grounding=grounding)

    # ------------------------------------------------------------------
    def _prune_domains(self, cells: list[Cell]) -> dict[Cell, list[str]]:
        """Algorithm 2 candidate domains for ``cells``, set-at-a-time."""
        return self._pruner.domains(cells)

    # ------------------------------------------------------------------
    def _featurize_all(self, context: FeaturizationContext,
                       specs: list[tuple[Cell, list[str]]],
                       builder: FeatureMatrixBuilder) -> dict[str, int | str]:
        """Ground the unary features of every variable in ``specs``.

        The whole stack grounds set-at-a-time over the column store
        (:class:`VectorFeaturizer`); returns its ``feature_*`` counters.
        """
        featurizer = VectorFeaturizer(self.engine, context, self.constraints)
        return featurizer.featurize(specs, builder)

    def _weak_labels(self, context: FeaturizationContext,
                     specs: list[tuple[Cell, list[str]]],
                     init_indices: list[int]) -> list[int]:
        """Weak training label per query cell (candidate index, or -1).

        Default: the observed value (assumption (i) of Section 5.2 —
        errors are rarer than correct cells).  With source provenance and
        an entity key configured (Flights), the label is bootstrapped
        from the *plurality vote* of the cell's entity group (three or
        more tuples) instead — the EM seed of truth-finding systems like
        SLiMFast [35]; training against per-tuple observations would only
        teach the model to echo each source's own report.  One entity-key
        group-by over the column store, then one vote per (attribute,
        cell set) via :class:`EntityVoteModes`.
        """
        entity_attrs = list(self.config.source_entity_attributes)
        if (context.source_attribute is None or not entity_attrs
                or not specs):
            return list(init_indices)
        voter = EntityVoteModes(self.engine, entity_attrs)
        labels = list(init_indices)
        groups: dict[str, list[int]] = {}
        for position, (cell, _) in enumerate(specs):
            groups.setdefault(cell.attribute, []).append(position)
        store = self.engine.store
        for attribute, positions in groups.items():
            tids = np.asarray([specs[p][0].tid for p in positions],
                              dtype=np.int64)
            modes = voter.modes(
                attribute, tids, self._pruner._lex_rank(attribute))
            values = store.values(attribute)
            for position, code in zip(positions, modes.tolist()):
                if code < 0:
                    continue
                mode = values[code]
                domain = specs[position][1]
                if mode in domain:
                    labels[position] = domain.index(mode)
        return labels

    def _evidence_negatives(self, cells: list[Cell],
                            domains: list[list[str]]) -> list[list[str]]:
        """Extend every evidence domain with frequent negative candidates.

        Evidence cells in homogeneous attributes often prune down to a
        singleton domain and then carry no learning signal; the most
        frequent attribute values act as contrastive negatives.  Each
        attribute's values are ranked once and merged into per-cell
        prefixes (:func:`merged_negative_domains`).
        """
        wanted = self.config.evidence_negatives
        if wanted <= 0 or not cells:
            return domains
        return merged_negative_domains(
            self.engine, self.stats, cells, domains, wanted,
            self.config.max_domain)

    def _sample_evidence(self, query_cells: set[Cell]) -> list[Cell]:
        """Clean cells used as ERM evidence, subsampled for scale.

        The clean mask is built as one boolean grid (tuples × repairable
        attributes, row-major — the order the old per-cell list
        comprehension produced) and only the subsampled cells are
        materialised as :class:`Cell` objects; same cells, same RNG
        stream, without constructing one Python object per clean cell
        first.
        """
        repairable = self.dataset.schema.data_attributes
        num_tuples = self.dataset.num_tuples
        column_of = {attr: i for i, attr in enumerate(repairable)}
        clean = np.ones((num_tuples, len(repairable)), dtype=bool)
        for cells in (self.detection.noisy_cells, query_cells):
            for cell in cells:
                column = column_of.get(cell.attribute)
                if column is not None:
                    clean[cell.tid, column] = False
        flat = np.nonzero(clean.ravel())[0]
        cap = self.config.max_training_cells
        if cap is not None and len(flat) > cap:
            rng = np.random.default_rng(self.config.seed)
            picked = rng.choice(len(flat), size=cap, replace=False)
            flat = flat[np.sort(picked)]
        width = len(repairable)
        return [Cell(int(i // width), repairable[i % width])
                for i in flat.tolist()]

    def _ground_matched(self):
        if not (self.config.use_external and self.dictionaries
                and self.matching_dependencies):
            return []
        return [
            match_dictionary(self.dataset, dictionary, self.matching_dependencies)
            for dictionary in self.dictionaries
        ]

    # ------------------------------------------------------------------
    # Algorithm 1 grounding: denial constraints as factors
    # ------------------------------------------------------------------
    def _ground_factors(self, graph: FactorGraph,
                        query_domains: dict[Cell, list[str]],
                        ) -> tuple[int, dict[str, int | str]]:
        config = self.config
        enumerator = make_pair_enumerator(
            self.dataset, query_domains, engine=self.engine,
            max_pairs=config.max_factor_pairs,
            chunk_pairs=config.factor_chunk_pairs,
            stream_budget=config.factor_stream_budget)
        hypergraph = self.detection.hypergraph
        # Factor tables are built set-at-a-time over the column store;
        # constraints the builder cannot vectorize (binary similarity)
        # ground pair by pair below.
        builder = VectorFactorTableBuilder(
            self.engine, self.dataset, graph.variables, query_domains,
            max_table_cells=config.max_factor_table,
            weight=config.dc_factor_weight)
        skipped = 0
        pairs = 0
        for dc in self.constraints:
            with deep_span("compile.ground_dc", constraint=dc.name) as sp:
                dc_pairs = 0
                if dc.is_single_tuple:
                    skipped += self._ground_single_tuple_factors(graph, dc)
                elif builder.supports(dc):
                    for left, right in enumerator.pair_chunks(
                            dc, use_partitioning=config.use_partitioning,
                            hypergraph=hypergraph):
                        dc_pairs += len(left)
                        factors, chunk_skipped = builder.ground_chunk(
                            dc, left, right)
                        graph.add_factors(factors)
                        skipped += chunk_skipped
                else:
                    for t1, t2 in enumerator.pairs_for(
                            dc, config.use_partitioning, hypergraph):
                        dc_pairs += 1
                        if not self._ground_pair_factor(graph, dc, t1, t2):
                            skipped += 1
                pairs += dc_pairs
                if sp is not None:
                    sp.attributes["pairs"] = dc_pairs
        grounding: dict[str, int | str] = {
            "enumerator": type(enumerator).__name__}
        grounding.update(enumerator.stats)
        # The pairs actually walked by the grounding loop is authoritative
        # (the enumerator's own counter must not shadow it).
        grounding["pairs"] = pairs
        grounding.update(
            {f"table_{key}": value for key, value in builder.stats.items()})
        return skipped, grounding

    def _ground_single_tuple_factors(self, graph: FactorGraph,
                                     dc: DenialConstraint) -> int:
        skipped = 0
        attrs = sorted(dc.attributes_of(1))
        variables = graph.variables
        codes = [variables.attribute_code(name) for name in attrs]
        touched = ~variables.is_evidence & np.isin(variables.attribute_codes, codes)
        for tid in set(variables.tids[touched].tolist()):
            if not self._ground_factor_for_cells(
                    graph, dc, [(1, tid)], attrs_by_position={1: attrs}):
                skipped += 1
        return skipped

    def _ground_pair_factor(self, graph: FactorGraph, dc: DenialConstraint,
                            t1: int, t2: int) -> bool:
        attrs_by_position = {1: sorted(dc.attributes_of(1)),
                             2: sorted(dc.attributes_of(2))}
        return self._ground_factor_for_cells(
            graph, dc, [(1, t1), (2, t2)], attrs_by_position)

    def _ground_factor_for_cells(self, graph: FactorGraph,
                                 dc: DenialConstraint,
                                 positions: list[tuple[int, int]],
                                 attrs_by_position: dict[int, list[str]]) -> bool:
        """Ground one factor; returns False when skipped (cap / constant).

        Evidence cells and cells without variables are folded into the
        table as fixed context, so the resulting factor spans only query
        variables.
        """
        variables = graph.variables
        axis_vars: list = []
        base_values: dict[int, dict[str, str | None]] = {}
        cell_axes: list[tuple[int, str, int]] = []  # (position, attr, axis)
        for position, tid in positions:
            base_values[position] = self.dataset.tuple_dict(tid)
            for attr in attrs_by_position.get(position, ()):
                info = variables.by_cell(Cell(tid, attr))
                if info is not None and not info.is_evidence:
                    cell_axes.append((position, attr, len(axis_vars)))
                    axis_vars.append(info)

        if not axis_vars:
            return False
        shape = tuple(v.domain_size for v in axis_vars)
        table_cells = int(np.prod(shape))
        if table_cells > self.config.max_factor_table:
            return False

        table = np.ones(shape, dtype=np.int8)
        two_tuple = len(positions) == 2
        for combo in itertools.product(*(range(s) for s in shape)):
            values = {p: dict(base_values[p]) for p in base_values}
            for position, attr, axis in cell_axes:
                var = axis_vars[axis]
                values[position][attr] = var.domain[combo[axis]]
            if two_tuple:
                violated = (dc.violates(values[1], values[2])
                            or dc.violates(values[2], values[1]))
            else:
                violated = dc.violates(values[1])
            if violated:
                table[combo] = -1

        if np.all(table == 1) or np.all(table == -1):
            return False  # constant factor: no effect on the distribution
        graph.add_factor(ConstraintFactor(
            var_ids=tuple(v.vid for v in axis_vars), table=table,
            weight=self.config.dc_factor_weight, constraint_name=dc.name))
        return True
