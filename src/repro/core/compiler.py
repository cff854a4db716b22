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

import copy
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
from repro.core.relations import CompiledRelations
from repro.core.vector_domain import (EntityVoteModes, VectorDomainPruner,
                                      merged_negative_domains)
from repro.core.vector_featurize import VectorFeaturizer
from repro.core import rules as ddlog
from repro.dataset.dataset import Dataset
from repro.detect.base import DetectionResult
from repro.engine import Engine, engine_for, ops
from repro.external.dictionary import ExternalDictionary
from repro.external.matcher import match_dictionary
from repro.inference.factor_graph import FactorGraph
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


def _relation(tables, tids, attribute_codes, indptr, codes) -> DomainRelation:
    """The cells with at least one candidate, as a ``Domain`` relation: a
    cell that prunes to nothing gets no row, and so no variable."""
    rows = np.flatnonzero(np.diff(indptr))
    relation = DomainRelation(tables)
    relation.append(tids[rows], attribute_codes[rows],
                    *ops.take_csr(indptr, codes, rows))
    return relation


class ModelCompiler:
    """Compiles one dataset + detection result into a :class:`CompiledModel`.

    Every grounding step runs set-at-a-time over ``engine`` (``None``
    builds one over ``dataset``; an engine built over another dataset
    raises ``ValueError``).  The step methods — :meth:`_prune_domains`,
    :meth:`_weak_labels`, :meth:`_evidence_negatives`,
    :meth:`_featurize_all`, :meth:`_ground_factors` — are the seams
    :class:`repro.oracle.NaiveModelCompiler` overrides with the
    tuple-at-a-time reference the equivalence tests compare against.  They
    take and return cells and candidate domains as columns — tuple ids,
    attribute codes and a CSR of store codes, or the catalogs built from
    them — from Algorithm 2 to the featurizer, with no string in between.
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
        store = self.engine.store
        # Query cells: the noisy cells of repairable attributes, as
        # (tid, store attribute code) in (tid, attribute name) order.
        repairable = set(self.dataset.schema.data_attributes)
        code_of = {name: code for code, name in enumerate(store.attributes)}
        noisy = np.array([(cell.tid, code_of[cell.attribute])
                          for cell in self.detection.noisy_cells
                          if cell.attribute in repairable],
                         dtype=np.int64).reshape(-1, 2)
        noisy = noisy[self._cell_order(noisy[:, 0], noisy[:, 1])]

        with deep_span("compile.prune_domains", cells=len(noisy)):
            query_domains = self._prune_domains(noisy[:, 0], noisy[:, 1])
        with deep_span("compile.sample_evidence"):
            sampled = self._sample_evidence(noisy[:, 0], noisy[:, 1])
        with deep_span("compile.prune_evidence", cells=len(sampled[0])):
            evidence_domains = self._prune_domains(*sampled)

        matched = self._ground_matched()
        context = FeaturizationContext(self.dataset, self.stats, config,
                                       matched=matched)
        space = FeatureSpace()
        builder = FeatureMatrixBuilder(space)
        # Seeded with the store's dictionaries: every candidate the pruner
        # hands over is a store code, and stays one in the catalog.
        tables = {a: store.values(a) for a in store.attributes}
        with deep_span("compile.register"):
            query = _relation(tables, noisy[:, 0], noisy[:, 1], *query_domains)
            evidence = _relation(tables, *sampled, *evidence_domains)
            # The query cells, then the evidence: appending rebinds the
            # columns, so ``query`` keeps its own; the tables are shared.
            relation = copy.copy(query)
            relation.append(*evidence.take())

            variables = VariableBlock(tables)
            # Observed values as store codes (-1: NULL), by (tid, attribute).
            stored = np.stack([store.codes(a) for a in store.attributes], axis=1)
            inits = ops.csr_positions(query.domain_indptr, query.domain_codes,
                                      stored[query.tids, query.attribute_codes])
            query_ids = list(variables.append(*query.take(), inits,
                                              is_evidence=False))
            labels = self._weak_labels(context, query, inits)
            weak = np.flatnonzero(
                (labels >= 0) & (np.diff(query.domain_indptr) >= 2))

            extended = self._evidence_negatives(evidence)
            observed = ops.csr_positions(
                *extended, stored[evidence.tids, evidence.attribute_codes])
            # No training signal in a singleton or unlabelled cell; the
            # evidence variables follow the query ones in cell order.
            trains = (observed >= 0) & (np.diff(extended[0]) >= 2)
            order = self._cell_order(evidence.tids, evidence.attribute_codes)
            rows = order[trains[order]]
            evidence_ids = list(variables.append(
                evidence.tids[rows], evidence.attribute_codes[rows],
                *ops.take_csr(*extended, rows), observed[rows], is_evidence=True))
            evidence_labels = observed[rows].tolist()
            builder.start_variables(np.diff(variables.domain_indptr).tolist())

        with deep_span("compile.featurize", variables=len(variables)):
            feature_stats = self._featurize_all(context, variables, builder)

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
            skipped, factor_grounding = self._ground_factors(graph, query)
            grounding.update(factor_grounding)

        relations = CompiledRelations(self.dataset, relation, matched=matched)
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
            evidence_ids = evidence_ids + [query_ids[k] for k in weak.tolist()]
            evidence_labels = evidence_labels + labels[weak].tolist()

        return CompiledModel(graph=graph, relations=relations,
                             evidence_ids=evidence_ids,
                             evidence_labels=evidence_labels,
                             query_ids=query_ids, ddlog_program=program,
                             skipped_factors=skipped, grounding=grounding)

    # ------------------------------------------------------------------
    def _cell_order(self, tids: np.ndarray,
                    attribute_codes: np.ndarray) -> np.ndarray:
        """The permutation sorting cells by ``(tid, attribute name)``."""
        names = self.engine.store.attributes
        rank = np.argsort(sorted(range(len(names)), key=names.__getitem__))
        return np.lexsort((rank[attribute_codes], tids))

    def _prune_domains(self, tids: np.ndarray, attribute_codes: np.ndarray,
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 2 candidate domains of the cells ``(tids[i],
        store.attributes[attribute_codes[i]])``: a CSR of store codes, row
        ``i`` for cell ``i`` (empty when it prunes to nothing)."""
        return self._pruner.prune(tids, attribute_codes)

    # ------------------------------------------------------------------
    def _featurize_all(self, context: FeaturizationContext,
                       variables: VariableBlock,
                       builder: FeatureMatrixBuilder) -> dict[str, int | str]:
        """Ground the unary features of every variable in ``variables``.

        The whole stack grounds set-at-a-time over the column store
        (:class:`VectorFeaturizer`); returns its ``feature_*`` counters.
        """
        featurizer = VectorFeaturizer(self.engine, context, self.constraints)
        return featurizer.featurize(variables, builder)

    def _weak_labels(self, context: FeaturizationContext,
                     query: DomainRelation,
                     init_indices: np.ndarray) -> np.ndarray:
        """Weak training label per query cell (candidate index, or -1).

        Default: the observed value (assumption (i) of Section 5.2 —
        errors are rarer than correct cells).  With source provenance and
        an entity key configured (Flights), the label is bootstrapped
        from the *plurality vote* of the cell's entity group (three or
        more tuples) instead — the EM seed of truth-finding systems like
        SLiMFast [35]; training against per-tuple observations would only
        teach the model to echo each source's own report.  One entity-key
        group-by over the column store, then one vote per attribute via
        :class:`EntityVoteModes`, looked up in the candidate codes.
        """
        entity_attrs = list(self.config.source_entity_attributes)
        if (context.source_attribute is None or not entity_attrs
                or not len(query)):
            return init_indices
        voter = EntityVoteModes(self.engine, entity_attrs)
        modes = np.full(len(query), -1, dtype=np.int64)
        for code in np.flatnonzero(np.bincount(query.attribute_codes)):
            rows = np.flatnonzero(query.attribute_codes == code)
            attribute = query.attributes[code]
            modes[rows] = voter.modes(attribute, query.tids[rows],
                                      self._pruner._lex_rank(attribute))
        voted = ops.csr_positions(query.domain_indptr, query.domain_codes, modes)
        return np.where(voted >= 0, voted, init_indices)

    def _evidence_negatives(self, evidence: DomainRelation,
                            ) -> tuple[np.ndarray, np.ndarray]:
        """Every evidence domain extended with frequent negative candidates.

        Evidence cells in homogeneous attributes often prune down to a
        singleton domain and then carry no learning signal; the most
        frequent attribute values act as contrastive negatives.  Each
        attribute's values are ranked once and merged into per-cell
        prefixes (:func:`merged_negative_domains`); returns the extended
        domains as a CSR in ``evidence``'s row order.
        """
        return merged_negative_domains(
            self.engine, self.stats, evidence.attribute_codes,
            evidence.domain_indptr, evidence.domain_codes,
            self.config.evidence_negatives, self.config.max_domain)

    def _sample_evidence(self, tids: np.ndarray, attribute_codes: np.ndarray,
                         ) -> tuple[np.ndarray, np.ndarray]:
        """Clean cells used as ERM evidence, subsampled for scale.

        Every cell of a repairable attribute but the query cells ``(tids,
        attribute_codes)`` is clean.  The clean mask is one boolean grid
        (tuples × repairable attributes, row-major — the order the old
        per-cell list comprehension produced) and the sample is returned
        as ``(tids, attribute codes)``: same cells, same RNG stream,
        without one Python object per clean cell.
        """
        store = self.engine.store
        repairable = np.array(
            [store.attributes.index(a) for a in self.dataset.schema.data_attributes],
            dtype=np.int64)
        column = np.full(len(store.attributes), -1, dtype=np.int64)
        column[repairable] = np.arange(len(repairable))
        clean = np.ones((self.dataset.num_tuples, len(repairable)), dtype=bool)
        clean[tids, column[attribute_codes]] = False
        flat = np.flatnonzero(clean)
        cap = self.config.max_training_cells
        if cap is not None and len(flat) > cap:
            rng = np.random.default_rng(self.config.seed)
            picked = rng.choice(len(flat), size=cap, replace=False)
            flat = flat[np.sort(picked)]
        width = max(len(repairable), 1)
        return flat // width, repairable[flat % width]

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
    def _ground_factors(self, graph: FactorGraph, query_domains: DomainRelation,
                        ) -> tuple[int, dict[str, int | str]]:
        config = self.config
        enumerator = make_pair_enumerator(
            self.dataset, query_domains, engine=self.engine,
            max_pairs=config.max_factor_pairs,
            chunk_pairs=config.factor_chunk_pairs,
            stream_budget=config.factor_stream_budget)
        hypergraph = self.detection.hypergraph
        # Factor tables of two-tuple constraints are built set-at-a-time
        # over the column store.
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
                else:
                    for left, right in enumerator.pair_chunks(
                            dc, use_partitioning=config.use_partitioning,
                            hypergraph=hypergraph):
                        dc_pairs += len(left)
                        factors, chunk_skipped = builder.ground_chunk(
                            dc, left, right)
                        graph.add_factors(factors)
                        skipped += chunk_skipped
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
        base_values = {p: self.dataset.tuple_dict(tid) for p, tid in positions}
        cell_axes: list[tuple[int, str, int]] = []  # (position, attr, axis)
        wanted = [(position, tid, attr) for position, tid in positions
                  for attr in attrs_by_position.get(position, ())]
        vids = variables.rows_of([(tid, attr) for _, tid, attr in wanted])
        for (position, _, attr), vid in zip(wanted, vids.tolist()):
            if vid >= 0 and not variables.is_evidence[vid]:
                cell_axes.append((position, attr, len(axis_vars)))
                axis_vars.append(variables[vid])

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
        graph.add_factor([v.vid for v in axis_vars], table,
                         self.config.dc_factor_weight, dc.name)
        return True
