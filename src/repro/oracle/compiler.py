"""Reference model compilation: every grounding step tuple-at-a-time."""

from __future__ import annotations

from repro.core.compiler import ModelCompiler
from repro.core.featurize import default_featurizers
from repro.core.partition import PairEnumerator
from repro.dataset.stats import Statistics
from repro.oracle.domain import DomainPruner


class NaiveModelCompiler(ModelCompiler):
    """:class:`ModelCompiler` with the per-cell / per-pair grounding steps.

    Same constructor, same :meth:`compile` skeleton; the step methods run
    the naive :class:`DomainPruner`, the :mod:`repro.core.featurize`
    stack cell by cell, the per-cell weak-label vote and negative-candidate
    walk, and the per-pair factor loop over a :class:`PairEnumerator` —
    all against row-scan :class:`Statistics`, none against the engine.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stats = Statistics(self.dataset)
        self._naive_pruner = DomainPruner(
            self.dataset,
            self.stats,
            tau=self.config.tau,
            max_domain=self.config.max_domain,
            strategy=self.config.domain_strategy,
        )
        # The vector pruner never runs here; keep its counters out of the
        # size report.
        self._pruner.stats.clear()

    def _prune_domains(self, cells):
        return self._naive_pruner.domains(cells)

    def _featurize_all(self, context, specs, builder):
        featurizers = default_featurizers(context, self.constraints)
        for vid, (cell, domain) in enumerate(specs):
            if len(domain) < 2:
                continue  # a one-candidate variable carries no entries
            for featurizer in featurizers:
                per_candidate = featurizer.features(cell, domain)
                for cand_idx, entries in enumerate(per_candidate):
                    for key, value in entries:
                        if value != 0.0:
                            builder.add(vid, cand_idx, key, value)
        return {"feature_path": "naive"}

    def _weak_labels(self, context, specs, init_indices):
        entity_attrs = self.config.source_entity_attributes
        if context.source_attribute is None or not entity_attrs:
            return list(init_indices)
        return [
            self._weak_label(context, cell, domain, init_index)
            for (cell, domain), init_index in zip(specs, init_indices)
        ]

    def _weak_label(self, context, cell, domain, init_index):
        """Plurality value of the cell's entity group, else the observed one."""
        group = context.entity_group_of(cell.tid)
        if len(group) >= 3:
            idx = self.dataset.schema.index_of(cell.attribute)
            votes: dict[str, int] = {}
            for tid in group:
                v = self.dataset.row_ref(tid)[idx]
                if v is not None:
                    votes[v] = votes.get(v, 0) + 1
            if votes:
                mode = max(sorted(votes), key=lambda v: votes[v])
                if mode in domain:
                    return domain.index(mode)
        return init_index

    def _evidence_negatives(self, cells, domains):
        return [
            self._with_negatives(cell, domain) for cell, domain in zip(cells, domains)
        ]

    def _with_negatives(self, cell, domain):
        """One evidence domain extended with frequent negative candidates."""
        wanted = self.config.evidence_negatives
        if wanted <= 0:
            return domain
        extended = list(domain)
        ranked = self.stats.most_common(cell.attribute, wanted + len(domain))
        for value, _count in ranked:
            if len(extended) >= len(domain) + wanted:
                break
            if value not in extended:
                extended.append(value)
        return extended[: self.config.max_domain]

    def _ground_factors(self, graph, query_domains):
        config = self.config
        hypergraph = self.detection.hypergraph
        enumerator = PairEnumerator(
            self.dataset, query_domains, max_pairs=config.max_factor_pairs
        )
        skipped = 0
        pairs = 0
        for dc in self.constraints:
            if dc.is_single_tuple:
                skipped += self._ground_single_tuple_factors(graph, dc)
                continue
            for t1, t2 in enumerator.pairs_for(dc, config.use_partitioning, hypergraph):
                pairs += 1
                if not self._ground_pair_factor(graph, dc, t1, t2):
                    skipped += 1
        return skipped, {"enumerator": "PairEnumerator", "pairs": pairs}
