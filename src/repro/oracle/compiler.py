"""Reference model compilation: every grounding step tuple-at-a-time."""

from __future__ import annotations

import numpy as np

from repro.core.compiler import ModelCompiler
from repro.core.featurize import default_featurizers
from repro.core.partition import PairEnumerator
from repro.dataset.dataset import Cell
from repro.dataset.stats import Statistics
from repro.inference.variables import CellColumns
from repro.oracle.domain import DomainPruner


class NaiveModelCompiler(ModelCompiler):
    """:class:`ModelCompiler` with the per-cell / per-pair grounding steps.

    Same constructor, same :meth:`compile` skeleton; the step methods run
    the naive :class:`DomainPruner`, the :mod:`repro.core.featurize`
    stack cell by cell, the per-cell weak-label vote and negative-candidate
    walk, and the per-pair factor loop over a :class:`PairEnumerator` —
    all against row-scan :class:`Statistics`, none against the engine.
    The seams hand over columns; each step decodes them into cells and
    candidate lists and encodes its answer back, here at the edge.
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

    def _encoded(self, cells, domains):
        """``domains`` of ``cells`` as a CSR of store codes."""
        store = self.engine.store
        codec = CellColumns({a: store.values(a) for a in store.attributes})
        return codec.encode(cells, domains)[2:]

    def _prune_domains(self, tids, attribute_codes):
        names = self.engine.store.attributes
        cells = [
            Cell(tid, names[code])
            for tid, code in zip(tids.tolist(), attribute_codes.tolist())
        ]
        domains = self._naive_pruner.domains(cells)
        return self._encoded(cells, [domains.get(cell, []) for cell in cells])

    def _featurize_all(self, context, variables, builder):
        featurizers = default_featurizers(context, self.constraints)
        for info in variables:
            if info.domain_size < 2:
                continue  # a one-candidate variable carries no entries
            for featurizer in featurizers:
                per_candidate = featurizer.features(info.cell, info.domain)
                for cand_idx, entries in enumerate(per_candidate):
                    for key, value in entries:
                        if value != 0.0:
                            builder.add(info.vid, cand_idx, key, value)
        return {"feature_path": "naive"}

    def _weak_labels(self, context, query, init_indices):
        entity_attrs = self.config.source_entity_attributes
        if context.source_attribute is None or not entity_attrs:
            return init_indices
        rows = zip(query.cells_of(), query.domains_of(), init_indices.tolist())
        labels = [self._weak_label(context, *row) for row in rows]
        return np.array(labels, dtype=np.int64)

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

    def _evidence_negatives(self, evidence):
        cells = evidence.cells_of()
        domains = list(map(self._with_negatives, cells, evidence.domains_of()))
        return self._encoded(cells, domains)

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

    def _ground_pair_factor(self, graph, dc, t1, t2):
        attrs_by_position = {
            1: sorted(dc.attributes_of(1)),
            2: sorted(dc.attributes_of(2)),
        }
        return self._ground_factor_for_cells(
            graph, dc, [(1, t1), (2, t2)], attrs_by_position
        )
