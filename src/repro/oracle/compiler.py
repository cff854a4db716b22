"""Reference model compilation: every grounding step tuple-at-a-time."""

from __future__ import annotations

import itertools

import numpy as np

from repro.core.compiler import ModelCompiler
from repro.dataset.dataset import Cell
from repro.inference.variables import CellColumns
from repro.oracle.domain import DomainPruner
from repro.oracle.featurize import EntityGroups, default_featurizers
from repro.oracle.partition import PairEnumerator
from repro.oracle.stats import Statistics


class NaiveModelCompiler(ModelCompiler):
    """:class:`ModelCompiler` with the per-cell / per-pair grounding steps.

    Same constructor, same :meth:`compile` skeleton; the step methods run
    the naive :class:`DomainPruner`, the :mod:`repro.oracle.featurize`
    stack cell by cell, the per-cell weak-label vote and negative-candidate
    walk, and the factor loop — per pair of a :class:`PairEnumerator`, per
    tuple of a single-tuple constraint, one :meth:`DenialConstraint.violates`
    call per table cell — all against row-scan :class:`Statistics`, none
    against the engine.
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
        groups = EntityGroups(self.dataset, entity_attrs)
        rows = zip(query.cells_of(), query.domains_of(), init_indices.tolist())
        labels = [self._weak_label(groups, *row) for row in rows]
        return np.array(labels, dtype=np.int64)

    def _weak_label(self, groups, cell, domain, init_index):
        """Plurality value of the cell's entity group, else the observed one."""
        group = groups.of(cell.tid)
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

    def _ground_single_tuple_factors(self, graph, dc):
        """One factor per tuple with a query variable on an attribute the
        constraint reads, walked in ascending tuple id."""
        attrs = sorted(dc.attributes_of(1))
        variables = graph.variables
        codes = [variables.attribute_code(name) for name in attrs]
        touched = ~variables.is_evidence & np.isin(variables.attribute_codes, codes)
        skipped = 0
        for tid in sorted(set(variables.tids[touched].tolist())):
            if not self._ground_factor_for_cells(graph, dc, [(1, tid)], {1: attrs}):
                skipped += 1
        return skipped

    def _ground_pair_factor(self, graph, dc, t1, t2):
        attrs_by_position = {
            1: sorted(dc.attributes_of(1)),
            2: sorted(dc.attributes_of(2)),
        }
        return self._ground_factor_for_cells(
            graph, dc, [(1, t1), (2, t2)], attrs_by_position
        )

    def _ground_factor_for_cells(self, graph, dc, positions, attrs_by_position):
        """Ground one factor; returns False when skipped (cap / constant).

        Evidence cells and cells without variables are folded into the
        table as fixed context, so the resulting factor spans only query
        variables.
        """
        variables = graph.variables
        axis_vars = []
        # Only the constraint's attributes, each cell decoded on its own:
        # a whole-row read would decode (and cache) every row.  All of them
        # in every position, as the two-tuple check tries both orientations.
        base_values = {
            p: {a: self.dataset.value(tid, a) for a in dc.attributes}
            for p, tid in positions
        }
        cell_axes = []  # (position, attr, axis)
        wanted = [
            (position, tid, attr)
            for position, tid in positions
            for attr in attrs_by_position.get(position, ())
        ]
        vids = variables.rows_of([(tid, attr) for _, tid, attr in wanted])
        for (position, _, attr), vid in zip(wanted, vids.tolist()):
            if vid >= 0 and not variables.is_evidence[vid]:
                cell_axes.append((position, attr, len(axis_vars)))
                axis_vars.append(variables[vid])

        if not axis_vars:
            return False
        shape = tuple(v.domain_size for v in axis_vars)
        if int(np.prod(shape)) > self.config.max_factor_table:
            return False

        table = np.ones(shape, dtype=np.int8)
        two_tuple = len(positions) == 2
        for combo in itertools.product(*(range(s) for s in shape)):
            values = {p: dict(base_values[p]) for p in base_values}
            for position, attr, axis in cell_axes:
                values[position][attr] = axis_vars[axis].domain[combo[axis]]
            if two_tuple:
                violated = dc.violates(values[1], values[2]) or dc.violates(
                    values[2], values[1]
                )
            else:
                violated = dc.violates(values[1])
            if violated:
                table[combo] = -1

        if np.all(table == 1) or np.all(table == -1):
            return False  # constant factor: no effect on the distribution
        graph.add_factor(
            [v.vid for v in axis_vars], table, self.config.dc_factor_weight, dc.name
        )
        return True
