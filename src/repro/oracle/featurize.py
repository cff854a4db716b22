"""Reference featurizers: the Section 4.2 groundings one cell at a time.

One class per family of DDlog inference rules — minimality, frequency,
co-occurrence, source reliability, external matches and the Section 5.2
denial-constraint features — each reading rows through
``Dataset.row_ref``.  Production grounds the same families set-at-a-time
(:class:`~repro.core.vector_featurize.VectorFeaturizer`); the equivalence
tests compare it against this stack.
"""

from __future__ import annotations

import abc
from collections import Counter, defaultdict
from typing import Hashable

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import TupleRef
from repro.core.featurize import FeaturizationContext
from repro.dataset.dataset import Cell, Dataset

#: A sparse feature: (weight key, value).
FeatureEntry = tuple[Hashable, float]


class EntityGroups:
    """Tuples grouped by an entity key (same flight, say), read row by row:
    ``groups`` maps each key without a NULL to its ascending tuple ids."""

    def __init__(self, dataset: Dataset, attributes):
        self.dataset = dataset
        self._idxs = [dataset.schema.index_of(a) for a in attributes]
        groups: dict[tuple, list[int]] = defaultdict(list)
        if self._idxs:
            for tid in dataset.tuple_ids:
                key = self._key(tid)
                if key is not None:
                    groups[key].append(tid)
        self.groups = dict(groups)

    def _key(self, tid: int) -> tuple | None:
        row = self.dataset.row_ref(tid)
        key = tuple(row[i] for i in self._idxs)
        return None if any(v is None for v in key) else key

    def of(self, tid: int) -> list[int]:
        """The group of one tuple (empty when its key has a NULL)."""
        key = self._key(tid) if self._idxs else None
        return self.groups.get(key, []) if key is not None else []


class Featurizer(abc.ABC):
    """Produces per-candidate sparse features for one cell."""

    name: str = "featurizer"

    def __init__(self, context: FeaturizationContext):
        self.context = context

    @abc.abstractmethod
    def features(self, cell: Cell, candidates: list[str]) -> list[list[FeatureEntry]]:
        """One feature list per candidate, aligned with ``candidates``."""


# ---------------------------------------------------------------------------
class MinimalityFeaturizer(Featurizer):
    """``Value?(t,a,d) :- InitValue(t,a,d) weight = w``: minimality as a
    prior, firing on the candidate equal to the cell's initial value."""

    name = "minimality"

    def features(self, cell: Cell, candidates: list[str]):
        init = self.context.dataset.cell_value(cell)
        return [[(("minimality",), 1.0)] if d == init else [] for d in candidates]


class FrequencyFeaturizer(Featurizer):
    """Relative frequency of the candidate within its attribute.

    Emits the per-attribute feature plus a global backoff feature so that
    attributes with little evidence coverage still share the learned
    "frequent values are likelier" signal.
    """

    name = "frequency"

    def features(self, cell: Cell, candidates: list[str]):
        stats = self.context.stats
        attr = cell.attribute
        init = self.context.dataset.cell_value(cell)
        counts = stats.counts(attr)
        total = sum(counts.values())
        out = []
        for d in candidates:
            # Leave-one-out: the cell's own occurrence must not support
            # its own (possibly erroneous) value.
            count = counts.get(d, 0) - (1 if d == init else 0)
            denom = total - (1 if init is not None else 0)
            rf = count / denom if denom > 0 else 0.0
            out.append([(("freq", attr), rf), (("freq*",), rf)])
        return out


class CooccurFeaturizer(Featurizer):
    """``Value?(t,a,d) :- HasFeature(t,a,f) weight = w(d,f)``: co-occurrence
    of the candidate with the tuple's other cell values.

    Weights are tied per attribute pair (Section 4.2): the feature value
    is the empirical conditional ``Pr[d | v']``.  A tied weight multiplies
    the *sum* of its values on a candidate, so a candidate carries one
    entry per weight key: the global back-off ``("cooc*",)`` is emitted
    once, last, with the sum of the candidate's per-pair values (taken in
    schema order).
    """

    name = "cooccur"

    def features(self, cell: Cell, candidates: list[str]):
        ctx = self.context
        attr = cell.attribute
        row = ctx.dataset.row_ref(cell.tid)
        schema = ctx.dataset.schema
        init = ctx.dataset.cell_value(cell)
        per_candidate: list[list[FeatureEntry]] = [[] for _ in candidates]
        # Global back-off: lets sparsely-covered attribute pairs inherit
        # the generic co-occurrence signal.
        backoff = [0.0] * len(candidates)
        for other_attr in schema.data_attributes:
            if other_attr == attr:
                continue
            other_value = row[schema.index_of(other_attr)]
            if other_value is None:
                continue
            # Leave-one-out: the tuple itself is excluded from both the
            # conditioning count and (for its own value) the joint —
            # otherwise every observed value becomes self-evidently
            # "likely", a label leak that cripples weak-label training.
            denom = ctx.stats.frequency(other_attr, other_value) - 1
            if denom <= 0:
                continue
            cooc = ctx.stats.cooccurring_values(attr, other_attr, other_value)
            for i, d in enumerate(candidates):
                joint = cooc.get(d, 0) - (1 if d == init else 0)
                if joint > 0:
                    p = joint / (denom + ctx.config.cooccur_smoothing)
                    per_candidate[i].append((("cooc", attr, other_attr), p))
                    backoff[i] += p
        for entries, total in zip(per_candidate, backoff):
            if total > 0:
                entries.append((("cooc*",), total))
        return per_candidate


class SourceFeaturizer(Featurizer):
    """Source-reliability features over entity groups.

    For the cell's attribute, every tuple in the same entity group (same
    flight, say) "votes" for its own value with a feature keyed by the
    reporting source; learning turns these into per-source trust weights
    (provenance features, as in SLiMFast [35]).
    """

    name = "source"

    def __init__(self, context: FeaturizationContext):
        super().__init__(context)
        self._groups: EntityGroups | None = None

    def features(self, cell: Cell, candidates: list[str]):
        ctx = self.context
        per_candidate: list[list[FeatureEntry]] = [[] for _ in candidates]
        source_attr = ctx.source_attribute
        entity_attrs = ctx.config.source_entity_attributes
        if source_attr is None or not entity_attrs:
            return per_candidate
        if self._groups is None:
            self._groups = EntityGroups(ctx.dataset, entity_attrs)
        group = self._groups.of(cell.tid)
        if len(group) < 2:
            return per_candidate
        schema = ctx.dataset.schema
        a_idx = schema.index_of(cell.attribute)
        s_idx = schema.index_of(source_attr)
        votes: dict[str, Counter] = defaultdict(Counter)
        for tid in group:
            if tid == cell.tid:
                continue  # leave-one-out: a cell cannot vouch for itself
            row = ctx.dataset.row_ref(tid)
            value, source = row[a_idx], row[s_idx]
            if value is not None and source is not None:
                votes[value][source] += 1
        for i, d in enumerate(candidates):
            for source, count in votes.get(d, {}).items():
                per_candidate[i].append((("src", source), float(count)))
        return per_candidate


class ExternalMatchFeaturizer(Featurizer):
    """``Value?(t,a,d) :- Matched(t,a,d,k) weight = w(k)``: one ``("ext", k)``
    entry per candidate and dictionary ``k``, the number of ``Matched``
    facts of ``k`` naming the candidate (two agreeing dependencies: 2.0)."""

    name = "external"

    def features(self, cell: Cell, candidates: list[str]):
        facts = Counter(
            (match.value, match.dictionary)
            for matched in self.context.matched
            for match in matched.for_cell(cell)
        )
        return [
            [(("ext", k), float(n)) for (value, k), n in facts.items() if value == d]
            for d in candidates
        ]


# ---------------------------------------------------------------------------
class ConstraintFeaturizer(Featurizer):
    """Section 5.2: denial constraints as features over initial values.

    For cell ``c``, candidate ``d``, and constraint σ mentioning ``c``'s
    attribute, counts the tuples whose *initial* values would complete a
    violation of σ if ``c`` were set to ``d`` (both tuple positions are
    considered).  The count is capped and normalised; the per-constraint
    weight is learned and is expected to become negative — candidates that
    would create violations are penalised.
    """

    name = "constraint"

    def __init__(
        self, context: FeaturizationContext, constraints: list[DenialConstraint]
    ):
        super().__init__(context)
        self.constraints = [dc for dc in constraints if not dc.is_single_tuple]
        self.single_constraints = [dc for dc in constraints if dc.is_single_tuple]
        self._indexes: dict[tuple[str, int], dict[tuple, list[int]]] = {}

    # -- partner indexes over initial values -----------------------------
    def _join_attrs(self, dc: DenialConstraint, position: int) -> list[str]:
        attrs = []
        for pred in dc.equijoin_predicates:
            assert isinstance(pred.right, TupleRef)
            ref = pred.left if pred.left.tuple_index == position else pred.right
            attrs.append(ref.attribute)
        return attrs

    def _partner_index(
        self, dc: DenialConstraint, partner_position: int
    ) -> dict[tuple, list[int]]:
        """Join-key → tuple ids, with partners playing ``partner_position``."""
        key = (dc.name, partner_position)
        index = self._indexes.get(key)
        if index is None:
            attrs = self._join_attrs(dc, partner_position)
            ds = self.context.dataset
            idxs = [ds.schema.index_of(a) for a in attrs]
            built: dict[tuple, list[int]] = defaultdict(list)
            for tid in ds.tuple_ids:
                row = ds.row_ref(tid)
                jkey = tuple(row[i] for i in idxs)
                if all(v is not None for v in jkey):
                    built[jkey].append(tid)
            index = dict(built)
            self._indexes[key] = index
        return index

    # -- violation counting ------------------------------------------------
    def _count_violations(
        self, dc: DenialConstraint, cell: Cell, candidate: str, own_position: int
    ) -> int:
        """Violations completed by ``cell := candidate`` in one position."""
        if cell.attribute not in dc.attributes_of(own_position):
            return 0
        ds = self.context.dataset
        simulated = ds.tuple_dict(cell.tid)
        simulated[cell.attribute] = candidate

        partner_position = 2 if own_position == 1 else 1
        own_join_attrs = self._join_attrs(dc, own_position)
        jkey = tuple(simulated.get(a) for a in own_join_attrs)
        if any(v is None for v in jkey):
            return 0
        partners = self._partner_index(dc, partner_position).get(jkey, ())
        cap = self.context.config.max_dc_feature_partners
        count = 0
        examined = 0
        for tid in partners:
            if tid == cell.tid:
                continue
            examined += 1
            if examined > cap:
                break
            partner = ds.tuple_dict(tid)
            if own_position == 1:
                violated = dc.violates(simulated, partner)
            else:
                violated = dc.violates(partner, simulated)
            if violated:
                count += 1
        return count

    def features(self, cell: Cell, candidates: list[str]):
        config = self.context.config
        per_candidate: list[list[FeatureEntry]] = [[] for _ in candidates]
        for dc in self.constraints:
            if cell.attribute not in dc.attributes:
                continue
            for i, d in enumerate(candidates):
                total = sum(self._count_violations(dc, cell, d, p) for p in (1, 2))
                if total:
                    value = min(float(total), config.dc_feature_cap)
                    per_candidate[i].append(
                        (("dc", dc.name), value / config.dc_feature_cap)
                    )
        # Single-tuple constraints: does the candidate itself violate?
        for dc in self.single_constraints:
            if cell.attribute not in dc.attributes:
                continue
            simulated = self.context.dataset.tuple_dict(cell.tid)
            for i, d in enumerate(candidates):
                simulated[cell.attribute] = d
                if dc.violates(simulated):
                    per_candidate[i].append((("dc", dc.name), 1.0))
        return per_candidate


# ---------------------------------------------------------------------------
def default_featurizers(
    context: FeaturizationContext, constraints: list[DenialConstraint]
) -> list[Featurizer]:
    """The featurizer stack implied by the configuration."""
    config = context.config
    stack: list[Featurizer] = []
    if config.use_minimality:
        stack.append(MinimalityFeaturizer(context))
    if config.use_frequency:
        stack.append(FrequencyFeaturizer(context))
    if config.use_cooccur:
        stack.append(CooccurFeaturizer(context))
    if config.use_source and context.source_attribute is not None:
        stack.append(SourceFeaturizer(context))
    if config.use_external and context.matched:
        stack.append(ExternalMatchFeaturizer(context))
    if config.use_dc_feats and constraints:
        stack.append(ConstraintFeaturizer(context, constraints))
    return stack
