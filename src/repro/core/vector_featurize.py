"""Vectorized featurization: set-at-a-time grounding of the unary rules.

The original HoloClean grounds the inference rules of Section 4.2 as
set-oriented queries inside DeepDive; :class:`VectorFeaturizer` grounds
them the same way over the engine's
:class:`~repro.engine.store.ColumnStore`:

* candidate grids are gathered per attribute from the variable catalog's
  CSR of candidate codes (one gather per attribute instead of one Python
  walk per cell), and re-coded into a constraint's code space through a
  lookup table;
* minimality and frequency (leave-one-out included) become array
  comparisons against the engine's per-code value counts;
* co-occurrence, one weight per attribute pair, fills one ``others ×
  rows`` array of joint counts per attribute block, one other at a time,
  from the ``(other, attribute)`` count table Algorithm 2 already built
  (:meth:`EngineStatistics.joint_code_counts`): one gather from a
  transient dense ``int32`` table when the pair's ``(card_other + 1) ×
  (card_attribute + 1)`` key space fits ``_DENSE_JOINT_CELLS`` (2**20
  cells, 4 MB), a binary search of the table's sorted keys only for a
  larger pair;
* source-reliability votes reduce to one group-by over the entity key;
* external-dictionary matches are one group-by of the ``Matched`` facts'
  ``(tid, value code)`` joined against each attribute block's rows;
* a two-tuple denial constraint's feature counts, per candidate, the
  violations it completes with the first ``max_dc_feature_partners``
  non-self partners of its join bucket.  The partners are grouped by
  every code the predicates read from them, so the code-space predicate
  evaluator shared with
  :class:`~repro.core.factor_tables.VectorFactorTableBuilder` runs once
  per (candidate, distinct partner group), not once per partner tuple
  (:meth:`VectorFeaturizer._count_dc_violations`); single-tuple
  constraints are one mask per attribute.

Each family emits batches of ``(row, key token, value)`` entry arrays plus
the batch's weight keys; a row is a catalog domain position, which is the
matrix row of that (variable, candidate) when the builder's variables are
the catalog's (checked once per call).  The order contract is local:
batches are appended in family order (minimality, frequency, cooccur,
source, external, dc), inside a family a row's entries appear in the
order the reference featurizer's per-candidate list carries them
(:mod:`repro.oracle.featurize`), and every batch lists its rows in
ascending order.  No batch holds a zero value (leave-one-out frequencies
are the only zeros a family computes, and ``_frequency`` drops them).
:meth:`VectorFeaturizer._emit` allocates a feature index for every key
that carries an entry — in (batch, token) order — and hands each batch to
the builder as its own chunk (:meth:`FeatureMatrixBuilder.add_rows`), so
no entry is copied before :meth:`FeatureMatrixBuilder.build`'s counting
sort writes it once into place.  Against the reference stack the matrix
has the same rows, the same per-row entry order and values and the same
key *set*; feature indices differ by a relabelling through the keys,
which no consumer reads.

Only entries that can move an answer are emitted: one per (row, weight
key) — a tied weight multiplies the *sum* of its values, so the pair-tied
back-off ``("cooc*",)`` is one entry of the row's summed per-pair values
and two matching dependencies agreeing on a value are one ``("ext", k)``
entry of their count — and none on a one-candidate variable, whose
softmax is ``[1.0]`` whatever its score (``_build_blocks`` cuts the
featurized set once, for every family).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import repeat
from typing import Hashable

import numpy as np

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import TupleRef
from repro.core.featurize import FeaturizationContext
from repro.dataset.dataset import Cell
from repro.engine import ops
from repro.engine.space import CodeSpaces
from repro.external.matcher import MatchedRelation
from repro.inference.features import FeatureMatrixBuilder
from repro.inference.variables import CellColumns, as_columns
from repro.obs.trace import deep_span

#: Largest ``(card_other + 1) × (card_attr + 1)`` key space the co-occurrence
#: family scatters into a dense ``int32`` table (4 MB); a larger pair
#: binary-searches.
_DENSE_JOINT_CELLS = 1 << 20


@dataclass
class _Entries:
    """One batch of sparse feature entries.

    Array order is the contract: ``row`` ascends, and the entries of one
    (variable, candidate) row appear in the order the reference
    featurizer's per-candidate list would carry them.  ``token`` indexes
    ``keys`` (batch-local weight keys; equal keys of different batches
    meet in the feature space).  No value is zero.
    """

    row: np.ndarray
    token: np.ndarray
    value: np.ndarray
    keys: list[Hashable]


@dataclass
class _AttrBlock:
    """All variables of one attribute, columnarised.

    ``flat_*`` arrays have one element per (variable, candidate) row, in
    row order: ``flat_row`` is the row's catalog domain position (its
    matrix row); candidate codes live in the attribute's own dictionary,
    extended in place for candidate values absent from the data.
    """

    attribute: str
    var_idx: np.ndarray
    tids: np.ndarray
    sizes: np.ndarray
    flat_row: np.ndarray
    flat_code: np.ndarray
    flat_init: np.ndarray
    values: list[str]  # extended code → value


def _keyed_entries(
    block: _AttrBlock, hit: np.ndarray, key: Hashable, value: np.ndarray | None = None
) -> _Entries:
    """One entry under ``key`` on each of the block's ``hit`` rows, of
    ``value`` (one per hit row; 1.0 when omitted)."""
    n = int(hit.sum())
    return _Entries(
        block.flat_row[hit],
        np.zeros(n, dtype=np.int64),
        np.ones(n, dtype=np.float64) if value is None else value,
        keys=[key],
    )


class VectorFeaturizer:
    """Grounds every feature family set-at-a-time over the engine.

    Takes the shared :class:`FeaturizationContext` (dataset, statistics,
    config, matched relations) and the denial constraints; the config
    turns each family on or off (:meth:`_families`).
    """

    def __init__(
        self, engine, context: FeaturizationContext, constraints: list[DenialConstraint]
    ):
        self.engine = engine
        self.context = context
        self.constraints = list(constraints)
        self._stats = engine.statistics()
        #: Featurization counters surfaced as ``grounding_feature_*``.
        self.stats: dict[str, int | str] = {}

    # ------------------------------------------------------------------
    # Driver
    # ------------------------------------------------------------------
    def featurize(
        self,
        variables: CellColumns | list[tuple[Cell, list[str]]],
        builder: FeatureMatrixBuilder,
    ) -> dict[str, int | str]:
        """Ground features for all variables and land them in ``builder``.

        ``variables`` is the catalog — row ``i`` is variable ``i`` — or
        the ``(cell, domain)`` specs in variable-id order, encoded once
        (:func:`~repro.inference.variables.as_columns`).  The builder's
        variables must be the catalog's, with its domain sizes: entries
        arrive as one :meth:`FeatureMatrixBuilder.add_rows` chunk per
        batch, addressed by catalog domain position.  Everything but the
        engine's joint-count lookups is built for this call alone.
        """
        self.stats = {}
        self._build_blocks(variables)
        if not np.array_equal(builder.var_row_start, self._catalog.domain_indptr):
            raise ValueError(
                f"the builder's {builder.num_vars} variables and their sizes "
                f"differ from the catalog's {len(self._catalog)} domains"
            )
        families = self._families()
        batches: list[_Entries] = []
        for name, family in families:
            with deep_span("featurize.family", family=name) as sp:
                entries = family()
                batches.extend(entries)
                if sp is not None:
                    sp.attributes["entries"] = int(sum(len(b.row) for b in entries))
        with deep_span("featurize.emit", batches=len(batches)):
            emitted = self._emit(batches, builder)
        sizes = np.diff(self._catalog.domain_indptr)
        self.stats.update(
            {
                "feature_path": "vector",
                "feature_rows": int(sizes[self._live].sum()),
                "feature_entries": emitted,
                "feature_vector_families": len(families),
            }
        )
        return dict(self.stats)

    def _families(self) -> list[tuple[str, Callable[[], list[_Entries]]]]:
        """The families the config turns on, in emission order, each under
        the name of its reference featurizer (the ``featurize.family``
        span's ``family``)."""
        ctx, config = self.context, self.context.config
        source = config.use_source and ctx.source_attribute is not None
        external = config.use_external and bool(ctx.matched)
        dcs = config.use_dc_feats and bool(self.constraints)
        wanted = [
            ("MinimalityFeaturizer", config.use_minimality, self._minimality),
            ("FrequencyFeaturizer", config.use_frequency, self._frequency),
            ("CooccurFeaturizer", config.use_cooccur, self._cooccur),
            ("SourceFeaturizer", source, self._source),
            ("ExternalMatchFeaturizer", external, self._external),
            ("ConstraintFeaturizer", dcs, self._constraint),
        ]
        return [(name, family) for name, on, family in wanted if on]

    # ------------------------------------------------------------------
    # Shared per-attribute artifacts
    # ------------------------------------------------------------------
    def _build_blocks(self, variables) -> None:
        """Cut the catalog into per-attribute blocks; the one place the
        featurized set is cut: every cell keeps its domain (the code spaces
        read it), blocks see only the variables with two or more
        candidates.  Blocks follow each attribute's first such
        variable, the order the feature keys are allocated in."""
        store = self.engine.store
        catalog = as_columns(variables, store)
        indptr = catalog.domain_indptr
        live = np.flatnonzero(np.diff(indptr) >= 2)
        attrs = catalog.attribute_codes[live]
        _, first = np.unique(attrs, return_index=True)
        self._catalog, self._live = catalog, live
        self._space = CodeSpaces(store, catalog)
        self._blocks: dict[str, _AttrBlock] = {}
        for code in attrs[np.sort(first)]:
            attr = catalog.attributes[code]
            var_idx = live[attrs == code]
            tids = catalog.tids[var_idx]
            sizes = indptr[var_idx + 1] - indptr[var_idx]
            positions = ops.expand_ranges(indptr[var_idx], sizes)
            self._blocks[attr] = _AttrBlock(
                attribute=attr,
                var_idx=var_idx,
                tids=tids,
                sizes=sizes,
                flat_row=positions,
                flat_code=catalog.domain_codes[positions].astype(np.int64),
                flat_init=np.repeat(store.codes(attr)[tids].astype(np.int64), sizes),
                values=catalog.tables[code],
            )

    # ------------------------------------------------------------------
    # Families
    # ------------------------------------------------------------------
    def _minimality(self) -> list[_Entries]:
        out = []
        for block in self._blocks.values():
            hit = block.flat_code == block.flat_init
            if hit.any():
                out.append(_keyed_entries(block, hit, ("minimality",)))
        return out

    def _frequency(self) -> list[_Entries]:
        """Per row ``("freq", attr)`` and the back-off ``("freq*",)``, both of
        the candidate's leave-one-out relative frequency; a row whose
        frequency is 0 (a value only its own cell holds, or one absent from
        the data) gets neither."""
        out = []
        for attr, block in self._blocks.items():
            counts = self._stats.code_counts(attr)
            total = int(counts.sum())
            padded = np.zeros(max(len(block.values), 1), dtype=np.int64)
            padded[: len(counts)] = counts
            count = padded[block.flat_code] - (block.flat_code == block.flat_init)
            denom = total - (block.flat_init >= 0).astype(np.int64)
            live = np.flatnonzero((denom > 0) & (count != 0))
            rf = count[live] / denom[live]
            out.append(
                _Entries(
                    np.repeat(block.flat_row[live], 2),
                    np.tile(np.arange(2, dtype=np.int64), len(rf)),
                    np.repeat(rf, 2),
                    keys=[("freq", attr), ("freq*",)],
                )
            )
        return out

    def _joint_counts(
        self,
        attr: str,
        other: str,
        context: np.ndarray,
        row_var: np.ndarray,
        cand: np.ndarray,
    ) -> np.ndarray:
        """Per row, the joint count of ``(other = context[row_var], attr =
        cand)``, 0 where the context code is ``-1``.

        Read off the ``(other, attr)`` table, the orientation Algorithm 2's
        :meth:`EngineStatistics.conditional_table` already built, so no
        derived orientation is ever sorted for the featurizer.  Keys are
        laid out ``(card_o + 1) × (card_a + 1)``: row ``card_o`` stands for
        "no context" and column ``card_a`` for every candidate absent from
        the data (``cand`` is clipped to it), and no table row lands in
        either.  A pair whose key space fits ``_DENSE_JOINT_CELLS`` is one
        gather from a transient dense ``int32`` table; a larger one
        binary-searches the table's sorted keys.
        """
        store = self.engine.store
        table = self._stats.joint_code_counts(other, attr)
        card_o = store.cardinality(other)
        width = store.cardinality(attr) + 1
        table_key = table[:, 0] * width + table[:, 1]  # ascending
        row_key = np.where(context >= 0, context, card_o) * width
        query = row_key[row_var] + cand
        cells = (card_o + 1) * width
        if cells <= _DENSE_JOINT_CELLS:
            dense = np.zeros(cells, dtype=np.int32)
            dense[table_key] = table[:, 2]
            return dense[query]
        if not len(table_key):
            return np.zeros(len(query), dtype=np.int64)
        pos = np.minimum(np.searchsorted(table_key, query), len(table_key) - 1)
        return np.where(table_key[pos] == query, table[pos, 2], 0)

    def _cooccur(self) -> list[_Entries]:
        schema = self.context.dataset.schema
        out = []
        for attr, block in self._blocks.items():
            others = [o for o in schema.data_attributes if o != attr]
            if others:  # in a one-attribute schema nothing conditions
                out.extend(self._cooccur_block(block, others))
        return out

    def _cooccur_block(self, block: _AttrBlock, others: list[str]) -> list[_Entries]:
        """One block's ``("cooc", attr, other)`` entries, then its back-off.

        Joint counts fill one ``others × rows`` array, one lookup per other
        (:meth:`_joint_counts`), less one where the candidate is the cell's
        own value (leave-one-out).  The positive counts are listed row by
        row, so a row's per-pair entries come in schema order and the
        batch's rows ascend.  The back-off
        ``("cooc*",)`` batch follows: per row the sum of those entries,
        added in that same order by one ``bincount``.
        """
        store = self.engine.store
        attr = block.attribute
        # Per (other, variable): the context code and its denominator.
        codes = [store.codes(o)[block.tids] for o in others]
        context = np.stack(codes).astype(np.int64)
        counts = [self._stats.code_counts(o) for o in others]
        count_base = np.cumsum([0] + [len(c) for c in counts])[:-1, None]
        all_counts = np.concatenate([*counts, np.zeros(1, dtype=np.int64)])
        denom = np.where(
            context >= 0, all_counts[count_base + np.maximum(context, 0)] - 1, 0
        )
        # A context value only the row's own tuple holds (denominator 0)
        # co-occurs with nothing but the tuple's own value, which the
        # leave-one-out subtraction takes back: such pairs need no mask, and
        # an other with no positive denominator needs no lookup.
        looked_up = (denom > 0).any(axis=1)
        row_var = np.repeat(np.arange(len(block.tids)), block.sizes)
        cand = np.minimum(block.flat_code, store.cardinality(attr))
        joint = np.zeros((len(others), len(cand)), dtype=np.int32)
        for j, (other, lookup) in enumerate(zip(others, looked_up)):
            if lookup:
                joint[j] = self._joint_counts(attr, other, context[j], row_var, cand)
        joint -= block.flat_code == block.flat_init
        row, column = np.nonzero(joint.T > 0)  # row-major
        smoothing = self.context.config.cooccur_smoothing
        value = joint[column, row] / (denom[column, row_var[row]] + smoothing)
        backoff = np.bincount(row, value, minlength=len(cand))
        summed = backoff > 0
        return [
            _Entries(
                block.flat_row[row],
                column,
                value,
                keys=[("cooc", attr, o) for o in others],
            ),
            _keyed_entries(block, summed, ("cooc*",), backoff[summed]),
        ]

    def _source(self) -> list[_Entries]:
        ctx = self.context
        store = self.engine.store
        source_attr = ctx.source_attribute
        entity_attrs = ctx.config.source_entity_attributes
        if source_attr is None or not entity_attrs:
            return []
        # One group-by over the entity key: members sorted by (group, tid).
        ekey = ops.combine_codes([store.codes(a) for a in entity_attrs])
        valid_rows = np.nonzero(ekey >= 0)[0]
        if not len(valid_rows):
            return []
        members = valid_rows[np.argsort(ekey[valid_rows], kind="stable")]
        starts, gsizes = ops.bucket_extents(ekey[members])
        n = len(ekey)
        tid_start = np.full(n, -1, dtype=np.int64)
        tid_size = np.zeros(n, dtype=np.int64)
        tid_start[members] = np.repeat(starts, gsizes)
        tid_size[members] = np.repeat(gsizes, gsizes)
        s_codes = store.codes(source_attr).astype(np.int64)
        source_values = store.values(source_attr)
        src_keys: list[Hashable] = [("src", v) for v in source_values]
        card_s = max(len(source_values), 1)
        out = []
        for attr, block in self._blocks.items():
            a_codes = store.codes(attr).astype(np.int64)
            card_a = max(store.cardinality(attr), 1)
            vstart = tid_start[block.tids]
            vsize = tid_size[block.tids]
            keep = (vstart >= 0) & (vsize >= 2)
            if not keep.any():
                continue
            own_tids = block.tids[keep]
            sizes_kept = vsize[keep]
            # Expand (variable, group member) pairs in ascending-tid order.
            pk = np.repeat(np.arange(len(own_tids), dtype=np.int64), sizes_kept)
            ptid = members[ops.expand_ranges(vstart[keep], sizes_kept)]
            ok = (ptid != own_tids[pk]) & (a_codes[ptid] >= 0) & (s_codes[ptid] >= 0)
            pk, ptid = pk[ok], ptid[ok]
            if not len(pk):
                continue
            pv, ps = a_codes[ptid], s_codes[ptid]
            # Votes: count per (variable, value, source) plus the first
            # stream position, which fixes the naive Counter's insertion
            # (= first-partner) order — the order a row's entries take.
            uvs, vs_id = np.unique(pv * card_s + ps, return_inverse=True)
            ukey = pk * len(uvs) + vs_id
            uniq, first, counts = np.unique(ukey, return_index=True, return_counts=True)
            uk, uvs_idx = uniq // len(uvs), uniq % len(uvs)
            uv, us = uvs[uvs_idx] // card_s, uvs[uvs_idx] % card_s
            order = np.lexsort((first, uv, uk))
            uk, uv, us, counts = uk[order], uv[order], us[order], counts[order]
            gkey = uk * card_a + uv  # ascending after the lexsort
            # Join candidates against the vote groups.
            keep_flat = np.repeat(keep, block.sizes)
            frow = block.flat_row[keep_flat]
            fcode = block.flat_code[keep_flat]
            fk = np.repeat(np.arange(len(own_tids), dtype=np.int64), block.sizes[keep])
            in_data = fcode < card_a  # extended codes never gather votes
            query = fk * card_a + np.minimum(fcode, card_a - 1)
            lo = np.searchsorted(gkey, query)
            hi = np.searchsorted(gkey, query, side="right")
            hits = np.where(in_data, hi - lo, 0)
            if not hits.sum():
                continue
            src_pos = ops.expand_ranges(lo, hits)
            out.append(
                _Entries(
                    np.repeat(frow, hits),
                    us[src_pos],
                    counts[src_pos].astype(np.float64),
                    keys=src_keys,
                )
            )
        return out

    def _external(self) -> list[_Entries]:
        """``Value?(t,a,d) :- Matched(t,a,d,k)``: per attribute block and
        dictionary name ``k`` (in relation order), the number of ``k``'s
        facts naming each row's (tuple, candidate) — a group-by of the
        facts' ``(tid, value code)`` probed with the block's rows."""
        by_name: dict[str, list[MatchedRelation]] = {}
        for matched in self.context.matched:
            by_name.setdefault(matched.dictionary, []).append(matched)
        out = []
        for attr, block in self._blocks.items():
            card = len(block.values)
            code_of = dict(zip(block.values, range(card)))
            row_key = np.repeat(block.tids, block.sizes) * card + block.flat_code
            for name, relations in by_name.items():
                mine = [r.attributes == attr for r in relations]
                tids = np.concatenate([r.tids[m] for r, m in zip(relations, mine)])
                values = np.concatenate([r.values[m] for r, m in zip(relations, mine)])
                codes = np.fromiter(map(code_of.get, values, repeat(-1)), np.int64)
                # A value no candidate takes names no row.
                fact_key = (tids * card + codes)[codes >= 0]
                keys, counts = np.unique(fact_key, return_counts=True)
                if not len(keys):
                    continue
                at = np.minimum(np.searchsorted(keys, row_key), len(keys) - 1)
                hit = keys[at] == row_key
                if hit.any():
                    value = counts[at[hit]].astype(np.float64)
                    out.append(_keyed_entries(block, hit, ("ext", name), value))
        return out

    # ------------------------------------------------------------------
    # Denial-constraint features (Section 5.2)
    # ------------------------------------------------------------------
    def _constraint(self) -> list[_Entries]:
        # Two-tuple constraints first, then single-tuple ones (a stable sort).
        out: list[_Entries] = []
        for dc in sorted(self.constraints, key=lambda dc: dc.is_single_tuple):
            out.extend(self._single_dc(dc) if dc.is_single_tuple else self._pair_dc(dc))
        return out

    def _single_dc(self, dc: DenialConstraint) -> list[_Entries]:
        out = []
        for attr, block in self._blocks.items():
            if attr not in dc.attributes:
                continue
            violated: np.ndarray | None = None
            for pred in dc.predicates:
                space = self._space(*pred.attributes)

                def operand(ref) -> np.ndarray:
                    if ref.attribute == attr:
                        return space.luts[attr][block.flat_code]
                    fixed = space.fixed(ref.attribute)[block.tids]
                    return np.repeat(fixed, block.sizes)

                lhs = operand(pred.left)
                rhs = operand(pred.right) if isinstance(pred.right, TupleRef) else None
                term = pred.evaluate_coded(lhs, rhs, space)
                violated = term if violated is None else violated & term
                if not violated.any():
                    break
            if violated is not None and violated.any():
                out.append(_keyed_entries(block, violated, ("dc", dc.name)))
        return out

    def _pair_dc(self, dc: DenialConstraint) -> list[_Entries]:
        cap_value = self.context.config.dc_feature_cap
        out = []
        for attr, block in self._blocks.items():
            if attr not in dc.attributes:
                continue
            totals = np.zeros(len(block.flat_row), dtype=np.int64)
            for own_pos in (1, 2):
                if attr not in dc.attributes_of(own_pos):
                    continue
                totals += self._count_dc_violations(dc, own_pos, block)
            hit = totals > 0
            if not hit.any():
                continue
            value = np.minimum(totals[hit].astype(np.float64), cap_value) / cap_value
            out.append(_keyed_entries(block, hit, ("dc", dc.name), value))
        return out

    def _join_keys(
        self,
        dc: DenialConstraint,
        own_pos: int,
        block: _AttrBlock,
        flat_tids: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Join keys of the block's rows playing ``own_pos`` (the candidate
        standing in for its cell) and of every tuple as the partner, equal
        iff every equality predicate holds; ``-1`` where one is NULL."""
        own_cols: list[np.ndarray] = []
        partner_cols: list[np.ndarray] = []
        for pred in dc.equijoin_predicates:
            own_ref = pred.left if pred.left.tuple_index == own_pos else pred.right
            partner_ref = pred.right if own_ref is pred.left else pred.left
            space = self._space(own_ref.attribute, partner_ref.attribute)
            partner_cols.append(space.fixed(partner_ref.attribute))
            if own_ref.attribute == block.attribute:
                own_cols.append(space.luts[block.attribute][block.flat_code])
            else:
                own_cols.append(space.fixed(own_ref.attribute)[flat_tids])
        if not own_cols:  # no equality predicate: every tuple is a join partner
            return (
                np.zeros(len(flat_tids), dtype=np.int64),
                np.zeros(self.engine.store.num_rows, dtype=np.int64),
            )
        return ops.combine_codes_pairwise(own_cols, partner_cols)

    def _count_dc_violations(
        self, dc: DenialConstraint, own_pos: int, block: _AttrBlock
    ) -> np.ndarray:
        """Violations each candidate completes playing ``own_pos``.

        Mirrors the reference ``ConstraintFeaturizer._count_violations``
        (:mod:`repro.oracle.featurize`): partners
        joined on the constraint's equality predicates over *initial*
        values, the variable's own key carrying the candidate value, and
        the first K = ``max_dc_feature_partners`` non-self partners
        (ascending tuple id) checked against the remaining predicates.

        A bucket's first K + 1 tuples — its window — hold those K partners
        whether or not the row's own tuple is among them.  The window's
        tuples are grouped by every code the residual predicates read from
        the partner, so each row evaluates them once per distinct group of
        its bucket, weighted by the group's size, and once more,
        subtracted, for the window tuple the naive walk skips: its own
        tuple when that is in the window, else the window's last tuple
        when the bucket holds more than K.
        """
        store = self.engine.store
        cap = min(self.context.config.max_dc_feature_partners, store.num_rows)
        flat_tids = np.repeat(block.tids, block.sizes)
        n_flat = len(flat_tids)
        keys_own, keys_partner = self._join_keys(dc, own_pos, block, flat_tids)
        valid = np.flatnonzero(keys_partner >= 0)
        members = valid[np.argsort(keys_partner[valid], kind="stable")]
        starts, sizes = ops.bucket_extents(keys_partner[members])
        window = members[ops.expand_ranges(starts, np.minimum(sizes, cap + 1))]
        if not len(window):
            return np.zeros(n_flat, dtype=np.int64)

        # Distinct groups of each window: one representative tid and a size.
        # A bucket's pairs satisfy every equality predicate by construction,
        # so only the residual predicates are read and evaluated.
        residuals = dc.residual_predicates
        partner_attrs = sorted(
            {attr for p in residuals for attr in p.attributes_of(3 - own_pos)}
        )
        columns = [keys_partner, *(store.codes(a) for a in partner_attrs)]
        order = np.lexsort([col[window] for col in reversed(columns)])
        ordered = window[order]
        head = np.zeros(len(ordered), dtype=bool)
        head[0] = True
        for col in columns:
            sorted_col = col[ordered]
            head[1:] |= sorted_col[1:] != sorted_col[:-1]
        heads = np.flatnonzero(head)
        group_tid = ordered[heads]
        group_size = np.diff(np.append(heads, len(ordered)))
        group_key = keys_partner[group_tid]  # ascending: the key sorts first
        lo = np.searchsorted(group_key, keys_own)
        hi = np.searchsorted(group_key, keys_own, side="right")
        n_groups = np.where(keys_own >= 0, hi - lo, 0)
        group = ops.expand_ranges(lo, n_groups)

        # The one window tuple each row's naive walk does not examine.
        in_window = np.zeros(store.num_rows, dtype=bool)
        in_window[window] = True
        own_in = (
            (keys_own >= 0)
            & (keys_partner[flat_tids] == keys_own)
            & in_window[flat_tids]
        )
        bucket_key = keys_partner[members[starts]]
        bucket = np.minimum(np.searchsorted(bucket_key, keys_own), len(starts) - 1)
        over_cap = (
            (keys_own >= 0) & (bucket_key[bucket] == keys_own) & (sizes[bucket] > cap)
        )
        last_tid = members[starts[bucket] + np.minimum(sizes[bucket] - 1, cap)]
        skipped = np.where(own_in, flat_tids, np.where(over_cap, last_tid, -1))
        fix_rows = np.flatnonzero(skipped >= 0)

        rows = np.concatenate((np.repeat(np.arange(n_flat), n_groups), fix_rows))
        ptid = np.concatenate((group_tid[group], skipped[fix_rows]))
        weight = np.concatenate((group_size[group], np.full(len(fix_rows), -1)))
        violated = np.ones(len(rows), dtype=bool)
        for pred in residuals:
            space = self._space(*pred.attributes)

            def operand(ref) -> np.ndarray:
                if ref.tuple_index != own_pos:
                    return space.fixed(ref.attribute)[ptid]
                if ref.attribute == block.attribute:
                    return space.luts[block.attribute][block.flat_code[rows]]
                return space.fixed(ref.attribute)[flat_tids[rows]]

            lhs = operand(pred.left)
            rhs = operand(pred.right) if isinstance(pred.right, TupleRef) else None
            violated &= pred.evaluate_coded(lhs, rhs, space)
            if not violated.any():
                return np.zeros(n_flat, dtype=np.int64)
        counts = np.bincount(rows[violated], weight[violated], minlength=n_flat)
        return counts.astype(np.int64)

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, batches: list[_Entries], builder: FeatureMatrixBuilder) -> int:
        """Allocate feature keys in emission order and land every entry.

        Every key that carries an entry gets its index in (batch, token)
        order, and each batch goes to the builder as its own chunk, rows
        and values as they stand: the builder's counting sort keeps each
        row's batch order.
        """
        emitted = 0
        for batch in batches:
            used = np.zeros(len(batch.keys), dtype=bool)
            used[batch.token] = True
            lut = np.full(len(batch.keys), -1, dtype=np.int64)
            # repro: allow-loop one space.index call per distinct live key
            for tok in np.flatnonzero(used).tolist():
                lut[tok] = builder.space.index(batch.keys[tok])
            builder.add_rows(batch.row, lut[batch.token], batch.value)
            emitted += len(batch.row)
        return emitted
