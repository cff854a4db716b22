"""Vectorized featurization: set-at-a-time grounding of the unary rules.

The original HoloClean grounds the inference rules of Section 4.2 as
set-oriented queries inside DeepDive; the naive reproduction replays them
as per-(cell, candidate) Python loops (:mod:`repro.core.featurize`).  With
detection, pruning, pair enumeration and factor tables vectorized, those
loops dominate ``ModelCompiler.compile``; :class:`VectorFeaturizer` is the
equivalent set-at-a-time stage over the engine's
:class:`~repro.engine.store.ColumnStore`:

* candidate grids are gathered per attribute from the variable catalog's
  CSR of candidate codes (one gather per attribute instead of one Python
  walk per cell), and re-coded into a constraint's code space through a
  lookup table;
* minimality and frequency (leave-one-out included) become array
  comparisons against the engine's per-code value counts;
* pair-tied co-occurrence is answered by binary-searching the engine's
  bincount joint tables (:meth:`EngineStatistics.joint_code_counts`);
* source-reliability votes reduce to one group-by over the entity key;
* a two-tuple denial constraint's feature counts, per candidate, the
  violations it completes with the first ``max_dc_feature_partners``
  non-self partners of its join bucket.  The partners are grouped by
  every code the predicates read from them, so the code-space predicate
  evaluator shared with
  :class:`~repro.core.factor_tables.VectorFactorTableBuilder` runs once
  per (candidate, distinct partner group), not once per partner tuple
  (:meth:`VectorFeaturizer._count_dc_violations`); single-tuple
  constraints are one mask per attribute (external-dictionary matches
  run through the naive adapter).

Each family emits batches of ``(var, candidate, key token, value)`` entry
arrays plus the batch's weight keys.  The order contract is local: batches
are appended in :func:`default_featurizers` order, and inside a family a
row's entries appear in the order the naive featurizer's per-candidate
list carries them.  :meth:`VectorFeaturizer._emit` concatenates the
batches as they stand, allocates a feature index for every key that still
carries a non-zero entry — in (batch, token) order — and hands everything
to one :meth:`FeatureMatrixBuilder.add_entries` call; the builder's stable
sort by row is the only sort over the entry set.  Against the naive stack
(the oracle) the matrix has the same rows, the same per-row entry order
and values and the same key *set*; feature indices differ by a
relabelling through the keys, which no consumer reads.

Only entries that can move an answer are emitted: one per (row, weight
key) — a tied weight multiplies the *sum* of its values, so the pair-tied
back-off ``("cooc*",)`` is one entry of the row's summed per-pair values
and the naive adapter sums a repeated key — and none on a one-candidate
variable, whose softmax is ``[1.0]`` whatever its score (``_build_blocks``
cuts the featurized set once, for every family, adapter and worker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import TupleRef
from repro.core.factor_tables import CodeSpace
from repro.core.featurize import (
    ConstraintFeaturizer,
    CooccurFeaturizer,
    FeaturizationContext,
    Featurizer,
    FrequencyFeaturizer,
    MinimalityFeaturizer,
    SourceFeaturizer,
    default_featurizers,
)
from repro.dataset.dataset import Cell
from repro.engine import ops
from repro.inference.features import FeatureMatrixBuilder
from repro.inference.variables import CellColumns, as_columns
from repro.obs.trace import deep_span


@dataclass
class _Entries:
    """One batch of sparse feature entries.

    Array order is the contract: the entries of one (variable,
    candidate) row appear in the order the naive featurizer's
    per-candidate list would carry them.  ``token`` indexes ``keys``
    (batch-local weight keys; equal keys of different batches meet in
    the feature space).
    """

    var: np.ndarray
    cand: np.ndarray
    token: np.ndarray
    value: np.ndarray
    keys: list[Hashable]


@dataclass
class _AttrBlock:
    """All variables of one attribute, columnarised.

    ``flat_*`` arrays have one element per (variable, candidate) row, in
    row order; candidate codes live in the attribute's own dictionary,
    extended in place for candidate values absent from the data.
    """

    attribute: str
    var_idx: np.ndarray
    tids: np.ndarray
    sizes: np.ndarray
    flat_var: np.ndarray
    flat_cand: np.ndarray
    flat_code: np.ndarray
    flat_init: np.ndarray
    values: list[str]  # extended code → value


def _unit_entries(block: _AttrBlock, hit: np.ndarray, key: Hashable) -> _Entries:
    """One entry of value 1.0 under ``key`` on each of the block's ``hit`` rows."""
    n = int(hit.sum())
    return _Entries(
        block.flat_var[hit],
        block.flat_cand[hit],
        np.zeros(n, dtype=np.int64),
        np.ones(n, dtype=np.float64),
        keys=[key],
    )


class VectorFeaturizer:
    """Grounds the whole featurizer stack set-at-a-time over the engine.

    Parameters mirror what :meth:`ModelCompiler.compile` hands the naive
    stack: the shared :class:`FeaturizationContext` (dataset, statistics,
    config, matched relations) and the denial constraints.  The actual
    featurizer composition is taken from :func:`default_featurizers`, so
    toggled-off families behave exactly as in the naive path; families
    without a vectorized implementation run through a naive adapter that
    emits the same kind of batch.
    """

    def __init__(
        self, engine, context: FeaturizationContext, constraints: list[DenialConstraint]
    ):
        self.engine = engine
        self.context = context
        self.constraints = list(constraints)
        self._stats = engine.statistics()
        self._joint_cache: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
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
        (:func:`~repro.inference.variables.as_columns`); entries arrive
        through one batched :meth:`FeatureMatrixBuilder.add_entries`
        call.  Everything but the engine's joint-count lookups is built
        for this call alone.
        """
        self.stats = {}
        self._build_blocks(variables)
        stack = default_featurizers(self.context, self.constraints)
        batches: list[_Entries] = []
        vectorized = naive = 0
        for featurizer in stack:
            with deep_span("featurize.family", family=type(featurizer).__name__) as sp:
                family = self._family(featurizer)
                if family is None:
                    family = [self._naive_entries(featurizer)]
                    naive += 1
                else:
                    vectorized += 1
                batches.extend(family)
                if sp is not None:
                    sp.attributes["entries"] = int(sum(len(b.var) for b in family))
        with deep_span("featurize.emit", batches=len(batches)):
            emitted = self._emit(batches, builder)
        sizes = np.diff(self._catalog.domain_indptr)
        self.stats.update(
            {
                "feature_path": "vector",
                "feature_rows": int(sizes[self._live].sum()),
                "feature_entries": emitted,
                "feature_vector_families": vectorized,
                "feature_naive_families": naive,
            }
        )
        return dict(self.stats)

    def _family(self, featurizer: Featurizer) -> list[_Entries] | None:
        kind = type(featurizer)
        if kind is MinimalityFeaturizer:
            return self._minimality()
        if kind is FrequencyFeaturizer:
            return self._frequency()
        if kind is CooccurFeaturizer:
            return self._cooccur()
        if kind is SourceFeaturizer:
            return self._source()
        if kind is ConstraintFeaturizer:
            return self._constraint(featurizer)
        return None  # external matches and unknown subclasses: naive adapter

    # ------------------------------------------------------------------
    # Shared per-attribute artifacts
    # ------------------------------------------------------------------
    def _build_blocks(self, variables) -> None:
        """Cut the catalog into per-attribute blocks; the one place the
        featurized set is cut: every cell keeps its domain (the code spaces
        read it), blocks and naive adapters see only the variables with two
        or more candidates.  Blocks follow each attribute's first such
        variable, the order the feature keys are allocated in."""
        store = self.engine.store
        catalog = as_columns(variables, store)
        indptr = catalog.domain_indptr
        live = np.flatnonzero(np.diff(indptr) >= 2)
        attrs = catalog.attribute_codes[live]
        _, first = np.unique(attrs, return_index=True)
        self._catalog, self._live = catalog, live
        self._blocks: dict[str, _AttrBlock] = {}
        self._spaces: dict[tuple[str, ...], CodeSpace] = {}
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
                flat_var=np.repeat(var_idx, sizes),
                flat_cand=ops.segment_positions(sizes),
                flat_code=catalog.domain_codes[positions].astype(np.int64),
                flat_init=np.repeat(store.codes(attr)[tids].astype(np.int64), sizes),
                values=catalog.tables[code],
            )

    def _live_specs(self):
        """``(vid, cell, domain)`` per featurized variable, for the naive
        adapters (decoded only when one runs)."""
        rows = self._live
        return zip(
            rows.tolist(), self._catalog.cells_of(rows), self._catalog.domains_of(rows)
        )

    def _space(self, *attrs: str) -> CodeSpace:
        key = tuple(sorted(set(attrs)))
        space = self._spaces.get(key)
        if space is None:
            space = CodeSpace(self.engine.store, key, self._catalog)
            self._spaces[key] = space
        return space

    @staticmethod
    def _cand_codes_in(space: CodeSpace, block: _AttrBlock) -> np.ndarray:
        """The block's flat candidate codes re-coded into ``space``."""
        return space.luts[block.attribute][block.flat_code]

    # ------------------------------------------------------------------
    # Families
    # ------------------------------------------------------------------
    def _minimality(self) -> list[_Entries]:
        out = []
        for block in self._blocks.values():
            hit = block.flat_code == block.flat_init
            if hit.any():
                out.append(_unit_entries(block, hit, ("minimality",)))
        return out

    def _frequency(self) -> list[_Entries]:
        out = []
        for attr, block in self._blocks.items():
            counts = self._stats.code_counts(attr)
            total = int(counts.sum())
            padded = np.zeros(max(len(block.values), 1), dtype=np.int64)
            padded[: len(counts)] = counts
            count = padded[block.flat_code] - (block.flat_code == block.flat_init)
            denom = total - (block.flat_init >= 0).astype(np.int64)
            rf = np.zeros(len(count), dtype=np.float64)
            live = denom > 0
            rf[live] = count[live] / denom[live]
            out.append(
                _Entries(
                    np.repeat(block.flat_var, 2),
                    np.repeat(block.flat_cand, 2),
                    np.tile(np.arange(2, dtype=np.int64), len(rf)),
                    np.repeat(rf, 2),
                    keys=[("freq", attr), ("freq*",)],
                )
            )
        return out

    def _joint_lookup(
        self, attr: str, other: str, a_codes: np.ndarray, o_codes: np.ndarray
    ) -> np.ndarray:
        """Joint counts of ``(attr=a, other=b)`` code pairs (0 if absent)."""
        cached = self._joint_cache.get((attr, other))
        if cached is None:
            table = self._stats.joint_code_counts(attr, other)
            stride = max(self.engine.store.cardinality(other), 1)
            cached = (table[:, 0] * stride + table[:, 1], table[:, 2])
            self._joint_cache[(attr, other)] = cached
        keys, counts = cached
        if not len(keys):
            return np.zeros(len(a_codes), dtype=np.int64)
        stride = max(self.engine.store.cardinality(other), 1)
        query = a_codes * stride + o_codes
        pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        return np.where(keys[pos] == query, counts[pos], 0)

    def _cooccur(self) -> list[_Entries]:
        ctx = self.context
        store = self.engine.store
        schema = ctx.dataset.schema
        tying = ctx.config.cooccur_tying
        smoothing = ctx.config.cooccur_smoothing
        out = []
        for attr, block in self._blocks.items():
            others = [o for o in schema.data_attributes if o != attr]
            # Back-off per row: its per-pair values, summed in schema order.
            backoff = np.zeros(len(block.flat_var), dtype=np.float64)
            for other in others:
                oc = store.codes(other)[block.tids].astype(np.int64)
                if not (oc >= 0).any():
                    continue  # all-NULL context column: nothing conditions
                if tying == "pair":
                    ocounts = self._stats.code_counts(other)
                    denom = np.where(oc >= 0, ocounts[np.maximum(oc, 0)] - 1, 0)
                    keep = denom > 0
                else:
                    keep = oc >= 0
                if not keep.any():
                    continue
                keep_flat = np.repeat(keep, block.sizes)
                fvar = block.flat_var[keep_flat]
                fcand = block.flat_cand[keep_flat]
                fcode = block.flat_code[keep_flat]
                focode = np.repeat(oc, block.sizes)[keep_flat]
                if tying == "pair":
                    joint = self._joint_lookup(attr, other, fcode, focode) - (
                        fcode == block.flat_init[keep_flat]
                    )
                    hit = joint > 0
                    if not hit.any():
                        continue
                    fdenom = np.repeat(denom, block.sizes)[keep_flat]
                    p = joint[hit] / (fdenom[hit] + smoothing)
                    backoff[np.flatnonzero(keep_flat)[hit]] += p
                    out.append(
                        _Entries(
                            fvar[hit],
                            fcand[hit],
                            np.zeros(len(p), dtype=np.int64),
                            p,
                            keys=[("cooc", attr, other)],
                        )
                    )
                else:  # "value": the paper-literal w(d, f) tying
                    card_o = max(store.cardinality(other), 1)
                    enc = fcode * card_o + focode
                    uniq, token = np.unique(enc, return_inverse=True)
                    av, ov = block.values, store.values(other)
                    keys = [
                        ("cooc", attr, av[e // card_o], other, ov[e % card_o])
                        # repro: allow-loop per-unique-code key labels, not per-row
                        for e in uniq.tolist()
                    ]
                    out.append(
                        _Entries(
                            fvar,
                            fcand,
                            token.astype(np.int64),
                            np.ones(len(fvar), dtype=np.float64),
                            keys=keys,
                        )
                    )
            if backoff.any():  # rows with a zero sum are dropped on emission
                out.append(
                    _Entries(
                        block.flat_var,
                        block.flat_cand,
                        np.zeros(len(backoff), dtype=np.int64),
                        backoff,
                        keys=[("cooc*",)],
                    )
                )
        return out

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
            fvar = block.flat_var[keep_flat]
            fcand = block.flat_cand[keep_flat]
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
                    np.repeat(fvar, hits),
                    np.repeat(fcand, hits),
                    us[src_pos],
                    counts[src_pos].astype(np.float64),
                    keys=src_keys,
                )
            )
        return out

    # ------------------------------------------------------------------
    # Denial-constraint features (Section 5.2)
    # ------------------------------------------------------------------
    def _constraint(self, featurizer: ConstraintFeaturizer) -> list[_Entries]:
        out: list[_Entries] = []
        for dc in [*featurizer.constraints, *featurizer.single_constraints]:
            if dc.is_single_tuple:
                out.extend(self._single_dc(dc))
            else:
                out.extend(self._pair_dc(dc))
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
                        return self._cand_codes_in(space, block)
                    fixed = space.fixed(ref.attribute)[block.tids]
                    return np.repeat(fixed, block.sizes)

                lhs = operand(pred.left)
                rhs = operand(pred.right) if isinstance(pred.right, TupleRef) else None
                term = pred.evaluate_coded(lhs, rhs, space)
                violated = term if violated is None else violated & term
                if not violated.any():
                    break
            if violated is not None and violated.any():
                out.append(_unit_entries(block, violated, ("dc", dc.name)))
        return out

    def _pair_dc(self, dc: DenialConstraint) -> list[_Entries]:
        cap_value = self.context.config.dc_feature_cap
        out = []
        for attr, block in self._blocks.items():
            if attr not in dc.attributes:
                continue
            totals = np.zeros(len(block.flat_var), dtype=np.int64)
            for own_pos in (1, 2):
                if attr not in dc.attributes_of(own_pos):
                    continue
                totals += self._count_dc_violations(dc, own_pos, block)
            hit = totals > 0
            if not hit.any():
                continue
            value = np.minimum(totals[hit].astype(np.float64), cap_value) / cap_value
            out.append(
                _Entries(
                    block.flat_var[hit],
                    block.flat_cand[hit],
                    np.zeros(len(value), dtype=np.int64),
                    value,
                    keys=[("dc", dc.name)],
                )
            )
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
                own_cols.append(self._cand_codes_in(space, block))
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

        Mirrors :meth:`ConstraintFeaturizer._count_violations`: partners
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
                    return self._cand_codes_in(space, block)[rows]
                return space.fixed(ref.attribute)[flat_tids[rows]]

            lhs = operand(pred.left)
            rhs = operand(pred.right) if isinstance(pred.right, TupleRef) else None
            violated &= pred.evaluate_coded(lhs, rhs, space)
            if not violated.any():
                return np.zeros(n_flat, dtype=np.int64)
        counts = np.bincount(rows[violated], weight[violated], minlength=n_flat)
        return counts.astype(np.int64)

    # ------------------------------------------------------------------
    # Naive adapter (external matches, unknown featurizer subclasses)
    # ------------------------------------------------------------------
    def _naive_entries(self, featurizer: Featurizer) -> _Entries:
        var_l: list[int] = []
        cand_l: list[int] = []
        token_l: list[int] = []
        value_l: list[float] = []
        tokens: dict[Hashable, int] = {}
        keys: list[Hashable] = []
        for vid, cell, domain in self._live_specs():
            per_candidate = featurizer.features(cell, domain)
            for ci, entries in enumerate(per_candidate):
                merged: dict[Hashable, float] = {}  # repeats land as their sum
                for key, value in entries:
                    merged[key] = merged.get(key, 0.0) + value
                for key, value in merged.items():
                    tok = tokens.get(key)
                    if tok is None:
                        tok = len(keys)
                        tokens[key] = tok
                        keys.append(key)
                    var_l.append(vid)
                    cand_l.append(ci)
                    token_l.append(tok)
                    value_l.append(value)
        return _Entries(
            np.asarray(var_l, dtype=np.int64),
            np.asarray(cand_l, dtype=np.int64),
            np.asarray(token_l, dtype=np.int64),
            np.asarray(value_l, dtype=np.float64),
            keys=keys,
        )

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def _emit(self, batches: list[_Entries], builder: FeatureMatrixBuilder) -> int:
        """Allocate feature keys in emission order and land every entry.

        The batches are concatenated as they stand; every key that still
        carries a non-zero entry gets its index in (batch, token) order,
        and one :meth:`add_entries` call hands the entries over — the
        builder's stable sort by row keeps each row's batch order.
        """
        batches = [b for b in batches if len(b.var)]
        if not batches:
            return 0
        offsets = np.cumsum([0] + [len(b.keys) for b in batches])
        token = np.concatenate(
            [b.token + offset for b, offset in zip(batches, offsets)]
        )
        value = np.concatenate([b.value for b in batches])
        live = value != 0.0  # the naive loop drops zero-valued entries
        token, value = token[live], value[live]
        if not len(token):
            return 0
        var = np.concatenate([b.var for b in batches])[live]
        cand = np.concatenate([b.cand for b in batches])[live]

        all_keys: list[Hashable] = [k for b in batches for k in b.keys]
        used = np.zeros(len(all_keys), dtype=bool)
        used[token] = True
        lut = np.full(len(all_keys), -1, dtype=np.int64)
        # repro: allow-loop one space.index call per distinct live key
        for tok in np.flatnonzero(used).tolist():
            lut[tok] = builder.space.index(all_keys[tok])
        builder.add_entries(var, cand, lut[token], value)
        return len(token)
