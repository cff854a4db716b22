"""Set-at-a-time Algorithm 2 domain pruning over the column store.

:class:`VectorDomainPruner` replays :class:`repro.oracle.DomainPruner`
— the per-cell, string-keyed candidate generator of Algorithm 2 — in code
space, byte-identical output included: cells are grouped by attribute, the
per-candidate best score is a single ``np.maximum.at`` scatter, and the
naive path's rank / truncate / init-reinstatement semantics (score ties
broken lexicographically on the value string, the observed value forced
back after truncation, most-common fallback for empty domains) collapse to
one ``np.lexsort`` per attribute group.

Where τ is tested: ``Pr[v | v'] = joint(v, v') / count(v')`` depends on a
row of the ``(attr, other)`` count table alone, never on the cell, so the
``>= tau`` test runs **once per table row** — the survivors and their
scores are kept as a CSR per ``(attr, other)`` on the pruner
(:meth:`VectorDomainPruner._passing_table`) and a cell expands only the
survivors of its context code, at most ``1 / tau`` of them.  Testing after
the expansion, as the per-cell oracle does, is O(cells × co-occurring
values), and with fixed-pool attributes a context value co-occurs with O(n)
values: quadratic in the rows, for byte-identical domains.  The filter
lives here, not in :meth:`EngineStatistics.conditional_table`, which other
readers consume unfiltered.

Domains leave the pruner as they are computed: a CSR of store codes per
cell (:meth:`VectorDomainPruner.prune`), which the compiler registers as
is; :meth:`VectorDomainPruner.domains` decodes it for string-keyed callers.
The module also hosts the compiler's other per-cell Algorithm 2
scaffolding, vectorized over the same store and the same CSR: entity-group
plurality votes (:class:`EntityVoteModes`, the weak-supervision seed) and
the evidence negative-candidate merge (:func:`merged_negative_domains`).  The naive
implementations live in :mod:`repro.oracle` as the correctness oracles; the
hypothesis suite in ``tests/core/test_vector_domain.py`` pins byte-equality.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DOMAIN_STRATEGIES
from repro.dataset.dataset import Cell
from repro.engine import ops
from repro.inference.variables import CellColumns


def _lex_rank_table(values: list[str]) -> np.ndarray:
    """Code → rank of the code's value in lexicographic value order.

    The naive pruner sorts candidates by ``(-score, value)`` with the
    value compared as a string; ranks let the vectorized path express the
    same tie-break as an integer sort key (one ``sorted`` per attribute,
    not per cell).
    """
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = np.empty(len(values), dtype=np.int64)
    ranks[np.asarray(order, dtype=np.int64)] = np.arange(len(values), dtype=np.int64)
    return ranks


class VectorDomainPruner:
    """Algorithm 2 candidate domains, one attribute group at a time.

    Mirrors :class:`~repro.oracle.DomainPruner`'s constructor knobs
    and ``candidates`` / ``domains`` surface, but prunes whole cell sets
    against the engine's cached code-space count tables instead of
    walking per-cell co-occurrence dicts.
    """

    def __init__(
        self,
        engine,
        tau: float = 0.5,
        max_domain: int = 24,
        strategy: str = "cooccurrence",
    ):
        if strategy not in DOMAIN_STRATEGIES:
            raise ValueError(
                f"unknown domain strategy {strategy!r}; pick one of "
                f"{DOMAIN_STRATEGIES}"
            )
        self.engine = engine
        self.dataset = engine.dataset
        self.tau = tau
        self.max_domain = max_domain
        self.attributes = list(self.dataset.schema.data_attributes)
        self.strategy = strategy
        self._stats = engine.statistics()
        self._lex_ranks: dict[str, np.ndarray] = {}
        self._active: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        #: (attr, other) → CSR of the count-table rows passing τ.
        self._passing: dict[tuple[str, str], tuple[np.ndarray, ...]] = {}
        #: Pruning counters, surfaced as ``grounding_prune_*`` in the
        #: compiled model's size report.
        self.stats: dict[str, int | str] = {
            "prune_path": "vector",
            "prune_cells": 0,
            "prune_candidates": 0,
        }

    # ------------------------------------------------------------------
    def candidates(self, cell: Cell) -> list[str]:
        """Candidate repairs for one cell (Algorithm 2)."""
        return self.domains([cell]).get(cell, [])

    def domains(self, cells: list[Cell]) -> dict[Cell, list[str]]:
        """Candidate domains per cell, skipping cells that prune to nothing:
        :meth:`prune`, decoded."""
        store = self.engine.store
        code_of = {name: code for code, name in enumerate(store.attributes)}
        tids = np.fromiter((cell.tid for cell in cells), np.int64, len(cells))
        attributes = np.fromiter(
            (code_of[cell.attribute] for cell in cells), np.int64, len(cells)
        )
        pruned = CellColumns({a: store.values(a) for a in store.attributes})
        pruned.append(tids, attributes, *self.prune(tids, attributes))
        return {cell: d for cell, d in zip(cells, pruned.domains_of()) if d}

    def prune(
        self, tids: np.ndarray, attribute_codes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Algorithm 2 for the cells ``(tids[i], attributes[attribute_codes[i]])``.

        Returns their candidate domains as a CSR ``(indptr, codes)`` of store
        codes, row ``i`` for cell ``i`` — empty for a cell that prunes to
        nothing.
        """
        tids = np.asarray(tids, dtype=np.int64)
        names = self.engine.store.attributes
        active = self.strategy == "active"
        kernel = self._active_group if active else self._cooccurrence_group
        indptr, codes = _per_attribute(
            attribute_codes, lambda code, rows: kernel(names[code], tids[rows])
        )
        self.stats["prune_cells"] += len(tids)
        self.stats["prune_candidates"] += len(codes)
        return indptr, codes

    # ------------------------------------------------------------------
    # Per-attribute lookup tables (cached across prune calls)
    # ------------------------------------------------------------------
    def _lex_rank(self, attribute: str) -> np.ndarray:
        ranks = self._lex_ranks.get(attribute)
        if ranks is None:
            ranks = _lex_rank_table(self.engine.store.values(attribute))
            self._lex_ranks[attribute] = ranks
        return ranks

    def _active_base(self, attribute: str) -> tuple[np.ndarray, np.ndarray]:
        """The attribute's most-common prefix (codes) and a membership mask."""
        cached = self._active.get(attribute)
        if cached is None:
            counts = self._stats.code_counts(attribute)
            # Stable sort on -counts = Counter.most_common: ties keep
            # first-seen (insertion) order.
            base = np.argsort(-counts, kind="stable")[: self.max_domain]
            member = np.zeros(len(counts), dtype=bool)
            member[base] = True
            cached = (base, member)
            self._active[attribute] = cached
        return cached

    def _passing_table(
        self, attribute: str, other: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows of the ``(attribute, other)`` count table with ``Pr >= tau``.

        ``(indptr, codes, scores)``: for a context code ``g`` of ``other``
        the surviving candidate codes of ``attribute`` are
        ``codes[indptr[g]:indptr[g + 1]]`` with ``Pr[candidate | g]`` in
        the matching ``scores`` slice.  The score is the int64 / int64
        quotient the per-cell oracle computes, so ties at τ fall the same
        way; a context code in the table has count >= 1, so its
        zero-denominator skip can never trigger here.
        """
        key = (attribute, other)
        cached = self._passing.get(key)
        if cached is None:
            indptr, codes, joint = self._stats.conditional_table(attribute, other)
            denominator = self._stats.code_counts(other).astype(np.int64)
            scores = joint / np.repeat(denominator, np.diff(indptr))
            passed = scores >= self.tau
            kept = np.concatenate(([0], np.cumsum(passed)))[indptr]
            cached = (kept, codes[passed], scores[passed])
            self._passing[key] = cached
        return cached

    # ------------------------------------------------------------------
    # Strategy kernels
    # ------------------------------------------------------------------
    # Each kernel returns one attribute's cells as ``(counts, codes)``: the
    # candidate count per cell and the candidates, cell after cell.
    def _active_group(self, attribute: str, tids: np.ndarray):
        """The most-common prefix per cell; an observed value outside it is
        appended, or replaces the last slot of a full prefix."""
        base, member = self._active_base(attribute)
        init = self.engine.store.codes(attribute)[tids].astype(np.int64)
        outside = init >= 0
        outside[outside] = ~member[init[outside]]
        counts = np.full(len(tids), len(base), dtype=np.int64)
        counts[outside] = min(len(base) + 1, self.max_domain)
        codes = np.append(base, -1)[ops.segment_positions(counts)]
        codes[np.cumsum(counts)[outside] - 1] = init[outside]
        return counts, codes

    def _cooccurrence_group(self, attribute: str, tids: np.ndarray):
        """Algorithm 2 for every cell of one attribute at once."""
        store = self.engine.store
        n = len(tids)
        cardinality = max(store.cardinality(attribute), 1)
        init_codes = store.codes(attribute)[tids].astype(np.int64)

        # Candidate stream: (cell, code, score) triples.  The observed
        # value enters with score 1.0 — no conditional can exceed it
        # (joint <= denominator), matching the naive dict's fixed entry.
        observed = np.nonzero(init_codes >= 0)[0]
        cell_parts = [observed]
        code_parts = [init_codes[observed]]
        score_parts = [np.ones(len(observed), dtype=np.float64)]

        for other in self.attributes:
            if other == attribute:
                continue
            context = store.codes(other)[tids].astype(np.int64)
            with_context = np.nonzero(context >= 0)[0]
            if not len(with_context):
                continue
            indptr, cand_codes, cand_scores = self._passing_table(attribute, other)
            given = context[with_context]
            counts = indptr[given + 1] - indptr[given]
            rows = ops.expand_ranges(indptr[given], counts)
            if not len(rows):
                continue
            cell_parts.append(np.repeat(with_context, counts))
            code_parts.append(cand_codes[rows])
            score_parts.append(cand_scores[rows])

        cell_of = np.concatenate(cell_parts)
        codes = np.concatenate(code_parts)
        scores = np.concatenate(score_parts)

        # Best score per (cell, candidate): max is order-independent, so
        # the scatter reproduces the naive dict's "keep the larger" walk.
        keys = cell_of * cardinality + codes
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        best = np.zeros(len(unique_keys), dtype=np.float64)
        np.maximum.at(best, inverse, scores)
        cand_cell = unique_keys // cardinality
        cand_code = unique_keys % cardinality

        # sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])) per cell.
        order = np.lexsort((self._lex_rank(attribute)[cand_code], -best, cand_cell))
        cand_cell = cand_cell[order]
        cand_code = cand_code[order]

        counts = np.bincount(cand_cell, minlength=n)
        within = ops.segment_positions(counts)
        kept_counts = np.minimum(counts, self.max_domain)
        kept_codes = cand_code[within < self.max_domain]

        # `domain[-1] = init` when truncation displaced the observed
        # value: locate each cell's init among the ranked candidates and
        # overwrite the last kept slot when it ranked past the cut.
        init_position = np.full(n, -1, dtype=np.int64)
        is_init = cand_code == init_codes[cand_cell]
        init_position[cand_cell[is_init]] = within[is_init]
        ends = np.cumsum(kept_counts)
        displaced = np.nonzero(init_position >= self.max_domain)[0]
        kept_codes[ends[displaced] - 1] = init_codes[displaced]

        # A cell nothing survived for (no observed value, no context) takes
        # the most frequent value — first max = first-seen code, the Counter
        # tie-break — or nothing when the attribute holds no value at all.
        frequencies = self._stats.code_counts(attribute)
        empty = (kept_counts == 0) & (len(frequencies) > 0)
        counts = kept_counts + empty
        starts = np.cumsum(counts) - counts
        codes = np.empty(int(counts.sum()), dtype=np.int64)
        codes[ops.expand_ranges(starts, kept_counts)] = kept_codes
        if empty.any():
            codes[starts[empty]] = np.argmax(frequencies)
        return counts, codes


class EntityVoteModes:
    """Plurality-vote winners per entity group, one attribute at a time.

    Vectorizes ``NaiveModelCompiler._weak_label``: tuples are
    grouped once by their composite entity key (NULL components exclude a
    tuple, exactly like ``repro.oracle.EntityGroups``), and
    :meth:`modes` returns each queried tuple's group-plurality code for
    one attribute — ``-1`` when the group is smaller than the weak-label
    quorum (3) or casts no votes.  Ties break to the lexicographically
    smallest value, the naive ``max(sorted(votes), key=votes.get)``.
    """

    def __init__(self, engine, entity_attributes: list[str]):
        store = engine.store
        self.engine = engine
        keys = ops.combine_codes([store.codes(attr) for attr in entity_attributes])
        valid = np.nonzero(keys >= 0)[0]
        members = valid[np.argsort(keys[valid], kind="stable")]
        starts, sizes = ops.bucket_extents(keys[members])
        rows = store.num_rows
        self._members = members
        self._group_start = np.full(rows, -1, dtype=np.int64)
        self._group_size = np.zeros(rows, dtype=np.int64)
        if len(members):
            self._group_start[members] = np.repeat(starts, sizes)
            self._group_size[members] = np.repeat(sizes, sizes)

    def modes(
        self,
        attribute: str,
        tids: np.ndarray,
        lex_rank: np.ndarray,
    ) -> np.ndarray:
        """Plurality code per tid for ``attribute`` (-1: no usable vote)."""
        tids = np.asarray(tids, dtype=np.int64)
        out = np.full(len(tids), -1, dtype=np.int64)
        eligible = np.nonzero(
            (self._group_start[tids] >= 0) & (self._group_size[tids] >= 3)
        )[0]
        if not len(eligible):
            return out
        starts = self._group_start[tids[eligible]]
        unique_starts, inverse = np.unique(starts, return_inverse=True)
        group_sizes = self._group_size[self._members[unique_starts]]
        voters = self._members[ops.expand_ranges(unique_starts, group_sizes)]
        group_of = np.repeat(
            np.arange(len(unique_starts), dtype=np.int64),
            group_sizes,
        )
        votes = self.engine.store.codes(attribute)[voters].astype(np.int64)
        cast = votes >= 0
        group_of, votes = group_of[cast], votes[cast]
        modes = np.full(len(unique_starts), -1, dtype=np.int64)
        if len(votes):
            cardinality = max(self.engine.store.cardinality(attribute), 1)
            tally_keys, tally = np.unique(
                group_of * cardinality + votes,
                return_counts=True,
            )
            vote_group = tally_keys // cardinality
            vote_code = tally_keys % cardinality
            order = np.lexsort((lex_rank[vote_code], -tally, vote_group))
            _, first = np.unique(vote_group[order], return_index=True)
            winners = order[first]
            modes[vote_group[winners]] = vote_code[winners]
        out[eligible] = modes[inverse]
        return out


def merged_negative_domains(
    engine,
    stats,
    attribute_codes: np.ndarray,
    indptr: np.ndarray,
    codes: np.ndarray,
    wanted: int,
    max_domain: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Evidence domains extended with frequent negatives, set-at-a-time.

    Replays ``NaiveModelCompiler._with_negatives`` for every evidence cell at
    once, on the CSR of store codes :meth:`VectorDomainPruner.prune` returns:
    instead of a per-cell ``most_common(attr, wanted + len(domain))`` heap
    walk, each attribute is ranked once and every cell probes only its own
    ``wanted + len(domain)`` ranked prefix, appending the first ``wanted``
    non-members in rank order and truncating to ``max_domain``.
    """
    if wanted <= 0:
        return indptr, codes
    store = engine.store

    def extend(code: int, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        ranked = np.argsort(-stats.code_counts(store.attributes[code]), kind="stable")
        cardinality = max(len(ranked), 1)
        own_indptr, members = ops.take_csr(indptr, codes, rows)
        sizes = np.diff(own_indptr)
        cells = np.arange(len(rows), dtype=np.int64)
        member_keys = np.repeat(cells, sizes) * cardinality + members
        widths = np.minimum(sizes + wanted, len(ranked))
        probe_cells = np.repeat(cells, widths)
        probe_codes = ranked[ops.segment_positions(widths)]
        fresh = ~ops.member_mask(probe_cells * cardinality + probe_codes, member_keys)
        # The first `wanted` fresh candidates of each cell, in rank order.
        per_cell = np.bincount(probe_cells[fresh], minlength=len(rows))
        taken = ops.segment_positions(per_cell) < wanted
        appended = np.concatenate(([0], np.cumsum(np.minimum(per_cell, wanted))))
        merged_indptr, merged = ops.merge_csr(
            own_indptr, members, appended, probe_codes[fresh][taken]
        )
        merged_sizes = np.diff(merged_indptr)
        kept = ops.segment_positions(merged_sizes) < max_domain
        return np.minimum(merged_sizes, max_domain), merged[kept]

    return _per_attribute(attribute_codes, extend)


def _per_attribute(attribute_codes: np.ndarray, kernel) -> tuple[np.ndarray, ...]:
    """Candidate lists computed one attribute at a time, as one CSR.

    ``kernel(code, rows)`` returns the rows of one attribute code as
    ``(counts, codes)`` — the candidate count per row and the candidates,
    row after row; the result ``(indptr, codes)`` has them in row order.
    """
    attribute_codes = np.asarray(attribute_codes)
    order = np.argsort(attribute_codes, kind="stable")
    groups, starts = np.unique(attribute_codes[order], return_index=True)
    counts, candidates = [np.zeros(0, np.int64)], [np.zeros(0, np.int64)]
    for code, lo, hi in zip(groups, starts, [*starts[1:], len(order)]):
        group_counts, group_codes = kernel(int(code), order[lo:hi])
        counts.append(group_counts)
        candidates.append(group_codes)
    by_attribute = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return ops.take_csr(by_attribute, np.concatenate(candidates), rank)
