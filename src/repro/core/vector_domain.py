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

The module also hosts the compiler's other per-cell Algorithm 2
scaffolding, vectorized over the same store: entity-group plurality votes
(:class:`EntityVoteModes`, the weak-supervision seed) and the evidence
negative-candidate merge (:func:`merged_negative_domains`).  The naive
implementations live in :mod:`repro.oracle` as the correctness oracles; the
hypothesis suite in ``tests/core/test_vector_domain.py`` pins byte-equality.
"""

from __future__ import annotations

import numpy as np

from repro.dataset.dataset import Cell
from repro.engine import ops

_STRATEGIES = ("cooccurrence", "active")


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
        if strategy not in _STRATEGIES:
            raise ValueError(
                f"unknown domain strategy {strategy!r}; pick one of {_STRATEGIES}"
            )
        self.engine = engine
        self.dataset = engine.dataset
        self.tau = tau
        self.max_domain = max_domain
        self.attributes = list(self.dataset.schema.data_attributes)
        self.strategy = strategy
        self._stats = engine.statistics()
        self._lex_ranks: dict[str, np.ndarray] = {}
        self._fallbacks: dict[str, list[str]] = {}
        self._active: dict[str, tuple[list[str], np.ndarray]] = {}
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
        """Candidate domains per cell, skipping cells that prune to nothing."""
        pruned: list[list[str]] = [[]] * len(cells)
        groups: dict[str, list[int]] = {}
        for position, cell in enumerate(cells):
            groups.setdefault(cell.attribute, []).append(position)
        for attr, positions in groups.items():
            tids = np.asarray([cells[p].tid for p in positions], dtype=np.int64)
            if self.strategy == "active":
                group = self._active_group(attr, tids)
            else:
                group = self._cooccurrence_group(attr, tids)
            for position, domain in zip(positions, group):
                pruned[position] = domain
        self.stats["prune_cells"] += len(cells)
        self.stats["prune_candidates"] += sum(len(domain) for domain in pruned)
        return {cell: domain for cell, domain in zip(cells, pruned) if domain}

    # ------------------------------------------------------------------
    # Per-attribute lookup tables (cached across prune calls)
    # ------------------------------------------------------------------
    def _lex_rank(self, attribute: str) -> np.ndarray:
        ranks = self._lex_ranks.get(attribute)
        if ranks is None:
            ranks = _lex_rank_table(self.engine.store.values(attribute))
            self._lex_ranks[attribute] = ranks
        return ranks

    def _fallback_domain(self, attribute: str) -> list[str]:
        """The ``most_common(attr, 1)`` singleton for empty prunes."""
        fallback = self._fallbacks.get(attribute)
        if fallback is None:
            counts = self._stats.code_counts(attribute)
            if len(counts):
                # First max = first-seen code, the Counter tie-break.
                value = self.engine.store.values(attribute)[int(np.argmax(counts))]
                fallback = [value]
            else:
                fallback = []
            self._fallbacks[attribute] = fallback
        return fallback

    def _active_base(self, attribute: str) -> tuple[list[str], np.ndarray]:
        """The attribute's most-common prefix and a code-membership mask."""
        cached = self._active.get(attribute)
        if cached is None:
            counts = self._stats.code_counts(attribute)
            cap = self.max_domain
            # Stable sort on -counts = Counter.most_common: ties keep
            # first-seen (insertion) order.
            ranked = np.argsort(-counts, kind="stable")[:cap]
            values = self.engine.store.values(attribute)
            ranked_codes = ranked.tolist()
            base = [values[code] for code in ranked_codes]
            member = np.zeros(len(counts), dtype=bool)
            member[ranked] = True
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
    def _active_group(self, attribute: str, tids: np.ndarray) -> list[list[str]]:
        base, member = self._active_base(attribute)
        values = self.engine.store.values(attribute)
        init_codes = self.engine.store.codes(attribute)[tids].tolist()
        domains = []
        for code in init_codes:
            if code < 0 or member[code]:
                domains.append(list(base))
            elif len(base) >= self.max_domain:
                domains.append(base[:-1] + [values[code]])
            else:
                domains.append(base + [values[code]])
        return domains

    def _cooccurrence_group(self, attribute: str, tids: np.ndarray) -> list[list[str]]:
        """Algorithm 2 for every cell of one attribute at once."""
        store = self.engine.store
        n = len(tids)
        cardinality = max(store.cardinality(attribute), 1)
        init_codes = store.codes(attribute)[tids].astype(np.int64)

        # Candidate stream: (cell, code, score) triples.  The observed
        # value enters with score 1.0 — no conditional can exceed it
        # (joint <= denominator), matching the naive dict's fixed entry.
        cell_parts: list[np.ndarray] = []
        code_parts: list[np.ndarray] = []
        score_parts: list[np.ndarray] = []
        observed = np.nonzero(init_codes >= 0)[0]
        if len(observed):
            cell_parts.append(observed)
            code_parts.append(init_codes[observed])
            score_parts.append(np.ones(len(observed), dtype=np.float64))

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

        if not cell_parts:
            fallback = self._fallback_domain(attribute)
            return [list(fallback) for _ in range(n)]

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

        values = store.values(attribute)
        flat_codes = kept_codes.tolist()
        decoded = [values[code] for code in flat_codes]
        domains = []
        fallback = self._fallback_domain(attribute)
        start = 0
        # repro: allow-loop per-cell output lists, one slice per cell
        for count in kept_counts.tolist():
            if count:
                stop = start + count
                domains.append(decoded[start:stop])
                start = stop
            else:
                domains.append(list(fallback))
        return domains


class EntityVoteModes:
    """Plurality-vote winners per entity group, one attribute at a time.

    Vectorizes ``NaiveModelCompiler._weak_label``: tuples are
    grouped once by their composite entity key (NULL components exclude a
    tuple, exactly like ``FeaturizationContext.entity_group_of``), and
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
    cells: list[Cell],
    domains: list[list[str]],
    wanted: int,
    max_domain: int,
) -> list[list[str]]:
    """Evidence domains extended with frequent negatives, set-at-a-time.

    Replays ``NaiveModelCompiler._with_negatives`` for every evidence cell at
    once: instead of a per-cell ``most_common(attr, wanted + len(domain))``
    heap walk, each attribute is ranked once and every cell probes only
    its own ``wanted + len(domain)`` ranked prefix, appending the first
    ``wanted`` non-members in rank order and truncating to ``max_domain``.
    """
    if wanted <= 0:
        return domains
    out: list[list[str] | None] = [None] * len(cells)
    groups: dict[str, list[int]] = {}
    for position, cell in enumerate(cells):
        groups.setdefault(cell.attribute, []).append(position)
    store = engine.store
    for attribute, positions in groups.items():
        counts = stats.code_counts(attribute)
        ranked = np.argsort(-counts, kind="stable")
        values = store.values(attribute)
        codebook = {value: code for code, value in enumerate(values)}
        cardinality = max(len(values), 1)
        sizes = np.asarray([len(domains[p]) for p in positions], dtype=np.int64)
        widths = np.minimum(sizes + wanted, len(ranked))
        if not int(widths.sum()):
            # Nothing observed to rank: the naive walk appends nothing
            # but still truncates to the domain cap.
            for position in positions:
                out[position] = domains[position][:max_domain]
            continue

        # Membership probe in code space: a domain value absent from the
        # data can never match a ranked (observed) value, so it is
        # dropped from the key set rather than encoded.
        member_cells = np.repeat(np.arange(len(positions), dtype=np.int64), sizes)
        member_codes = np.asarray(
            [codebook.get(value, -1) for p in positions for value in domains[p]],
            dtype=np.int64,
        )
        present = member_codes >= 0
        member_keys = member_cells[present] * cardinality + member_codes[present]

        probe_cells = np.repeat(np.arange(len(positions), dtype=np.int64), widths)
        probe_codes = ranked[ops.segment_positions(widths)]
        probe_keys = probe_cells * cardinality + probe_codes
        fresh = ~np.isin(probe_keys, member_keys)

        # Running count of fresh candidates within each cell's prefix:
        # keep the first `wanted` of them, in rank order.
        running = np.cumsum(fresh)
        prefix_starts = np.concatenate(([0], np.cumsum(widths)[:-1])).astype(np.int64)
        segment_base = np.repeat((running - fresh)[prefix_starts], widths)
        take = fresh & ((running - segment_base) <= wanted)
        appended_counts = np.bincount(probe_cells[take], minlength=len(positions))
        appended_codes = probe_codes[take].tolist()
        appended = [values[code] for code in appended_codes]

        start = 0
        # repro: allow-loop per-cell output-domain merge, one slice per cell
        for position, count in zip(positions, appended_counts.tolist()):
            stop = start + count
            extended = domains[position] + appended[start:stop]
            start = stop
            out[position] = extended[:max_domain]
    return out
