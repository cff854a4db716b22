"""Denial-constraint violation detection.

For each constraint the detector enumerates violating tuples (single-tuple
constraints) or tuple pairs (two-tuple constraints) and appends them as one
columnar block of tuple-id rows to the
:class:`~repro.detect.hypergraph.ConflictHypergraph` — one hyperedge per
row.  Cells named by the constraint's predicates on the violating tuples
become noisy.

Two-tuple constraints are evaluated with a hash join on their equality
predicates — the same strategy DeepDive's grounding queries use — so a
constraint like ``¬(t1.Zip = t2.Zip ∧ t1.City ≠ t2.City)`` costs
O(|D| + Σ_group |group|²) instead of O(|D|²).  Constraints with no
equality predicate fall back to a guarded all-pairs scan.

The join runs vectorized over the coded columns of a grounding
:class:`~repro.engine.Engine`, and every residual predicate — and every
predicate of a single-tuple constraint — is one
:meth:`~repro.constraints.predicates.Predicate.evaluate_coded` mask over
those codes.  The tuple-at-a-time hash join below serves the joins the
engine does not take — join-free constraints and joins over the
``max_engine_pairs`` memory guard — and emits the same pair stream in the
same order (pinned against :class:`repro.oracle.NaiveViolationDetector`).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import CodedValues, Operator, Predicate, TupleRef
from repro.dataset.dataset import Dataset
from repro.detect.base import DetectionResult, ErrorDetector
from repro.detect.hypergraph import ConflictHypergraph
from repro.engine import Engine, engine_for
from repro.obs.logging import get_logger
from repro.obs.trace import deep_span

log = get_logger("detect")

#: Operators whose truth does not change when their operands swap sides.
#: (A binary ``=`` is an equijoin predicate, never a residual.)
_SYMMETRIC_OPS = frozenset({Operator.NEQ, Operator.SIM, Operator.NSIM})

#: The residual mask compacts the surviving pairs once a predicate lets
#: fewer than this share of them through; above it, a boolean ``&`` over
#: every pair is cheaper than gathering an index of the survivors.  Timed
#: by ``benchmarks/residual_mask_cutoff.py`` on 18.7M pairs (2 vCPU), the
#: two cost the same near a 30 % share, whether one or two predicates follow.
_COMPACT_BELOW = 0.25


class QuadraticScanError(ValueError):
    """Raised when a join-free constraint would force a too-large O(n²) scan.

    A ``ValueError``: the constraint set is what the caller can change
    (the server answers it with a 400)."""


def _pair_attributes(dc: DenialConstraint) -> tuple[list[str], list[str]]:
    """The attributes a two-tuple constraint names on (t1, t2)."""
    return sorted(dc.attributes_of(1)), sorted(dc.attributes_of(2))


def _join_sides(pred: Predicate) -> tuple[str, str]:
    """For an equijoin predicate, the attributes bound to (t1, t2)."""
    assert isinstance(pred.right, TupleRef)
    if pred.left.tuple_index == 1:
        return pred.left.attribute, pred.right.attribute
    return pred.right.attribute, pred.left.attribute


def _swap_symmetric(predicates: list[Predicate]) -> bool:
    """Whether swapping t1 and t2 leaves every predicate's truth unchanged:
    each compares ``t1.A`` with ``t2.A`` through a symmetric operator."""
    return all(
        p.is_binary and p.op in _SYMMETRIC_OPS and p.left.attribute == p.right.attribute
        for p in predicates
    )


class ViolationDetector(ErrorDetector):
    """Detects violations of a set of denial constraints.

    Parameters
    ----------
    constraints:
        The denial constraints Σ.
    max_quadratic_tuples:
        Safety bound for constraints lacking an equality join predicate;
        datasets larger than this raise :class:`QuadraticScanError` instead
        of silently running an O(n²) scan.
    max_pairs_per_constraint:
        Cap on recorded violating pairs per constraint (the conflict
        hypergraph needs representative evidence, not every duplicate pair;
        the paper's Physicians run records 5.4M violations, which stays
        within this default).  A constraint that had more is named in
        :attr:`truncated` and logged: cells only its dropped violations
        touch are missing from the noisy set.
    engine:
        The grounding engine whose columnar store runs the equality
        joins; ``None`` builds one over the dataset passed to
        :meth:`detect`.  An engine built over a different dataset raises
        ``ValueError`` there.
    max_engine_pairs:
        Memory guard: joins estimated to materialise more candidate pairs
        than this stream through the tuple-at-a-time join instead (same
        results, O(1) pair memory).
    """

    def __init__(
        self,
        constraints: list[DenialConstraint],
        max_quadratic_tuples: int = 20_000,
        max_pairs_per_constraint: int = 10_000_000,
        engine: Engine | None = None,
        max_engine_pairs: int = 20_000_000,
    ):
        self.constraints = list(constraints)
        self.max_quadratic_tuples = max_quadratic_tuples
        self.max_pairs_per_constraint = max_pairs_per_constraint
        self.engine = engine
        self.max_engine_pairs = max_engine_pairs
        #: Constraints whose violations the last :meth:`detect` cut at
        #: ``max_pairs_per_constraint`` (metric
        #: ``detect.truncated_constraints``).
        self.truncated: list[str] = []

    # ------------------------------------------------------------------
    def detect(self, dataset: Dataset) -> DetectionResult:
        engine = engine_for(dataset, self.engine)
        hypergraph = ConflictHypergraph(self.constraints)
        self.truncated = []
        for dc in self.constraints:
            if dc.is_single_tuple:
                self._detect_single(engine, dataset, dc, hypergraph)
            elif dc.equijoin_predicates:
                self._detect_pairs_engine(engine, dataset, dc, hypergraph)
            else:
                self._detect_pairs(dataset, dc, hypergraph)
        with deep_span("detect.noisy_cells", violations=len(hypergraph)):
            noisy = hypergraph.cells()
        return DetectionResult(noisy_cells=noisy, hypergraph=hypergraph)

    # ------------------------------------------------------------------
    # Single-tuple constraints
    # ------------------------------------------------------------------
    def _detect_single(
        self,
        engine: Engine,
        dataset: Dataset,
        dc: DenialConstraint,
        hypergraph: ConflictHypergraph,
    ) -> None:
        """Every tuple against every predicate, as one mask: each tuple
        plays both positions of the pair mask."""
        tids = np.arange(engine.store.num_rows)
        violates = _residual_mask(engine.store, dc.predicates, tids, tids)
        hypergraph.add_block(dc.name, tids[violates], [sorted(dc.attributes_of(1))])

    # ------------------------------------------------------------------
    # Two-tuple constraints via hash join
    # ------------------------------------------------------------------
    def _detect_pairs(
        self, dataset: Dataset, dc: DenialConstraint, hypergraph: ConflictHypergraph
    ) -> None:
        joins = dc.equijoin_predicates
        if joins:
            pair_iter = self._hash_join_pairs(dataset, joins)
        else:
            pair_iter = self._all_pairs(dataset, dc)
        rows = self._violating_rows(dataset, dc, pair_iter)
        hypergraph.add_block(dc.name, rows, _pair_attributes(dc))

    def _note_truncated(self, dc: DenialConstraint) -> None:
        self.truncated.append(dc.name)
        log.warning(
            "constraint %s has more than max_pairs_per_constraint=%d "
            "violations; the rest are dropped and their cells may not be "
            "flagged noisy",
            dc.name,
            self.max_pairs_per_constraint,
        )

    def _violating_rows(
        self, dataset: Dataset, dc: DenialConstraint, pairs
    ) -> list[tuple[int, int]]:
        """Per-pair evaluation of ``dc``'s residual predicates over ``(t1,
        t2)`` candidate pairs; returns the violating pairs oriented the way
        they violate, up to ``max_pairs_per_constraint``."""
        predicates = dc.residual_predicates
        rows: list[tuple[int, int]] = []
        row_cache = _RowDictCache(dataset)
        for t1, t2 in pairs:
            v1 = row_cache.get(t1)
            v2 = row_cache.get(t2)
            # Order-sensitive predicates (<, >) may only fire with the pair
            # flipped; the join yields each unordered pair once, so check
            # the reverse direction explicitly.
            if all(p.evaluate(v1, v2) for p in predicates):
                row = (t1, t2)
            elif all(p.evaluate(v2, v1) for p in predicates):
                row = (t2, t1)
            else:
                continue
            if len(rows) >= self.max_pairs_per_constraint:
                self._note_truncated(dc)
                break
            rows.append(row)
        return rows

    def _hash_join_pairs(self, dataset: Dataset, joins: list[Predicate]):
        """Yield unordered candidate pairs sharing all join keys."""
        t1_attrs = [_join_sides(p)[0] for p in joins]
        t2_attrs = [_join_sides(p)[1] for p in joins]
        t1_idx = [dataset.schema.index_of(a) for a in t1_attrs]
        t2_idx = [dataset.schema.index_of(a) for a in t2_attrs]
        symmetric = t1_attrs == t2_attrs

        buckets: dict[tuple, list[int]] = defaultdict(list)
        for tid in dataset.tuple_ids:
            row = dataset.row_ref(tid)
            key = tuple(row[i] for i in t2_idx)
            if any(v is None for v in key):
                continue
            buckets[key].append(tid)

        if symmetric:
            for tids in buckets.values():
                # repro: allow-loop streaming join: O(1) pair memory over the engine guard
                for i in range(len(tids)):
                    # repro: allow-loop streaming join: O(1) pair memory over the engine guard
                    for j in range(i + 1, len(tids)):
                        yield tids[i], tids[j]
        else:
            for tid in dataset.tuple_ids:
                row = dataset.row_ref(tid)
                key = tuple(row[i] for i in t1_idx)
                if any(v is None for v in key):
                    continue
                for other in buckets.get(key, ()):
                    if other > tid:  # each unordered pair once
                        yield tid, other
                    elif other < tid:
                        # pair handled when `other` played t1, unless keys
                        # differ asymmetrically; re-check that case
                        other_key = tuple(dataset.row_ref(other)[i] for i in t1_idx)
                        if other_key != key:
                            yield tid, other

    # ------------------------------------------------------------------
    # Two-tuple constraints via the vectorized engine
    # ------------------------------------------------------------------
    def _detect_pairs_engine(
        self,
        engine: Engine,
        dataset: Dataset,
        dc: DenialConstraint,
        hypergraph: ConflictHypergraph,
    ) -> None:
        """Vectorized join + vectorized residual mask.

        Emits exactly the violations (and order) of :meth:`_detect_pairs`.
        """
        join_attrs = [_join_sides(p) for p in dc.equijoin_predicates]
        if engine.backend.estimated_join_pairs(join_attrs) > self.max_engine_pairs:
            # Near-constant join key: materialising the pair arrays would
            # dwarf the vectorization win — stream them instead.
            self._detect_pairs(dataset, dc, hypergraph)
            return
        t1s, t2s = engine.backend.join_pairs(join_attrs)
        if not len(t1s):
            return
        with deep_span(
            "detect.residual_mask", constraint=dc.name, pairs=len(t1s)
        ) as sp:
            rows = self._residual_rows(engine, dc, t1s, t2s)
            if sp is not None:
                sp.attributes["violations"] = len(rows)
        hypergraph.add_block(dc.name, rows, _pair_attributes(dc))

    def _residual_rows(
        self, engine: Engine, dc: DenialConstraint, t1s: np.ndarray, t2s: np.ndarray
    ) -> np.ndarray:
        """The joined pairs that violate ``dc``'s residual predicates, as
        ``(n, 2)`` rows oriented the way they violate: forward when
        ``(t1, t2)`` does, else backward — the naive walk's order of
        checks, as whole columns."""
        residuals, books = dc.residual_predicates, {}
        forward = _residual_mask(engine.store, residuals, t1s, t2s, books)
        violating = forward
        # Order-sensitive predicates (<, >) may fire only with the pair
        # flipped; only pairs the forward check rejects are re-checked, and
        # none when swapping the pair cannot change a residual's truth.
        if not _swap_symmetric(residuals):
            reverse = np.flatnonzero(~forward)
            violating = forward.copy()
            violating[reverse] = _residual_mask(
                engine.store, residuals, t2s[reverse], t1s[reverse], books
            )
        candidates = np.flatnonzero(violating)
        if len(candidates) > self.max_pairs_per_constraint:
            self._note_truncated(dc)
            candidates = candidates[: self.max_pairs_per_constraint]
        fwd = forward[candidates]
        left, right = t1s[candidates], t2s[candidates]
        return np.column_stack(
            (np.where(fwd, left, right), np.where(fwd, right, left))
        )

    def _all_pairs(self, dataset: Dataset, dc: DenialConstraint):
        n = dataset.num_tuples
        if n > self.max_quadratic_tuples:
            raise QuadraticScanError(
                f"constraint {dc.name} has no equality predicate between t1 "
                f"and t2, so detecting its violations would compare every "
                f"pair of the {n} tuples (the limit is "
                f"{self.max_quadratic_tuples}); add an equality predicate "
                f"such as EQ(t1.A,t2.A) to the constraint"
            )
        for t1 in range(n):
            for t2 in range(t1 + 1, n):
                yield t1, t2


def _residual_mask(
    store,
    predicates: list[Predicate],
    rows1: np.ndarray,
    rows2: np.ndarray,
    books: dict[tuple[str, ...], CodedValues] | None = None,
) -> np.ndarray:
    """Conjunction of ``predicates`` over candidate pairs, on codes.

    ``rows1``/``rows2`` are the tuple ids playing positions t1/t2 in this
    evaluation direction (swap them to test the reverse orientation, as
    the naive detector does).  The predicates' masks are conjoined over
    every pair until one lets fewer than ``_COMPACT_BELOW`` of them
    through; the rest run on those survivors alone.  NULL on either side
    makes a predicate False, matching :meth:`Predicate.evaluate`.
    ``books`` memoises each codebook's decoded values across calls.
    """
    books = {} if books is None else books
    rows = {1: rows1, 2: rows2}
    mask = np.ones(len(rows1), dtype=bool)
    for i, pred in enumerate(predicates):
        key = tuple(sorted(pred.attributes))
        book = books.get(key)
        if book is None:
            book = books[key] = CodedValues(
                store.values(key[0])
                if len(key) == 1
                else list(store.union_codebook(*key))
            )
        left = pred.left
        if isinstance(pred.right, TupleRef):
            codes_left, codes_right = store.shared_codes(
                left.attribute, pred.right.attribute
            )
            rhs = codes_right[rows[pred.right.tuple_index]]
        else:
            codes_left, rhs = store.codes(left.attribute), None
        mask &= pred.evaluate_coded(codes_left[rows[left.tuple_index]], rhs, book)
        survivors = np.count_nonzero(mask)
        if survivors >= _COMPACT_BELOW * len(mask) or i + 1 == len(predicates):
            continue
        if survivors:
            alive = np.flatnonzero(mask)
            mask[alive] = _residual_mask(
                store, predicates[i + 1 :], rows1[alive], rows2[alive], books
            )
        break
    return mask


class _RowDictCache:
    """Small LRU-free memo of tuple_dict results for the join inner loop."""

    def __init__(self, dataset: Dataset, capacity: int = 4096):
        self._dataset = dataset
        self._cache: dict[int, dict[str, str | None]] = {}
        self._capacity = capacity

    def get(self, tid: int) -> dict[str, str | None]:
        hit = self._cache.get(tid)
        if hit is None:
            hit = self._dataset.tuple_dict(tid)
            if len(self._cache) >= self._capacity:
                self._cache.clear()
            self._cache[tid] = hit
        return hit
