"""Denial-constraint violation detection.

For each constraint the detector enumerates violating tuples (single-tuple
constraints) or tuple pairs (two-tuple constraints) and appends them as one
columnar block of tuple-id rows to the
:class:`~repro.detect.hypergraph.ConflictHypergraph` — one hyperedge per
row.  Cells named by the constraint's predicates on the violating tuples
become noisy.

Every two-tuple constraint runs one join in the grounding
:class:`~repro.engine.Engine`: a hash join on its equality predicates —
the same strategy DeepDive's grounding queries use — so a constraint like
``¬(t1.Zip = t2.Zip ∧ t1.City ≠ t2.City)`` costs O(|D| + Σ_group
|group|²) instead of O(|D|²).  A constraint with no equality predicate is
one bucket of every tuple, behind the ``max_quadratic_tuples`` guard.
:meth:`~repro.engine.backend.Backend.join_chunks` hands the candidate
pairs over in bounded chunks, and every residual predicate — and every
predicate of a single-tuple constraint — is one
:meth:`~repro.constraints.predicates.Predicate.evaluate_coded` mask over
a chunk's codes.  The concatenated output is the tuple-at-a-time
:class:`repro.oracle.NaiveViolationDetector`'s, order included.
"""

from __future__ import annotations

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
    """

    def __init__(
        self,
        constraints: list[DenialConstraint],
        max_quadratic_tuples: int = 20_000,
        max_pairs_per_constraint: int = 10_000_000,
        engine: Engine | None = None,
    ):
        self.constraints = list(constraints)
        self.max_quadratic_tuples = max_quadratic_tuples
        self.max_pairs_per_constraint = max_pairs_per_constraint
        self.engine = engine
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
            else:
                self._detect_pairs(engine, dataset, dc, hypergraph)
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
    # Two-tuple constraints
    # ------------------------------------------------------------------
    def _detect_pairs(
        self,
        engine: Engine,
        dataset: Dataset,
        dc: DenialConstraint,
        hypergraph: ConflictHypergraph,
    ) -> None:
        """The engine's join, chunk by chunk, through the residual mask.

        The first ``max_pairs_per_constraint`` violations in stream order
        are kept, across chunk boundaries.
        """
        join_attrs = [_join_sides(p) for p in dc.equijoin_predicates]
        if not join_attrs:
            self._check_quadratic(dc, dataset.num_tuples)
        books: dict[tuple[str, ...], CodedValues] = {}
        kept, room = [], self.max_pairs_per_constraint
        for t1s, t2s in engine.backend.join_chunks(join_attrs):
            with deep_span(
                "detect.residual_mask", constraint=dc.name, pairs=len(t1s)
            ) as sp:
                rows = self._residual_rows(engine, dc, t1s, t2s, books)
                over = len(rows) > room
                rows = rows[:room]
                if sp is not None:
                    sp.attributes["violations"] = len(rows)
            kept.append(rows)
            room -= len(rows)
            if over:
                self._note_truncated(dc)
                break
        if kept:
            hypergraph.add_block(dc.name, np.concatenate(kept), _pair_attributes(dc))

    def _check_quadratic(self, dc: DenialConstraint, n: int) -> None:
        if n > self.max_quadratic_tuples:
            raise QuadraticScanError(
                f"constraint {dc.name} has no equality predicate between t1 "
                f"and t2, so detecting its violations would compare every "
                f"pair of the {n} tuples (the limit is "
                f"{self.max_quadratic_tuples}); add an equality predicate "
                f"such as EQ(t1.A,t2.A) to the constraint"
            )

    def _note_truncated(self, dc: DenialConstraint) -> None:
        self.truncated.append(dc.name)
        log.warning(
            "constraint %s has more than max_pairs_per_constraint=%d "
            "violations; the rest are dropped and their cells may not be "
            "flagged noisy",
            dc.name,
            self.max_pairs_per_constraint,
        )

    def _residual_rows(
        self,
        engine: Engine,
        dc: DenialConstraint,
        t1s: np.ndarray,
        t2s: np.ndarray,
        books: dict[tuple[str, ...], CodedValues],
    ) -> np.ndarray:
        """The joined pairs that violate ``dc``'s residual predicates, as
        ``(n, 2)`` rows oriented the way they violate: forward when
        ``(t1, t2)`` does, else backward — the naive walk's order of
        checks, as whole columns.  ``books`` is the constraint's codebook
        memo, shared by its chunks."""
        residuals = dc.residual_predicates
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
        fwd = forward[candidates]
        left, right = t1s[candidates], t2s[candidates]
        return np.column_stack(
            (np.where(fwd, left, right), np.where(fwd, right, left))
        )


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
