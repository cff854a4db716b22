"""Batched construction of DC factor tables (Algorithm 1, set-at-a-time).

Algorithm 1 grounds one factor per tuple of a single-tuple constraint and
per enumerated tuple pair of a two-tuple one; its table spans the query
variables among the cells the constraint reads.  The original system
grounds these tables *inside the DBMS* (DeepDive-style, Section 5 of the
paper); :class:`VectorFactorTableBuilder` is the equivalent stage here.
Each constraint's predicates are bound once to code spaces over the
engine's :class:`~repro.engine.store.ColumnStore`
(:mod:`repro.engine.space`).  Each ``(left, right)`` chunk — a chunk of the
pair enumerator's stream, or a single-tuple constraint's tuples paired
with themselves — is then grouped by (variable-pattern, domain-shape),
candidate-code grids are broadcast per group, and every ``±1`` table falls
out of :meth:`~repro.constraints.predicates.Predicate.evaluate_coded` over
those grids — similarity included, once per distinct value pair.

The output is byte-identical to the tuple-at-a-time reference
(:class:`repro.oracle.NaiveModelCompiler`, one
:meth:`DenialConstraint.violates` call per table cell): same factor
tables, same variable-id order, same emission order, same skip accounting
(no-variable pairs, ``max_factor_table`` caps, constant tables).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Const, Predicate
from repro.dataset.dataset import Cell, Dataset
from repro.engine import ops
from repro.engine.space import CodeSpace, CodeSpaces
from repro.inference.factor_graph import FactorColumns
from repro.inference.variables import CellColumns, VariableBlock, as_columns
from repro.obs.trace import deep_span

#: Upper bound on the cells of one broadcast evaluation block; groups
#: with more pairs than fit are evaluated in consecutive sub-blocks.
_BLOCK_CELLS = 1 << 22


@dataclass
class _Step:
    """One predicate of one evaluation direction, bound to grid slots.

    A slot is a ``(position, attribute)`` value source of the pair's
    candidate grid; the backward direction (the naive walk's
    ``violates(values2, values1)``) swaps every reference's position.
    ``right_slot`` is ``None`` against a constant.
    """

    predicate: Predicate
    left_slot: tuple[int, str]
    right_slot: tuple[int, str] | None
    space: CodeSpace


@dataclass
class _Plan:
    """A constraint compiled for batched table construction.  A
    single-tuple constraint has position-1 slots only and no backward
    direction."""

    axis_slots: list[tuple[int, str]]
    forward: list[_Step]
    backward: list[_Step]


class VectorFactorTableBuilder:
    """Builds all factor tables of a pair chunk in batched NumPy.

    Parameters mirror what the naive per-pair loop reads: the grounded
    ``variables`` block (axis variables and their ids), the *query*
    candidate domains (exactly the domains the variables were added
    with: a catalog, or a ``Mapping[Cell, list[str]]`` encoded once — see
    :func:`~repro.inference.variables.as_columns`), the
    ``max_factor_table`` cap and the constant factor weight; ``spaces``,
    when given, are that catalog's code spaces, shared with the pair
    enumerator so each candidate index is built once.  One builder
    serves every constraint of a compile; code spaces, axis lookups and
    compiled plans are cached across chunks and constraints.
    """

    def __init__(
        self,
        engine,
        dataset: Dataset,
        variables: VariableBlock,
        domains: CellColumns | Mapping[Cell, list[str]],
        max_table_cells: int,
        weight: float,
        spaces: CodeSpaces | None = None,
    ):
        self.engine = engine
        self.dataset = dataset
        self.variables = variables
        self.max_table_cells = max_table_cells
        self.weight = weight
        self._space = spaces or CodeSpaces(
            engine.store, as_columns(domains, engine.store)
        )
        self._plans: dict[DenialConstraint, _Plan] = {}
        self._axes: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        #: Table-construction counters surfaced as ``grounding_table_*``:
        #: pairs consumed (a single-tuple constraint's tuples included),
        #: broadcast groups evaluated, tables emitted, and the skip
        #: breakdown the naive loop only reports in aggregate.
        self.stats = {
            "pairs": 0,
            "groups": 0,
            "tables": 0,
            "skipped_no_vars": 0,
            "skipped_cap": 0,
            "skipped_constant": 0,
        }

    # ------------------------------------------------------------------
    @staticmethod
    def supports(dc: DenialConstraint) -> bool:
        """Whether the constraint is grounded over enumerated pairs
        (:meth:`ground_chunk`): every two-tuple one is.  A single-tuple
        constraint is grounded here too, over its own tuples
        (:meth:`ground_tuples`), but is not pair-enumerated."""
        return not dc.is_single_tuple

    # ------------------------------------------------------------------
    # Cached artifacts
    # ------------------------------------------------------------------
    def _axis_info(self, attr: str) -> tuple[np.ndarray, np.ndarray]:
        """Per-tuple query-variable id and domain size for one attribute.

        ``-1`` marks cells without a query variable — evidence cells and
        unpruned cells alike are folded into the table as fixed context,
        exactly the naive loop's ``info is None or info.is_evidence``
        test.
        """
        cached = self._axes.get(attr)
        if cached is None:
            n = self.dataset.num_tuples
            vids = np.full(n, -1, dtype=np.int64)
            sizes = np.full(n, -1, dtype=np.int64)
            block = self.variables
            of_attr = block.attribute_codes == block.attribute_code(attr)
            ids = np.flatnonzero(~block.is_evidence & of_attr)
            vids[block.tids[ids]] = ids
            sizes[block.tids[ids]] = np.diff(block.domain_indptr)[ids]
            cached = self._axes[attr] = (vids, sizes)
        return cached

    def _plan_for(self, dc: DenialConstraint) -> _Plan:
        plan = self._plans.get(dc)
        if plan is None:
            plan = self._plans[dc] = self._compile(dc)
        return plan

    def _compile(self, dc: DenialConstraint) -> _Plan:
        """Bind each predicate to grid slots in both evaluation orders.

        Axis slots follow the naive ``cell_axes`` order exactly: position
        1's attributes sorted, then position 2's — table dimensions and
        ``var_ids`` come out identical.
        """
        positions = (1,) if dc.is_single_tuple else (1, 2)
        axis_slots = [(p, a) for p in positions for a in sorted(dc.attributes_of(p))]
        forward: list[_Step] = []
        backward: list[_Step] = []
        for predicate in dc.predicates:
            left = (predicate.left.tuple_index, predicate.left.attribute)
            right = None
            if not isinstance(predicate.right, Const):
                right = (predicate.right.tuple_index, predicate.right.attribute)
            space = self._space(*predicate.attributes)
            forward.append(_Step(predicate, left, right, space))
            if len(positions) == 2:
                swapped = None if right is None else (3 - right[0], right[1])
                backward.append(
                    _Step(predicate, (3 - left[0], left[1]), swapped, space)
                )
        return _Plan(axis_slots=axis_slots, forward=forward, backward=backward)

    # ------------------------------------------------------------------
    # Chunk grounding
    # ------------------------------------------------------------------
    def ground_tuples(self, dc: DenialConstraint) -> tuple[FactorColumns, int]:
        """All factors of a single-tuple constraint, as :meth:`ground_chunk`
        returns them: one candidate factor per tuple with a query variable
        on an attribute the constraint reads, each tuple the "pair" of
        itself, in ascending tuple id."""
        touched = np.zeros(self.dataset.num_tuples, dtype=bool)
        for attr in sorted(dc.attributes_of(1)):
            touched |= self._axis_info(attr)[0] >= 0
        tids = np.flatnonzero(touched)
        return self.ground_chunk(dc, tids, tids)

    def ground_chunk(
        self, dc: DenialConstraint, left: np.ndarray, right: np.ndarray
    ) -> tuple[FactorColumns, int]:
        """All factors of one ``(left, right)`` pair chunk, in pair order.

        Returns ``(factors, skipped)`` where ``factors`` holds the
        chunk's factors as columns in pair order (what the naive loop's
        sequential ``add_factor`` calls produce) and ``skipped`` counts
        the pairs that ground no factor — no query variables, table over
        the cap, or a constant table.
        """
        with deep_span(
            "ground.factor_chunk", constraint=dc.name, pairs=len(left)
        ) as sp:
            plan = self._plan_for(dc)
            num_pairs = len(left)
            self.stats["pairs"] += num_pairs
            tids_of = {
                1: np.asarray(left, dtype=np.int64),
                2: np.asarray(right, dtype=np.int64),
            }
            key_cols = []
            slot_vids = []
            for pos, attr in plan.axis_slots:
                vids, sizes = self._axis_info(attr)
                tids = tids_of[pos]
                key_cols.append(sizes[tids])
                slot_vids.append(vids[tids])

            blocks = []
            for rep, members in self._shape_groups(key_cols):
                sizes_rep = [int(col[rep]) for col in key_cols]
                axis_ids = [s for s, d in enumerate(sizes_rep) if d >= 0]
                group_pairs = len(members)
                if not axis_ids:
                    self.stats["skipped_no_vars"] += group_pairs
                    continue
                shape = tuple(sizes_rep[s] for s in axis_ids)
                cells = int(np.prod(shape))
                if cells > self.max_table_cells:
                    self.stats["skipped_cap"] += group_pairs
                    continue
                if cells == 0:
                    # An empty candidate domain: the empty table is trivially
                    # constant (the naive all-ones test succeeds vacuously).
                    self.stats["skipped_constant"] += group_pairs
                    continue
                self.stats["groups"] += 1
                block = max(1, _BLOCK_CELLS // cells)
                for lo in range(0, group_pairs, block):
                    blocks += self._ground_block(
                        plan,
                        tids_of,
                        members[lo : lo + block],
                        axis_ids,
                        shape,
                        slot_vids,
                    )

            # Each block's pairs ascend; one permutation interleaves them.
            factors = FactorColumns.concat(
                [
                    FactorColumns.rows(vids, tables, self.weight, dc.name)
                    for _, vids, tables in blocks
                ]
            )
            positions = np.concatenate(
                [np.empty(0, np.int64)] + [rows for rows, _, _ in blocks]
            )
            factors = factors.take(np.argsort(positions))
            self.stats["tables"] += len(factors)
            if sp is not None:
                sp.attributes["factors"] = len(factors)
            return factors, num_pairs - len(factors)

    @staticmethod
    def _shape_groups(key_cols: list[np.ndarray]):
        """Group chunk positions by their per-slot domain-size signature.

        Yields ``(representative, member_positions)`` per distinct
        signature; member positions stay ascending, so per-group results
        land back in pair order.
        """
        if not key_cols:
            return
        num_pairs = len(key_cols[0])
        base = max(int(col.max(initial=-1)) for col in key_cols) + 2
        if len(key_cols) * np.log2(max(base, 2)) > 62:
            stacked = np.stack(key_cols, axis=1)
            _, first, inverse = np.unique(
                stacked, axis=0, return_index=True, return_inverse=True
            )
        else:
            encoded = np.zeros(num_pairs, dtype=np.int64)
            for col in key_cols:
                encoded = encoded * base + (col + 1)
            _, first, inverse = np.unique(
                encoded, return_index=True, return_inverse=True
            )
        order = np.argsort(inverse, kind="stable")
        boundaries = np.concatenate(
            ([0], np.nonzero(np.diff(inverse[order]))[0] + 1, [num_pairs])
        )
        # repro: allow-loop per-group walk over O(groups) boundaries, not per-row
        for g in range(len(first)):
            yield int(first[g]), order[boundaries[g] : boundaries[g + 1]]

    def _ground_block(
        self,
        plan: _Plan,
        tids_of: dict[int, np.ndarray],
        idx: np.ndarray,
        axis_ids: list[int],
        shape: tuple[int, ...],
        slot_vids: list[np.ndarray],
    ) -> list[tuple]:
        """Evaluate one same-shape block of pairs: ``[(pair positions, vid
        rows, flat tables)]`` of the factors it emits, or ``[]``."""
        block_pairs = len(idx)
        ndim = len(shape)
        axis_rank = {plan.axis_slots[s]: k for k, s in enumerate(axis_ids)}
        grids: dict[tuple[tuple[int, str], tuple[str, ...]], np.ndarray] = {}

        def grid_for(slot: tuple[int, str], space: CodeSpace) -> np.ndarray:
            key = (slot, space.attributes)
            grid = grids.get(key)
            if grid is None:
                pos, attr = slot
                tids = tids_of[pos][idx]
                rank = axis_rank.get(slot)
                if rank is None:
                    grid = space.fixed(attr)[tids].reshape((block_pairs,) + (1,) * ndim)
                else:
                    csr = space.csr(attr)
                    matrix = ops.gather_csr_rows(
                        csr.indptr, csr.codes, tids, shape[rank]
                    )
                    grid = matrix.reshape(
                        (block_pairs,)
                        + tuple(shape[rank] if k == rank else 1 for k in range(ndim))
                    )
                grids[key] = grid
            return grid

        def eval_direction(steps: list[_Step]) -> np.ndarray | None:
            result: np.ndarray | None = None
            for step in steps:
                lhs = grid_for(step.left_slot, step.space)
                rhs = (
                    None
                    if step.right_slot is None
                    else grid_for(step.right_slot, step.space)
                )
                term = step.predicate.evaluate_coded(lhs, rhs, step.space)
                result = term if result is None else result & term
                if not result.any():
                    return None  # conjunction can never fire in this block
            return result

        forward = eval_direction(plan.forward)
        backward = eval_direction(plan.backward)
        if forward is None and backward is None:
            self.stats["skipped_constant"] += block_pairs
            return []
        if forward is None:
            violated = backward
        elif backward is None:
            violated = forward
        else:
            violated = forward | backward
        violated = np.broadcast_to(violated, (block_pairs,) + shape)

        flat = violated.reshape(block_pairs, -1)
        cells = flat.shape[1]
        violation_counts = flat.sum(axis=1)
        constant = (violation_counts == 0) | (violation_counts == cells)
        self.stats["skipped_constant"] += int(constant.sum())
        rows = idx[~constant]
        vids = np.stack([slot_vids[s][rows] for s in axis_ids], axis=1)
        tables = np.where(flat[~constant], np.int8(-1), np.int8(1))
        return [(rows, vids, tables)]
