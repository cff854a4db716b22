"""Holistic data cleaning (Chu, Ilyas, Papotti — ICDE 2013) [12].

The strongest constraint-only baseline in the paper's evaluation.  The
published algorithm builds the conflict hypergraph over denial-constraint
violations, picks an (approximate) minimum vertex cover of cells to
change, and determines each chosen cell's new value so that violations
are resolved with *minimal* change to the database.  The original uses a
QP solver (Gurobi) for numeric value determination; for the categorical
repairs exercised here, value determination reduces to choosing among the
values suggested by the violated constraints' predicates, which we solve
exactly by local search.

The method's characteristic behaviour — good on datasets dominated by
clean duplicates (Hospital, Physicians), near-zero precision when the
majority of cells are noisy (Flights) or errors are random (Food) —
follows directly from minimality, as Section 1 of the HoloClean paper
argues.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from repro.baselines.base import Deadline, MethodResult, RepairMethod
from repro.constraints.denial import DenialConstraint
from repro.constraints.predicates import Operator, TupleRef
from repro.dataset.dataset import Cell, Dataset
from repro.detect.violations import ViolationDetector


class HolisticRepair(RepairMethod):
    """Minimality-driven repair over denial constraints.

    Parameters
    ----------
    constraints:
        Denial constraints to enforce.
    max_rounds:
        Detection/repair rounds; the algorithm stops earlier once no
        violations remain.
    time_budget:
        Optional seconds budget (raises :class:`MethodTimeout`).
    """

    name = "Holistic"

    def __init__(self, constraints: list[DenialConstraint],
                 max_rounds: int = 5, use_fresh_values: bool = True,
                 time_budget: float | None = None):
        self.constraints = list(constraints)
        self.max_rounds = max_rounds
        self.use_fresh_values = use_fresh_values
        self.time_budget = time_budget
        self._fresh_counter = 0

    # ------------------------------------------------------------------
    def run(self, dataset: Dataset) -> MethodResult:
        deadline = Deadline(self.time_budget)
        working = dataset.copy()
        detector = ViolationDetector(self.constraints)
        all_repairs: dict[Cell, str] = {}

        for _round in range(self.max_rounds):
            deadline.check(self.name)
            detection = detector.detect(working)
            if not len(detection.hypergraph):
                break
            changed = self._repair_round(working, detection, deadline)
            for cell, value in changed.items():
                all_repairs[cell] = value
            if not changed:
                break  # no repair reduced violations; stop (minimality)

        # Drop no-op chains (repairs that ended back at the initial value).
        final_repairs = {
            cell: working.cell_value(cell)
            for cell in all_repairs
            if working.cell_value(cell) != dataset.cell_value(cell)
        }
        return MethodResult(repaired=working, repairs=final_repairs,
                            runtime=deadline.elapsed)

    # ------------------------------------------------------------------
    def _repair_round(self, working: Dataset, detection,
                      deadline: Deadline) -> dict[Cell, str]:
        """One vertex-cover round: fix high-degree cells first."""
        violations_of: dict[Cell, list] = defaultdict(list)
        for violation in detection.hypergraph.violations:
            for cell in violation.cells:
                violations_of[cell].append(violation)

        # Greedy approximate vertex cover: descending violation degree.
        ordered = sorted(violations_of,
                         key=lambda c: (-len(violations_of[c]), c))
        resolved: set[int] = set()
        changed: dict[Cell, str] = {}
        for cell in ordered:
            deadline.check(self.name)
            pending = [v for v in violations_of[cell]
                       if id(v) not in resolved]
            if not pending:
                continue  # this cell's conflicts were already covered
            # Value determination uses the cell's FULL violation context
            # (the repair context of the published algorithm), not just
            # the still-unresolved part — contradictions must be visible
            # regardless of processing order.
            new_value = self._determine_value(working, cell,
                                              violations_of[cell])
            if new_value is None:
                continue
            working.set_value(cell.tid, cell.attribute, new_value)
            changed[cell] = new_value
            for violation in pending:
                resolved.add(id(violation))
        return changed

    # ------------------------------------------------------------------
    def _determine_value(self, working: Dataset, cell: Cell,
                         violations: list) -> str | None:
        """Determine the repair value from the cell's violation context.

        Following the published algorithm's value determination:
        equality-consequent predicates (``t1.A != t2.A`` in the DC body,
        i.e. an FD's right-hand side) *demand* that the cell adopt the
        partner's value.  When all demands agree, the repair is that
        value (minimal change).  When the demands are **contradictory** —
        two partners require two different values — no existing value can
        satisfy the repair context, and the algorithm falls back to a
        *fresh value* (a new constant outside the active domain).  Fresh
        values break the violations but can never match the ground truth;
        on conflict-heavy data such as Flights this is why Holistic
        "did not perform any correct repairs" (Table 3).
        """
        current = working.cell_value(cell)
        suggestions: Counter[str] = Counter()
        for violation in violations:
            dc = self._constraint(violation.constraint_name)
            if dc is None:
                continue
            partner_tids = [t for t in violation.tids if t != cell.tid]
            for pred in dc.predicates:
                if pred.op is not Operator.NEQ:
                    continue
                if not isinstance(pred.right, TupleRef):
                    continue
                attrs = {pred.left.attribute, pred.right.attribute}
                if cell.attribute not in attrs:
                    continue
                for partner in partner_tids:
                    value = working.value(partner, cell.attribute)
                    if value is not None and value != current:
                        suggestions[value] += 1
        if not suggestions:
            return None
        if len(suggestions) > 1 and self.use_fresh_values:
            # Contradictory demands: unsatisfiable by any single existing
            # value — assign a fresh constant.
            self._fresh_counter += 1
            return f"__fresh_{self._fresh_counter}"
        best, _votes = suggestions.most_common(1)[0]
        resolved = self._resolved_count(working, cell, best, violations)
        return best if resolved > 0 else None

    def _resolved_count(self, working: Dataset, cell: Cell, value: str,
                        violations: list) -> int:
        """How many of the cell's pending violations the change resolves.

        Checking only the violations at hand (rather than rescanning the
        dataset) keeps each round linear in the number of violations; new
        violations the change might introduce surface in the next
        detect/repair round — the same fixpoint structure as the original
        algorithm.
        """
        original = working.cell_value(cell)
        working.set_value(cell.tid, cell.attribute, value)
        try:
            resolved = 0
            own_values = working.tuple_dict(cell.tid)
            for violation in violations:
                dc = self._constraint(violation.constraint_name)
                if dc is None:
                    continue
                partners = [t for t in violation.tids if t != cell.tid]
                if not partners:  # single-tuple constraint
                    if not dc.violates(own_values):
                        resolved += 1
                    continue
                still_violated = False
                for partner in partners:
                    other = working.tuple_dict(partner)
                    if (dc.violates(own_values, other)
                            or dc.violates(other, own_values)):
                        still_violated = True
                        break
                if not still_violated:
                    resolved += 1
            return resolved
        finally:
            working.set_value(cell.tid, cell.attribute, original)

    def _constraint(self, name: str) -> DenialConstraint | None:
        for dc in self.constraints:
            if dc.name == name:
                return dc
        return None
