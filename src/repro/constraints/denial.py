"""Denial constraints ``σ: ∀t1,t2 ∈ D: ¬(P1 ∧ … ∧ PK)``.

A pair of tuples *violates* σ when **all** predicates hold simultaneously.
Single-tuple constraints (every predicate references only ``t1``) are
evaluated per tuple.  The class also exposes the structural queries the
rest of the system needs: which attributes are involved, which predicates
are hash-joinable equalities (used by the violation detector), and which
attributes of each tuple position a repair could change to resolve a
violation.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.predicates import Predicate, TupleRef


@dataclass(frozen=True)
class DenialConstraint:
    """An immutable denial constraint with an optional identifier."""

    predicates: tuple[Predicate, ...]
    name: str = ""

    def __init__(self, predicates, name: str = ""):
        object.__setattr__(self, "predicates", tuple(predicates))
        object.__setattr__(self, "name", name or self._default_name())
        if not self.predicates:
            raise ValueError("denial constraint needs at least one predicate")

    def _default_name(self) -> str:
        return "dc_" + "_".join(
            p.left.attribute for p in getattr(self, "predicates", ())) or "dc"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def is_single_tuple(self) -> bool:
        """True when no predicate mentions ``t2``."""
        return all(
            p.left.tuple_index == 1
            and (not isinstance(p.right, TupleRef) or p.right.tuple_index == 1)
            for p in self.predicates
        )

    @property
    def attributes(self) -> set[str]:
        """All attributes mentioned anywhere in the constraint."""
        out: set[str] = set()
        for p in self.predicates:
            out |= p.attributes
        return out

    def attributes_of(self, tuple_index: int) -> set[str]:
        """Attributes read from one tuple position (1 or 2)."""
        out: set[str] = set()
        for p in self.predicates:
            out |= p.attributes_of(tuple_index)
        return out

    @property
    def equijoin_predicates(self) -> list[Predicate]:
        """Binary equality predicates, usable as hash-join keys."""
        return [p for p in self.predicates if p.is_equijoin]

    @property
    def residual_predicates(self) -> list[Predicate]:
        """Predicates that are not binary equalities (checked after the join)."""
        return [p for p in self.predicates if not p.is_equijoin]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def violates(self, values1: dict[str, str | None],
                 values2: dict[str, str | None] | None = None) -> bool:
        """True when the tuple (pair) satisfies every predicate.

        For two-tuple constraints the caller must ensure ``t1 != t2``;
        the constraint itself is agnostic to tuple identity.
        """
        return all(p.evaluate(values1, values2) for p in self.predicates)

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        quant = "∀t1" if self.is_single_tuple else "∀t1,t2"
        body = " ∧ ".join(str(p) for p in self.predicates)
        return f"{quant}: ¬({body})"

    def __repr__(self) -> str:
        return f"DenialConstraint({self.name!r}: {self})"
