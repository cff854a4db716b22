"""Grounded factor graphs (Equation 1 of the paper).

A factor graph here is the output of grounding: a variable block, the
unary feature matrix (features × tied learnable weights), and a list of
*constraint factors* — the groundings of Algorithm 1's DDlog rules, each
an ``h_φ : candidates → {-1, +1}`` table with the constant weight ``w``
the algorithm takes as input ("Setting w = ∞ converts these factors to
hard constraints; HoloClean allows users to relax hard constraints to soft
constraints by assigning w to a constant value").

Evidence variables inside a grounded constraint are folded into the table
at grounding time, so factors only span query variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.inference.features import FeatureMatrix, FeatureSpace
from repro.inference.variables import VariableBlock


@dataclass
class ConstraintFactor:
    """One grounded denial-constraint factor over query variables.

    ``table[i, j, …] = -1`` when the candidate combination violates the
    constraint (given the folded context) and ``+1`` otherwise; the factor
    contributes ``weight · table[assignment]`` to the log-density.
    """

    var_ids: tuple[int, ...]
    table: np.ndarray
    weight: float
    constraint_name: str = ""

    def __post_init__(self) -> None:
        if len(self.var_ids) != self.table.ndim:
            raise ValueError(
                f"factor spans {len(self.var_ids)} variables but its table "
                f"has {self.table.ndim} dimensions")
        if len(set(self.var_ids)) != len(self.var_ids):
            raise ValueError("a factor may reference each variable once")

    @property
    def arity(self) -> int:
        return len(self.var_ids)

    def value(self, assignment: dict[int, int]) -> float:
        """±1 for a full assignment of the factor's variables."""
        idx = tuple(assignment[v] for v in self.var_ids)
        return float(self.table[idx])


@dataclass
class FactorGraph:
    """Variables + unary features + constraint factors + weight space."""

    variables: VariableBlock
    matrix: FeatureMatrix
    space: FeatureSpace
    factors: list[ConstraintFactor] = field(default_factory=list)

    def add_factor(self, factor: ConstraintFactor) -> None:
        self.factors.append(factor)

    def add_factors(self, factors) -> int:
        """Append a batch of factors, preserving grounding order.

        The bulk sink of the vectorized factor-table builder: one call
        per pair chunk instead of one per factor.  Returns the number of
        factors added.
        """
        before = len(self.factors)
        self.factors.extend(factors)
        return len(self.factors) - before

    # ------------------------------------------------------------------
    # Grounding-size accounting (used by the scalability experiments)
    # ------------------------------------------------------------------
    def size_report(self) -> dict[str, int]:
        """Counts the paper quotes when discussing grounding blow-up."""
        table_cells = sum(int(np.prod(f.table.shape)) for f in self.factors)
        return {
            "variables": len(self.variables),
            "query_variables": len(self.variables.query_ids()),
            "feature_entries": self.matrix.num_entries,
            "weights": len(self.space),
            "constraint_factors": len(self.factors),
            "factor_table_cells": table_cells,
        }
