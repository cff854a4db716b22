"""Constraint language: denial constraints and matching dependencies.

Denial constraints (Section 3.1) are first-order formulas
``∀t1,t2 ∈ D: ¬(P1 ∧ … ∧ PK)`` whose predicates compare cells of up to two
tuples (or a cell with a constant) using the operator set
``{=, ≠, <, >, ≤, ≥, ≈}``.  They subsume functional dependencies and
conditional functional dependencies.  Matching dependencies (Section 4.2)
specify lookups against external dictionaries.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.constraints.predicates import (
        Operator,
        Operand,
        TupleRef,
        Const,
        Predicate,
    )
    from repro.constraints.denial import DenialConstraint
    from repro.constraints.parser import parse_dc, parse_dcs, format_dc, DCParseError
    from repro.constraints.fd import FunctionalDependency, parse_fd
    from repro.constraints.discovery import (
        DiscoveredFD,
        discover_fds,
        discovered_to_constraints,
    )
    from repro.constraints.extended import (
        ConditionalFunctionalDependency,
        MetricFunctionalDependency,
    )
    from repro.constraints.matching import MatchPredicate, MatchingDependency
    from repro.constraints.similarity import (
        levenshtein,
        normalized_similarity,
        jaccard,
        similar,
    )

__all__ = [
    "Operator",
    "Operand",
    "TupleRef",
    "Const",
    "Predicate",
    "DenialConstraint",
    "parse_dc",
    "parse_dcs",
    "format_dc",
    "DCParseError",
    "FunctionalDependency",
    "parse_fd",
    "DiscoveredFD",
    "discover_fds",
    "discovered_to_constraints",
    "ConditionalFunctionalDependency",
    "MetricFunctionalDependency",
    "MatchPredicate",
    "MatchingDependency",
    "levenshtein",
    "normalized_similarity",
    "jaccard",
    "similar",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.constraints.predicates": (
            "Operator",
            "Operand",
            "TupleRef",
            "Const",
            "Predicate",
        ),
        "repro.constraints.denial": ("DenialConstraint",),
        "repro.constraints.parser": (
            "parse_dc",
            "parse_dcs",
            "format_dc",
            "DCParseError",
        ),
        "repro.constraints.fd": ("FunctionalDependency", "parse_fd"),
        "repro.constraints.discovery": (
            "DiscoveredFD",
            "discover_fds",
            "discovered_to_constraints",
        ),
        "repro.constraints.extended": (
            "ConditionalFunctionalDependency",
            "MetricFunctionalDependency",
        ),
        "repro.constraints.matching": ("MatchPredicate", "MatchingDependency"),
        "repro.constraints.similarity": (
            "levenshtein",
            "normalized_similarity",
            "jaccard",
            "similar",
        ),
    },
)
