"""Tuple-at-a-time reference implementations of the grounding steps.

Production grounds every step set-at-a-time over the engine
(:mod:`repro.engine`); the classes here replay the same steps as plain
per-cell / per-pair Python over the row store, and exist for the tests
only: the equivalence tests demand byte-identical violations, domains,
feature matrices and factor graphs from the two.  They are selected by
importing them by name — never by a flag or a missing argument — and no
module outside this package may import it (``repro lint``'s
``oracle-import`` rule).
"""

from repro.oracle.compiler import NaiveModelCompiler
from repro.oracle.domain import DomainPruner
from repro.oracle.violations import NaiveViolationDetector

__all__ = ["DomainPruner", "NaiveModelCompiler", "NaiveViolationDetector"]
