"""Repo-specific AST-based static analysis (``repro lint``).

A pluggable checker suite that enforces the invariants generic linters
cannot see: emission-order determinism, hot-path purity, fork/pickle
safety of pool tasks, and docs/source telemetry + config inventory
sync.  See ``docs/static_analysis.md`` for the checker catalogue and
the ``# repro: allow-<rule> <reason>`` pragma syntax.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.analysis.base import (
        AnalysisContext,
        Checker,
        Finding,
        Pragma,
        SourceModule,
        parse_pragmas,
    )
    from repro.analysis.runner import (
        LintResult,
        default_checkers,
        run_checkers,
        run_lint,
    )

__all__ = [
    "AnalysisContext",
    "Checker",
    "Finding",
    "LintResult",
    "Pragma",
    "SourceModule",
    "default_checkers",
    "parse_pragmas",
    "run_checkers",
    "run_lint",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.analysis.base": (
            "AnalysisContext",
            "Checker",
            "Finding",
            "Pragma",
            "SourceModule",
            "parse_pragmas",
        ),
        "repro.analysis.runner": (
            "LintResult",
            "default_checkers",
            "run_checkers",
            "run_lint",
        ),
    },
)
