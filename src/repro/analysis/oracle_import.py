"""Oracle-import checker: the reference implementations stay out of production.

:mod:`repro.oracle` holds the tuple-at-a-time reference compiler, detector
and domain pruner that the equivalence tests (and nothing else) compare the
engine against.  Production has exactly one grounding path; a module
outside ``src/repro/oracle/`` that imports the package would quietly
reintroduce a second one, so every such import — absolute or relative — is
an ``outside-oracle`` finding.
"""

from __future__ import annotations

import ast

from repro.analysis.base import AnalysisContext, Checker, Finding

ORACLE_PACKAGE = "repro.oracle"
ORACLE_DIR = "src/repro/oracle/"


def _imported_modules(module, node: ast.AST) -> list[str]:
    """Absolute dotted names one import statement binds from."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom):
        return []
    base = node.module or ""
    if node.level:
        # ``src/repro/core/x.py`` lives in package ``repro.core``; each
        # extra dot climbs one package.
        package = module.rel.removeprefix("src/").split("/")[:-1]
        parts = package[: len(package) - (node.level - 1)]
        base = ".".join(parts + ([base] if base else []))
    return [base] + [f"{base}.{alias.name}" for alias in node.names]


class OracleImportChecker(Checker):
    """Imports of :mod:`repro.oracle` from outside the oracle package."""

    name = "oracle-import"
    rules = ("outside-oracle",)

    def check(self, ctx: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for module in ctx.modules:
            if module.rel.startswith(ORACLE_DIR):
                continue
            for node in ast.walk(module.tree):
                names = _imported_modules(module, node)
                if any(
                    name == ORACLE_PACKAGE or name.startswith(ORACLE_PACKAGE + ".")
                    for name in names
                ):
                    findings.append(
                        self.finding(
                            "outside-oracle",
                            module,
                            node.lineno,
                            f"production module imports {ORACLE_PACKAGE}; the "
                            "reference implementations are for tests only",
                        )
                    )
        return findings
