"""Config-drift checker: ``docs/configuration.md`` stays live.

The :class:`HoloCleanConfig` dataclass changes fields PR by PR, and
``docs/configuration.md`` must list **every** field (and no phantom
ones) — the docs table is the only place defaults and semantics are
explained to users.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.base import AnalysisContext, Checker, Finding

CONFIG_REL = "src/repro/core/config.py"
DOC_REL = "docs/configuration.md"

_BACKTICK = re.compile(r"`([^`]+)`")


def config_fields(ctx: AnalysisContext) -> dict[str, int]:
    """``field name -> line`` of every :class:`HoloCleanConfig` field."""
    module = ctx.module(CONFIG_REL)
    if module is None:
        return {}
    fields: dict[str, int] = {}
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef) or node.name != "HoloCleanConfig":
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                fields.setdefault(stmt.target.id, stmt.lineno)
    return fields


def _documented_tokens(text: str) -> set[str]:
    """Backticked identifiers in the first cell of every table row."""
    tokens: set[str] = set()
    for line in text.splitlines():
        if not line.lstrip().startswith("|"):
            continue
        cells = line.strip().strip("|").split("|")
        if cells:
            tokens.update(
                token
                for token in _BACKTICK.findall(cells[0])
                if "<" not in token and " " not in token
            )
    return tokens


class ConfigDriftChecker(Checker):
    """``HoloCleanConfig`` fields vs their docs table."""

    name = "config"
    rules = ("config-undocumented", "config-unknown")
    doc_rel = DOC_REL

    def check(self, ctx: AnalysisContext) -> list[Finding]:
        text = ctx.doc_text(self.doc_rel)
        if text is None:
            ctx.errors.append(f"config: cannot read {self.doc_rel}")
            return []
        findings: list[Finding] = []
        documented = _documented_tokens(text)
        fields = config_fields(ctx)

        for name in sorted(set(fields) - documented):
            findings.append(
                self.finding(
                    "config-undocumented",
                    CONFIG_REL,
                    fields[name],
                    f"HoloCleanConfig field '{name}' is missing from "
                    f"{self.doc_rel}",
                )
            )
        for name in sorted(documented - set(fields)):
            findings.append(
                self.finding(
                    "config-unknown",
                    self.doc_rel,
                    ctx.doc_line(self.doc_rel, f"`{name}`"),
                    f"documented name '{name}' is not a HoloCleanConfig field",
                )
            )
        return findings
