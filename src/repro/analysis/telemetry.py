"""Telemetry-drift checker: the docs key inventory matches the source.

``docs/observability.md`` promises a complete inventory of every trace
span name, every ``size_report`` key, and every metrics-registry key the
pipeline emits.  That promise decays silently: a renamed ``deep_span``,
a new stats counter, or a deleted gauge leaves the docs describing
telemetry that no longer exists (or missing telemetry that does).  This
checker extracts the inventory **from the AST** and cross-checks it
against the docs tables in both directions.

Extraction knows the repo's composition rules (this is a repo-specific
linter — the mapping *is* the contract):

* span names are the literal first argument of ``deep_span(...)`` calls
  (a non-literal first argument is itself a finding: dynamic span names
  can never be inventoried), plus the ``name`` class attribute of the
  ``*Stage`` classes in ``core/stages.py``;
* metrics keys are the literal first argument of ``.gauge`` / ``.label``
  / ``.extend`` / ``.counter`` / ``.series`` calls on a ``metrics``
  receiver (``extend`` records a series);
* ``size_report`` keys are the dict-literal keys of ``size_report()``
  functions, plus the per-class stats dicts composed with their
  documented prefixes (``grounding_``, ``grounding_table_``) by
  ``CompiledModel.size_report``.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.base import (
    AnalysisContext,
    Checker,
    Finding,
    call_name,
    dict_literal_keys,
    literal_str,
)

DOC_REL = "docs/observability.md"

#: Where the composed ``grounding_*`` size-report keys come from:
#: ``(module, class name, attribute, prefix)``.  ``CompiledModel.
#: size_report`` prepends ``grounding_`` to every stats key; the
#: compiler additionally namespaces table stats.
STATS_SOURCES = (
    ("src/repro/core/partition.py", "VectorPairEnumerator", "stats", "grounding_"),
    (
        "src/repro/core/factor_tables.py",
        "VectorFactorTableBuilder",
        "stats",
        "grounding_table_",
    ),
    ("src/repro/core/vector_featurize.py", "VectorFeaturizer", "stats", "grounding_"),
    ("src/repro/core/vector_domain.py", "VectorDomainPruner", "stats", "grounding_"),
)

#: Compiler functions whose local ``grounding`` dict feeds the report.
GROUNDING_FUNCTIONS = (("src/repro/core/compiler.py", "_ground_factors", "grounding_"),)

_METRIC_METHODS = {
    "gauge": "gauge",
    "counter": "counter",
    "label": "label",
    "series": "series",
    "extend": "series",
}

_BACKTICK = re.compile(r"`([^`]+)`")


@dataclass
class Inventory:
    """Everything the source emits, with one ``(rel, line)`` anchor each."""

    spans: dict[str, tuple[str, int]] = field(default_factory=dict)
    stage_spans: dict[str, tuple[str, int]] = field(default_factory=dict)
    metrics: dict[str, tuple[str, int]] = field(default_factory=dict)
    metric_kinds: dict[str, str] = field(default_factory=dict)
    size_keys: dict[str, tuple[str, int]] = field(default_factory=dict)
    dynamic_spans: list[tuple[str, int]] = field(default_factory=list)


def extract_inventory(ctx: AnalysisContext) -> Inventory:
    """Walk every module and collect the emitted telemetry inventory."""
    inv = Inventory()
    for module in ctx.modules:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                _extract_span(inv, module, node)
                _extract_metric(inv, module, node)
            if isinstance(node, ast.FunctionDef) and node.name == "size_report":
                _extract_size_report(inv, module, node)
        _extract_stage_names(inv, module)
        _extract_stats_sources(inv, module)
        _extract_grounding_functions(inv, module)
    return inv


def _extract_span(inv: Inventory, module, node: ast.Call) -> None:
    if call_name(node).rpartition(".")[2] != "deep_span" or not node.args:
        return
    name = literal_str(node.args[0])
    if name is None:
        # The definition site (`def deep_span`) is not a Call; any call
        # with a computed name defeats the inventory.
        inv.dynamic_spans.append((module.rel, node.lineno))
        return
    inv.spans.setdefault(name, (module.rel, node.lineno))


def _extract_metric(inv: Inventory, module, node: ast.Call) -> None:
    func = node.func
    if not isinstance(func, ast.Attribute) or func.attr not in _METRIC_METHODS:
        return
    receiver = call_name(func.value)
    if not receiver.endswith("metrics"):
        return
    if not node.args:
        return
    key = literal_str(node.args[0])
    if key is None:
        return
    inv.metrics.setdefault(key, (module.rel, node.lineno))
    inv.metric_kinds.setdefault(key, _METRIC_METHODS[func.attr])


def _extract_size_report(inv: Inventory, module, node: ast.FunctionDef) -> None:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Return) and sub.value is not None:
            for key, line in dict_literal_keys(sub.value):
                inv.size_keys.setdefault(key, (module.rel, line))
        if isinstance(sub, ast.Assign):
            for target in sub.targets:
                key = _subscript_key(target)
                if key is not None:
                    inv.size_keys.setdefault(key, (module.rel, sub.lineno))
        if isinstance(sub, ast.Assign) and isinstance(sub.value, ast.Dict):
            for key, line in dict_literal_keys(sub.value):
                inv.size_keys.setdefault(key, (module.rel, line))


def _subscript_key(target: ast.AST) -> str | None:
    if isinstance(target, ast.Subscript):
        return literal_str(target.slice)
    return None


def _extract_stage_names(inv: Inventory, module) -> None:
    if module.rel != "src/repro/core/stages.py":
        return
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ClassDef) or not node.name.endswith("Stage"):
            continue
        for stmt in node.body:
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "name"
            ):
                name = literal_str(stmt.value)
                if name is not None:
                    inv.stage_spans.setdefault(name, (module.rel, stmt.lineno))


def _stats_keys(scope: ast.AST, attribute: str) -> list[tuple[str, int]]:
    """Literal keys ever placed into ``self.<attribute>`` within a scope."""
    keys: list[tuple[str, int]] = []

    def is_stats_attr(node: ast.AST) -> bool:
        return (
            isinstance(node, ast.Attribute)
            and node.attr == attribute
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        )

    for node in ast.walk(scope):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if is_stats_attr(target) and isinstance(node.value, ast.Dict):
                    keys.extend(dict_literal_keys(node.value))
                if isinstance(target, ast.Subscript) and is_stats_attr(target.value):
                    key = literal_str(target.slice)
                    if key is not None:
                        keys.append((key, node.lineno))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr == "update" and is_stats_attr(node.func.value):
                for arg in node.args:
                    keys.extend(dict_literal_keys(arg))
            if node.func.attr == "setdefault" and is_stats_attr(node.func.value):
                if node.args:
                    key = literal_str(node.args[0])
                    if key is not None:
                        keys.append((key, node.lineno))
    return keys


def _extract_stats_sources(inv: Inventory, module) -> None:
    for rel, class_name, attribute, prefix in STATS_SOURCES:
        if module.rel != rel:
            continue
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and node.name == class_name:
                for key, line in _stats_keys(node, attribute):
                    inv.size_keys.setdefault(prefix + key, (module.rel, line))


def _extract_grounding_functions(inv: Inventory, module) -> None:
    for rel, function_name, prefix in GROUNDING_FUNCTIONS:
        if module.rel != rel:
            continue
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.FunctionDef) or node.name != function_name:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if (
                            isinstance(target, ast.Name)
                            and target.id == "grounding"
                            and isinstance(sub.value, ast.Dict)
                        ):
                            for key, line in dict_literal_keys(sub.value):
                                inv.size_keys.setdefault(
                                    prefix + key, (module.rel, line)
                                )
                        if (
                            isinstance(target, ast.Subscript)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "grounding"
                        ):
                            key = literal_str(target.slice)
                            if key is not None:
                                inv.size_keys.setdefault(
                                    prefix + key, (module.rel, sub.lineno)
                                )
                if isinstance(sub, (ast.Return, ast.AnnAssign)) and isinstance(
                    getattr(sub, "value", None), ast.Dict
                ):
                    for key, line in dict_literal_keys(sub.value):
                        inv.size_keys.setdefault(prefix + key, (module.rel, line))


# ---------------------------------------------------------------------------
# Docs side
# ---------------------------------------------------------------------------
@dataclass
class DocInventory:
    """Key sets promised by the observability doc, one per section."""

    spans: set[str] = field(default_factory=set)
    span_section_text: str = ""
    size_keys: set[str] = field(default_factory=set)
    metrics: set[str] = field(default_factory=set)


def parse_doc(text: str) -> DocInventory:
    """Extract the documented inventory from the markdown tables.

    A table row's *first* cell names the key(s); backticked tokens are
    collected (several spans may share a row).  Placeholder tokens
    containing ``<`` (e.g. ``compile.<size_report key>``) are skipped —
    they document dynamic families the code side skips symmetrically.
    """
    doc = DocInventory()
    section = None
    for line in text.splitlines():
        if line.startswith("## "):
            heading = line[3:].strip().lower()
            if "span" in heading:
                section = "spans"
            elif "size_report" in heading:
                section = "size"
            elif "metrics" in heading:
                section = "metrics"
            else:
                section = None
            continue
        if section == "spans":
            doc.span_section_text += line + "\n"
        if not line.lstrip().startswith("|"):
            continue
        cells = line.strip().strip("|").split("|")
        if not cells:
            continue
        tokens = [
            token
            for token in _BACKTICK.findall(cells[0])
            if "<" not in token and " " not in token
        ]
        if section == "spans":
            doc.spans.update(tokens)
        elif section == "size":
            doc.size_keys.update(tokens)
        elif section == "metrics":
            doc.metrics.update(tokens)
    return doc


class TelemetryChecker(Checker):
    """Source vs ``docs/observability.md`` inventory drift, both ways."""

    name = "telemetry"
    rules = (
        "dynamic-span",
        "span-undocumented",
        "span-unknown",
        "metric-undocumented",
        "metric-unknown",
        "sizekey-undocumented",
        "sizekey-unknown",
    )
    doc_rel = DOC_REL

    def check(self, ctx: AnalysisContext) -> list[Finding]:
        text = ctx.doc_text(self.doc_rel)
        if text is None:
            ctx.errors.append(f"telemetry: cannot read {self.doc_rel}")
            return []
        inv = extract_inventory(ctx)
        doc = parse_doc(text)
        findings: list[Finding] = []

        for rel, line in inv.dynamic_spans:
            findings.append(
                self.finding(
                    "dynamic-span",
                    rel,
                    line,
                    "deep_span() with a computed name cannot be "
                    "inventoried; use a literal span name",
                )
            )

        for name in sorted(set(inv.spans) - doc.spans):
            rel, line = inv.spans[name]
            findings.append(
                self.finding(
                    "span-undocumented",
                    rel,
                    line,
                    f"deep span '{name}' is emitted here but missing from "
                    f"{self.doc_rel}",
                )
            )
        for name in sorted(inv.stage_spans):
            if f"`{name}`" not in doc.span_section_text:
                rel, line = inv.stage_spans[name]
                findings.append(
                    self.finding(
                        "span-undocumented",
                        rel,
                        line,
                        f"stage span '{name}' is missing from the span "
                        f"inventory in {self.doc_rel}",
                    )
                )
        emitted_spans = set(inv.spans)
        for name in sorted(doc.spans - emitted_spans):
            findings.append(
                self.finding(
                    "span-unknown",
                    self.doc_rel,
                    ctx.doc_line(self.doc_rel, f"`{name}`"),
                    f"documented span '{name}' is emitted nowhere in src/",
                )
            )

        for key in sorted(set(inv.metrics) - doc.metrics):
            rel, line = inv.metrics[key]
            findings.append(
                self.finding(
                    "metric-undocumented",
                    rel,
                    line,
                    f"metrics key '{key}' ({inv.metric_kinds[key]}) is "
                    f"recorded here but missing from {self.doc_rel}",
                )
            )
        for key in sorted(doc.metrics - set(inv.metrics)):
            findings.append(
                self.finding(
                    "metric-unknown",
                    self.doc_rel,
                    ctx.doc_line(self.doc_rel, f"`{key}`"),
                    f"documented metrics key '{key}' is recorded nowhere "
                    "in src/",
                )
            )

        for key in sorted(set(inv.size_keys) - doc.size_keys):
            rel, line = inv.size_keys[key]
            findings.append(
                self.finding(
                    "sizekey-undocumented",
                    rel,
                    line,
                    f"size_report key '{key}' is produced here but missing "
                    f"from {self.doc_rel}",
                )
            )
        for key in sorted(doc.size_keys - set(inv.size_keys)):
            findings.append(
                self.finding(
                    "sizekey-unknown",
                    self.doc_rel,
                    ctx.doc_line(self.doc_rel, f"`{key}`"),
                    f"documented size_report key '{key}' is produced "
                    "nowhere in src/",
                )
            )
        return findings
