"""Hot-path purity checker: no per-row Python loops in vectorized modules.

The modules declared vectorized ground set-at-a-time: candidate grids,
broadcast predicate evaluation, bincount joins.  A Python ``for`` loop
that walks rows (``range(len(...))``, ``.shape`` extents, ``.tolist()``
materialisations) re-introduces the tuple-at-a-time cost the engine
exists to remove — ~100ns of interpreter dispatch per row against ~1ns
of SIMD per element, a 10-100x regression that no equivalence test
notices because the output is still byte-identical.

Audited exceptions (the naive-oracle paths, per-*group* walks over a
handful of buckets) carry a ``# repro: allow-loop <reason>`` pragma;
the reason is mandatory, so every surviving loop documents why it is
not a hot-path regression.
"""

from __future__ import annotations

import ast

from repro.analysis.base import AnalysisContext, Checker, Finding, call_name

#: Modules declared fully vectorized: per-row Python loops here are
#: hot-path regressions unless pragma-audited.
VECTORIZED_MODULES = frozenset(
    {
        "src/repro/engine/ops.py",
        "src/repro/core/partition.py",
        "src/repro/core/compiler.py",
        "src/repro/core/factor_tables.py",
        "src/repro/core/vector_featurize.py",
        "src/repro/core/vector_domain.py",
        "src/repro/core/repair.py",
        "src/repro/detect/violations.py",
        "src/repro/detect/hypergraph.py",
        "src/repro/detect/nulls.py",
        "src/repro/engine/store.py",
        "src/repro/engine/space.py",
        "src/repro/obs/fingerprint.py",
        "src/repro/inference/factor_graph.py",
        "src/repro/inference/gibbs.py",
        "src/repro/inference/softmax.py",
        "src/repro/inference/features.py",
    }
)

#: Attribute reads that signal an array-extent iteration space.
_EXTENT_ATTRS = {"shape", "num_rows", "num_tuples", "size"}


def _mentions_extent(node: ast.AST) -> bool:
    """Whether a subtree reads ``len(...)`` or an array-extent attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and call_name(sub) == "len":
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in _EXTENT_ATTRS:
            return True
    return False


def _is_row_iterable(node: ast.AST) -> bool:
    """Whether an iterable expression walks array data row by row."""
    if not isinstance(node, ast.Call):
        return False
    name = call_name(node)
    if name == "range":
        return any(_mentions_extent(arg) for arg in node.args)
    if name.endswith(".tolist") or (
        isinstance(node.func, ast.Attribute) and node.func.attr == "tolist"
    ):
        return True
    if name in ("enumerate", "zip", "reversed"):
        return any(_is_row_iterable(arg) for arg in node.args)
    return False


class PurityChecker(Checker):
    """Per-row Python loops over arrays in modules declared vectorized."""

    name = "purity"
    rules = ("loop",)
    modules = VECTORIZED_MODULES

    def check(self, ctx: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for module in ctx.modules:
            if module.rel not in self.modules:
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, (ast.For, ast.comprehension)):
                    continue
                if not _is_row_iterable(node.iter):
                    continue
                line = getattr(node, "lineno", node.iter.lineno)
                findings.append(
                    self.finding(
                        "loop",
                        module,
                        line,
                        "per-row Python loop over array data in a module "
                        "declared vectorized; vectorize it or add "
                        "'# repro: allow-loop <reason>' after auditing",
                    )
                )
        return findings
