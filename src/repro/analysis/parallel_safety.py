"""Parallel-safety checker: work shipped to pools must survive the trip.

The serving subsystem ships cold repair jobs through a
``ProcessPoolExecutor``.  One class of bug slips silently past tests that
happen to run on a fork-capable machine:

* ``pool-callable`` — lambdas, locally nested functions (closures), and
  ``self``-bound methods handed to a Pool API (``map`` / ``apply_async``
  / ``submit`` / an ``initializer=``).  Under the ``spawn``/``forkserver``
  start methods these fail to pickle at dispatch time; bound methods
  additionally drag the whole ``self`` object graph through the pickle
  even under ``fork``.  Pool callables must be module-level functions.
"""

from __future__ import annotations

import ast

from repro.analysis.base import AnalysisContext, Checker, Finding, call_name

#: Pool dispatch methods whose first positional argument is pickled.
#: ``submit`` covers ``concurrent.futures`` executors (the serving
#: subsystem ships cold repair jobs through a ``ProcessPoolExecutor``).
POOL_METHODS = {
    "map",
    "map_async",
    "imap",
    "imap_unordered",
    "starmap",
    "starmap_async",
    "apply",
    "apply_async",
    "submit",
}


def _is_pool_receiver(node: ast.Call) -> bool:
    """Whether the call's receiver looks like a multiprocessing pool."""
    if not isinstance(node.func, ast.Attribute):
        return False
    receiver = call_name(node.func.value) or ast.dump(node.func.value)
    return "pool" in receiver.lower()


def _nested_function_names(module, node: ast.AST) -> set[str]:
    """Names of functions defined inside the function enclosing ``node``."""
    enclosing = module.enclosing(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    names: set[str] = set()
    while enclosing is not None:
        for sub in ast.walk(enclosing):
            if sub is enclosing:
                continue
            if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(sub.name)
        enclosing = module.enclosing(enclosing, (ast.FunctionDef, ast.AsyncFunctionDef))
    return names


class ParallelSafetyChecker(Checker):
    """Unpicklable pool tasks."""

    name = "parallel-safety"
    rules = ("pool-callable",)

    def check(self, ctx: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for module in ctx.modules:
            if (
                "multiprocessing" not in module.text
                and "concurrent.futures" not in module.text
            ):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                findings.extend(self._check_dispatch(module, node))
        return findings

    # ------------------------------------------------------------------
    def _callable_problem(self, module, site: ast.Call, candidate) -> str | None:
        if isinstance(candidate, ast.Lambda):
            return "a lambda"
        if isinstance(candidate, ast.Attribute):
            if isinstance(candidate.value, ast.Name) and candidate.value.id == "self":
                return f"the bound method self.{candidate.attr}"
            return None
        if isinstance(candidate, ast.Name):
            if candidate.id in _nested_function_names(module, site):
                return f"the locally nested function {candidate.id}()"
        return None

    def _check_dispatch(self, module, node: ast.Call) -> list[Finding]:
        candidates = []
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in POOL_METHODS
            and _is_pool_receiver(node)
            and node.args
        ):
            candidates.append(node.args[0])
        if call_name(node).rpartition(".")[2] == "Pool":
            for keyword in node.keywords:
                if keyword.arg == "initializer":
                    candidates.append(keyword.value)
        out: list[Finding] = []
        for candidate in candidates:
            problem = self._callable_problem(module, node, candidate)
            if problem is not None:
                out.append(
                    self.finding(
                        "pool-callable",
                        module,
                        node.lineno,
                        f"{problem} is handed to a multiprocessing Pool "
                        "API; pool callables must be module-level "
                        "functions to be fork/pickle-safe",
                    )
                )
        return out
