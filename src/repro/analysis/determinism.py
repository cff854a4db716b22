"""Determinism checker: emission-order-critical modules stay reproducible.

The engine's whole contract is that vectorized grounding is
**byte-identical** to the naive oracles — factor graphs, pair streams,
and feature matrices are only reproducible because every emission order
is canonical.  This checker flags constructs that silently break that
inside the emission-order-critical modules:

* ``set-iteration`` — iterating a set/frozenset (hash order; wrap in
  ``sorted(...)`` or iterate a list/dict instead);
* ``unseeded-random`` — the module-level ``random`` / ``np.random``
  global APIs, and unseeded ``random.Random()`` /
  ``np.random.default_rng()`` constructions (thread a seeded generator);
* ``id-order`` — ``id(...)`` inside a ``sorted`` / ``min`` / ``max`` /
  ``.sort`` argument (CPython address order varies run to run);
* ``unsorted-listdir`` — ``os.listdir`` / ``os.scandir`` / ``glob`` /
  ``Path.iterdir`` / ``Path.glob`` results used without ``sorted(...)``
  (filesystem order is arbitrary);
* ``wall-clock`` — ``time.time`` / ``datetime.now`` and friends (a
  wall-clock read feeding emission logic makes runs unrepeatable).
"""

from __future__ import annotations

import ast

from repro.analysis.base import AnalysisContext, Checker, Finding, call_name

#: The modules whose emission order downstream artifacts depend on.
CRITICAL_MODULES = frozenset(
    {
        "src/repro/engine/ops.py",
        "src/repro/core/partition.py",
        "src/repro/core/factor_tables.py",
        "src/repro/core/vector_featurize.py",
    }
)

#: Seeded constructors of the ``random`` module (fine to call with args).
_RANDOM_CONSTRUCTORS = {"Random", "SystemRandom", "getstate", "setstate"}

#: Seeded constructors of ``numpy.random``.
_NP_RANDOM_CONSTRUCTORS = {"default_rng", "RandomState", "Generator", "SeedSequence"}

_LISTDIR_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_LISTDIR_METHODS = {"iterdir", "glob", "rglob"}

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.now",
    "datetime.utcnow",
    "datetime.today",
    "date.today",
}

_ORDERING_CALLS = {"sorted", "min", "max"}


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return call_name(node) in ("set", "frozenset")


class DeterminismChecker(Checker):
    """Nondeterminism smells in the emission-order-critical modules."""

    name = "determinism"
    rules = (
        "set-iteration",
        "unseeded-random",
        "id-order",
        "unsorted-listdir",
        "wall-clock",
    )
    modules = CRITICAL_MODULES

    def check(self, ctx: AnalysisContext) -> list[Finding]:
        findings: list[Finding] = []
        for module in ctx.modules:
            if module.rel not in self.modules:
                continue
            for node in ast.walk(module.tree):
                findings.extend(self._check_node(module, node))
        return findings

    # ------------------------------------------------------------------
    def _check_node(self, module, node: ast.AST) -> list[Finding]:
        out: list[Finding] = []
        if isinstance(node, (ast.For, ast.comprehension)):
            out.extend(self._check_iteration(module, node))
        if isinstance(node, ast.Call):
            out.extend(self._check_call(module, node))
        return out

    def _check_iteration(self, module, node) -> list[Finding]:
        iterable = node.iter
        line = getattr(node, "lineno", iterable.lineno)
        target = iterable
        if isinstance(iterable, ast.Call) and call_name(iterable) in (
            "enumerate",
            "reversed",
            "list",
            "tuple",
        ):
            target = iterable.args[0] if iterable.args else iterable
        if _is_set_expr(target):
            return [
                self.finding(
                    "set-iteration",
                    module,
                    line,
                    "iteration over a set has hash order; sort it or "
                    "iterate an ordered container",
                ),
            ]
        return []

    def _check_call(self, module, node: ast.Call) -> list[Finding]:
        name = call_name(node)
        out: list[Finding] = []
        head, _, tail = name.rpartition(".")

        # unseeded-random -------------------------------------------------
        if head == "random" and tail not in _RANDOM_CONSTRUCTORS:
            out.append(
                self.finding(
                    "unseeded-random",
                    module,
                    node.lineno,
                    f"global random API random.{tail}() is unseeded state; "
                    "thread a seeded random.Random instead",
                )
            )
        elif head.endswith("random") and head in ("np.random", "numpy.random"):
            if tail not in _NP_RANDOM_CONSTRUCTORS:
                out.append(
                    self.finding(
                        "unseeded-random",
                        module,
                        node.lineno,
                        f"global NumPy random API {name}() is unseeded "
                        "state; thread a seeded Generator instead",
                    )
                )
        seeded_constructors = (
            "random.Random",
            "np.random.default_rng",
            "numpy.random.default_rng",
        )
        if name in seeded_constructors and not node.args and not node.keywords:
            out.append(
                self.finding(
                    "unseeded-random",
                    module,
                    node.lineno,
                    f"{name}() without a seed draws entropy from the OS; "
                    "pass an explicit seed",
                )
            )

        # id-order --------------------------------------------------------
        if name in _ORDERING_CALLS or (tail == "sort" and head):
            for sub in ast.walk(node):
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "id"
                ):
                    out.append(
                        self.finding(
                            "id-order",
                            module,
                            node.lineno,
                            "ordering by id() depends on CPython allocation "
                            "addresses, which vary run to run",
                        )
                    )
                    break

        # unsorted-listdir --------------------------------------------------
        if name in _LISTDIR_CALLS or (head and tail in _LISTDIR_METHODS):
            parent = module.parent(node)
            if not (isinstance(parent, ast.Call) and call_name(parent) == "sorted"):
                out.append(
                    self.finding(
                        "unsorted-listdir",
                        module,
                        node.lineno,
                        f"{name or tail}() yields filesystem order; wrap the "
                        "call in sorted(...)",
                    )
                )

        # wall-clock --------------------------------------------------------
        if name in _WALL_CLOCK or (
            tail in ("now", "utcnow", "today") and head.endswith("datetime")
        ):
            out.append(
                self.finding(
                    "wall-clock",
                    module,
                    node.lineno,
                    f"wall-clock read {name}() in an emission-order-critical "
                    "module makes runs unrepeatable",
                )
            )
        return out
