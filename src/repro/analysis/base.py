"""Core types of the repo-specific static-analysis framework.

The invariants this repository stakes its value on — byte-identical
vectorized grounding, fork-safe pool tasks, a telemetry key
inventory that matches the source — are invisible to generic linters.
:mod:`repro.analysis` parses the codebase with :mod:`ast` and runs a
pluggable checker suite over it; this module holds the shared pieces:

* :class:`Finding` — one violation (file, line, checker id, rule id,
  message), with a line-free identity key for baseline comparison;
* :class:`Pragma` / pragma parsing — ``# repro: allow-<rule> <reason>``
  comments suppress one rule on the same line or the line below, and
  every pragma must carry a reason (audited suppressions only);
* :class:`SourceModule` — one parsed source file (text, lines, AST,
  pragmas, and a lazily built child→parent node map);
* :class:`AnalysisContext` — the repo snapshot handed to checkers;
* :class:`Checker` — the plug-in protocol (`name`, `rules`, `check`).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

#: ``# repro: allow-<rule> <reason>`` — the suppression pragma.  The rule
#: id matches :attr:`Finding.rule`; the reason is required (a pragma
#: without one is itself reported, as ``pragma.missing-reason``).
PRAGMA_RE = re.compile(r"#\s*repro:\s*allow-([a-z0-9-]+)(?:\s+(\S.*?))?\s*$")


@dataclass(frozen=True)
class Finding:
    """One invariant violation at a specific source location."""

    checker: str
    rule: str
    path: str
    line: int
    message: str

    @property
    def rule_id(self) -> str:
        return f"{self.checker}.{self.rule}"

    def key(self) -> tuple[str, str, str, str]:
        """Baseline identity: line numbers drift, the violation does not."""
        return (self.checker, self.rule, self.path, self.message)

    def sort_key(self) -> tuple:
        return (self.path, self.line, self.checker, self.rule, self.message)

    def to_dict(self) -> dict:
        return {
            "checker": self.checker,
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Finding":
        return cls(
            checker=payload["checker"],
            rule=payload["rule"],
            path=payload["path"],
            line=int(payload.get("line", 0)),
            message=payload["message"],
        )

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule_id}] {self.message}"


@dataclass
class Pragma:
    """One ``# repro: allow-<rule>`` comment found in a source file."""

    rule: str
    reason: str
    line: int
    #: Whether the line holds only the pragma comment (then it also
    #: covers the line below, like a ``noqa`` on its own line).
    standalone: bool
    used: bool = False


def parse_pragmas(text: str) -> dict[int, Pragma]:
    """Extract suppression pragmas, keyed by 1-based line number.

    Tokenize-based so only real ``#`` comments count — pragma-shaped
    text inside string literals or docstrings is never a suppression.
    """
    pragmas: dict[int, Pragma] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return pragmas
    for token in tokens:
        if token.type != tokenize.COMMENT:
            continue
        match = PRAGMA_RE.search(token.string)
        if match is None:
            continue
        number, column = token.start
        rule, reason = match.group(1), match.group(2) or ""
        standalone = token.line[:column].strip() == ""
        pragmas[number] = Pragma(
            rule=rule, reason=reason, line=number, standalone=standalone
        )
    return pragmas


@dataclass
class SourceModule:
    """One parsed Python source file of the repository."""

    path: Path
    rel: str
    text: str
    lines: list[str]
    tree: ast.Module
    pragmas: dict[int, Pragma] = field(default_factory=dict)
    _parents: dict[int, ast.AST] | None = None

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceModule":
        text = path.read_text()
        lines = text.splitlines()
        tree = ast.parse(text, filename=str(path))
        return cls(
            path=path,
            rel=path.relative_to(root).as_posix(),
            text=text,
            lines=lines,
            tree=tree,
            pragmas=parse_pragmas(text),
        )

    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> ast.AST | None:
        """The AST parent of ``node`` (computed lazily, once)."""
        if self._parents is None:
            parents: dict[int, ast.AST] = {}
            for outer in ast.walk(self.tree):
                for child in ast.iter_child_nodes(outer):
                    parents[id(child)] = outer
            self._parents = parents
        return self._parents.get(id(node))

    # ------------------------------------------------------------------
    def pragma_for(self, rule: str, line: int) -> Pragma | None:
        """The pragma suppressing ``rule`` at ``line``, if any.

        A pragma suppresses findings of its rule on its own line; a
        standalone pragma (comment-only line) also covers the line
        directly below it.
        """
        own = self.pragmas.get(line)
        if own is not None and own.rule == rule:
            return own
        above = self.pragmas.get(line - 1)
        if above is not None and above.rule == rule and above.standalone:
            return above
        return None


class AnalysisContext:
    """The repository snapshot a lint run analyses.

    ``modules`` holds every parsed file under ``src/repro``; ``errors``
    collects configuration problems (unreadable files, syntax errors)
    that abort the run with exit code 2 rather than producing findings.
    """

    def __init__(self, root: Path, modules: list[SourceModule]):
        self.root = Path(root)
        self.modules = modules
        self.errors: list[str] = []
        self._by_rel = {module.rel: module for module in modules}
        self._docs: dict[str, str | None] = {}

    def module(self, rel: str) -> SourceModule | None:
        return self._by_rel.get(rel)

    def doc_text(self, rel: str) -> str | None:
        """The text of a docs/ file (cached), ``None`` when missing."""
        if rel not in self._docs:
            path = self.root / rel
            try:
                self._docs[rel] = path.read_text()
            except OSError:
                self._docs[rel] = None
        return self._docs[rel]

    def doc_line(self, rel: str, needle: str) -> int:
        """1-based line of the first occurrence of ``needle`` in a doc."""
        text = self.doc_text(rel)
        if text is None:
            return 0
        for number, line in enumerate(text.splitlines(), start=1):
            if needle in line:
                return number
        return 0


class Checker:
    """Base class for one invariant checker.

    Subclasses set ``name`` (the checker id), ``rules`` (every rule id
    they may emit — used to validate pragmas), and implement
    :meth:`check`.  Checkers report raw findings; pragma suppression and
    baseline comparison are the runner's job.
    """

    name = "base"
    rules: tuple[str, ...] = ()

    def check(self, ctx: AnalysisContext) -> list[Finding]:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def finding(self, rule: str, module_or_rel, line: int, message: str) -> Finding:
        if rule not in self.rules:
            raise ValueError(f"checker {self.name!r} has no rule {rule!r}")
        rel = module_or_rel if isinstance(module_or_rel, str) else module_or_rel.rel
        return Finding(
            checker=self.name, rule=rule, path=rel, line=line, message=message
        )


# ---------------------------------------------------------------------------
# Small AST helpers shared by several checkers
# ---------------------------------------------------------------------------
def call_name(node: ast.AST) -> str:
    """Dotted text of a call's function, ``""`` for exotic expressions."""
    if isinstance(node, ast.Call):
        node = node.func
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


def literal_str(node: ast.AST) -> str | None:
    """The value of a string-constant node, else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def dict_literal_keys(node: ast.AST) -> list[tuple[str, int]]:
    """``(key, line)`` for every string-literal key of a dict display."""
    keys: list[tuple[str, int]] = []
    if isinstance(node, ast.Dict):
        for key in node.keys:
            value = literal_str(key)
            if value is not None:
                keys.append((value, key.lineno))
    return keys
