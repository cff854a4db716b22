"""Lint runner: discovery, pragma suppression, and the baseline ratchet.

The runner turns the checker suite into a CI gate:

1. discover and parse every ``src/repro/**/*.py`` file (sorted, so runs
   are deterministic);
2. run each registered checker and apply pragma suppression — a
   ``# repro: allow-<rule> <reason>`` on (or standalone above) the
   flagged line swallows the finding and marks the pragma used;
3. enforce pragma hygiene: a pragma without a reason and a pragma that
   suppressed nothing are themselves findings (``pragma.missing-reason``
   / ``pragma.unused``), so suppressions cannot rot in place;
4. compare against the committed baseline
   (``.repro-lint-baseline.json``) by line-free identity — only **new**
   violations fail CI, and fixing one ratchets the baseline down.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.base import AnalysisContext, Checker, Finding, SourceModule
from repro.analysis.config_drift import ConfigDriftChecker
from repro.analysis.determinism import DeterminismChecker
from repro.analysis.oracle_import import OracleImportChecker
from repro.analysis.purity import PurityChecker
from repro.analysis.telemetry import TelemetryChecker

BASELINE_NAME = ".repro-lint-baseline.json"

#: Rules pragmas may never silence: suppression hygiene itself.
_UNSUPPRESSABLE = ("pragma",)


def default_checkers() -> list[Checker]:
    """The full checker suite, in a fixed, deterministic order."""
    return [
        DeterminismChecker(),
        PurityChecker(),
        TelemetryChecker(),
        ConfigDriftChecker(),
        OracleImportChecker(),
    ]


def discover_modules(root: Path, errors: list[str]) -> list[SourceModule]:
    """Parse every Python file under ``src/repro``, sorted by path."""
    modules: list[SourceModule] = []
    source_root = root / "src" / "repro"
    for path in sorted(source_root.rglob("*.py")):
        try:
            modules.append(SourceModule.load(path, root))
        except (OSError, SyntaxError, ValueError) as exc:
            errors.append(f"cannot parse {path}: {exc}")
    return modules


@dataclass
class LintResult:
    """Outcome of one lint run, ready for rendering or JSON dumping."""

    findings: list[Finding]
    suppressed: int
    errors: list[str]
    new_findings: list[Finding] = field(default_factory=list)
    fixed_count: int = 0
    baseline_used: bool = False

    @property
    def exit_code(self) -> int:
        if self.errors:
            return 2
        failing = self.new_findings if self.baseline_used else self.findings
        return 1 if failing else 0

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "errors": list(self.errors),
            "new": [f.to_dict() for f in self.new_findings],
            "fixed": self.fixed_count,
        }


def run_checkers(
    ctx: AnalysisContext, checkers: list[Checker] | None = None
) -> tuple[list[Finding], int]:
    """Run the suite over a context; returns (findings, suppressed count).

    Pragma suppression and pragma-hygiene findings are applied here so
    fixture tests exercise the exact production path.
    """
    if checkers is None:
        checkers = default_checkers()
    findings: list[Finding] = []
    suppressed = 0
    for checker in checkers:
        for finding in checker.check(ctx):
            module = ctx.module(finding.path)
            if module is not None and not finding.checker.startswith(_UNSUPPRESSABLE):
                pragma = module.pragma_for(finding.rule, finding.line)
                if pragma is not None:
                    pragma.used = True
                    suppressed += 1
                    continue
            findings.append(finding)
    findings.extend(_pragma_hygiene(ctx, checkers))
    findings.sort(key=Finding.sort_key)
    return findings, suppressed


def _pragma_hygiene(ctx: AnalysisContext, checkers: list[Checker]) -> list[Finding]:
    known_rules = {rule for checker in checkers for rule in checker.rules}
    out: list[Finding] = []
    for module in ctx.modules:
        for pragma in module.pragmas.values():
            if not pragma.reason:
                out.append(
                    Finding(
                        checker="pragma",
                        rule="missing-reason",
                        path=module.rel,
                        line=pragma.line,
                        message=(
                            f"allow-{pragma.rule} pragma has no reason; "
                            "suppressions must document their audit"
                        ),
                    )
                )
            elif pragma.rule not in known_rules:
                out.append(
                    Finding(
                        checker="pragma",
                        rule="unknown-rule",
                        path=module.rel,
                        line=pragma.line,
                        message=(
                            f"allow-{pragma.rule} pragma names no known "
                            "rule; available rules: "
                            + ", ".join(sorted(known_rules))
                        ),
                    )
                )
            elif not pragma.used:
                out.append(
                    Finding(
                        checker="pragma",
                        rule="unused",
                        path=module.rel,
                        line=pragma.line,
                        message=(
                            f"allow-{pragma.rule} pragma suppresses "
                            "nothing; remove it"
                        ),
                    )
                )
    return out


# ---------------------------------------------------------------------------
# Baseline ratchet
# ---------------------------------------------------------------------------
def load_baseline(path: Path) -> list[Finding] | None:
    """Parse a baseline file; ``None`` means unreadable/invalid."""
    try:
        payload = json.loads(path.read_text())
        return [Finding.from_dict(entry) for entry in payload["findings"]]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def write_baseline(path: Path, findings: list[Finding]) -> None:
    payload = {
        "format": 1,
        "findings": [f.to_dict() for f in sorted(findings, key=Finding.sort_key)],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def compare_to_baseline(
    findings: list[Finding], baseline: list[Finding]
) -> tuple[list[Finding], int]:
    """``(new findings, fixed count)`` by line-free identity."""
    baseline_keys = {f.key() for f in baseline}
    current_keys = {f.key() for f in findings}
    new = [f for f in findings if f.key() not in baseline_keys]
    fixed = len(baseline_keys - current_keys)
    return new, fixed


def run_lint(
    root: Path,
    baseline_path: Path | None = None,
    checkers: list[Checker] | None = None,
) -> LintResult:
    """One full lint run rooted at ``root``.

    ``baseline_path``: compare against this baseline (missing file is a
    config error — commit one with ``--write-baseline``).  ``None``
    skips baseline comparison and fails on any finding at all.
    """
    errors: list[str] = []
    modules = discover_modules(root, errors)
    ctx = AnalysisContext(root, modules)
    ctx.errors = errors
    if not modules:
        errors.append(f"no Python sources found under {root / 'src' / 'repro'}")
        return LintResult(findings=[], suppressed=0, errors=errors)
    findings, suppressed = run_checkers(ctx, checkers)
    result = LintResult(findings=findings, suppressed=suppressed, errors=ctx.errors)
    if baseline_path is not None and not result.errors:
        baseline = load_baseline(baseline_path)
        if baseline is None:
            result.errors.append(
                f"baseline {baseline_path} is missing or invalid; run "
                "'repro lint --write-baseline' and commit the result"
            )
        else:
            result.baseline_used = True
            result.new_findings, result.fixed_count = compare_to_baseline(
                findings, baseline
            )
    return result
