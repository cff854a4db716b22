"""Config-drift checker: fixtures plus the real-repo sync proof."""

from __future__ import annotations

from repro.analysis.config_drift import CONFIG_REL, ConfigDriftChecker

DOC_REL = "docs/configuration.md"

CONFIG_SOURCE = """
from dataclasses import dataclass


@dataclass
class HoloCleanConfig:
    tau: float = 0.5
    seed: int = 42
"""

DOC_IN_SYNC = """# Configuration

| Field | Default |
| --- | --- |
| `tau` | `0.5` |
| `seed` | `42` |
"""


def run_checker(make_ctx, make_module, doc, config_source=CONFIG_SOURCE):
    ctx = make_ctx(make_module(CONFIG_REL, config_source), docs={DOC_REL: doc})
    return ConfigDriftChecker().check(ctx)


def test_in_sync_doc_is_clean(make_ctx, make_module):
    assert run_checker(make_ctx, make_module, DOC_IN_SYNC) == []


def test_undocumented_field_flagged(make_ctx, make_module):
    source = CONFIG_SOURCE + "    epochs: int = 60\n"
    findings = run_checker(make_ctx, make_module, DOC_IN_SYNC, source)
    assert [f.rule for f in findings] == ["config-undocumented"]
    assert findings[0].path == CONFIG_REL
    assert "epochs" in findings[0].message


def test_phantom_doc_field_flagged(make_ctx, make_module):
    doc = DOC_IN_SYNC.replace(
        "| `seed` | `42` |", "| `seed` | `42` |\n| `gone` | `1` |"
    )
    findings = run_checker(make_ctx, make_module, doc)
    assert [f.rule for f in findings] == ["config-unknown"]
    assert findings[0].path == DOC_REL


def test_real_repo_config_docs_in_sync(repo_ctx):
    findings = ConfigDriftChecker().check(repo_ctx)
    assert findings == [], [f.render() for f in findings]
