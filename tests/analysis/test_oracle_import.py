"""Fixture self-tests: the oracle-import checker."""

from __future__ import annotations

import pytest

from repro.analysis.oracle_import import OracleImportChecker


def check(make_ctx, module):
    return OracleImportChecker().check(make_ctx(module))


@pytest.mark.parametrize(
    "statement",
    [
        "import repro.oracle",
        "import repro.oracle.domain as reference",
        "from repro.oracle import DomainPruner",
        "from repro.oracle.compiler import NaiveModelCompiler",
        "from repro import oracle",
        "from ..oracle import NaiveViolationDetector",
        "from .. import oracle",
    ],
)
def test_production_import_flagged(make_module, make_ctx, statement):
    bad = make_module("src/repro/core/compiler.py", statement + "\n")
    findings = check(make_ctx, bad)
    assert [f.rule_id for f in findings] == ["oracle-import.outside-oracle"]
    assert findings[0].line == 1


def test_function_level_import_flagged(make_module, make_ctx):
    bad = make_module(
        "src/repro/serve/service.py",
        """
        def fallback():
            from repro.oracle import NaiveModelCompiler

            return NaiveModelCompiler
        """,
    )
    assert [f.rule for f in check(make_ctx, bad)] == ["outside-oracle"]


def test_oracle_package_may_import_itself(make_module, make_ctx):
    good = make_module(
        "src/repro/oracle/compiler.py",
        """
        from repro.oracle.domain import DomainPruner
        from . import domain
        """,
    )
    assert check(make_ctx, good) == []


def test_lookalike_names_clean(make_module, make_ctx):
    good = make_module(
        "src/repro/core/compiler.py",
        """
        import repro.oracles
        from repro.core import compiler
        from .oracle_like import thing
        from . import rules
        """,
    )
    assert check(make_ctx, good) == []


def test_repository_is_clean(repo_ctx):
    assert OracleImportChecker().check(repo_ctx) == []
