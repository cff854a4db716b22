"""Fixture self-tests: the parallel-safety checker."""

from __future__ import annotations

from repro.analysis.parallel_safety import ParallelSafetyChecker

REL = "src/repro/serve/service.py"


def check(make_ctx, module):
    return ParallelSafetyChecker().check(make_ctx(module))


def test_lambda_to_pool_flagged(make_module, make_ctx):
    bad = make_module(
        REL,
        """
        import multiprocessing

        def run(pool, items):
            return pool.map(lambda x: x + 1, items)
        """,
    )
    assert [f.rule for f in check(make_ctx, bad)] == ["pool-callable"]


def test_bound_method_to_pool_flagged(make_module, make_ctx):
    bad = make_module(
        REL,
        """
        import multiprocessing

        class Runner:
            def _work(self, x):
                return x

            def run(self, pool, items):
                return pool.imap_unordered(self._work, items)
        """,
    )
    assert [f.rule for f in check(make_ctx, bad)] == ["pool-callable"]


def test_nested_function_to_pool_flagged(make_module, make_ctx):
    bad = make_module(
        REL,
        """
        import multiprocessing

        def run(pool, items, offset):
            def shift(x):
                return x + offset

            return pool.map(shift, items)
        """,
    )
    assert [f.rule for f in check(make_ctx, bad)] == ["pool-callable"]


def test_initializer_lambda_flagged(make_module, make_ctx):
    bad = make_module(
        REL,
        """
        import multiprocessing

        def start(ctx):
            return ctx.Pool(2, initializer=lambda: None)
        """,
    )
    assert [f.rule for f in check(make_ctx, bad)] == ["pool-callable"]


def test_module_level_function_clean(make_module, make_ctx):
    good = make_module(
        REL,
        """
        import multiprocessing

        def _work(x):
            return x + 1

        def run(pool, items):
            return pool.map(_work, items, chunksize=1)
        """,
    )
    assert check(make_ctx, good) == []


def test_module_without_multiprocessing_skipped(make_module, make_ctx):
    elsewhere = make_module(
        "src/repro/obs/report.py",
        """
        def run(pool, items):
            return pool.map(lambda x: x, items)
        """,
    )
    assert check(make_ctx, elsewhere) == []


def test_executor_submit_flagged(make_module, make_ctx):
    """`submit` on a process pool pickles its callable too (serve's path)."""
    bad = make_module(
        "src/repro/serve/service.py",
        """
        from concurrent.futures import ProcessPoolExecutor

        def run(pool, ctx):
            return pool.submit(lambda c: c, ctx)
        """,
    )
    assert [f.rule for f in check(make_ctx, bad)] == ["pool-callable"]


def test_executor_submit_module_level_ok(make_module, make_ctx):
    good = make_module(
        "src/repro/serve/service.py",
        """
        from concurrent.futures import ProcessPoolExecutor

        def _job(ctx):
            return ctx

        def run(pool, ctx):
            return pool.submit(_job, ctx)
        """,
    )
    assert check(make_ctx, good) == []
