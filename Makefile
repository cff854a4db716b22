# Developer entry points; CI runs the same commands (see .github/workflows).

PYTHON ?= python

.PHONY: test lint lint-deep bench bench-e2e-smoke clean

test:
	$(PYTHON) -m pytest -x -q

lint:
	ruff check .
	xargs -a .ruff-format-paths ruff format --check

# The repo-specific invariant linter (determinism, hot-path purity,
# telemetry/config drift, oracle imports) gated by the committed
# zero-findings baseline.  See docs/static_analysis.md.
lint-deep:
	PYTHONPATH=src $(PYTHON) -m repro lint

# The paper suite: every benchmarks/bench_*.py reproduces one Section 6
# table or figure and asserts the paper's numbers; results land in
# benchmarks/results/*.txt.  Performance is gated by bench_e2e, below.
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_*.py -q

# The repository benchmark (BENCHMARK.json) at toy sizes: every workload,
# both passes, one repetition (~25 s), then its own smoke tests.
bench-e2e-smoke:
	$(PYTHON) bench_e2e/run.py --smoke
	$(PYTHON) -m pytest bench_e2e/test_smoke.py

clean:
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
