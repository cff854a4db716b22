# Developer entry points; CI runs the same commands (see .github/workflows).

PYTHON ?= python

.PHONY: test lint lint-deep bench bench-ci bench-e2e-smoke clean

test:
	$(PYTHON) -m pytest -x -q

lint:
	ruff check .
	xargs -a .ruff-format-paths ruff format --check

# The repo-specific invariant linter (determinism, hot-path purity,
# parallel safety, telemetry/config drift) gated by the committed
# zero-findings baseline.  See docs/static_analysis.md.
lint-deep:
	PYTHONPATH=src $(PYTHON) -m repro lint

# Run every benchmarks/bench_*.py and collect BENCH_*.json results.
bench:
	PYTHONPATH=src $(PYTHON) -m repro bench

# The CI bench job: the regression-gated performance benchmarks plus
# the baseline comparison.
bench-ci:
	$(PYTHON) benchmarks/bench_engine_grounding.py
	$(PYTHON) benchmarks/bench_factor_grounding.py
	$(PYTHON) benchmarks/bench_factor_tables.py
	$(PYTHON) benchmarks/bench_domain_pruning.py
	$(PYTHON) benchmarks/bench_pipeline.py
	$(PYTHON) benchmarks/bench_serving.py
	$(PYTHON) benchmarks/check_regression.py

# The repository benchmark (BENCHMARK.json) at toy sizes: every workload,
# both passes, one repetition (~25 s), then its own smoke tests.
bench-e2e-smoke:
	$(PYTHON) bench_e2e/run.py --smoke
	$(PYTHON) -m pytest bench_e2e/test_smoke.py

clean:
	rm -rf .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
