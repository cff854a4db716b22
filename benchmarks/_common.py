"""Shared infrastructure for the benchmark suite.

Each benchmark regenerates one table or figure of the paper.  Datasets are
generated once per process and cached; sizes default to laptop-friendly
row counts (Table 2's Hospital and Flights are reproduced at paper size,
Food and Physicians are scaled down) and honour ``REPRO_SCALE``.

Results are printed and also written to ``benchmarks/results/*.txt`` so
they survive pytest's output capture.  Performance is measured by the
repository benchmark (``bench_e2e/``), not here.
"""

from __future__ import annotations

import functools
from pathlib import Path

from repro.data import (
    generate_flights,
    generate_food,
    generate_hospital,
    generate_physicians,
)
from repro.data.base import GeneratedDataset

RESULTS_DIR = Path(__file__).parent / "results"

#: Benchmark row budgets.  Hospital and Flights match Table 2 exactly;
#: Food and Physicians are scaled-down substitutes (paper: 339,908 and
#: 2,071,849 rows) — raise REPRO_SCALE to approach paper size.
BENCH_SIZES = {
    "hospital": dict(num_rows=1000),
    "flights": dict(num_flights=70),   # 70 × 34 sources = 2,380 tuples
    "food": dict(num_rows=1000),
    "physicians": dict(num_rows=1200),
}

_GENERATORS = {
    "hospital": generate_hospital,
    "flights": generate_flights,
    "food": generate_food,
    "physicians": generate_physicians,
}

#: The τ used per dataset in Table 3 of the paper.
TABLE3_TAU = {"hospital": 0.5, "flights": 0.3, "food": 0.5, "physicians": 0.7}

#: Baseline time budget (seconds); exceeding it is reported as DNF, the
#: paper's "failed to terminate after three days".
BASELINE_BUDGET = 120.0


@functools.lru_cache(maxsize=None)
def dataset(name: str) -> GeneratedDataset:
    """Generate (once per process) the named benchmark dataset."""
    return _GENERATORS[name](**BENCH_SIZES[name])


@functools.lru_cache(maxsize=None)
def holoclean_run(name: str):
    """One cached HoloClean run per dataset (shared by Tables 3 and 4)."""
    from repro.eval.harness import run_holoclean

    return run_holoclean(dataset(name), tau=TABLE3_TAU[name])


@functools.lru_cache(maxsize=None)
def baseline_run(name: str, method: str):
    """One cached baseline run per (dataset, method)."""
    from repro.eval.harness import run_baseline

    return run_baseline(method, dataset(name), time_budget=BASELINE_BUDGET)


#: The τ sweep shared by Figures 3-4.
SWEEP_TAUS = (0.3, 0.5, 0.7, 0.9)


@functools.lru_cache(maxsize=None)
def tau_sweep(name: str):
    """τ → (quality, timings) per dataset; computed once, used by both
    the Figure 3 (quality) and Figure 4 (runtime) benches."""
    from repro.eval.harness import run_holoclean

    generated = dataset(name)
    points = {}
    for tau in SWEEP_TAUS:
        run, _result = run_holoclean(generated, tau=tau)
        points[tau] = (run.quality, dict(run.timings))
    return points


def publish(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    banner = f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def fmt(value, width: int = 6) -> str:
    if value is None:
        return "n/a".rjust(width)
    if isinstance(value, float):
        return f"{value:.3f}".rjust(width)
    return str(value).rjust(width)
