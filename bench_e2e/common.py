"""Pieces shared by the benchmark driver and its child scripts.

Nothing here imports :mod:`repro`: the driver must be able to say "the
program is not here" before any import of it is attempted, and the
children import it themselves because that import is part of what
``setup_s`` measures.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Verified cells fed back per re-repair, as in the paper's Section 2.2 loop.
FEEDBACK_CELLS = 25


def clock() -> float:
    """Seconds on the system-wide monotonic clock.

    ``CLOCK_MONOTONIC`` has one origin for every process on the host, so
    the driver's reading at spawn and the child's reading at "ready" can
    be subtracted.
    """
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict[str, str]:
    """The environment every measured process runs in.

    One BLAS/OpenMP thread (the box has two cores and the driver is the
    other process), a fixed hash seed, and none of the repository's own
    size knobs, so a stray ``REPRO_SCALE`` cannot resize a workload.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if key != "REPRO_SCALE" and not key.startswith("BENCH_")
    }
    for knob in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[knob] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def read_meta(inputs: Path) -> dict:
    """``meta.json`` of an inputs directory, its config ready for ``with_``."""
    meta = json.loads((inputs / "meta.json").read_text())
    entity = meta["config"]["source_entity_attributes"]
    meta["config"]["source_entity_attributes"] = tuple(entity)
    return meta


def repairs_fingerprint(repairs) -> str:
    """Hash of the sorted ``(tid, attribute, new value)`` triples."""
    digest = hashlib.sha1()
    for tid, attribute, new in sorted(repairs):
        digest.update(f"{tid}\x1f{attribute}\x1f{new}\x1e".encode())
    return digest.hexdigest()[:16]


def summarize(values: list[float], low: bool = False) -> dict:
    """Reported value, median, min, quartiles and n of one metric's samples.

    The value is the median — or, with ``low``, the lower quartile, which
    is what a run reports for its end-to-end times.  On a small shared box
    timing noise is one-sided: a neighbour slows the Python-object loops
    here by 25-50 % for seconds at a stretch, close to half of the time in
    a bad minute, and the median of six samples then flips between the two
    modes.  The lower quartile stays in the undisturbed one.
    """
    if not values:
        return {"n": 0}
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        # With two samples the default method extrapolates past them.
        q1, q3 = max(q1, ordered[0]), min(q3, ordered[-1])
    else:
        q1 = q3 = ordered[0]
    median = statistics.median(ordered)
    return {
        "value": q1 if low else median,
        "median": median,
        "min": ordered[0],
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
    }


class Recorder:
    """Samples per metric plus the operations attempted and failed.

    Every repair, re-repair, rehydrate and HTTP request is one operation.
    A failed operation is counted and explained in ``errors`` and adds no
    timing sample.
    """

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, metric: str, value: float) -> None:
        self.samples[metric].append(float(value))

    def add_quality(self, quality) -> None:
        """The counts behind one repair's precision, recall and F1."""
        self.add("eval.repairs", quality.total_repairs)
        self.add("eval.correct_repairs", quality.correct_repairs)
        self.add("eval.errors", quality.total_errors)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def timed(self, metric: str | None, label: str, call, check=None):
        """Run one operation; return its result, or ``None`` if it failed.

        ``check(result)`` returns a complaint (or ``None``); the timing is
        kept only when the call raised nothing and the check passed.
        """
        self.attempted += 1
        started = time.perf_counter()
        try:
            result = call()
        except Exception as exc:  # noqa: BLE001 - any failure is a failed operation
            self.fail(f"{label}: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - started
        complaint = check(result) if check is not None else None
        if complaint:
            self.fail(f"{label}: {complaint}")
            return None
        if metric is not None:
            self.add(metric, elapsed)
        return result

    def merge(self, other: dict) -> None:
        """Fold in the JSON form of another recorder (a child's output)."""
        for metric, values in other.get("samples", {}).items():
            self.samples[metric].extend(values)
        self.attempted += int(other.get("attempted", 0))
        self.failed += int(other.get("failed", 0))
        self.errors.extend(other.get("errors", []))

    def to_json(self) -> dict:
        return {
            "samples": dict(self.samples),
            "attempted": self.attempted,
            "failed": self.failed,
            "errors": self.errors,
        }


class Spans:
    """Benchmark-side spans: name, start, end, parent, workload id.

    Kept in memory and handed back to the driver, which writes them out
    once when the run ends.  A span's parent is the span that was open
    when it started, so every span but the root of a pass has one.
    """

    def __init__(self, workload: str, rep: int, prefix: str):
        self.workload = workload
        self.rep = rep
        self.prefix = prefix
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, **attributes) -> "_OpenSpan":
        return _OpenSpan(self, name, attributes)

    def _start(self, name: str, attributes: dict) -> dict:
        record = {
            "id": f"{self.prefix}{len(self.spans)}",
            "name": name,
            "parent": self.spans[self._open[-1]]["id"] if self._open else None,
            "workload": self.workload,
            "rep": self.rep,
            "start": clock(),
            "end": None,
        }
        if attributes:
            record["attributes"] = attributes
        self._open.append(len(self.spans))
        self.spans.append(record)
        return record

    def _finish(self, record: dict) -> None:
        record["end"] = clock()
        self._open.pop()


class _OpenSpan:
    def __init__(self, owner: Spans, name: str, attributes: dict):
        self.owner = owner
        self.name = name
        self.attributes = attributes
        self.record: dict | None = None

    def __enter__(self) -> "_OpenSpan":
        self.record = self.owner._start(self.name, self.attributes)
        return self

    def __exit__(self, *exc_info) -> None:
        self.owner._finish(self.record)

    @property
    def seconds(self) -> float:
        return self.record["end"] - self.record["start"]
