"""Smoke test of the benchmark itself: ``run.py --smoke`` end to end.

Not part of the tier-1 suite (``pytest.ini`` collects ``tests/`` only);
run it with ``python -m pytest bench_e2e/test_smoke.py``.  It takes the
same code paths as a real run — fresh children, a real server, the layer
pass — at toy sizes, one repetition each.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
ROOT_SPANS = {"layer_pass", "serve.lifetime"}


def test_smoke_run_prints_every_metric_and_fails_nothing():
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--smoke"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] is True
    assert final["failed"] == 0
    assert final["attempted"] >= 1

    # One table per workload and mode; each names every metric of its
    # mode with its unit.
    sections: dict[str, list[str]] = {}
    for line in lines[:-1]:
        if line.startswith("== "):
            current = sections.setdefault(line, [])
        elif line and not line.startswith("metric "):
            current.append(line)
    assert len(sections) == 2 * len(SPEC["workloads"])
    for header, rows in sections.items():
        assert "0 failed" in header, header
        declared = SPEC["per_layer"] if "layer pass" in header else SPEC["end_to_end"]
        printed = {tuple(row.split()[:2]) for row in rows}
        for metric in declared:
            assert (metric["name"], metric["unit"]) in printed, (header, metric["name"])

    # The final object carries every declared metric of every workload.
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            entry = final["metrics"][f"{workload['name']}/{metric['name']}"]
            assert entry["unit"] == metric["unit"]
        for metric in SPEC["end_to_end"]:
            assert final["metrics"][f"{workload['name']}/{metric['name']}"]["value"] > 0

    # Every span of every trace file has a parent, except the roots.
    for workload in SPEC["workloads"]:
        trace = json.loads(
            (BENCH_DIR / "results" / f"trace-{workload['name']}-smoke.json").read_text()
        )
        spans = trace["spans"]
        ids = {span["id"] for span in spans}
        assert len(ids) == len(spans) > 0
        for span in spans:
            assert span["workload"] == workload["name"]
            assert span["end"] >= span["start"]
            if span["parent"] is None:
                assert span["name"] in ROOT_SPANS, span
            else:
                assert span["parent"] in ids, span


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it says so and stops."""
    import shutil

    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        BENCH_DIR,
        tmp_path / BENCH_DIR.name,
        ignore=shutil.ignore_patterns("results", ".work", "__pycache__"),
    )
    done = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
