"""The repository benchmark: one command, four workloads.

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload for about ``S`` seconds and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — every end-to-end metric of ``BENCHMARK.json``
with ``--trace 0``, every per-layer metric with ``--trace 1``.  Without
``--workload`` it runs all four, both ways.  ``--smoke`` runs the same
code at toy sizes; ``--repeat-check`` runs everything twice and compares.

How a number is made repeatable on a small shared box: every repetition
is a fresh process (what a ``repro`` CLI user pays), strictly one at a
time, with one BLAS thread and a fixed hash seed; a seed names a fixed
panel of generated instances (see ``workloads.py``) and a run repairs
all of it, pass after pass while ``--seconds`` has room for another whole
pass, so the instances behind a value never depend on how fast the
machine is.  A run's value is the lower quartile of its repetitions for a
time, the median for memory, and the ratio of the counts pooled over the
panel for precision, recall and F1.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from common import (
    BENCH_DIR,
    ROOT,
    SRC,
    Recorder,
    Spans,
    child_env,
    clock,
    import_program,
    summarize,
)
from serve_client import run_lifetime

RESULTS_DIR = BENCH_DIR / "results"
WORK_DIR = BENCH_DIR / ".work"

#: A child that takes longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 60.0
#: No repetition starts after this much of a run, whatever ``--seconds``
#: says: the run as a whole has to end well within three minutes.
HARD_LIMIT_S = 90.0


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def run_child(script: str, inputs: Path, extra: list[str], rec: Recorder) -> dict | None:
    """Run one child script to completion; its JSON line, or ``None``.

    A child that dies, hangs or prints no result costs failed operations,
    not the driver.
    """
    command = [sys.executable, str(BENCH_DIR / script), "--inputs", str(inputs), *extra]
    try:
        done = subprocess.run(
            command,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
        if done.returncode != 0:
            raise ValueError(f"exit code {done.returncode}: {done.stderr.strip()[-300:]}")
        out = json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
        rec.attempted += 1
        rec.fail(f"{script}: {exc}")
        return None
    rec.merge(out)
    return out


def batch_rep(directory: Path, rec: Recorder) -> str | None:
    out = run_child("batch_child.py", directory, ["--spawned-at", repr(clock())], rec)
    return out.get("fingerprint") if out else None


def layer_rep(directory: Path, rep: int, rec: Recorder, spans: list) -> None:
    out = run_child("layer_child.py", directory, ["--rep", str(rep)], rec)
    if out:
        spans.extend(out["spans"])


# ----------------------------------------------------------------------
# Machine calibration
# ----------------------------------------------------------------------
def calibrate() -> tuple[float, float]:
    """Seconds for a fixed Python-object loop and a fixed NumPy loop.

    They move no metric; they say how fast the box was around a traced
    run, so a drift of the whole machine is not read as a drift of a layer.
    """
    import numpy as np

    started = time.perf_counter()
    table: dict[int, list[int]] = {}
    for i in range(2_000_000):
        table.setdefault(i % 1013, []).append(i)
    py_s = time.perf_counter() - started

    rng = np.random.default_rng(0)
    keys = rng.integers(0, 50_000, size=1_000_000)
    started = time.perf_counter()
    for _ in range(15):
        np.bincount(np.sort(keys))
    np_s = time.perf_counter() - started
    return py_s, np_s


# ----------------------------------------------------------------------
# One run of one workload
# ----------------------------------------------------------------------
def pooled_quality(samples: dict, instances: int) -> dict[str, float]:
    """Precision, recall and F1 of all repairs of the panel's first pass.

    Same definitions as ``eval.metrics.evaluate_repairs``, over the summed
    counts: one number for the whole panel, the same on every run of a seed.
    """
    repairs, correct, errors = (
        sum(samples.get(f"eval.{count}", [])[:instances])
        for count in ("repairs", "correct_repairs", "errors")
    )
    if not repairs or not errors:
        return {}
    precision, recall = correct / repairs, correct / errors
    total = precision + recall
    return {
        "precision": precision,
        "recall": recall,
        "f1": 2 * precision * recall / total if total else 0.0,
    }


def measure(workload, seed: int, seconds: float, trace: bool, smoke: bool,
            reps: int | None) -> dict:
    """Pass after pass over the seed's panel until the time is used."""
    from workloads import generate, serve_payload, write_inputs

    rec = Recorder()
    spans: list[dict] = []
    # The layer pass has no bounds to meet and reports counts that must
    # repeat exactly: it stays on the panel's first instance.
    panel = 1 if trace else workload.panel
    instances: list = []
    #: Fingerprint of each instance's first repair.
    fingerprints: list[str | None] = [None] * panel
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    before = calibrate() if trace else None
    started = time.perf_counter()
    rep = 0
    try:
        while True:
            elapsed = time.perf_counter() - started
            if reps is not None:
                if rep >= reps:
                    break
            elif rep and rep % panel == 0 and elapsed * (1 + panel / rep) > seconds:
                break  # no room for another whole pass
            if rep and elapsed > HARD_LIMIT_S:
                break
            index = rep % panel
            directory = workdir / f"instance{index}"
            if index == len(instances):
                instances.append(generate(workload, seed, index, smoke))
                write_inputs(workload, instances[index], directory)
            generated = instances[index]
            fingerprint = None
            if trace:
                layer_rep(directory, rep, rec, spans)
            elif workload.kind == "batch":
                fingerprint = batch_rep(directory, rec)
            if workload.kind == "serve":
                own = Spans(workload.name, rep, prefix=f"r{rep}.s")
                fingerprint = run_lifetime(
                    generated, serve_payload(workload, generated), workload.rounds,
                    directory, rec, own,
                )
                spans.extend(own.spans)
            if fingerprints[index] is None:
                fingerprints[index] = fingerprint
            elif fingerprint != fingerprints[index]:
                rec.fail(f"instance {index}: repetition {rep} repaired it differently")
            rep += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started
    if reps is None and rep < panel:
        rec.fail(f"only {rep} of the panel's {panel} instances fit in {HARD_LIMIT_S:.0f} s")
    if before is not None:
        after = calibrate()
        rec.add("machine.calib_py_s", statistics.mean((before[0], after[0])))
        rec.add("machine.calib_np_s", statistics.mean((before[1], after[1])))
        rec.add("machine.calib_drift", max(abs(a / b - 1) for a, b in zip(after, before)))
    else:
        for name, value in pooled_quality(rec.samples, panel).items():
            rec.add(name, value)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "smoke": smoke,
        "reps": rep,
        "panel": panel,
        "wall_s": wall,
        "samples": dict(rec.samples),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "errors": rec.errors,
        "fingerprints": fingerprints,
        "spans": spans,
    }


def mode_metrics(run: dict, spec: dict) -> list[dict]:
    return spec["per_layer"] if run["trace"] else spec["end_to_end"]


def summaries(run: dict, spec: dict) -> dict[str, dict]:
    """Per declared metric of the run's mode: value, median, quartiles, n.

    End-to-end times report their lower quartile (see ``summarize``); the
    layer pass has few repetitions and no bounds, and reports medians.
    """
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(run["samples"]) - names)
    if unknown:
        raise SystemExit(f"metrics measured but not declared in BENCHMARK.json: {unknown}")
    return {
        m["name"]: summarize(
            run["samples"].get(m["name"], []), low=not run["trace"] and m["unit"] == "s"
        )
        for m in mode_metrics(run, spec)
    }


def verdict(run: dict, spec: dict, stats: dict[str, dict]) -> dict:
    """The contract's result object for one run.

    A layer the workload does not run reports 0; an end-to-end metric
    without a sample means every operation behind it failed.
    """
    complete = run["trace"] or all(s["n"] for s in stats.values())
    return {
        "correct": run["failed"] == 0 and run["attempted"] > 0 and bool(complete),
        "attempted": max(1, run["attempted"]),
        "failed": run["failed"],
        "metrics": {
            m["name"]: {"value": stats[m["name"]].get("value", 0.0), "unit": m["unit"]}
            for m in mode_metrics(run, spec)
        },
    }


def print_table(run: dict, spec: dict, stats: dict[str, dict]) -> None:
    mode = "layer pass" if run["trace"] else "end to end"
    print(
        f"\n== {run['workload']} · {mode} · seed {run['seed']} · {run['reps']} repetitions "
        f"over {run['panel']} instance(s) "
        f"· {run['wall_s']:.1f}s · ops {run['attempted']} attempted, {run['failed']} failed"
    )
    print(f"{'metric':<30} {'unit':<6} {'value':>12} {'median':>12} {'min':>12} "
          f"{'q1':>12} {'q3':>12} {'n':>4}")
    for metric in mode_metrics(run, spec):
        row = stats[metric["name"]]
        if not row["n"]:
            print(f"{metric['name']:<30} {metric['unit']:<6} {'-':>12}")
            continue
        print(
            f"{metric['name']:<30} {metric['unit']:<6} {row['value']:>12.4f} "
            f"{row['median']:>12.4f} {row['min']:>12.4f} {row['q1']:>12.4f} "
            f"{row['q3']:>12.4f} {row['n']:>4}"
        )
    for error in run["errors"]:
        print(f"FAILED: {error}")
    drift = run["samples"].get("machine.calib_drift", [0.0])[0]
    if drift > 0.10:
        print(f"WARNING: the machine's speed drifted {drift:.0%} during this run")


def save(run: dict, stats: dict[str, dict]) -> None:
    """Results, and the span file of a traced run, under ``results/``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "-smoke" if run["smoke"] else ""
    spans = run.pop("spans")
    if run["trace"]:
        path = RESULTS_DIR / f"trace-{run['workload']}{suffix}.json"
        path.write_text(json.dumps({"workload": run["workload"], "spans": spans}))
    kind = "layers" if run["trace"] else "e2e"
    path = RESULTS_DIR / f"{kind}-{run['workload']}{suffix}.json"
    path.write_text(json.dumps(dict(run, summary=stats), indent=1))


def run_once(workload, spec: dict, args, trace: bool, seed: int | None = None) -> tuple[dict, dict]:
    run = measure(
        workload, args.seed if seed is None else seed, args.seconds, trace, args.smoke, args.reps
    )
    stats = summaries(run, spec)
    print_table(run, spec, stats)
    save(run, stats)
    run["summary"] = stats
    return run, verdict(run, spec, stats)


# ----------------------------------------------------------------------
# --repeat-check
# ----------------------------------------------------------------------
def machine() -> dict:
    import numpy

    py_s, np_s = calibrate()
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "calib_py_s": py_s,
        "calib_np_s": np_s,
    }


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (needs 4 values)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def repeat_check(workloads, spec: dict, args) -> int:
    """Two sets of runs of the same code must agree within the bounds.

    With ``--seeds N`` each set is N runs on N consecutive seeds and a
    metric's value is the median of its N values — the protocol the
    acceptance of this benchmark is judged by (N = 10 there).
    """
    sets: list[dict] = [{}, {}]
    prints: list[dict] = [{}, {}]
    layers = {}
    correct = True
    for index in (0, 1):
        for workload in workloads:
            for offset in range(args.seeds):
                seed = args.seed + offset
                run, result = run_once(workload, spec, args, trace=False, seed=seed)
                correct &= result["correct"]
                prints[index][workload.name, seed] = run["fingerprints"]
                for name, metric in result["metrics"].items():
                    sets[index].setdefault((workload.name, name), []).append(metric["value"])
    for workload in workloads:
        run, result = run_once(workload, spec, args, trace=True)
        correct &= result["correct"]
        layers[workload.name] = run["summary"]

    print(f"\n== repeat check · {args.seeds} seed(s) per set")
    print(f"{'workload/metric':<44} {'set 1':>10} {'set 2':>10} {'apart by':>9} "
          f"{'spread 1':>9} {'spread 2':>9} {'bound':>6}")
    # The same seed means the same panel: both sets must have repaired
    # every instance of it identically.
    breaches = [
        f"{name} seed {seed}: the two sets repaired the same instances differently"
        for (name, seed), first in prints[0].items()
        if first != prints[1][name, seed]
    ]
    baseline: dict = {}
    for metric in spec["end_to_end"]:
        for workload in workloads:
            key = (workload.name, metric["name"])
            first, second = (statistics.median(s[key]) for s in sets)
            # Either set may be the slow one: the distance counts, not its sign.
            low = min(first, second)
            apart = abs(second - first) / low if low > 0 else float("inf")
            spreads = [spread(s[key]) for s in sets]
            label = f"{workload.name}/{metric['name']}"
            shown = ["-" if s is None else f"{s:9.3f}" for s in spreads]
            print(f"{label:<44} {first:>10.4f} {second:>10.4f} {apart:>9.3f} "
                  f"{shown[0]:>9} {shown[1]:>9} {metric['bound']:>6}")
            if apart > metric["bound"]:
                breaches.append(f"{label}: the two medians are {apart:.1%} apart")
            if metric["name"] != "setup_s":
                breaches.extend(
                    f"{label}: spread {s:.1%} above the bound"
                    for s in spreads if s is not None and s > metric["bound"]
                )
            baseline.setdefault(workload.name, {})[metric["name"]] = {
                "unit": metric["unit"],
                "better": metric["better"],
                "bound": metric["bound"],
                "sets": [
                    dict(summarize(s[key]), spread=spread(s[key]), per_seed=s[key]) for s in sets
                ],
            }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "repeat-check.json").write_text(json.dumps({
        "machine": machine(),
        "seed": args.seed,
        "seeds_per_set": args.seeds,
        "run_seconds": args.seconds,
        "end_to_end": baseline,
        # Per workload and seed, each panel instance's repairs: a change
        # that moves one of these has changed an answer.
        "fingerprints": {
            workload.name: {
                str(seed): found for (name, seed), found in prints[0].items()
                if name == workload.name
            }
            for workload in workloads
        },
        "per_layer": layers,
    }, indent=1))
    for breach in breaches:
        print(f"BREACH: {breach}")
    if not correct:
        print("BREACH: some operations failed")
    return 1 if breaches or not correct else 0


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload by name (default: all four)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0 = end-to-end metrics, 1 = the layer pass (default: both)")
    parser.add_argument("--reps", type=int, default=None,
                        help="exactly this many repetitions instead of filling --seconds")
    parser.add_argument("--smoke", action="store_true",
                        help="toy sizes, one repetition: the same code in under 30 s")
    parser.add_argument("--repeat-check", action="store_true",
                        help="run twice, fail if two medians differ by more than a bound")
    parser.add_argument("--seeds", type=int, default=1,
                        help="with --repeat-check: runs (on consecutive seeds) per set")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    import_program()
    from workloads import WORKLOADS

    spec = declared()
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.smoke and args.reps is None:
        args.reps = 1
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"bench_e2e: unknown workload {args.workload!r}; pick one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    chosen = [WORKLOADS[args.workload]] if args.workload else list(WORKLOADS.values())
    if args.repeat_check:
        return repeat_check(chosen, spec, args)

    modes = (False, True) if args.trace is None else (bool(args.trace),)
    results = [
        (workload, run_once(workload, spec, args, trace)[1])
        for workload in chosen
        for trace in modes
    ]
    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {
                f"{workload.name}/{name}": metric
                for workload, r in results
                for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
