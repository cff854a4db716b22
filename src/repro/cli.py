"""Command-line interface: repair a CSV with denial constraints.

Usage::

    python -m repro --input dirty.csv --constraints dcs.txt \\
        --output repaired.csv [--tau 0.5] [--variant dc-feats] \\
        [--fd "Zip -> City,State"] [--report repairs.txt]

The constraints file uses the textual denial-constraint format
(``t1&t2&EQ(t1.Zip,t2.Zip)&IQ(t1.City,t2.City)``, ``#`` comments allowed);
``--fd`` adds functional dependencies on top.  The repaired dataset is
written to ``--output``; ``--report`` takes either a ``.json`` path
(the telemetry :class:`~repro.obs.report.RunReport` — trace tree,
metrics, config fingerprint) or any other path for the human-readable
repair table (cell, old value, new value, confidence; stdout when the
flag is omitted).

``python -m repro trace report.json`` renders a saved run report as a
text flamegraph; ``python -m repro lint`` runs the repo-specific
invariant linter (see :mod:`repro.analysis` and
``docs/static_analysis.md``); ``python -m repro serve`` runs the HTTP
repair service (see :mod:`repro.serve` and ``docs/serving.md``).

Performance is measured by the repository benchmark (``bench_e2e/``,
declared in ``BENCHMARK.json``); the paper's Section 6 tables and
figures are reproduced by ``benchmarks/bench_*.py`` under pytest
(``make bench``).

Repairs execute through the staged plan of :mod:`repro.core.stages`
(Detect → Compile → Learn → Infer → Apply), the same path as the
library facade and the evaluation harness.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.obs import (
    add_verbosity_flags,
    configure,
    get_logger,
    verbosity_from,
)

log = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    from repro.core.config import VARIANTS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="HoloClean: holistic data repairs with probabilistic "
                    "inference (VLDB 2017 reproduction)")
    parser.add_argument("--input", required=True, type=Path,
                        help="dirty CSV file (header row required)")
    parser.add_argument("--output", required=True, type=Path,
                        help="where to write the repaired CSV")
    parser.add_argument("--constraints", type=Path,
                        help="denial-constraint file (textual DC format)")
    parser.add_argument("--fd", action="append", default=[],
                        metavar="'A,B -> C'",
                        help="functional dependency (repeatable)")
    parser.add_argument("--discover-fds", action="store_true",
                        help="profile the input and use approximate FDs "
                             "discovered at --discover-confidence")
    parser.add_argument("--discover-confidence", type=float, default=0.95,
                        help="g3 confidence threshold for --discover-fds")
    parser.add_argument("--tau", type=float, default=0.5,
                        help="Algorithm 2 pruning threshold (default 0.5)")
    parser.add_argument("--variant", choices=VARIANTS, default="dc-feats",
                        help="model variant (default dc-feats)")
    parser.add_argument("--epochs", type=int, default=60,
                        help="training epochs (default 60)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--source-column", default=None,
                        help="column carrying tuple provenance")
    parser.add_argument("--entity-columns", default=None,
                        help="comma-separated entity key for source "
                             "reliability (e.g. Flight)")
    parser.add_argument("--report", type=Path, default=None,
                        help="write a report here: a .json path gets the "
                             "telemetry run report (trace + metrics), any "
                             "other path the textual repair table "
                             "(default stdout)")
    parser.add_argument("--min-confidence", type=float, default=0.0,
                        help="only apply repairs at or above this marginal")
    parser.add_argument("--trace-level", choices=("off", "stage", "deep"),
                        default="stage",
                        help="telemetry span granularity: one span per "
                             "stage (default), engine/inference child "
                             "spans too ('deep'), or none ('off')")
    parser.add_argument("--trace-memory", action="store_true",
                        help="run tracemalloc so trace spans carry "
                             "Python-heap peak memory (slower)")
    add_verbosity_flags(parser)
    return parser


def trace_main(argv: list[str] | None = None) -> int:
    """``repro trace report.json``: render a saved run report as text."""
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="render a run report (from --report out.json) as a "
                    "text flamegraph with per-stage timings and metrics")
    parser.add_argument("report", type=Path,
                        help="run-report JSON written by 'repro --report "
                             "out.json' or RunReport.save()")
    add_verbosity_flags(parser)
    args = parser.parse_args(argv)
    configure(verbosity_from(args))
    from repro.obs.report import RunReport

    try:
        report = RunReport.load(args.report)
    except (OSError, ValueError) as exc:
        log.error("cannot read run report %s: %s", args.report, exc)
        return 2
    try:
        print(report.render_text())
    except BrokenPipeError:  # e.g. `repro trace run.json | head`
        sys.stderr.close()  # suppress the interpreter's epipe warning
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "trace":
        return trace_main(argv[1:])
    if argv and argv[0] == "lint":
        from repro.analysis.cli import main as lint_main

        return lint_main(argv[1:])
    if argv and argv[0] == "serve":
        from repro.serve.server import main as serve_main

        return serve_main(argv[1:])
    # The repair stack (and NumPy) loads only here: the subcommands above
    # import what they run and nothing more.
    from repro.constraints.fd import parse_fd
    from repro.constraints.parser import parse_dcs
    from repro.core.config import HoloCleanConfig
    from repro.core.pipeline import HoloClean
    from repro.core.stages import RepairPlan
    from repro.dataset.csv_io import read_csv, write_csv

    args = build_parser().parse_args(argv)
    configure(verbosity_from(args))

    dataset = read_csv(args.input, source_attribute=args.source_column)
    constraints = []
    if args.constraints:
        constraints.extend(
            parse_dcs(args.constraints.read_text().splitlines()))
    for fd_text in args.fd:
        constraints.extend(parse_fd(fd_text).to_denial_constraints())
    if args.discover_fds:
        from repro.constraints.discovery import (
            discover_fds, discovered_to_constraints)
        discovered = discover_fds(dataset,
                                  min_confidence=args.discover_confidence)
        for d in discovered:
            log.info("discovered: %s", d)
        constraints.extend(discovered_to_constraints(discovered))
    if not constraints:
        log.error("no constraints given (use --constraints, --fd, or "
                  "--discover-fds)")
        return 2

    entity = tuple(c.strip() for c in args.entity_columns.split(",")) \
        if args.entity_columns else ()
    config = HoloCleanConfig.variant(
        args.variant, tau=args.tau, epochs=args.epochs, seed=args.seed,
        source_entity_attributes=entity,
        trace_level=args.trace_level,
        trace_memory=args.trace_memory)

    log.debug("repairing %s with %d constraints (variant=%s)",
              args.input, len(constraints), args.variant)
    ctx = HoloClean(config).context(dataset, constraints)
    ctx = RepairPlan.default().run(ctx)
    result = ctx.result
    if ctx.tracer is not None:
        ctx.tracer.shutdown()

    # Apply the confidence floor, if any.
    repaired = dataset.copy(name=f"{dataset.name}-repaired")
    applied = 0
    report_lines = ["cell\told\tnew\tconfidence"]
    for cell, inference in sorted(result.repairs.items()):
        if inference.confidence < args.min_confidence:
            continue
        repaired.set_value(cell.tid, cell.attribute, inference.chosen_value)
        applied += 1
        report_lines.append(
            f"{cell}\t{inference.init_value}\t{inference.chosen_value}"
            f"\t{inference.confidence:.3f}")

    write_csv(repaired, args.output)
    report = "\n".join(report_lines)
    if args.report and args.report.suffix == ".json":
        # Telemetry run report (render later with `repro trace`).
        if result.report is None:
            log.error("no run report recorded (is --trace-level off?)")
            return 2
        result.report.save(args.report)
        log.info("run report written to %s", args.report)
    elif args.report:
        args.report.write_text(report + "\n")
    else:
        print(report)
    log.info("%s", result.summary())
    log.info("%d repairs applied to %s", applied, args.output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
