"""Observability for the repair pipeline: traces, metrics, run reports.

The telemetry subsystem threaded through the staged API
(:mod:`repro.core.stages`):

* :mod:`~repro.obs.trace` — :class:`Tracer` / :class:`Span`:
  hierarchical wall-clock + memory spans; stages open coarse spans,
  hot paths open deep child spans via :func:`deep_span` when
  ``HoloCleanConfig.trace_level = "deep"``.
* :mod:`~repro.obs.metrics` — :class:`MetricsRegistry`: named
  counters/gauges/labels/series absorbing the ``grounding_*``
  size-report counters plus per-stage telemetry.
* :mod:`~repro.obs.report` — :class:`RunReport`: the JSON-serializable
  bundle (trace + metrics + config fingerprint + dataset shape)
  attached to every :class:`~repro.core.repair.RepairResult` and
  rendered by ``repro trace``.
* :mod:`~repro.obs.fingerprint` — stable content hashes of datasets,
  constraint sets, and configs, shared by run reports, the serving
  session store, and checkpoint filenames.
* :mod:`~repro.obs.logging` — the ``repro.*`` structured logger used by
  the CLIs.

The package imports nothing from :mod:`repro.core` or
:mod:`repro.engine`, so every layer may depend on it freely.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.obs.fingerprint import (
        combine_fingerprints,
        config_fingerprint,
        constraints_fingerprint,
        dataset_fingerprint,
    )
    from repro.obs.logging import (
        add_verbosity_flags,
        configure,
        get_logger,
        verbosity_from,
    )
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import RunReport, build_run_report
    from repro.obs.trace import (
        TRACE_LEVELS,
        Span,
        Tracer,
        active_tracer,
        deep_enabled,
        deep_span,
    )

__all__ = [
    "TRACE_LEVELS",
    "MetricsRegistry",
    "RunReport",
    "Span",
    "Tracer",
    "active_tracer",
    "add_verbosity_flags",
    "build_run_report",
    "combine_fingerprints",
    "config_fingerprint",
    "configure",
    "constraints_fingerprint",
    "dataset_fingerprint",
    "deep_enabled",
    "deep_span",
    "get_logger",
    "verbosity_from",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.fingerprint": (
            "combine_fingerprints",
            "config_fingerprint",
            "constraints_fingerprint",
            "dataset_fingerprint",
        ),
        "repro.obs.logging": (
            "add_verbosity_flags",
            "configure",
            "get_logger",
            "verbosity_from",
        ),
        "repro.obs.metrics": ("MetricsRegistry",),
        "repro.obs.report": ("RunReport", "build_run_report"),
        "repro.obs.trace": (
            "TRACE_LEVELS",
            "Span",
            "Tracer",
            "active_tracer",
            "deep_enabled",
            "deep_span",
        ),
    },
)
