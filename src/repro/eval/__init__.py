"""Evaluation harness: repair quality, calibration, and report rendering.

Implements the paper's evaluation methodology (Section 6.1): precision =
correct repairs / repairs performed, recall = correct repairs / total
errors, F1 = their harmonic mean; plus the marginal-probability bucket
analysis of Figure 6 and plain-text table/figure renderers used by the
benchmark scripts.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.eval.metrics import (
        RepairQuality,
        evaluate_repairs,
        evaluate_method_result,
    )
    from repro.eval.buckets import BucketReport, bucket_error_rates
    from repro.eval.report import render_table, render_series
    from repro.eval.harness import (
        MethodRun,
        run_holoclean,
        run_baseline,
        holoclean_config_for,
    )

__all__ = [
    "RepairQuality",
    "evaluate_repairs",
    "evaluate_method_result",
    "BucketReport",
    "bucket_error_rates",
    "render_table",
    "render_series",
    "MethodRun",
    "run_holoclean",
    "run_baseline",
    "holoclean_config_for",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.eval.metrics": (
            "RepairQuality",
            "evaluate_repairs",
            "evaluate_method_result",
        ),
        "repro.eval.buckets": ("BucketReport", "bucket_error_rates"),
        "repro.eval.report": ("render_table", "render_series"),
        "repro.eval.harness": (
            "MethodRun",
            "run_holoclean",
            "run_baseline",
            "holoclean_config_for",
        ),
    },
)
