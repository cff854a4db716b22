"""Tier-1 quality pin for the DC-factor (Gibbs) path.

The repository benchmark bounds precision / recall / F1 on
``hospital-200-factors``, but only when someone runs it.  This is the
same configuration at a size that fits the unit-test budget (~0.5 s), so
a change to grounding, learning or the sampler that moves an answer
fails here first.  The pinned F1 is the measured value at the commit that
introduced chromatic Gibbs (41 correct of 42 repairs, 48 errors), which
is also what the single-site sampler before it scored on this instance.
"""

import pytest

from repro.data import generate_hospital
from repro.eval.harness import run_holoclean

PINNED_F1 = 0.911


def test_hospital_factor_path_quality():
    generated = generate_hospital(num_rows=120, seed=0)
    run, result = run_holoclean(
        generated,
        use_dc_factors=True,
        use_partitioning=True,
        gibbs_burn_in=2,
        gibbs_sweeps=8,
    )
    metrics = result.report.metrics
    assert metrics["labels"]["infer.method"] == "gibbs"
    assert result.size_report["constraint_factors"] > 1000
    assert run.quality.f1 == pytest.approx(PINNED_F1, abs=0.03)
    assert run.quality.precision >= 0.95
