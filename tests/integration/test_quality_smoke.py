"""Tier-1 quality pins: one per inference path, at unit-test sizes.

The repository benchmark bounds precision / recall / F1 on its four
workloads, but only when someone runs it.  These are the same
configurations at sizes that fit the unit-test budget (~0.5 s each), so a
change to grounding, learning or inference that moves an answer fails
here first.

* Factor (Gibbs) path, ``hospital-200-factors``' configuration on a
  120-row Hospital: the pinned F1 is the measured value at the commit
  that introduced chromatic Gibbs (41 correct of 42 repairs, 48 errors),
  which is also what the single-site sampler before it scored.
* Weak-label rule, a 1,000-row Hospital trained on 200 sampled cells:
  the auto rule must leave weak labels off, as it does uncapped (it
  once set the capped evidence against the uncapped query count and
  switched them on: F1 0.255).
* Softmax path, ``run_holoclean`` defaults on a 300-row Hospital and a
  20-flight Flights: the pinned values were measured at the parent of the
  commit that moved feature-key allocation to emission order, and that
  commit reproduces them to the last digit.

Each case also pins two counts that repeat exactly, ``feature_entries``
and ``weights`` of the size report, so the feature matrix cannot silently
re-inflate: they were measured when the matrix went to one entry per
(row, weight) and none on one-candidate variables (141,776 → 77,588,
371,252 → 201,314 and 179,863 → 135,635 entries; weights and the three
quality numbers unchanged to the last digit).
"""

import pytest

from repro.data import generate_flights, generate_hospital
from repro.eval.harness import run_holoclean

PINNED_F1 = 0.911
#: Factor path: (feature entries, weights).
FACTOR_COUNTS = (77_588, 373)
#: Softmax path: (generator, kwargs, precision, recall, F1, entries, weights).
SOFTMAX_PINS = [
    (generate_hospital, dict(num_rows=300, seed=0), 0.991, 0.824, 0.900, 201_314, 373),
    (generate_flights, dict(num_flights=20, seed=0), 0.897, 0.885, 0.891, 135_635, 66),
]


def counts(result):
    return result.size_report["feature_entries"], result.size_report["weights"]


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
    assert counts(result) == FACTOR_COUNTS
    assert run.quality.f1 == pytest.approx(PINNED_F1, abs=0.03)
    assert run.quality.precision >= 0.95


@pytest.mark.parametrize(
    "generate,kwargs,precision,recall,f1,entries,weights",
    SOFTMAX_PINS,
    ids=["hospital-300", "flights-20"],
)
def test_softmax_path_quality(
    generate, kwargs, precision, recall, f1, entries, weights
):
    run, result = run_holoclean(generate(**kwargs))
    assert result.report.metrics["labels"]["infer.method"] == "softmax"
    assert counts(result) == (entries, weights)
    assert run.quality.f1 == pytest.approx(f1, abs=0.03)
    assert run.quality.precision == pytest.approx(precision, abs=0.03)
    assert run.quality.recall == pytest.approx(recall, abs=0.03)


def test_capped_training_sample_leaves_weak_labels_off():
    generated = generate_hospital(num_rows=1000, seed=7)
    run, result = run_holoclean(generated, max_training_cells=200)
    _, forced = run_holoclean(
        generated, max_training_cells=200, weak_label_training=False
    )
    assert run.quality.f1 >= 0.9
    assert result.repaired == forced.repaired
