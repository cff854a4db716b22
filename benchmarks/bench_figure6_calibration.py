"""Figure 6: repair error-rate per marginal-probability bucket.

The paper buckets HoloClean's suggested repairs by marginal probability
([0.5-0.6) … [0.9-1.0]) and shows the error rate falling monotonically
with confidence (average 0.58 in the lowest bucket down to 0.04 in the
highest) — the "rigorous semantics" of the marginals.  Asserted here:
the error rate never rises from one bucket to the next among buckets
holding at least ``MIN_REPAIRS`` repairs (``RATE_SLACK`` slack), and the
top bucket's rate is at most ``TOP_BUCKET_MAX``.
"""

from _common import BENCH_SIZES, dataset, holoclean_run, publish

from repro.eval.buckets import BucketReport, bucket_error_rates

PAPER_AVG = {0: 0.58, 1: 0.36, 2: 0.24, 3: 0.07, 4: 0.04}

MIN_REPAIRS = 30
RATE_SLACK = 0.02
TOP_BUCKET_MAX = 0.10


def test_figure6_error_rate_by_confidence(benchmark):
    def collect():
        merged = BucketReport()
        per_dataset = {}
        for name in BENCH_SIZES:
            generated = dataset(name)
            _, result = holoclean_run(name)
            report = bucket_error_rates(result, generated.clean)
            per_dataset[name] = report
            merged.merge(report)
        return merged, per_dataset

    merged, per_dataset = benchmark.pedantic(collect, rounds=1, iterations=1)

    lines = [f"{'bucket':<12} {'repairs':>8} {'errors':>8} "
             f"{'error-rate':>11} {'paper avg':>10}"]
    for i, label in enumerate(merged.labels()):
        rate = merged.error_rates[i]
        rate_text = f"{rate:.3f}" if rate is not None else "—"
        lines.append(f"{label:<12} {merged.counts[i]:>8} "
                     f"{merged.errors[i]:>8} {rate_text:>11} "
                     f"{PAPER_AVG[i]:>10.2f}")
    publish("figure6_calibration", "\n".join(lines))

    rates = [r for r, n in zip(merged.error_rates, merged.counts)
             if r is not None and n >= MIN_REPAIRS]
    assert len(rates) >= 2, "fewer than two buckets with enough repairs"
    for lower, higher in zip(rates, rates[1:]):
        assert higher <= lower + RATE_SLACK, f"error rate rises: {rates}"
    top = merged.error_rates[-1]
    assert top is not None and top <= TOP_BUCKET_MAX, (
        f"top bucket error rate {top}")
