"""Table 3: precision/recall/F1 of HoloClean vs Holistic/KATARA/SCARE.

Paper values (P / R / F1):

    Hospital (τ=0.5):  HC 1.0/.713/.832   Holistic .517/.376/.435
                       KATARA .983/.235/.379  SCARE .667/.534/.593
    Flights (τ=0.3):   HC .887/.669/.763  Holistic 0/0/0*  KATARA n/a
                       SCARE .569/.057/.104
    Food (τ=0.5):      HC .769/.798/.783  Holistic .142/.679/.235
                       KATARA 1.0/.310/.473  SCARE DNF
    Physicians (τ=0.7): HC .927/.878/.897 Holistic .521/.504/.512
                       KATARA 0/0/0#  SCARE DNF

The reproduction must preserve the *shape*: HoloClean best on every
dataset; Holistic's zero correct repairs on Flights; KATARA high-precision
/ low-recall with the Physicians format-mismatch zero; SCARE moderate on
the small datasets and DNF-prone on the large ones.  HoloClean's own F1
on each generator is pinned (``HC_F1``), and its average F1 must be more
than twice each baseline family's, the abstract's claim.
"""

import pytest

from _common import BENCH_SIZES, baseline_run, dataset, holoclean_run, fmt, publish

BASELINES = ("Holistic", "KATARA", "SCARE")

#: HoloClean's F1 on each generator at the ``BENCH_SIZES`` sizes.  The
#: tolerance is ``BENCHMARK.json``'s f1 bound: a change that moves F1 by
#: more has changed the answers, whatever its reason.
HC_F1 = {"hospital": 0.913, "flights": 0.898, "food": 0.809, "physicians": 0.981}
F1_TOLERANCE = 0.07


@pytest.mark.parametrize("name", ["hospital", "flights", "food", "physicians"])
def test_table3_repair_quality(name, benchmark):
    dataset(name)  # warm the per-process dataset cache outside the timed region

    hc_run, _result = benchmark.pedantic(holoclean_run, args=(name,),
                                         rounds=1, iterations=1)
    rows = [("HoloClean", hc_run)]
    for method in BASELINES:
        rows.append((method, baseline_run(name, method)))

    lines = [f"{'Method':<10} {'Prec.':>7} {'Rec.':>7} {'F1':>7}"]
    for method, run in rows:
        if run.timed_out:
            lines.append(f"{method:<10} {'DNF':>7} {'DNF':>7} {'DNF':>7}")
        elif run.quality is None:
            lines.append(f"{method:<10} {'n/a':>7} {'n/a':>7} {'n/a':>7}")
        else:
            q = run.quality
            lines.append(f"{method:<10} {fmt(q.precision, 7)} "
                         f"{fmt(q.recall, 7)} {fmt(q.f1, 7)}")
    publish(f"table3_{name}", "\n".join(lines))

    assert hc_run.quality.f1 == pytest.approx(HC_F1[name], abs=F1_TOLERANCE)
    # Shape assertions from the paper.
    for method, run in rows[1:]:
        if run.quality is not None and not run.timed_out:
            assert hc_run.quality.f1 >= run.quality.f1, (
                f"HoloClean must outperform {method} on {name}")


def test_table3_average_improvement():
    """The headline claim: > 2× average F1 over each baseline family."""
    hc_scores, baseline_scores = [], {m: [] for m in BASELINES}
    for name in BENCH_SIZES:
        hc_run, _ = holoclean_run(name)
        hc_scores.append(hc_run.quality.f1)
        for method in BASELINES:
            run = baseline_run(name, method)
            baseline_scores[method].append(
                0.0 if (run.timed_out or run.quality is None)
                else run.quality.f1)

    hc_avg = sum(hc_scores) / len(hc_scores)
    lines = [f"HoloClean average F1: {hc_avg:.3f}"]
    for method, scores in baseline_scores.items():
        avg = sum(scores) / len(scores)
        ratio = hc_avg / avg if avg > 0 else float("inf")
        lines.append(f"{method:<10} average F1: {avg:.3f}  "
                     f"(HoloClean is {ratio:.2f}x)")
        # The paper reports 2.29x-2.81x per family; the abstract's claim
        # is "more than 2x".
        assert hc_avg > 2 * avg, f"expected a 2x F1 margin vs {method}"
    publish("table3_average_improvement", "\n".join(lines))
