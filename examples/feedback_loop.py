#!/usr/bin/env python3
"""Human-in-the-loop scenario: review low-confidence repairs, retrain.

Section 2.2 of the paper: because HoloClean's marginals carry rigorous
semantics, a practitioner can "ask users to verify repairs with low
marginal probabilities and use those as labeled examples to retrain the
parameters".  This example runs a :class:`RepairSession` on the Hospital
benchmark, pulls the least-confident proposals, plays the role of the
reviewer using the generator's ground truth, and reruns with the verified
labels folded in.

Sessions are built on the staged repair API: ``run()`` executes the
default Detect → Compile → Learn → Infer → Apply plan and retains the
:class:`repro.RepairContext` (grounding engine, detection, compiled
model); ``rerun()`` runs the default plan on that retained context, where
detect and compile skip and learn folds the verified cells in as labeled
evidence and clamps — no recompilation.

Run with::

    python examples/feedback_loop.py [num_rows]
"""

import sys

from repro import HoloCleanConfig, RepairSession
from repro.data import generate_hospital
from repro.eval.metrics import evaluate_repairs

num_rows = int(sys.argv[1]) if len(sys.argv) > 1 else 500

print(f"Generating Hospital benchmark ({num_rows} rows)…")
generated = generate_hospital(num_rows=num_rows)

session = RepairSession(generated.dirty, generated.constraints,
                        config=HoloCleanConfig(tau=0.5, epochs=60, seed=1))
first = session.run()
before = evaluate_repairs(generated.dirty, first.repaired, generated.clean,
                          error_cells=generated.error_cells)
print(f"Initial pass:  {before}")
print("Phase timings: "
      + ", ".join(f"{k}={v:.2f}s" for k, v in first.timings.items()))
grounding = {k: v for k, v in first.size_report.items()
             if str(k).startswith("grounding_")}
print(f"Engine grounding counters: {len(grounding)} "
      f"(sessions share the vectorized fast path)")

queue = session.low_confidence(below=0.9)
print(f"\n{len(queue)} proposals below 0.9 confidence; reviewing up to 15…")
for inference in queue[:15]:
    truth = generated.clean.cell_value(inference.cell)
    session.feedback(inference.cell, truth)
    verdict = "confirmed" if truth == inference.chosen_value else "corrected"
    print(f"  {inference.cell}: proposed {inference.chosen_value!r} "
          f"(p={inference.confidence:.2f}) → reviewer {verdict} {truth!r}")

second = session.rerun()  # learn → infer → apply only; model reused
after = evaluate_repairs(generated.dirty, second.repaired, generated.clean,
                         error_cells=generated.error_cells)
print(f"\nAfter feedback: {after}")
print(f"Rerun repair phase: {second.timings['repair']:.2f}s "
      f"(detection + compilation reused from the first pass)")
print(f"F1 change: {after.f1 - before.f1:+.4f} with "
      f"{session.feedback_count} verified cells")
assert after.f1 >= before.f1 - 1e-9
