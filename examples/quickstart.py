#!/usr/bin/env python3
"""Quickstart: repair the paper's Figure 1 example end to end.

The input is the Chicago food-inspection snippet from Figure 1(A): tuple
t0 reports a wrong zip code (60609 instead of 60608) and tuple t3 a
misspelled city ("Cicago").  Three functional dependencies — Figure 1(B)
— are compiled into denial constraints, and HoloClean combines the
constraint signal with co-occurrence statistics and the minimality prior
to repair both errors, reporting its confidence in each proposal.

Run with::

    python examples/quickstart.py
"""

from repro import (Dataset, HoloClean, HoloCleanConfig, RepairContext,
                   RepairPlan, Schema, parse_fd)

# ---------------------------------------------------------------------------
# 1. The dirty relation (Figure 1A plus duplicate context rows — real
#    inspection data repeats establishments across years).
# ---------------------------------------------------------------------------
schema = Schema(["DBAName", "AKAName", "Address", "City", "State", "Zip"])
rows = [
    ["John Veliotis Sr.", "Johnnyo's", "3465 S Morgan ST", "Chicago", "IL", "60609"],
    ["John Veliotis Sr.", "Johnnyo's", "3465 S Morgan ST", "Chicago", "IL", "60608"],
    ["John Veliotis Sr.", "Johnnyo's", "3465 S Morgan ST", "Chicago", "IL", "60608"],
    ["Johnnyo's",         "Johnnyo's", "3465 S Morgan ST", "Cicago",  "IL", "60608"],
]
for _ in range(12):
    rows.append(["John Veliotis Sr.", "Johnnyo's", "3465 S Morgan ST",
                 "Chicago", "IL", "60608"])
    rows.append(["Taco Place", "Taco's", "100 W Lake ST",
                 "Chicago", "IL", "60601"])
dataset = Dataset(schema, rows, name="food-snippet")

# ---------------------------------------------------------------------------
# 2. Integrity constraints: the functional dependencies of Figure 1(B),
#    compiled to denial constraints (Example 2 of the paper).
# ---------------------------------------------------------------------------
fds = [
    parse_fd("DBAName -> Zip"),             # c1
    parse_fd("Zip -> City,State"),          # c2
    parse_fd("City,State,Address -> Zip"),  # c3
]
constraints = [dc for fd in fds for dc in fd.to_denial_constraints()]
print("Denial constraints:")
for dc in constraints:
    print("  ", dc)

# ---------------------------------------------------------------------------
# 3. Repair.  `HoloClean.repair()` is a facade over the staged plan
#    Detect → Compile → Learn → Infer → Apply (Figure 2's three modules);
#    running the plan on an explicit RepairContext keeps every
#    intermediate artifact around for inspection and partial re-runs.
# ---------------------------------------------------------------------------
config = HoloCleanConfig(tau=0.3, epochs=40, seed=1)
ctx = RepairContext(dataset=dataset, constraints=constraints, config=config)
ctx = RepairPlan.default().run(ctx)
result = ctx.result

print(f"\nStaged execution: {RepairPlan.default()}")
print("Per-stage wall-clock:",
      ", ".join(f"{name}={t * 1000:.1f}ms" for name, t in ctx.timings.items()))
print(f"Detection found {len(ctx.detection.noisy_cells)} noisy cells; "
      f"the compiled model has {len(ctx.model.query_ids)} query variables.")

# The context is re-enterable: keep the detection and compiled model,
# and re-run only learn → infer → apply (the Section 2.2 loop).  With no
# new feedback and the same config the weights and marginals are current,
# so learn and infer skip and only apply runs.
rerun = RepairPlan.default().starting_at("learn").run(ctx).result
assert rerun.repaired == result.repaired

# The one-shot facade produces the identical result.
facade = HoloClean(config).repair(dataset, constraints)
assert facade.repaired == result.repaired

print(f"\n{result.summary()}")
print("\nProposed repairs (with marginal probabilities):")
for cell, inference in sorted(result.repairs.items()):
    print(f"  {cell}: {inference.init_value!r} -> "
          f"{inference.chosen_value!r}  (confidence {inference.confidence:.2f})")

print("\nMarginal distribution of an inferred cell (compare Figure 2):")
zip_cell = next(c for c in result.inferences if c.tid == 0
                and c.attribute == "Zip")
inference = result.inferences[zip_cell]
for value, probability in zip(inference.domain, inference.marginal):
    print(f"  {zip_cell} = {value!r}: {probability:.3f}")

assert result.repaired.value(0, "Zip") == "60608"
assert result.repaired.value(3, "City") == "Chicago"
print("\nBoth Figure 1 errors repaired correctly.")
