"""The repair path never imports ``numpy.ma``.

A bare ``np.unique(x)``, or an ``np.isin`` over large arrays, imports
``numpy.ma`` on NumPy 2.x: 14-20 ms and about 1 MB, paid once per process
by every CLI run and every benchmark child.  Each configuration runs the
default plan in a fresh interpreter, so an import made by an earlier test
cannot hide one made by the plan.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SCRIPT = """
import sys
from repro.core.stages import RepairContext, RepairPlan
from repro.data import generate_flights, generate_hospital
from repro.eval.harness import holoclean_config_for

workload = sys.argv[1]
if workload == "flights":
    generated = generate_flights(num_flights=20)
else:
    generated = generate_hospital(num_rows=200)
config = holoclean_config_for(generated)
if workload == "hospital-dc-factors":
    config = config.with_(use_dc_feats=False, use_dc_factors=True,
                          use_partitioning=True, gibbs_burn_in=2, gibbs_sweeps=4)
ctx = RepairPlan.default().run(RepairContext(
    dataset=generated.dirty, constraints=generated.constraints, config=config))
assert ctx.result.num_repairs > 0
print(ctx.metrics.labels["infer.method"], "numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize(
    "workload,method",
    [
        ("hospital", "softmax"),
        ("hospital-dc-factors", "gibbs"),
        ("flights", "softmax"),
    ],
)
def test_default_plan_does_not_import_numpy_ma(workload, method):
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, workload],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [method, "False"]
