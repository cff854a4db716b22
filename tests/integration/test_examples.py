"""The example scripts run end to end, each in a fresh interpreter.

They are the first code a reader copies, so an API change that breaks
one fails here instead of silently in ``examples/``.  Each script asserts
its own outcome (quickstart, for one, that both Figure 1 errors are
repaired and that a re-run on the retained context matches).
``flights_fusion.py`` is left out for time (≈ 6 s on its own; the five
below take ≈ 5 s together).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = [
    "quickstart",
    "feedback_loop",
    "hospital_audit",
    "external_dictionary",
    "food_inspections",
]


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name):
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    script = ROOT / "examples" / f"{name}.py"
    done = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
