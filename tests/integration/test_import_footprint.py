"""What a fresh process imports, and what importing costs it.

* The repair path never imports ``numpy.ma``.  A bare ``np.unique(x)``,
  or an ``np.isin`` over large arrays, imports it on NumPy 2.x: 14-20 ms
  and about 1 MB, paid once per process by every CLI run and every
  benchmark child.
* The package surface is lazy: importing the repair stack loads neither
  the HTTP server, the process pool, the generators, the baselines, the
  evaluation harness nor the linter, and ``python -m repro lint`` loads
  no NumPy.  Every export still resolves, by name, to the object its
  defining module holds.
* The default plan imports nothing beyond ``repro.engine.stats`` once its
  inputs are read, so no import cost moves into the repair itself.

Each case runs in a fresh interpreter, so an import made by an earlier
test cannot hide one made by the code under test.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.constraints.parser import format_dc
from repro.data import generate_flights, generate_hospital
from repro.dataset.csv_io import write_csv

SRC = Path(repro.__file__).resolve().parents[1]


def run_fresh(script: str, *args: str) -> str:
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


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
    assert run_fresh(SCRIPT, workload).split() == [method, "False"]


# The benchmark's batch child (bench_e2e/batch_child.py): its seven
# imports and its input read are the setup a CLI-like run pays for.
BATCH_SCRIPT = """
import json, sys
from pathlib import Path

from repro.constraints.parser import parse_dcs
from repro.core.config import HoloCleanConfig
from repro.core.session import RepairSession
from repro.core.stages import RepairContext, RepairPlan
from repro.dataset.csv_io import read_csv
from repro.eval.metrics import evaluate_repairs
from repro.serve.checkpoint import CheckpointStore

inputs = Path(sys.argv[1])
meta = json.loads((inputs / "meta.json").read_text())
dirty = read_csv(inputs / "dirty.csv", source_attribute=meta["source"])
ctx = RepairContext(
    dataset=dirty,
    constraints=parse_dcs((inputs / "dcs.txt").read_text().splitlines()),
    config=HoloCleanConfig().with_(**meta["config"]),
)
setup = set(sys.modules)
ctx = RepairPlan.default().run(ctx)
assert ctx.result.num_repairs > 0
print(json.dumps({
    "setup": sorted(setup),
    "plan": sorted(m for m in set(sys.modules) - setup if m.startswith("repro")),
}))
"""

# Modules a batch repair never runs.  A name ending in "*" also covers
# the package's submodules.
NOT_IN_A_BATCH_REPAIR = [
    "asyncio",
    "concurrent.futures.process",
    "multiprocessing",
    "repro.serve.server",
    "repro.serve.service",
    "repro.baselines*",
    "repro.data*",
    "repro.eval.harness",
    "repro.analysis*",
    "repro.constraints.discovery",
]


def unwanted(modules, patterns):
    found = []
    for pattern in patterns:
        package = pattern.rstrip("*")
        found += [
            m
            for m in modules
            if m == package or (pattern.endswith("*") and m.startswith(package + "."))
        ]
    return found


def write_inputs(directory: Path, workload: str) -> Path:
    """A generated instance as the batch child reads it: CSV, DC text and
    the config fields ``bench_e2e/workloads.py`` sets."""
    if workload == "flights":
        generated = generate_flights(num_flights=20, seed=3)
    else:
        generated = generate_hospital(num_rows=200, seed=3)
    schema = generated.dirty.schema
    source = next((a.name for a in schema if a.role == "source"), None)
    config = {
        "tau": generated.recommended_tau,
        "source_entity_attributes": list(generated.source_entity_attributes),
    }
    if workload == "hospital-dc-factors":
        config.update(use_dc_factors=True, use_partitioning=True, gibbs_sweeps=4)
    write_csv(generated.dirty, directory / "dirty.csv")
    (directory / "dcs.txt").write_text(
        "".join(format_dc(dc) + "\n" for dc in generated.constraints)
    )
    (directory / "meta.json").write_text(json.dumps({"source": source, "config": config}))
    return directory


@pytest.mark.parametrize("workload", ["hospital", "hospital-dc-factors", "flights"])
def test_batch_repair_imports_only_what_it_runs(tmp_path, workload):
    out = json.loads(run_fresh(BATCH_SCRIPT, str(write_inputs(tmp_path, workload))))
    assert unwanted(out["setup"], NOT_IN_A_BATCH_REPAIR) == []
    # The one module the plan itself imports: the engine's statistics,
    # built on first use.
    assert out["plan"] == ["repro.engine.stats"]


def lazy_packages() -> dict[str, Path]:
    """Every package whose ``__init__`` resolves its exports on access."""
    return {
        ".".join(path.parent.relative_to(SRC).parts): path
        for path in sorted(SRC.glob("repro/**/__init__.py"))
        if "lazy_exports(" in path.read_text()
    }


def type_checking_imports(path: Path) -> list[tuple[str, str]]:
    """``(module, name)`` of each import in the ``if TYPE_CHECKING:``
    block of an ``__init__``: the surface static tools see."""
    tree = ast.parse(path.read_text())
    (block,) = [
        node
        for node in tree.body
        if isinstance(node, ast.If) and getattr(node.test, "id", "") == "TYPE_CHECKING"
    ]
    return [(node.module, alias.name) for node in block.body for alias in node.names]


def test_the_lazy_packages():
    assert sorted(lazy_packages()) == [
        "repro",
        "repro.analysis",
        "repro.baselines",
        "repro.constraints",
        "repro.core",
        "repro.dataset",
        "repro.detect",
        "repro.eval",
        "repro.external",
        "repro.inference",
        "repro.obs",
        "repro.serve",
    ]


def test_every_export_resolves_to_its_definition():
    """Each name of a package's ``__all__`` is the object that the eager
    import in its ``TYPE_CHECKING`` block binds, and ``dir()`` lists it;
    an unknown name raises ``AttributeError`` naming the package."""
    packages = {
        package: type_checking_imports(path) for package, path in lazy_packages().items()
    }
    script = """
import importlib, json, sys
report = {}
for package, imports in json.loads(sys.argv[1]).items():
    module = importlib.import_module(package)
    listed = dir(module)
    wrong = []
    for source, name in imports:
        eager = {}
        exec(f"from {source} import {name}", eager)
        if getattr(module, name) is not eager[name] or name not in listed:
            wrong.append(name)
    try:
        module.no_such_export
    except AttributeError as exc:
        error = str(exc)
    report[package] = {"all": module.__all__, "wrong": wrong, "error": error}
print(json.dumps(report))
"""
    report = json.loads(run_fresh(script, json.dumps(packages)))
    for package, imports in packages.items():
        out = report[package]
        exported = [name for _, name in imports]
        assert out["wrong"] == [], package
        assert len(set(exported)) == len(exported), package
        assert set(out["all"]) - {"__version__"} == set(exported), package
        assert out["error"] == f"module {package!r} has no attribute 'no_such_export'"


def test_row_scan_statistics_live_with_the_oracle():
    # The engine's code tables are production's only statistics; the
    # row-scan counters are a test reference, exported by repro.oracle.
    script = """
import repro, repro.dataset, repro.oracle
print("Statistics" in repro.__all__, "Statistics" in repro.dataset.__all__)
print(hasattr(repro, "Statistics"), hasattr(repro.dataset, "Statistics"))
print("Statistics" in repro.oracle.__all__, repro.oracle.Statistics.__module__)
"""
    assert run_fresh(script).split() == [
        "False",
        "False",
        "False",
        "False",
        "True",
        "repro.oracle.stats",
    ]


def test_star_import_binds_every_export():
    script = """
import repro
namespace = {}
exec("from repro import *", namespace)
print(sorted(set(repro.__all__) - set(namespace)))
print(namespace["RepairPlan"].__module__, namespace["__version__"])
"""
    assert run_fresh(script).split("\n")[:2] == ["[]", "repro.core.stages 1.0.0"]


def test_cli_loads_no_numpy_until_it_repairs():
    script = """
import sys
import repro.analysis.cli
import repro.cli
print("numpy" in sys.modules)
"""
    assert run_fresh(script).split() == ["False"]
