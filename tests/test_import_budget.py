"""Import budget of the run path.

Every job pays for what ``repro.cli`` and the run-time observers import
before its first epoch.  Tool-only code (the lint platform, the diff and
dashboard renderers, the provenance query tools, the figure harnesses)
and every third-party package but numpy must stay out of that set; the
packages that defer names must still export every name in ``__all__``.
Stepping the engines must not load ``numpy.ma`` either: a bare
``np.unique`` imports it, about 1.3 MiB of peak RSS per process.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

#: What a ``repro run`` job imports, observers included.
RUN_PATH = (
    "repro.cli",
    "repro.sim.columnar",
    "repro.metrics.export",
    "repro.obs.provenance",
    "repro.obs.timeseries",
    "repro.staticcheck.sanitizer",
)

#: The only packages outside the standard library the run path may load.
ALLOWED_TOP_LEVEL = ("numpy", "repro")

#: Tool-only modules that must not be loaded by importing :data:`RUN_PATH`.
FORBIDDEN = (
    "repro.staticcheck.engine",
    "repro.obs.timeseries.dashboard",
    "repro.obs.timeseries.diff",
    "repro.obs.provenance.explain",
    "repro.obs.provenance.provdiff",
    "repro.experiments.figures",
)

#: Packages whose ``__all__`` is partly served by a deferred import.
PACKAGES = (
    "repro.experiments",
    "repro.net",
    "repro.obs.provenance",
    "repro.obs.timeseries",
    "repro.staticcheck",
)

_PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in {run_path!r}:
    importlib.import_module(name)
top_level = {{name.partition(".")[0] for name in set(sys.modules) - before}}
loaded = sorted(name for name in {forbidden!r} if name in sys.modules)
loaded += sorted(top_level - set(sys.stdlib_module_names) - set({allowed!r}))
unresolved = []
for package in {packages!r}:
    module = importlib.import_module(package)
    unresolved += [f"{{package}}.{{name}}" for name in module.__all__
                   if not hasattr(module, name)]
print(json.dumps({{"loaded": loaded, "unresolved": unresolved}}))
"""


def _probe() -> dict:
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = _PROBE.format(
        run_path=RUN_PATH, forbidden=FORBIDDEN, allowed=ALLOWED_TOP_LEVEL, packages=PACKAGES
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_run_path_imports_no_tool_only_code_and_exports_resolve() -> None:
    result = _probe()
    assert result["loaded"] == [], f"loaded on the run path: {result['loaded']}"
    assert result["unresolved"] == [], f"__all__ names that do not resolve: {result['unresolved']}"


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_attribute_still_raises(package: str) -> None:
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


_STEP_PROBE = """
import dataclasses, json, sys
from repro.config import SimulationConfig, WorkloadParameters
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    chaos_schedule, failure_recovery_scenario, random_query_scenario,
)
config = SimulationConfig(
    seed=3, workload=WorkloadParameters(queries_per_epoch_mean=120.0, num_partitions=24)
)
scenario = random_query_scenario(config, epochs=6)
failure = dataclasses.replace(
    failure_recovery_scenario(config, epochs=12, failure_epoch=4),
    chaos=chaos_schedule("wan-partition", 12),
)
for engine in ("scalar", "columnar"):
    for policy in ("request", "owner", "random", "rfh"):
        run_experiment(policy, scenario, engine=engine)
    run_experiment("rfh", failure, engine=engine)
print(json.dumps(sorted(
    name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma.")
)))
"""


def test_stepping_every_policy_and_engine_leaves_numpy_ma_unloaded() -> None:
    """All four policies on both engines, plus a failure run with a WAN
    partition (membership events, restores and the columnar engine's
    scalar fallback), import no ``numpy.ma`` module."""
    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _STEP_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [], f"loaded while stepping: {proc.stdout}"
