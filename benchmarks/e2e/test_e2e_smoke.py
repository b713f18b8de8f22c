"""Smoke test of the end-to-end benchmark at a tiny size.

Runs every workload for three epochs, one rep each, with the traced rep
and the per-observer extras, then checks that every metric named in
``BENCHMARK.json`` is printed with its unit, that no operation failed
and that every traced rep's layers reconcile with its wall time.  Run
from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(args: list[str], cwd: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    results = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = _run(
        ["--seconds", "0", "--epochs", "3", "--trace", "1", "--results", str(results)],
        ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    return proc.stdout, summary, json.loads(results.read_text())


def test_every_metric_printed_with_its_unit(tiny_run):
    stdout, summary, results = tiny_run
    assert set(results["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for workload in results["workloads"]:
        block = stdout.split(f"== {workload}:")[1].split("\n== ")[0]
        for metric in BENCHMARK["end_to_end"]:
            row = rf"^\s+{re.escape(metric['name'])}\s+\S+\s+{re.escape(metric['unit'])}\s"
            assert re.search(row, block, re.M), (workload, metric["name"])
        for metric in BENCHMARK["per_layer"]:
            entry = summary["metrics"][f"{workload}/{metric['name']}"]
            assert entry["unit"] == metric["unit"], (workload, metric["name"])


def test_no_operation_failed(tiny_run):
    _stdout, summary, results = tiny_run
    assert summary["correct"] and summary["failed"] == 0
    for name, result in results["workloads"].items():
        assert result["failed_frac"] == 0, (name, result["checks"])


def test_traced_layers_reconcile(tiny_run):
    _stdout, _summary, results = tiny_run
    for name, result in results["workloads"].items():
        assert result["per_layer"]["reconcile.gap_frac"]["value"] <= 0.05, name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = _run(["--workload", "run-table1", "--seconds", "0"], tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
