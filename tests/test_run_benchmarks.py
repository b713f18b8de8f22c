"""The end-to-end benchmark recorder (``scripts/run_benchmarks.py``).

``run.py`` is replaced by a stub that checks the arguments it was
passed, writes a fixed ``--results`` file and exits with a chosen code,
so each case runs in milliseconds.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_benchmarks.py"

STUB = """
import json, sys
args = sys.argv[1:]
assert args[:4] == ["--workload", "run-table1", "--trace", "1"], args
results = {{
    "machine": {{"cpus": 2}}, "seed": 5, "seconds": 0.0,
    "workloads": {{"run-table1": {{
        "correct": {correct}, "failed": {failed}, "attempted": 3, "output_digest": "ab",
        "untraced": {{"setup_s": {{"unit": "s", "samples": [0.5, 0.3, 0.4]}}}},
        "per_layer": {{"core.decide.decisions": {{"value": 192.0, "unit": "count"}}}},
    }}}},
}}
with open(args[args.index("--results") + 1], "w") as fh:
    json.dump(results, fh)
sys.exit({code})
"""


def _record(tmp_path, monkeypatch, *, correct=True, failed=0, code=0):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends benchmarks/e2e
    spec = importlib.util.spec_from_file_location("run_benchmarks", SCRIPT)
    recorder = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(recorder)
    stub = tmp_path / "run.py"
    stub.write_text(STUB.format(correct=correct, failed=failed, code=code))
    monkeypatch.setattr(recorder, "RUN", stub)
    history = tmp_path / "history.json"
    status = recorder.main(["--history", str(history), "--workload", "run-table1"])
    return status, history


def test_appends_one_condensed_record_per_run(tmp_path, monkeypatch):
    for expected in (1, 2):
        status, history = _record(tmp_path, monkeypatch)
        assert status == 0
        assert len(json.loads(history.read_text())) == expected
    record = json.loads(history.read_text())[-1]
    assert (record["seed"], record["seconds"], record["machine"]) == (5, 0.0, {"cpus": 2})
    workload = record["workloads"]["run-table1"]
    assert workload["output_digest"] == "ab"
    assert workload["untraced"]["setup_s"] == {
        "q1": 0.3, "median": 0.4, "q3": 0.5, "n": 3, "unit": "s",
    }
    assert workload["per_layer"] == {"core.decide.decisions": 192.0}


def test_an_incorrect_run_is_appended_and_exits_1(tmp_path, monkeypatch):
    status, history = _record(tmp_path, monkeypatch, correct=False, failed=1)
    assert status == 1
    (record,) = json.loads(history.read_text())
    assert record["correct"] is False
    assert record["workloads"]["run-table1"]["failed"] == 1


@pytest.mark.parametrize("code", [2, 130])
def test_a_failed_run_py_appends_nothing(tmp_path, monkeypatch, code):
    status, history = _record(tmp_path, monkeypatch, code=code)
    assert status == code
    assert not history.exists()
