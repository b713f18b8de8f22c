"""CLI subcommands and metric export round-trips."""

import csv
import json

import pytest

from repro.cli import build_parser, main
from repro.errors import SimulationError
from repro.metrics.collector import MetricsCollector
from repro.metrics.export import from_csv, from_json, to_csv, to_json

FAST = ["--epochs", "25", "--partitions", "8", "--rate", "60", "--seed", "3"]


class TestExport:
    def _collector(self) -> MetricsCollector:
        c = MetricsCollector()
        c.record_epoch({"a": 1.0, "b": 2.5})
        c.record_epoch({"a": 3.0, "b": 0.0})
        return c

    def test_csv_layout(self, tmp_path):
        path = tmp_path / "m.csv"
        to_csv(self._collector(), path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["epoch", "a", "b"]
        assert rows[1] == ["0", "1.0", "2.5"]
        assert rows[2] == ["1", "3.0", "0.0"]

    def test_json_roundtrip(self, tmp_path):
        path = tmp_path / "m.json"
        original = self._collector()
        to_json(original, path)
        loaded = from_json(path)
        assert loaded.as_dict() == original.as_dict()
        assert loaded.num_epochs == 2

    def test_json_ends_with_newline(self, tmp_path):
        path = tmp_path / "m.json"
        to_json(self._collector(), path)
        assert path.read_text().endswith("\n")

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "m.csv"
        original = self._collector()
        to_csv(original, path)
        loaded = from_csv(path)
        assert loaded.as_dict() == original.as_dict()
        assert loaded.num_epochs == 2

    def test_from_csv_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(SimulationError):
            from_csv(path)

    def test_from_csv_rejects_empty_and_headerless(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(SimulationError):
            from_csv(empty)
        header_only = tmp_path / "h.csv"
        header_only.write_text("epoch,a\n")
        with pytest.raises(SimulationError):
            from_csv(header_only)

    def test_from_csv_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("epoch,a,b\n0,1.0\n")
        with pytest.raises(SimulationError):
            from_csv(path)

    def test_empty_collector_refused(self, tmp_path):
        with pytest.raises(SimulationError):
            to_csv(MetricsCollector(), tmp_path / "x.csv")
        with pytest.raises(SimulationError):
            to_json(MetricsCollector(), tmp_path / "x.json")

    def test_from_json_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"foo": 1}))
        with pytest.raises(SimulationError):
            from_json(path)

    def test_from_json_rejects_ragged_series(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"epochs": 2, "series": {"a": [1.0]}}))
        with pytest.raises(SimulationError):
            from_json(path)


class TestCli:
    def test_parser_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_run_command(self, capsys):
        assert main(["run", "--policy", "rfh", *FAST]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out
        assert "policy=rfh" in out

    def test_run_with_exports(self, tmp_path, capsys):
        csv_path = tmp_path / "m.csv"
        json_path = tmp_path / "m.json"
        code = main(
            ["run", "--policy", "random", *FAST, "--csv", str(csv_path), "--json", str(json_path)]
        )
        assert code == 0
        assert csv_path.exists() and json_path.exists()
        loaded = from_json(json_path)
        assert loaded.num_epochs == 25

    def test_run_flash_scenario(self, capsys):
        assert main(["run", "--scenario", "flash", *FAST]) == 0
        assert "flash-crowd" in capsys.readouterr().out

    def test_compare_command(self, capsys):
        assert main(["compare", *FAST]) == 0
        out = capsys.readouterr().out
        for policy in ("rfh", "random", "owner", "request"):
            assert policy in out
        assert "utilization ranking:" in out

    def test_figures_unknown_selection(self, capsys):
        assert main(["figures", "--only", "fig99"]) == 2

    def test_figures_only_fig10_runs_no_comparison(self, capsys, monkeypatch):
        import repro.experiments.figures as figures

        def no_comparison(*args, **kwargs):
            raise AssertionError("fig10 alone must not run a policy comparison")

        monkeypatch.setattr(figures, "compare_policies", no_comparison)
        assert main(["figures", "--only", "fig10"]) == 0
        out = capsys.readouterr().out
        assert out.count("### ") == 1 and "### fig10" in out
        assert out.endswith("OK: 0 shape checks failed\n")

    def test_sla_command(self, capsys):
        assert main(["sla", *FAST]) in (0, 1)
        out = capsys.readouterr().out
        assert "attainment" in out

    def test_run_trace_out_emits_parseable_jsonl(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = main(
            ["run", "--policy", "rfh", *FAST, "--trace-out", str(trace_path), "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "phase timings:" in out
        assert "serve" in out
        records = [
            json.loads(line) for line in trace_path.read_text().splitlines() if line
        ]
        assert records, "trace file is empty"
        actions = [r for r in records if r["kind"] in ("replicate", "migrate", "suicide")]
        assert actions, "no action records traced"
        assert all(r["reason"] for r in actions)
        assert all(r["policy"] == "rfh" for r in records)

    def test_compare_trace_out_tags_policies(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        assert main(["compare", *FAST, "--trace-out", str(trace_path)]) == 0
        policies = {
            json.loads(line)["policy"]
            for line in trace_path.read_text().splitlines()
            if line
        }
        assert policies == {"rfh", "random", "owner", "request"}
