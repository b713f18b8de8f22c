"""Performance observability: the work counters and their time-series columns.

The load-bearing guarantee under test is **determinism**: two same-seed
runs count bit-identical work on either engine, so a change in a count
is an algorithmic change, never noise.
"""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.config import SimulationConfig
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import random_query_scenario
from repro.obs.perf import WorkCounters
from repro.obs.timeseries import TimeseriesRecorder, TsdbArtifact, diff_artifacts
from repro.sim.engine import Simulation
from repro.sim.rng import RngTree

FAST = ["--epochs", "6", "--partitions", "8", "--rate", "60", "--seed", "3"]


# ----------------------------------------------------------------------
# Work counters
# ----------------------------------------------------------------------
class TestWorkCounters:
    def test_totals_flat_mapping(self):
        work = WorkCounters()
        work.partitions_scanned = 3
        work.rng_draws["workload"] = 7
        totals = work.totals()
        assert totals["partitions_scanned"] == 3.0
        assert totals["rng_draws/workload"] == 7.0
        assert totals["migrate_actions"] == 0.0

    def test_epoch_deltas_are_differences(self):
        work = WorkCounters()
        work.decisions_evaluated = 5
        first = work.epoch_deltas()
        assert first["decisions_evaluated"] == 5.0
        work.decisions_evaluated = 9
        second = work.epoch_deltas()
        assert second["decisions_evaluated"] == 4.0


class TestRngDrawCounting:
    def test_counts_method_calls_per_stream(self):
        tree = RngTree(5)
        counts: dict[str, int] = {}
        tree.attach_draw_counter(counts)
        gen = tree.stream("workload")
        gen.random()
        gen.poisson(1.0, size=100)  # one vectorised call = one unit
        tree.stream("failures").integers(0, 10)
        assert counts == {"workload": 2, "failures": 1}

    def test_counting_does_not_perturb_draws(self):
        plain = RngTree(5).stream("workload")
        counted_tree = RngTree(5)
        counted_tree.attach_draw_counter({})
        counted = counted_tree.stream("workload")
        assert float(plain.random()) == float(counted.random())

    def test_stream_states_reads_real_generator(self):
        tree = RngTree(5)
        tree.attach_draw_counter({})
        tree.stream("workload").random()
        reference = RngTree(5)
        reference.stream("workload").random()
        assert tree.stream_states() == reference.stream_states()

    def test_attach_after_streams_exist_raises(self):
        tree = RngTree(5)
        tree.stream("workload")
        with pytest.raises(ValueError, match="before any stream"):
            tree.attach_draw_counter({})


# ----------------------------------------------------------------------
# Determinism of the counters and their time-series columns
# ----------------------------------------------------------------------
class TestDeterminism:
    @pytest.mark.parametrize("engine", ["scalar", "columnar"])
    def test_same_seed_same_counters(self, engine):
        scenario = random_query_scenario(SimulationConfig(seed=11), epochs=6)

        def totals():
            work = WorkCounters()
            run_experiment("rfh", scenario, engine=engine, work=work)
            return work.totals()

        first = totals()
        assert first == totals()
        assert first["decisions_evaluated"] > 0

    def test_work_columns_recorded_per_epoch(self):
        recorder = TimeseriesRecorder(stride=1)
        work = WorkCounters()
        sim = Simulation(
            SimulationConfig(seed=5), policy="rfh", timeseries=recorder, work=work
        )
        sim.run(6)
        art = recorder.artifact()
        names = [n for n in art.column_names() if n.startswith("work/")]
        assert "work/decisions_evaluated" in names
        assert "work/partitions_scanned" in names
        # Per-epoch deltas sum back to the lifetime total.
        assert float(np.nansum(art.column("work/decisions_evaluated"))) == float(
            work.decisions_evaluated
        )

    def test_work_columns_are_diff_neutral(self):
        def record(scale: float):
            rec = TimeseriesRecorder(stride=1)
            for epoch in range(4):
                rec.sample(
                    epoch,
                    {"utilization": 0.5, "work/decisions_evaluated": 8.0 * scale},
                )
            return rec.artifact()

        report = diff_artifacts(record(1.0), record(3.0))
        assert report.exit_code() == 0  # more work alone never gates
        row = next(
            c for c in report.columns if c.name == "work/decisions_evaluated"
        )
        assert row.classification != "regressed"


# ----------------------------------------------------------------------
# The CLI's --profile flag attaches the counters
# ----------------------------------------------------------------------
class TestCli:
    def test_profile_prints_work_totals(self, capsys):
        assert main(["run", *FAST, "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase timings:" in out
        assert re.search(r"^  decisions_evaluated: [1-9]\d*$", out, re.MULTILINE)

    def test_profile_records_work_columns(self, tmp_path):
        plain, profiled = tmp_path / "plain.tsdb.json", tmp_path / "prof.tsdb.json"
        assert main(["run", *FAST, "--timeseries-out", str(plain)]) == 0
        assert main(["run", *FAST, "--profile", "--timeseries-out", str(profiled)]) == 0
        work = [
            name
            for name in TsdbArtifact.load(profiled).column_names()
            if name.startswith("work/")
        ]
        assert "work/decisions_evaluated" in work
        assert "work/partitions_scanned" in work
        assert not any(
            name.startswith("work/")
            for name in TsdbArtifact.load(plain).column_names()
        )


# ----------------------------------------------------------------------
# Dashboard work panel
# ----------------------------------------------------------------------
class TestDashboardWorkPanel:
    def _artifact(self, scale: float = 1.0):
        rec = TimeseriesRecorder(stride=1)
        for epoch in range(5):
            rec.sample(
                epoch,
                {
                    "utilization": 0.5,
                    "work/decisions_evaluated": 8.0 * scale,
                    "work/graph_hops": 40.0 * scale,
                },
            )
        return rec.artifact()

    def test_work_panel_rendered(self):
        from repro.obs.timeseries import render_dashboard

        html = render_dashboard(self._artifact())
        assert "Work per epoch" in html
        assert "decisions_evaluated" in html
        assert not re.search(r"https?://", html)

    def test_work_panel_baseline_overlay(self):
        from repro.obs.timeseries import render_dashboard

        html = render_dashboard(self._artifact(2.0), self._artifact(1.0))
        assert "Work per epoch" in html
