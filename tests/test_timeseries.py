"""Time-series recording, the ``.tsdb.json`` artifact, cross-run
diffing and the offline HTML dashboard (``repro.obs.timeseries``)."""

import json
import re

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.errors import TsdbError
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import random_query_scenario
from repro.obs.timeseries import (
    Marker,
    TimeseriesRecorder,
    TsdbArtifact,
    diff_artifacts,
    polarity_of,
    render_dashboard,
    render_diff_json,
    render_diff_markdown,
    render_diff_text,
    tolerance_of,
)


def _recorder_with(epochs, column="x", **kwargs):
    rec = TimeseriesRecorder(**kwargs)
    for epoch, value in epochs:
        rec.sample(epoch, {column: value})
    return rec


# ----------------------------------------------------------------------
# Recorder
# ----------------------------------------------------------------------
class TestRecorder:
    def test_records_every_epoch_at_stride_one(self):
        rec = _recorder_with([(e, float(e)) for e in range(10)])
        art = rec.artifact()
        assert list(art.epochs) == list(range(10))
        assert list(art.column("x")) == [float(e) for e in range(10)]
        assert art.effective_stride == 1

    def test_stride_skips_off_grid_epochs(self):
        rec = _recorder_with([(e, float(e)) for e in range(10)], stride=3)
        art = rec.artifact()
        assert list(art.epochs) == [0, 3, 6, 9]
        assert art.effective_stride == 3

    def test_validation(self):
        with pytest.raises(TsdbError):
            TimeseriesRecorder(stride=0)
        with pytest.raises(TsdbError):
            TimeseriesRecorder(point_budget=2)

    def test_budget_triggers_2to1_downsampling(self):
        rec = _recorder_with(
            [(e, float(e)) for e in range(64)], point_budget=16
        )
        art = rec.artifact()
        assert rec.decimation == 4  # doubled twice: 64 samples / 16 budget
        assert art.num_points <= 16 + 1  # + possible pending half-bucket
        # Every stored point is the exact mean of the epochs it covers:
        # with decimation 4 the first point averages epochs 0..3 -> 1.5.
        assert art.column("x")[0] == pytest.approx(1.5)
        # The whole-run mean survives downsampling exactly.
        assert art.column("x").mean() == pytest.approx(np.arange(64).mean())

    def test_downsampled_points_cover_contiguous_ranges(self):
        rec = _recorder_with([(e, 1.0) for e in range(100)], point_budget=16)
        art = rec.artifact()
        # A constant signal must stay exactly constant through any
        # number of compressions (means of means of a constant).
        assert np.all(art.column("x") == 1.0)
        diffs = np.diff(art.epochs)
        assert np.all(diffs[:-1] == art.decimation)  # uniform grid

    def test_new_columns_backfilled_with_zero(self):
        rec = TimeseriesRecorder()
        rec.sample(0, {"a": 1.0})
        rec.sample(1, {"a": 1.0, "b": 5.0})
        art = rec.artifact()
        assert list(art.column("b")) == [0.0, 5.0]

    def test_non_finite_contributes_zero(self):
        rec = TimeseriesRecorder()
        rec.sample(0, {"x": float("nan")})
        rec.sample(1, {"x": float("inf")})
        art = rec.artifact()
        assert list(art.column("x")) == [0.0, 0.0]

    def test_artifact_is_a_nondestructive_snapshot(self):
        rec = _recorder_with([(e, float(e)) for e in range(5)], point_budget=16)
        first = rec.artifact()
        rec.sample(5, {"x": 5.0})
        second = rec.artifact()
        assert first.num_points == 5
        assert second.num_points == 6

    def test_markers_fold_repeats_and_respect_budget(self):
        rec = TimeseriesRecorder()
        for _ in range(30):
            rec.mark(7, "server_fail", "chaos")
        rec.mark(9, "link_change", "wan")
        art = rec.artifact()
        assert art.markers[0] == Marker(7, "server_fail", "chaos", 30)
        assert art.markers[1].kind == "link_change"

    def test_marker_budget_drops_and_counts(self):
        from repro.obs.timeseries.recorder import MARKER_BUDGET

        rec = TimeseriesRecorder()
        for i in range(MARKER_BUDGET + 10):
            rec.mark(i, "k", str(i))
        assert len(rec.artifact().markers) == MARKER_BUDGET
        assert rec.markers_dropped == 10
        assert rec.artifact().meta["markers_dropped"] == 10


# ----------------------------------------------------------------------
# Artifact round-trip
# ----------------------------------------------------------------------
class TestArtifact:
    def test_save_load_roundtrip(self, tmp_path):
        rec = _recorder_with([(e, float(e) * 0.5) for e in range(8)])
        rec.mark(3, "server_fail", "rack")
        rec.meta["policy"] = "rfh"
        path = tmp_path / "run.tsdb.json"
        saved = rec.save(path)
        loaded = TsdbArtifact.load(path)
        assert list(loaded.epochs) == list(saved.epochs)
        assert np.allclose(loaded.column("x"), saved.column("x"))
        assert loaded.markers == saved.markers
        assert loaded.meta["policy"] == "rfh"
        assert loaded.stride == 1 and loaded.decimation == 1

    def test_nan_roundtrips_through_null(self, tmp_path):
        art = TsdbArtifact(
            epochs=np.array([0, 1]),
            columns={"x": np.array([1.0, float("nan")])},
        )
        path = tmp_path / "nan.tsdb.json"
        art.save(path)
        assert "NaN" not in path.read_text()  # strict JSON
        loaded = TsdbArtifact.load(path)
        assert loaded.column("x")[0] == 1.0
        assert np.isnan(loaded.column("x")[1])

    def test_rejects_wrong_format_version_and_garbage(self, tmp_path):
        good = TsdbArtifact(epochs=np.array([0]), columns={"x": np.array([1.0])})
        raw = good.to_dict()
        with pytest.raises(TsdbError):
            TsdbArtifact.from_dict({**raw, "format": "something-else"})
        with pytest.raises(TsdbError):
            TsdbArtifact.from_dict({**raw, "version": 999})
        bad = tmp_path / "bad.tsdb.json"
        bad.write_text("{not json")
        with pytest.raises(TsdbError):
            TsdbArtifact.load(bad)
        with pytest.raises(TsdbError):
            TsdbArtifact.load(tmp_path / "missing.tsdb.json")

    def test_column_length_mismatch_rejected(self):
        with pytest.raises(TsdbError):
            TsdbArtifact(
                epochs=np.array([0, 1]), columns={"x": np.array([1.0])}
            )

    def test_unknown_column_is_a_tsdb_error(self):
        art = TsdbArtifact(epochs=np.array([0]), columns={"x": np.array([1.0])})
        with pytest.raises(TsdbError):
            art.column("zzz")


# ----------------------------------------------------------------------
# Diff engine
# ----------------------------------------------------------------------
def _artifact(columns, epochs=None, **meta):
    n = len(next(iter(columns.values())))
    return TsdbArtifact(
        epochs=np.array(epochs if epochs is not None else range(n)),
        columns={k: np.asarray(v, dtype=np.float64) for k, v in columns.items()},
        meta=meta,
    )


class TestDiff:
    def test_identical_runs_unchanged_everywhere(self):
        values = {"utilization": np.linspace(0.2, 0.8, 40)}
        report = diff_artifacts(_artifact(values), _artifact(values))
        assert report.verdict == "unchanged"
        assert report.exit_code() == 0
        assert report.unchanged_count == 1

    def test_lower_better_increase_is_a_regression(self):
        base = _artifact({"unserved": [10.0] * 40})
        cand = _artifact({"unserved": [20.0] * 40})
        report = diff_artifacts(base, cand)
        assert report.verdict == "regressed"
        assert report.exit_code() == 1
        assert report.columns[0].exceeded  # which stats tripped

    def test_higher_better_increase_is_an_improvement(self):
        base = _artifact({"utilization": [0.5] * 40})
        cand = _artifact({"utilization": [0.7] * 40})
        report = diff_artifacts(base, cand)
        assert report.verdict == "improved"
        assert report.exit_code() == 0

    def test_neutral_columns_report_changed_but_never_gate(self):
        base = _artifact({"traffic_dc/0": [100.0] * 40})
        cand = _artifact({"traffic_dc/0": [300.0] * 40})
        report = diff_artifacts(base, cand)
        assert report.verdict == "changed"
        assert report.exit_code() == 0

    def test_within_tolerance_is_unchanged(self):
        base = _artifact({"utilization": [0.500] * 40})
        cand = _artifact({"utilization": [0.505] * 40})  # +1% < 5% rel tol
        assert diff_artifacts(base, cand).verdict == "unchanged"

    def test_cli_tolerance_overrides_defaults(self):
        base = _artifact({"utilization": [0.50] * 40})
        cand = _artifact({"utilization": [0.45] * 40})  # -10%
        assert diff_artifacts(base, cand).verdict == "regressed"
        assert diff_artifacts(base, cand, rel=0.25).verdict == "unchanged"

    def test_column_filter_restricts_with_globs(self):
        base = _artifact({"unserved": [1.0] * 40, "utilization": [0.9] * 40})
        cand = _artifact({"unserved": [9.0] * 40, "utilization": [0.1] * 40})
        report = diff_artifacts(base, cand, columns=("unserved",))
        assert [c.name for c in report.columns] == ["unserved"]
        report = diff_artifacts(base, cand, columns=("ut*",))
        assert [c.name for c in report.columns] == ["utilization"]

    def test_disjoint_columns_reported_not_diffed(self):
        base = _artifact({"a_only": [1.0] * 4, "utilization": [0.5] * 4})
        cand = _artifact({"b_only": [1.0] * 4, "utilization": [0.5] * 4})
        report = diff_artifacts(base, cand)
        assert report.only_in_baseline == ("a_only",)
        assert report.only_in_candidate == ("b_only",)
        assert [c.name for c in report.columns] == ["utilization"]

    def test_different_grids_align_by_interpolation(self):
        base = _artifact({"utilization": [0.5] * 40})  # epochs 0..39
        cand = _artifact(
            {"utilization": [0.5] * 20}, epochs=range(0, 40, 2)
        )  # stride 2, same span
        assert diff_artifacts(base, cand).verdict == "unchanged"

    def test_no_overlap_is_a_tsdb_error(self):
        base = _artifact({"x": [1.0] * 4}, epochs=range(0, 4))
        cand = _artifact({"x": [1.0] * 4}, epochs=range(100, 104))
        with pytest.raises(TsdbError):
            diff_artifacts(base, cand)

    def test_polarity_and_tolerance_tables(self):
        assert polarity_of("utilization") == +1
        assert polarity_of("unserved") == -1
        assert polarity_of("phase_s/serve") == -1
        assert polarity_of("traffic_dc/3") == 0
        assert polarity_of("never-heard-of-it") == 0
        assert tolerance_of("phase_s/serve").rel == pytest.approx(0.50)
        assert tolerance_of("utilization").rel == pytest.approx(0.05)
        assert tolerance_of("utilization", rel=0.2).rel == pytest.approx(0.2)

    def test_renderers_cover_all_formats(self):
        base = _artifact({"unserved": [10.0] * 40}, policy="rfh", seed=7)
        cand = _artifact({"unserved": [20.0] * 40}, policy="rfh", seed=7)
        report = diff_artifacts(base, cand)
        text = render_diff_text(report)
        assert "REGRESSED" in text and "unserved" in text
        md = render_diff_markdown(report)
        assert "| column |" in md and "**regressed**" in md
        payload = json.loads(render_diff_json(report))
        assert payload["verdict"] == "regressed"
        assert payload["counts"]["regressed"] == 1

    def test_verbose_includes_unchanged_rows(self):
        values = {"utilization": [0.5] * 40}
        report = diff_artifacts(_artifact(values), _artifact(values))
        assert "utilization" not in render_diff_text(report)
        assert "utilization" in render_diff_text(report, verbose=True)


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
def _run(epochs=40, chaos=None, timeseries=None, **cfg):
    scenario = random_query_scenario(SimulationConfig(seed=11, **cfg), epochs=epochs)
    if chaos is not None:
        import dataclasses

        from repro.experiments.scenarios import chaos_schedule

        scenario = dataclasses.replace(scenario, chaos=chaos_schedule(chaos, epochs))
    rec = timeseries if timeseries is not None else TimeseriesRecorder()
    result = run_experiment("rfh", scenario, timeseries=rec)
    return result, rec.artifact()


class TestEngineIntegration:
    def test_one_point_per_epoch_with_metric_and_traffic_columns(self):
        result, art = _run(epochs=30)
        assert list(art.epochs) == list(range(30))
        assert "utilization" in art.columns
        # The recorded column equals the collector's series exactly.
        np.testing.assert_allclose(
            art.column("utilization"), result.series("utilization")
        )
        dc_cols = [c for c in art.columns if c.startswith("traffic_dc/")]
        assert len(dc_cols) == 10  # Table I: ten datacenters

    def test_meta_stamped_by_runner(self):
        _, art = _run(epochs=5)
        assert art.meta["policy"] == "rfh"
        assert art.meta["scenario"] == "random-query"
        assert art.meta["seed"] == 11
        assert art.meta["epochs"] == 5

    def test_same_seed_runs_diff_unchanged(self):
        _, a = _run(epochs=30)
        _, b = _run(epochs=30)
        report = diff_artifacts(a, b)
        assert report.verdict == "unchanged"
        assert report.exit_code() == 0

    def test_chaos_run_emits_markers_and_chaos_meta(self):
        _, art = _run(epochs=60, chaos="rack-outage")
        assert art.meta["chaos"] == "rack-outage"
        kinds = {m.kind for m in art.markers}
        assert "server_failure" in kinds

    def test_instrument_scalars_and_phase_timings_sampled(self):
        from repro.obs import PhaseProfiler
        from repro.obs.perf import WorkCounters
        from repro.sim.engine import Simulation

        rec = TimeseriesRecorder()
        sim = Simulation(
            SimulationConfig(seed=3),
            policy="rfh",
            work=WorkCounters(),
            profiler=PhaseProfiler(),
            timeseries=rec,
        )
        sim.run(20)
        art = rec.artifact()
        assert any(c.startswith("work/") for c in art.columns)
        assert "phase_s/serve" in art.columns
        assert art.column("phase_s/serve").max() > 0.0

    def test_recorder_does_not_perturb_the_simulation(self):
        with_rec, _ = _run(epochs=30)
        scenario = random_query_scenario(SimulationConfig(seed=11), epochs=30)
        without = run_experiment("rfh", scenario)
        np.testing.assert_array_equal(
            with_rec.series("utilization"), without.series("utilization")
        )
        np.testing.assert_array_equal(
            with_rec.series("total_replicas"), without.series("total_replicas")
        )


# ----------------------------------------------------------------------
# Dashboard
# ----------------------------------------------------------------------
class TestDashboard:
    @pytest.fixture(scope="class")
    def artifacts(self):
        _, base = _run(epochs=40)
        _, chaos = _run(epochs=40, chaos="rack-outage")
        return base, chaos

    def test_self_contained_offline_html(self, artifacts):
        base, chaos = artifacts
        html = render_dashboard(chaos, base)
        assert html.lstrip().lower().startswith("<!doctype html>")
        assert not re.search(r"https?://", html)  # zero external references
        assert "<svg" in html and "</html>" in html

    def test_panels_markers_and_tiles_present(self, artifacts):
        base, chaos = artifacts
        html = render_dashboard(chaos, base)
        for needle in (
            "DC utilization",
            "Replica count",
            "Traffic per datacenter",
            "SLA",
            "marker-rule",  # chaos event rules
            "tile",  # headline tiles
        ):
            assert needle in html, needle

    def test_panel_data_blocks_are_valid_json(self, artifacts):
        _, chaos = artifacts
        html = render_dashboard(chaos)
        blocks = re.findall(
            r'<script type="application/json"[^>]*>(.*?)</script>', html, re.S
        )
        assert blocks
        for block in blocks:
            json.loads(block)

    def test_runs_without_baseline_and_with_title(self, artifacts):
        base, _ = artifacts
        html = render_dashboard(base, title="My run")
        assert "My run" in html

    def test_dark_mode_palette_present(self, artifacts):
        base, _ = artifacts
        html = render_dashboard(base)
        assert "prefers-color-scheme: dark" in html
