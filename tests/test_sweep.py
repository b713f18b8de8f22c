"""The sweep orchestrator stack: manifest expansion, workers, the
merged ``.sweep.json`` artifact, cross-seed statistics, fleet
observability and ``sweepdiff`` gating (``repro.sweep`` +
``repro.obs.fleet``)."""

from __future__ import annotations

import copy
import io
import json
import multiprocessing
import os
import time

import pytest

from repro.errors import SweepError
from repro.experiments.runner import run_experiment
from repro.obs.fleet import FleetProgress
from repro.obs.fleet.dashboard import render_fleet_dashboard
from repro.obs.fleet.events import (
    CELL_FINISHED,
    cell_failed,
    cell_finished,
    cell_started,
    heartbeat,
)
from repro.staticcheck.sanitizer import DeterminismSanitizer
from repro.sweep import (
    SweepArtifact,
    SweepManifest,
    SweepScale,
    bootstrap_rng,
    build_cell_scenario,
    diff_sweeps,
    format_mean_ci,
    render_sweep,
    run_sweep,
    summarize,
)
from repro.sweep.worker import (
    CellDivergenceError,
    classify_failure,
    load_cell_record,
)

EPOCHS = 6  # tiny runs keep the suite fast; determinism is length-blind


def small_manifest(**overrides):
    defaults = dict(
        policies=("rfh", "random"),
        scenarios=("random",),
        seeds=(1, 2),
        epochs=EPOCHS,
    )
    defaults.update(overrides)
    return SweepManifest(**defaults)


def quiet_progress(total):
    return FleetProgress(total, stream=io.StringIO(), live=False)


# ----------------------------------------------------------------------
# Manifest expansion & content addressing
# ----------------------------------------------------------------------
class TestManifest:
    def test_expansion_is_deterministic_nested_product(self):
        m = small_manifest(seeds=(1, 2, 3))
        cells = m.cells()
        assert len(cells) == m.num_cells == 2 * 1 * 3 * 1 * 1
        assert cells == m.cells()
        # policy-major, then scenario, seed, scale, engine.
        assert [c.cell_id for c in cells[:3]] == [
            "rfh-random-s1-paper-scalar",
            "rfh-random-s2-paper-scalar",
            "rfh-random-s3-paper-scalar",
        ]

    def test_manifest_hash_ignores_name_and_meta(self):
        a = small_manifest()
        b = small_manifest()
        import dataclasses

        renamed = dataclasses.replace(a, name="other", meta={"note": "x"})
        assert a.manifest_hash == b.manifest_hash == renamed.manifest_hash

    def test_manifest_hash_tracks_every_knob(self):
        base = small_manifest()
        assert small_manifest(epochs=EPOCHS + 1).manifest_hash != base.manifest_hash
        assert small_manifest(seeds=(1, 3)).manifest_hash != base.manifest_hash
        assert (
            small_manifest(scales=(SweepScale("paper", rate=200.0),)).manifest_hash
            != base.manifest_hash
        )

    def test_save_load_round_trip(self, tmp_path):
        m = small_manifest(meta={"note": "hello"})
        path = tmp_path / "grid.json"
        m.save(path)
        loaded = SweepManifest.load(path)
        assert loaded == m
        assert loaded.manifest_hash == m.manifest_hash
        # The on-disk hash is advisory and recomputed on load.
        raw = json.loads(path.read_text())
        assert raw["manifest_hash"] == m.manifest_hash

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(policies=()),
            dict(policies=("rfh", "rfh")),
            dict(policies=("nope",)),
            dict(scenarios=("nope",)),
            dict(engines=("nope",)),
            dict(epochs=0),
            dict(timeseries_stride=0),
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(SweepError):
            small_manifest(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(SweepError, match="unknown manifest key"):
            SweepManifest.from_dict({"policies": ["rfh"], "bogus": 1})

    def test_cell_digest_tracks_configuration(self):
        a = small_manifest().cells()[0]
        b = small_manifest(epochs=EPOCHS + 1).cells()[0]
        assert a.cell_id == b.cell_id  # epochs not in the id...
        assert a.digest != b.digest  # ...but always in the address
        assert a.dirname == f"{a.cell_id}-{a.digest}"


# ----------------------------------------------------------------------
# Cross-seed statistics
# ----------------------------------------------------------------------
class TestStats:
    def test_summarize_is_deterministic_for_a_manifest_hash(self):
        values = [1.0, 2.0, 3.0, 4.0]
        s1 = summarize(values, bootstrap_rng("abc123def456"))
        s2 = summarize(values, bootstrap_rng("abc123def456"))
        assert s1 == s2
        assert s1["n"] == 4 and s1["mean"] == pytest.approx(2.5)
        assert s1["ci_lo"] <= s1["mean"] <= s1["ci_hi"]

    def test_single_seed_has_zero_width_interval(self):
        s = summarize([7.5], bootstrap_rng("0"))
        assert s["n"] == 1 and s["ci_lo"] == s["ci_hi"] == 7.5
        assert s["stddev"] == 0.0
        assert format_mean_ci(s) == "7.500"  # bare mean, no dishonest ±

    def test_empty_group_is_nan_with_n_zero(self):
        import math

        s = summarize([], bootstrap_rng("0"))
        assert s["n"] == 0 and math.isnan(s["mean"])
        assert format_mean_ci(s) == "–"

    def test_format_mean_ci_prints_half_width(self):
        s = summarize([1.0, 2.0, 3.0], bootstrap_rng("42"))
        text = format_mean_ci(s, "{:.2f}")
        assert "±" in text and text.startswith("2.00")


# ----------------------------------------------------------------------
# The sweep itself
# ----------------------------------------------------------------------
class TestRunSweep:
    def test_inline_sweep_produces_valid_artifact(self, tmp_path):
        m = small_manifest()
        art = run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        assert art.num_ok == m.num_cells and art.num_failed == 0
        loaded = SweepArtifact.load(tmp_path / "sweep.sweep.json")
        assert loaded.fingerprints() == art.fingerprints()
        assert sorted(loaded.groups) == [
            "random/random/paper/scalar",
            "rfh/random/paper/scalar",
        ]
        for stats in loaded.groups.values():
            assert stats["utilization"]["n"] == 2
        # Every cell dir holds the full artifact set.
        for cell in m.cells():
            cell_dir = tmp_path / "cells" / cell.dirname
            for name in ("cell.json", "metrics.csv", "run.tsdb.json", "run.fp.json"):
                assert (cell_dir / name).exists()

    def test_cell_fingerprints_match_sequential_single_runs(self, tmp_path):
        """Acceptance: sweep cells are bit-identical to one-off runs."""
        m = small_manifest()
        art = run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        for cell in m.cells():
            sanitizer = DeterminismSanitizer()
            run_experiment(
                cell.policy,
                build_cell_scenario(cell),
                sanitizer=sanitizer,
                engine=cell.engine,
            )
            assert (
                art.cell_record(cell.cell_id)["fingerprint"]
                == sanitizer.trail().final_chain
            ), f"sweep cell {cell.cell_id} diverged from a sequential run"

    def test_acceptance_grid_all_policies_two_scenarios(self, tmp_path):
        """The issue's acceptance grid shape: 4 policies x 2 scenarios x
        seeds, merged with per-cell fingerprints and full group stats."""
        m = SweepManifest(
            policies=("request", "owner", "random", "rfh"),
            scenarios=("random", "flash"),
            seeds=(1, 2, 3),
            epochs=4,
        )
        art = run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        assert art.num_ok == 24 and art.num_failed == 0
        assert len(art.groups) == 8
        assert all(s["utilization"]["n"] == 3 for s in art.groups.values())

    def test_parallel_sweep_is_bit_identical_to_inline(self, tmp_path):
        m = small_manifest()
        a = run_sweep(
            m, tmp_path / "a", max_workers=1, progress=quiet_progress(m.num_cells)
        )
        b = run_sweep(
            m, tmp_path / "b", max_workers=3, progress=quiet_progress(m.num_cells)
        )
        assert a.fingerprints() == b.fingerprints()
        assert a.groups == b.groups
        report = diff_sweeps(a, b)
        assert report.exit_code() == 0
        assert len(report.cells_identical) == m.num_cells

    def test_injected_exception_becomes_structured_failure(self, tmp_path):
        m = small_manifest()
        art = run_sweep(
            m,
            tmp_path,
            inject_crash="random-random-s1",
            progress=quiet_progress(m.num_cells),
        )
        assert art.num_ok == m.num_cells - 1 and art.num_failed == 1
        [failure] = art.failures
        assert failure["cell_id"] == "random-random-s1-paper-scalar"
        assert failure["kind"] == "worker-error"
        assert "injected crash" in failure["error"]
        assert "RuntimeError" in (failure["traceback"] or "")

    def test_hard_worker_crash_is_caught_by_watchdog(self, tmp_path):
        m = small_manifest()
        art = run_sweep(
            m,
            tmp_path,
            max_workers=2,
            inject_crash="rfh-random-s2",
            inject_mode="exit",
            progress=quiet_progress(m.num_cells),
        )
        assert art.num_ok == m.num_cells - 1
        [failure] = art.failures
        assert failure["kind"] == "worker-crash"
        # Depending on whether the dying worker's queue feeder flushed
        # its cell_started event before os._exit, the crash is booked
        # either by the in-flight watchdog ("exit code N") or by the
        # lost-cell pass ("no live workers") — both name the cell.
        assert failure["cell_id"] == "rfh-random-s2-paper-scalar"

    def test_orchestrator_error_still_reaps_every_worker(self, tmp_path):
        """An exception mid-orchestration (here the progress callback)
        propagates, and the teardown in ``_run_parallel``'s finally
        still joins both workers instead of leaving them running."""

        class BrokenProgress(FleetProgress):
            def handle(self, event):
                if event.get("kind") == CELL_FINISHED:
                    raise RuntimeError("progress callback failed")
                super().handle(event)

        m = small_manifest()
        progress = BrokenProgress(m.num_cells, stream=io.StringIO(), live=False)
        with pytest.raises(RuntimeError, match="progress callback failed"):
            run_sweep(m, tmp_path, max_workers=2, progress=progress)
        assert multiprocessing.active_children() == []

    def test_resume_skips_completed_and_reruns_failed(self, tmp_path):
        m = small_manifest()
        first = run_sweep(
            m,
            tmp_path,
            inject_crash="rfh-random-s1",
            progress=quiet_progress(m.num_cells),
        )
        assert first.num_failed == 1
        stream = io.StringIO()
        second = run_sweep(
            m,
            tmp_path,
            resume=True,
            progress=FleetProgress(m.num_cells, stream=stream, live=False),
        )
        assert second.num_ok == m.num_cells and second.num_failed == 0
        assert second.meta["resumed_cells"] == m.num_cells - 1
        assert stream.getvalue().count("resumed") >= m.num_cells - 1
        # Resumed + fresh must equal an untouched run of the same grid.
        clean = run_sweep(
            m, tmp_path / "clean", progress=quiet_progress(m.num_cells)
        )
        assert diff_sweeps(clean, second).exit_code() == 0

    def test_resume_reruns_a_cell_whose_record_is_not_utf8(self, tmp_path):
        m = small_manifest(policies=("rfh",))
        run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        bad = m.cells()[0]
        (tmp_path / "cells" / bad.dirname / "cell.json").write_bytes(b"\xff\xfe{")
        assert load_cell_record(bad, tmp_path / "cells" / bad.dirname, m.manifest_hash) is None
        again = run_sweep(m, tmp_path, resume=True, progress=quiet_progress(m.num_cells))
        assert again.num_ok == m.num_cells and again.num_failed == 0
        assert [record["resumed"] for record in again.cells] == [False, True]
        assert load_cell_record(bad, tmp_path / "cells" / bad.dirname, m.manifest_hash)

    def test_resume_rejects_tampered_cell_record(self, tmp_path):
        m = small_manifest()
        run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        cell = m.cells()[0]
        record_path = tmp_path / "cells" / cell.dirname / "cell.json"
        raw = json.loads(record_path.read_text())
        raw["digest"] = "deadbeef"
        record_path.write_text(json.dumps(raw))
        assert (
            load_cell_record(
                cell, tmp_path / "cells" / cell.dirname, m.manifest_hash
            )
            is None
        )
        # Other-manifest records are rejected too.
        ok_cell = m.cells()[1]
        assert (
            load_cell_record(
                ok_cell, tmp_path / "cells" / ok_cell.dirname, "somethingelse"
            )
            is None
        )

    def test_verify_cells_runs_the_determinism_guard(self, tmp_path):
        m = small_manifest(seeds=(1,))
        art = run_sweep(
            m, tmp_path, verify=True, progress=quiet_progress(m.num_cells)
        )
        assert art.num_failed == 0
        assert all(record["verified"] for record in art.cells)

    def test_divergence_classifies_as_determinism_failure(self):
        assert (
            classify_failure(CellDivergenceError("boom"))
            == "determinism-divergence"
        )
        assert classify_failure(RuntimeError("boom")) == "worker-error"

    @pytest.mark.skipif(
        (os.cpu_count() or 1) < 4,
        reason="parallel speedup needs >= 4 cores",
    )
    def test_parallel_speedup_on_multicore(self, tmp_path):
        """Acceptance: wall-clock < 0.5x sequential on >= 4 cores."""
        m = SweepManifest(
            policies=("request", "owner", "random", "rfh"),
            scenarios=("random", "flash"),
            seeds=(1, 2, 3, 4, 5),
            epochs=30,
        )
        t0 = time.perf_counter()
        run_sweep(
            m, tmp_path / "seq", max_workers=1,
            progress=quiet_progress(m.num_cells),
        )
        sequential = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_sweep(
            m, tmp_path / "par", max_workers=4,
            progress=quiet_progress(m.num_cells),
        )
        parallel = time.perf_counter() - t0
        assert parallel < 0.5 * sequential, (
            f"parallel {parallel:.2f}s vs sequential {sequential:.2f}s"
        )


# ----------------------------------------------------------------------
# Artifact format
# ----------------------------------------------------------------------
class TestSweepArtifact:
    def test_round_trip_preserves_everything(self, tmp_path):
        m = small_manifest()
        art = run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        path = tmp_path / "copy.sweep.json"
        art.save(path)
        loaded = SweepArtifact.load(path)
        assert loaded.to_dict() == art.to_dict()

    def test_rejects_wrong_format_and_version(self, tmp_path):
        m = small_manifest()
        art = run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        raw = art.to_dict()
        bad = dict(raw, format="nope")
        with pytest.raises(SweepError, match="format"):
            SweepArtifact.from_dict(bad)
        bad = dict(raw, version=99)
        with pytest.raises(SweepError, match="version"):
            SweepArtifact.from_dict(bad)

    def test_rejects_manifest_hash_mismatch(self, tmp_path):
        m = small_manifest()
        art = run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        raw = art.to_dict()
        raw["manifest_hash"] = "000000000000"
        with pytest.raises(SweepError, match="manifest hash mismatch"):
            SweepArtifact.from_dict(raw)

    def test_unreadable_file_raises_sweep_error(self, tmp_path):
        path = tmp_path / "junk.sweep.json"
        path.write_text("{not json")
        with pytest.raises(SweepError, match="cannot read"):
            SweepArtifact.load(path)


# ----------------------------------------------------------------------
# Report & dashboard
# ----------------------------------------------------------------------
class TestReporting:
    def test_report_prints_mean_ci_tables(self, tmp_path):
        m = small_manifest()
        art = run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        text = render_sweep(art)
        assert "±" in text
        assert "| rfh " in text and "| random " in text
        assert m.manifest_hash in text
        assert "failures" not in text  # clean sweep, no failure section

    def test_report_lists_structured_failures(self, tmp_path):
        m = small_manifest()
        art = run_sweep(
            m,
            tmp_path,
            inject_crash="rfh-random-s1",
            progress=quiet_progress(m.num_cells),
        )
        text = render_sweep(art)
        assert "## failures" in text
        assert "rfh-random-s1-paper-scalar" in text
        assert "worker-error" in text

    def test_fleet_dashboard_renders_band_plots_offline(self, tmp_path):
        m = small_manifest(seeds=(1, 2, 3))
        art = run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        page = render_fleet_dashboard(art, tmp_path)
        assert page.count('<figure class="panel"') >= 8
        assert '<polygon class="band"' in page
        assert "mean over 3 seed(s)" in page
        body = page.split("</title>", 1)[1]
        assert "http://" not in body and "https://" not in body

    def test_fleet_dashboard_requires_cell_artifacts(self, tmp_path):
        m = small_manifest()
        art = run_sweep(m, tmp_path, progress=quiet_progress(m.num_cells))
        with pytest.raises(SweepError, match="no loadable cell time series"):
            render_fleet_dashboard(art, tmp_path / "elsewhere")


# ----------------------------------------------------------------------
# sweepdiff gating
# ----------------------------------------------------------------------
class TestSweepDiff:
    def _two_runs(self, tmp_path):
        m = small_manifest()
        a = run_sweep(m, tmp_path / "a", progress=quiet_progress(m.num_cells))
        b = run_sweep(m, tmp_path / "b", progress=quiet_progress(m.num_cells))
        return a, b

    def test_same_manifest_sweeps_diff_clean(self, tmp_path):
        a, b = self._two_runs(tmp_path)
        report = diff_sweeps(a, b)
        assert report.exit_code() == 0
        assert report.same_manifest
        assert not report.cell_mismatches
        assert {j[2] for j in report.judgements} == {"identical"}
        assert "verdict: OK" in report.render()

    def test_fingerprint_mismatch_gates(self, tmp_path):
        a, b = self._two_runs(tmp_path)
        raw = copy.deepcopy(b.to_dict())
        raw["cells"][0]["fingerprint"] = "feedfacecafebeef"
        tampered = SweepArtifact.from_dict(raw)
        report = diff_sweeps(a, tampered)
        assert report.exit_code() == 1
        assert len(report.cell_mismatches) == 1
        assert "FINGERPRINT MISMATCH" in report.render()

    def test_ci_disjoint_regression_gates_by_polarity(self, tmp_path):
        a, b = self._two_runs(tmp_path)
        raw = copy.deepcopy(b.to_dict())
        group = raw["groups"]["rfh/random/paper/scalar"]
        # utilization has polarity +1: a clearly lower CI is a regression.
        group["utilization"] = {
            "n": 2, "mean": 0.01, "stddev": 0.001, "min": 0.009,
            "max": 0.011, "p05": 0.009, "p95": 0.011,
            "ci_lo": 0.009, "ci_hi": 0.011,
        }
        worse = SweepArtifact.from_dict(raw)
        report = diff_sweeps(a, worse)
        assert report.exit_code() == 1
        assert any(j[2] == "regressed" and j[1] == "utilization"
                   for j in report.judgements)
        # The same shift in the improving direction does not gate.
        raw2 = copy.deepcopy(b.to_dict())
        raw2["groups"]["rfh/random/paper/scalar"]["utilization"] = {
            "n": 2, "mean": 0.99, "stddev": 0.001, "min": 0.989,
            "max": 0.991, "p05": 0.989, "p95": 0.991,
            "ci_lo": 0.989, "ci_hi": 0.991,
        }
        better = SweepArtifact.from_dict(raw2)
        better_report = diff_sweeps(a, better)
        assert any(j[2] == "improved" for j in better_report.judgements)
        assert not better_report.regressions

    def test_disjoint_cells_reported_not_gated(self, tmp_path):
        m_a = small_manifest(seeds=(1, 2))
        m_b = small_manifest(seeds=(2, 3))
        a = run_sweep(m_a, tmp_path / "a", progress=quiet_progress(4))
        b = run_sweep(m_b, tmp_path / "b", progress=quiet_progress(4))
        report = diff_sweeps(a, b)
        assert not report.same_manifest
        assert len(report.cells_only_a) == 2  # seed 1 cells
        assert len(report.cells_only_b) == 2  # seed 3 cells
        assert len(report.cells_identical) == 2  # shared seed-2 cells


# ----------------------------------------------------------------------
# Fleet progress rendering
# ----------------------------------------------------------------------
class TestFleetProgress:
    def test_pipe_mode_prints_one_line_per_completion(self):
        stream = io.StringIO()
        progress = FleetProgress(3, stream=stream, live=False)
        progress.handle(cell_started(0, 0, "cell-a"))
        progress.handle(heartbeat(0, "cell-a", 1.0, 0))
        progress.handle(
            cell_finished(0, 0, "cell-a", {"duration_s": 1.25})
        )
        progress.handle(cell_started(1, 1, "cell-b"))
        progress.handle(
            cell_failed(
                1, 1, "cell-b",
                {"kind": "worker-error", "error": "RuntimeError: nope"},
            )
        )
        progress.note_resumed("cell-c")
        progress.finish(wall_s=2.0)
        out = stream.getvalue()
        assert "[1/3] ok cell-a 1.2s (worker 0)" in out
        assert "FAILED cell-b [worker-error]" in out
        assert "resumed cell-c" in out
        assert "sweep: 1 ok, 1 failed, 1 resumed of 3 cell(s)" in out
        assert "\r" not in out  # pipe mode never uses carriage returns

    def test_tty_mode_rewrites_a_status_line(self):
        stream = io.StringIO()
        progress = FleetProgress(2, stream=stream, live=True)
        progress.handle(cell_started(0, 0, "cell-a"))
        assert "\r" in stream.getvalue()
        assert "run=1 | cell-a" in progress.status_line()

    def test_eta_appears_once_durations_exist(self):
        progress = FleetProgress(4, stream=io.StringIO(), live=False)
        assert progress.eta_seconds() is None
        progress.handle(cell_started(0, 0, "a"))
        progress.handle(cell_finished(0, 0, "a", {"duration_s": 2.0}))
        progress.handle(cell_started(0, 1, "b"))
        assert progress.eta_seconds() == pytest.approx(6.0)

    def test_broken_stream_never_raises(self):
        class Broken(io.StringIO):
            def write(self, _):
                raise OSError("gone")

        progress = FleetProgress(1, stream=Broken(), live=False)
        progress.handle(cell_finished(0, 0, "a", {"duration_s": 0.1}))
        progress.finish(0.1)
