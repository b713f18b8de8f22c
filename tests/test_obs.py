"""The observability layer: tracer, profiler, registry, engine wiring."""

from __future__ import annotations

import gc
import io
import json
import warnings

import numpy as np
import pytest

from repro.cli import _warn_dropped
from repro.config import SimulationConfig, WorkloadParameters
from repro.obs import (
    ENGINE_PHASES,
    InstrumentRegistry,
    JsonlTracer,
    NullProfiler,
    NullTracer,
    PhaseProfiler,
    RingBufferTracer,
    TraceEvent,
    TraceReadWarning,
    read_jsonl,
)
from repro.obs.analysis import registry_from_events
from repro.obs.profiler import _percentile
from repro.sim.engine import Simulation
from repro.sim.events import ServerFailureEvent, ServerJoinEvent, ServerRecoveryEvent


def _small_config(seed: int = 11) -> SimulationConfig:
    return SimulationConfig(
        seed=seed,
        workload=WorkloadParameters(
            queries_per_epoch_mean=120.0, num_partitions=12, zipf_exponent=0.9
        ),
    )


# ----------------------------------------------------------------------
# Tracer sinks
# ----------------------------------------------------------------------
class TestRingBufferTracer:
    def test_overflow_evicts_oldest_and_counts_drops(self):
        tracer = RingBufferTracer(capacity=5)
        for i in range(12):
            tracer.emit(TraceEvent(epoch=i, kind="replicate"))
        assert len(tracer) == 5
        assert tracer.dropped == 7
        assert [e.epoch for e in tracer.events()] == [7, 8, 9, 10, 11]

    def test_kind_filter(self):
        tracer = RingBufferTracer(capacity=10)
        tracer.emit(TraceEvent(epoch=0, kind="replicate"))
        tracer.emit(TraceEvent(epoch=1, kind="suicide"))
        tracer.emit(TraceEvent(epoch=2, kind="replicate"))
        assert [e.epoch for e in tracer.events("replicate")] == [0, 2]

    def test_clear_resets_buffer_and_drop_count(self):
        tracer = RingBufferTracer(capacity=1)
        tracer.emit(TraceEvent(epoch=0, kind="migrate"))
        tracer.emit(TraceEvent(epoch=1, kind="migrate"))
        tracer.clear()
        assert len(tracer) == 0 and tracer.dropped == 0

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingBufferTracer(capacity=0)


class TestJsonlTracer:
    def test_roundtrip_preserves_fields_and_extras(self, tmp_path):
        path = tmp_path / "t.jsonl"
        original = [
            TraceEvent(
                epoch=3,
                kind="migrate",
                server=7,
                partition=2,
                reason="hub-migration",
                cost=1.25,
                policy="rfh",
                extra={"source": 4},
            ),
            TraceEvent(epoch=4, kind="sla_violation", reason="latency-bound-exceeded"),
        ]
        with JsonlTracer(path) as tracer:
            for event in original:
                tracer.emit(event)
        assert tracer.emitted == 2
        loaded = list(read_jsonl(path))
        assert len(loaded) == 2
        assert loaded[0].to_dict() == original[0].to_dict()
        assert loaded[0].extra == {"source": 4}
        assert loaded[1].reason == "latency-bound-exceeded"

    def test_lines_are_one_json_object_each(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit(TraceEvent(epoch=0, kind="replicate", reason="availability"))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        assert record["kind"] == "replicate" and record["reason"] == "availability"

    def test_emit_writes_json_dump_bytes_and_leaves_no_cycles(self, tmp_path):
        """Each line is what ``json.dump`` writes, NaN and infinities
        included, and emitting leaves nothing for the cyclic GC."""
        events = [
            TraceEvent(
                epoch=i, kind="migrate", cost=value, ts=0.5, extra={"load": value}
            )
            for i, value in enumerate((float("nan"), float("inf"), -float("inf"), 1.25))
        ]
        path = tmp_path / "t.jsonl"
        tracer = JsonlTracer(path)
        gc.collect()
        gc.disable()
        try:
            for event in events:
                tracer.emit(event)
            unreachable = gc.collect()
        finally:
            gc.enable()
        tracer.close()
        assert unreachable == 0
        expected = io.StringIO()
        for event in events:
            json.dump(event.to_dict(), expected, separators=(",", ":"))
            expected.write("\n")
        assert path.read_bytes() == expected.getvalue().encode("utf-8")


def test_null_tracer_is_disabled():
    assert NullTracer.enabled is False
    assert Simulation(_small_config()).tracer.enabled is False


# ----------------------------------------------------------------------
# Profiler
# ----------------------------------------------------------------------
class TestProfiler:
    def test_phase_names_are_stable(self):
        assert ENGINE_PHASES == (
            "membership",
            "workload",
            "serve",
            "observe",
            "apply",
            "record",
        )

    def test_engine_times_every_phase_every_epoch(self):
        profiler = PhaseProfiler()
        sim = Simulation(_small_config(), profiler=profiler)
        sim.run(6)
        timings = profiler.phase_timings()
        assert tuple(timings) == ENGINE_PHASES
        for stats in timings.values():
            assert stats.count == 6
            assert stats.total >= 0.0
            assert stats.p50 <= stats.p95 <= stats.total + 1e-12

    def test_render_table_lists_all_phases(self):
        profiler = PhaseProfiler()
        sim = Simulation(_small_config(), profiler=profiler)
        sim.run(2)
        table = profiler.render_table()
        for phase in ENGINE_PHASES:
            assert phase in table

    def test_reset_clears_samples(self):
        profiler = PhaseProfiler()
        with profiler.phase("serve"):
            pass
        profiler.reset()
        assert profiler.phase_timings()["serve"].count == 0

    def test_null_profiler_noop(self):
        profiler = NullProfiler()
        with profiler.phase("serve"):
            pass
        assert profiler.phase_timings() == {}


# ----------------------------------------------------------------------
# Instrument registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_label_sets_create_distinct_children(self):
        reg = InstrumentRegistry()
        reg.counter("actions_total", kind="migrate", policy="rfh").inc()
        reg.counter("actions_total", kind="replicate", policy="rfh").inc(2)
        assert reg.counter("actions_total", kind="migrate", policy="rfh").value == 1
        assert reg.counter("actions_total", kind="replicate", policy="rfh").value == 2

    def test_label_order_is_irrelevant(self):
        reg = InstrumentRegistry()
        reg.counter("x", a="1", b="2").inc()
        assert reg.counter("x", b="2", a="1").value == 1

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            InstrumentRegistry().counter("c").inc(-1)

    def test_histogram_summary(self):
        hist = InstrumentRegistry().histogram("h")
        for v in [1.0, 2.0, 3.0, 4.0]:
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["min"] == 1.0 and summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(2.5)
        # Every sample is kept, so the quantiles are exact.
        assert hist.samples == [1.0, 2.0, 3.0, 4.0]
        assert summary["p95"] == 4.0

    def test_snapshot_and_json_export(self):
        reg = InstrumentRegistry()
        reg.counter("actions_total", kind="suicide").inc(3)
        reg.histogram("lifetime").observe(7.0)
        snap = reg.snapshot()
        assert snap["counters"][0]["labels"] == {"kind": "suicide"}
        assert snap["counters"][0]["value"] == 3
        assert snap["histograms"][0]["count"] == 1
        assert json.loads(json.dumps(snap)) == snap

    def test_snapshot_deterministic_across_insertion_orders(self):
        """Two registries fed the same instruments in different creation
        and label orders must snapshot byte-identically."""
        a = InstrumentRegistry()
        a.counter("actions_total", kind="migrate", policy="rfh").inc(2)
        a.counter("actions_total", kind="replicate", policy="rfh").inc(5)
        a.counter("sla_miss_total", policy="rfh").inc(7)
        a.histogram("lifetime", policy="rfh").observe(3.0)

        b = InstrumentRegistry()
        b.histogram("lifetime", policy="rfh").observe(3.0)
        b.counter("sla_miss_total", policy="rfh").inc(7)
        b.counter("actions_total", policy="rfh", kind="replicate").inc(5)
        b.counter("actions_total", policy="rfh", kind="migrate").inc(2)

        assert a.snapshot() == b.snapshot()
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())


# ----------------------------------------------------------------------
# Engine integration
# ----------------------------------------------------------------------
class TestEngineTracing:
    def test_every_action_record_carries_a_reason(self):
        for policy in ("rfh", "random", "owner", "request"):
            tracer = RingBufferTracer()
            sim = Simulation(_small_config(), policy=policy, tracer=tracer)
            sim.run(30)
            action_events = [
                e
                for e in tracer.events()
                if e.kind in ("replicate", "migrate", "suicide")
            ]
            assert action_events, f"{policy}: no actions traced in 30 epochs"
            assert all(e.reason for e in action_events), policy
            assert all(e.policy == policy for e in tracer.events())

    def test_membership_and_restore_events_traced(self):
        tracer = RingBufferTracer()
        events = [
            ServerFailureEvent(epoch=2, sids=(0, 1)),
            ServerJoinEvent(epoch=4, dc=0, count=1),
            ServerRecoveryEvent(epoch=6),
        ]
        sim = Simulation(_small_config(), tracer=tracer, events=events)
        sim.run(10)
        kinds = {e.kind for e in tracer.events()}
        assert {"server_failure", "server_join", "server_recovery"} <= kinds
        failures = tracer.events("server_failure")
        assert {e.server for e in failures} == {0, 1}
        assert all(e.epoch == 2 for e in failures)

    def test_mass_failure_traces_restores(self):
        from repro.sim.events import MassFailureEvent

        tracer = RingBufferTracer()
        sim = Simulation(
            _small_config(),
            tracer=tracer,
            events=[MassFailureEvent(epoch=3, count=90)],
        )
        sim.run(6)
        assert len(tracer.events("server_failure")) == 90
        restores = tracer.events("partition_restore")
        assert restores  # killing 90 % of servers loses partitions
        assert all(e.reason == "all-copies-lost" for e in restores)

    def test_tracing_does_not_perturb_the_simulation(self):
        plain = Simulation(_small_config(seed=5)).run(20)
        traced_sim = Simulation(
            _small_config(seed=5),
            tracer=RingBufferTracer(),
            profiler=PhaseProfiler(),
        )
        traced = traced_sim.run(20)
        for name in plain.names():
            np.testing.assert_array_equal(
                plain.array(name), traced.array(name), err_msg=name
            )

    def test_instruments_count_actions_and_lifetimes(self):
        """The counters rebuilt from the trace agree with the metric
        series the engine records for the same run."""
        tracer = RingBufferTracer()
        metrics = Simulation(_small_config(), tracer=tracer).run(60)
        snap = registry_from_events(tracer.events()).snapshot()
        counted: dict[str, float] = {}
        for row in snap["counters"]:
            if row["name"] == "actions_total":
                kind = row["labels"]["kind"]
                counted[kind] = counted.get(kind, 0.0) + row["value"]
        for kind, series in (
            ("replicate", "replication_count"),
            ("migrate", "migration_count"),
            ("suicide", "suicide_count"),
        ):
            assert counted.get(kind, 0.0) == metrics.array(series).sum(), kind
        suicides = metrics.array("suicide_count").sum()
        assert suicides > 0, "run applied no suicides"
        (lifetimes,) = [
            row for row in snap["histograms"] if row["name"] == "replica_lifetime_epochs"
        ]
        assert lifetimes["count"] >= suicides

    def test_sla_violations_traced_when_queries_block(self):
        tracer = RingBufferTracer()
        sim = Simulation(_small_config(), tracer=tracer)
        metrics = sim.run(40)
        violations = tracer.events("sla_violation")
        attainment = metrics.array("sla_attainment")
        if (attainment < 1.0).any():
            assert violations
            assert all(e.extra["count"] > 0 for e in violations)
        else:  # pragma: no cover - workload-dependent
            assert not violations


# ----------------------------------------------------------------------
# Percentile helper edge cases
# ----------------------------------------------------------------------
class TestPercentile:
    def test_empty_sample_is_zero(self):
        assert _percentile([], 0.5) == 0.0

    def test_single_sample_for_every_q(self):
        for q in (0.0, 0.5, 0.95, 1.0):
            assert _percentile([7.5], q) == 7.5

    def test_q0_and_q100_hit_the_extremes(self):
        ordered = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert _percentile(ordered, 0.0) == 1.0
        assert _percentile(ordered, 1.0) == 5.0

    def test_two_sample_interpolation(self):
        # Linear interpolation between order statistics: the median of
        # two samples is their midpoint (the old nearest-rank rule
        # banker-rounded p50 of [1, 9] down to 1.0).
        assert _percentile([1.0, 9.0], 0.5) == 5.0
        assert _percentile([1.0, 9.0], 0.95) == pytest.approx(8.6)

    def test_interpolates_between_neighbours(self):
        ordered = [1.0, 2.0, 10.0]
        # q=0.75 lands at position 1.5: halfway between 2 and 10.
        assert _percentile(ordered, 0.75) == pytest.approx(6.0)
        # Results are always bracketed by the neighbouring samples.
        for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
            value = _percentile(ordered, q)
            assert ordered[0] <= value <= ordered[-1]

    def test_matches_numpy_linear_method(self):
        ordered = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]
        for q in (0.0, 0.1, 0.25, 0.5, 0.77, 0.95, 1.0):
            assert _percentile(ordered, q) == pytest.approx(
                float(np.percentile(ordered, q * 100))
            )


# ----------------------------------------------------------------------
# Crash-safe trace reading + drop accounting
# ----------------------------------------------------------------------
class TestCrashSafeReadJsonl:
    def _write_truncated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            for epoch in range(5):
                tracer.emit(TraceEvent(epoch=epoch, kind="replicate", server=1))
        # Simulate a writer killed mid-record: chop the final line.
        path.write_bytes(path.read_bytes()[:-25])
        return path

    def test_truncated_final_line_skipped_with_warning(self, tmp_path):
        path = self._write_truncated(tmp_path)
        with pytest.warns(TraceReadWarning, match="skipping malformed"):
            events = list(read_jsonl(path))
        assert [e.epoch for e in events] == [0, 1, 2, 3]

    def test_strict_mode_still_raises(self, tmp_path):
        path = self._write_truncated(tmp_path)
        with pytest.raises(json.JSONDecodeError):
            list(read_jsonl(path, strict=True))

    def _write_with(self, tmp_path, bad_line: bytes):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit(TraceEvent(epoch=0, kind="replicate", server=1))
        with open(path, "ab") as handle:
            handle.write(bad_line + b"\n")
        with JsonlTracer(tmp_path / "tail.jsonl") as tracer:
            tracer.emit(TraceEvent(epoch=2, kind="suicide", server=1))
        with open(path, "ab") as handle:
            handle.write((tmp_path / "tail.jsonl").read_bytes())
        return path

    @pytest.mark.parametrize(
        "bad_line, error",
        [
            (b'{"epoch": 1, "kind": "migrate", "reason": "\xff\xfe"}', UnicodeDecodeError),
            (b'{"epoch": 1}', KeyError),
            (b"[1, 2]", AttributeError),
        ],
        ids=["non-utf8", "not-an-event", "not-an-object"],
    )
    def test_malformed_line_is_skipped_and_raises_in_strict_mode(
        self, tmp_path, bad_line, error
    ):
        path = self._write_with(tmp_path, bad_line)
        with pytest.warns(TraceReadWarning, match=r"t\.jsonl:2: skipping malformed"):
            events = list(read_jsonl(path))
        assert [(e.epoch, e.kind) for e in events] == [(0, "replicate"), (2, "suicide")]
        with pytest.raises(error):
            list(read_jsonl(path, strict=True))

    def test_clean_file_reads_without_warning(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            tracer.emit(TraceEvent(epoch=0, kind="suicide", server=2))
        with warnings.catch_warnings():
            warnings.simplefilter("error", TraceReadWarning)
            assert len(list(read_jsonl(path))) == 1


class TestDroppedEventsWarning:
    def test_drops_named_on_stderr(self, capsys):
        tracer = RingBufferTracer(capacity=8)
        Simulation(_small_config(), tracer=tracer).run(30)
        assert tracer.dropped > 0
        _warn_dropped(tracer)
        captured = capsys.readouterr()
        assert f"evicted {tracer.dropped} events" in captured.err
        assert captured.out == ""

    def test_no_drops_stays_silent(self, capsys):
        tracer = RingBufferTracer(capacity=1_000_000)
        Simulation(_small_config(), tracer=tracer).run(10)
        assert tracer.dropped == 0
        _warn_dropped(tracer)
        _warn_dropped(None)  # no tracer attached
        assert capsys.readouterr() == ("", "")
