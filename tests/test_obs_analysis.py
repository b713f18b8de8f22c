"""Trace analytics: lineage, root causes, anomalies, exporters, CLI."""

from __future__ import annotations

import json
import math
import re

from repro.cli import main
from repro.config import SimulationConfig, WorkloadParameters
from repro.obs import InstrumentRegistry, JsonlTracer, TraceEvent
from repro.obs.analysis import (
    AnalysisOptions,
    analyze_events,
    analyze_trace,
    attribute_violations,
    build_lineage,
    detect_churn_hotspots,
    detect_pingpong,
    detect_replication_storms,
    registry_from_events,
    render_markdown,
    render_text,
    to_chrome_trace,
    to_prometheus,
    top_causes,
)
from repro.sim.engine import Simulation
from repro.sim.events import MassFailureEvent


def _small_config(seed: int = 11) -> SimulationConfig:
    return SimulationConfig(
        seed=seed,
        workload=WorkloadParameters(
            queries_per_epoch_mean=150.0, num_partitions=16, zipf_exponent=0.9
        ),
    )


def _event(epoch, kind, server=None, partition=None, reason="", **extra):
    return TraceEvent(
        epoch=epoch,
        kind=kind,
        server=server,
        partition=partition,
        reason=reason,
        policy="rfh",
        extra=extra,
    )


# ----------------------------------------------------------------------
# Lineage
# ----------------------------------------------------------------------
class TestLineage:
    def test_full_chain_create_migrate_fail(self):
        events = [
            _event(0, "replica_bootstrap", server=3, partition=0, dc=0),
            _event(5, "replicate", server=7, partition=0, source=3, dc=1, source_dc=0),
            _event(9, "migrate", server=9, partition=0, source=7, dc=2, source_dc=1),
            _event(20, "server_failure", server=9, partitions=[0], dc=2),
        ]
        lineage = build_lineage(events)
        assert len(lineage.lifecycles) == 2
        bootstrap, replica = lineage.lifecycles
        assert bootstrap.alive and bootstrap.servers == [3]
        assert replica.servers == [7, 9]
        assert replica.migrations == 1 and replica.dc_hops == 1
        assert replica.born_kind == "replicate" and replica.end_kind == "failure"
        assert replica.lifetime == 15  # born 5, died 20
        # Two closed stays: the 7-stay (5..9) and the 9-stay (9..20).
        assert sorted(lineage.stay_lifetimes()) == [4, 11]

    def test_suicide_closes_lifecycle(self):
        events = [
            _event(0, "replica_bootstrap", server=1, partition=2, dc=0),
            _event(8, "suicide", server=1, partition=2, dc=0),
        ]
        lineage = build_lineage(events)
        (life,) = lineage.lifecycles
        assert life.end_kind == "suicide" and life.lifetime == 8

    def test_pre_trace_birth_excluded_from_lifetimes(self):
        # A migrate whose source was never seen: the birth predates the
        # trace, so its duration must not pollute the statistics.
        events = [
            _event(4, "migrate", server=5, partition=1, source=2, dc=1, source_dc=0),
            _event(9, "suicide", server=5, partition=1, dc=1),
        ]
        lineage = build_lineage(events)
        (life,) = lineage.lifecycles
        assert life.born_kind == "pre-trace"
        assert life.lifetime is None
        # Only the post-migration stay (4..9) has a known birth.
        assert lineage.stay_lifetimes() == [5]

    def test_failure_without_partition_list_warns(self):
        events = [
            _event(0, "replica_bootstrap", server=1, partition=0, dc=0),
            _event(3, "server_failure", server=1, replicas_lost=1),
        ]
        lineage = build_lineage(events)
        assert lineage.warnings
        assert "partitions" in lineage.warnings[0]
        assert lineage.lifecycles[0].alive  # could not be closed

    def test_restore_starts_new_lifecycle(self):
        events = [_event(7, "partition_restore", server=4, partition=3, dc=1)]
        lineage = build_lineage(events)
        (life,) = lineage.lifecycles
        assert life.born_kind == "partition_restore" and life.alive

    def test_summary_counts(self):
        events = [
            _event(0, "replica_bootstrap", server=1, partition=0, dc=0),
            _event(2, "replicate", server=2, partition=0, source=1, dc=0, source_dc=0),
            _event(6, "suicide", server=2, partition=0, dc=0),
        ]
        summary = build_lineage(events).summary()
        assert summary["lifecycles"] == 2
        assert summary["alive"] == 1 and summary["closed"] == 1
        assert summary["births_by_kind"] == {"bootstrap": 1, "replicate": 1}
        assert summary["deaths_by_kind"] == {"suicide": 1}
        assert summary["lifetime_epochs"]["count"] == 1
        assert summary["lifetime_epochs"]["mean"] == 4.0


class _CellLog:
    """A replica-map mirror that logs when each (partition, server) cell
    fills (count 0 -> 1+) and empties (-> 0), at the engine's epoch."""

    def __init__(self, sim: Simulation) -> None:
        self._sim = sim
        self.born: dict[tuple[int, int], int] = {}
        self.deaths: list[tuple[int, int, int, int]] = []
        self.max_count = 0
        self._counts: dict[tuple[int, int], int] = {}
        for partition in range(sim.replicas.num_partitions):
            for sid, count in sim.replicas.servers_with(partition):
                self.on_count(partition, sid, count)  # bootstrap: epoch 0
        sim.replicas.attach_mirror(self)

    def on_count(self, partition: int, sid: int, count: int) -> None:
        cell = (partition, sid)
        before = self._counts.get(cell, 0)
        self._counts[cell] = count
        self.max_count = max(self.max_count, count)
        epoch = self._sim.clock.epoch
        if before == 0 and count > 0:
            self.born[cell] = epoch
        elif before > 0 and count == 0:
            self.deaths.append((partition, sid, self.born.pop(cell), epoch))

    def on_holder(self, partition: int, sid: int | None) -> None:
        pass


class TestLineageRoundTrip:
    def test_trace_reconstruction_matches_replica_map(self, tmp_path):
        """simulate → JSONL → analyze: lineage's closed stays are the
        replica map's cell deaths (birth and death epochs included), and
        its open stays are the cells still occupied at the end."""
        path = tmp_path / "trace.jsonl"
        with JsonlTracer(path) as tracer:
            sim = Simulation(
                _small_config(),
                tracer=tracer,
                events=[MassFailureEvent(epoch=30, count=40)],
            )
            log = _CellLog(sim)
            sim.run(80)
        assert log.max_count == 1, "a cell held two copies"
        assert log.deaths, "run produced no replica deaths"
        lineage = analyze_trace(path).policies[sim.policy_name].lineage
        closed = [
            (stay.partition, stay.sid, stay.born_epoch, stay.end_epoch)
            for stay in lineage.closed_stays
        ]
        assert closed == log.deaths
        assert lineage.stay_lifetimes() == [end - born for _, _, born, end in log.deaths]
        open_stays = {
            (life.partition, life.stays[-1].sid): life.stays[-1].born_epoch
            for life in lineage.lifecycles
            if life.alive
        }
        assert open_stays == log.born
        occupied = {
            (partition, sid)
            for partition in range(sim.replicas.num_partitions)
            for sid, _count in sim.replicas.servers_with(partition)
        }
        assert set(open_stays) == occupied


# ----------------------------------------------------------------------
# Root-cause chains
# ----------------------------------------------------------------------
class TestRootCause:
    def test_failure_attributed_with_lag(self):
        events = [
            _event(10, "server_failure", server=1, replicas_lost=5, partitions=[1, 2]),
            _event(12, "sla_violation", reason="latency-bound-exceeded", count=40.0),
        ]
        (attribution,) = attribute_violations(events, window=20)
        assert attribution.cause == "server-failure"
        assert attribution.lag == 2
        assert attribution.confidence > 0.5
        assert attribution.misses == 40.0

    def test_out_of_window_cause_is_unattributed(self):
        events = [
            _event(0, "server_failure", server=1, replicas_lost=5, partitions=[1]),
            _event(50, "sla_violation", count=3.0),
        ]
        (attribution,) = attribute_violations(events, window=10)
        assert attribution.cause == "unattributed"
        assert attribution.confidence == 0.0

    def test_restore_beats_nothing_and_failure_beats_restore(self):
        base = [
            _event(9, "partition_restore", server=2, partition=7),
            _event(10, "sla_violation", count=5.0),
        ]
        (only_restore,) = attribute_violations(base, window=10)
        assert only_restore.cause == "lost-partition-restore"
        with_failure = [
            _event(9, "server_failure", server=1, replicas_lost=3, partitions=[7]),
            *base,
        ]
        (both,) = attribute_violations(with_failure, window=10)
        assert both.cause == "server-failure"

    def test_steady_replication_is_not_a_storm(self):
        # One replicate every epoch is the baseline, not a burst.
        events = [
            _event(e, "replicate", server=1, partition=0, source=0) for e in range(40)
        ]
        events.append(_event(39, "sla_violation", count=2.0))
        (attribution,) = attribute_violations(events, window=10)
        assert attribution.cause == "unattributed"

    def test_overload_unmitigated_detected(self):
        events = [
            _event(5, "action_skipped", server=1, partition=0, action="replicate",
                   cause="bandwidth"),
            _event(6, "sla_violation", count=8.0),
        ]
        (attribution,) = attribute_violations(events, window=10)
        assert attribution.cause == "overload-unmitigated"

    def test_top_causes_ranked_by_misses(self):
        events = [
            _event(10, "server_failure", server=1, replicas_lost=5, partitions=[1]),
            _event(11, "sla_violation", count=100.0),
            _event(60, "action_skipped", server=2, partition=3, action="migrate",
                   cause="storage-gate"),
            _event(61, "sla_violation", count=5.0),
        ]
        rows = top_causes(attribute_violations(events, window=10))
        assert [r.cause for r in rows] == ["server-failure", "overload-unmitigated"]
        assert rows[0].misses == 100.0 and rows[0].violations == 1


# ----------------------------------------------------------------------
# Anomalies
# ----------------------------------------------------------------------
class TestAnomalies:
    def test_pingpong_detected_within_k(self):
        events = [
            _event(10, "migrate", server=5, partition=3, source=2, dc=1, source_dc=0),
            _event(14, "migrate", server=2, partition=3, source=5, dc=0, source_dc=1),
        ]
        (anomaly,) = detect_pingpong(events, k=10)
        assert anomaly.kind == "ping-pong"
        assert anomaly.detail["partition"] == 3
        assert anomaly.detail["worst_pair"] == [2, 5]

    def test_slow_reversal_is_not_pingpong(self):
        events = [
            _event(10, "migrate", server=5, partition=3, source=2),
            _event(40, "migrate", server=2, partition=3, source=5),
        ]
        assert detect_pingpong(events, k=10) == []

    def test_storm_detected_after_quiet_baseline(self):
        events = [
            _event(e, "replicate", server=1, partition=0, source=0) for e in range(30)
        ]
        events += [
            _event(30, "replicate", server=s, partition=s, source=0)
            for s in range(20)  # 20 actions in one epoch out of a 1/epoch baseline
        ]
        storms = detect_replication_storms(events, window=20, z_threshold=3.0)
        assert len(storms) == 1
        assert storms[0].detail["peak_actions"] == 20
        assert storms[0].detail["peak_epoch"] == 30

    def test_uniform_rate_is_not_a_storm(self):
        events = [
            _event(e, "replicate", server=1, partition=0, source=0) for e in range(60)
        ]
        assert detect_replication_storms(events, window=20) == []

    def test_churn_hotspot_flags_concentrated_dc(self):
        events = []
        for e in range(10):  # dc 0 takes ten failures
            events.append(
                _event(e, "server_failure", server=e, replicas_lost=1,
                       partitions=[0], dc=0)
            )
        for dc in (1, 2, 3, 4):  # the rest see one action each
            events.append(
                _event(5, "replicate", server=50 + dc, partition=dc, source=0, dc=dc)
            )
        hotspots = detect_churn_hotspots(events, factor=1.5)
        assert len(hotspots) == 1
        assert hotspots[0].detail["dc"] == 0

    def test_balanced_churn_has_no_hotspot(self):
        events = [
            _event(5, "replicate", server=dc, partition=dc, source=0, dc=dc)
            for dc in range(5)
        ]
        assert detect_churn_hotspots(events) == []


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
_PROM_COMMENT = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* \S.*$")
_PROM_LABEL = r"[a-zA-Z_][a-zA-Z0-9_]*=\"(\\.|[^\"\\])*\""
_PROM_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*"
    rf"(\{{{_PROM_LABEL}(,{_PROM_LABEL})*\}})?"
    r" (-?[0-9.]+([eE][+-]?[0-9]+)?|NaN|[+-]Inf)$"
)


def assert_valid_prometheus(text: str) -> None:
    """Line-level syntax check of the text exposition format 0.0.4."""
    assert text.endswith("\n")
    typed: set[str] = set()
    for line in text.splitlines():
        if line.startswith("#"):
            assert _PROM_COMMENT.match(line), f"bad comment line: {line!r}"
            if line.startswith("# TYPE"):
                typed.add(line.split()[2])
        else:
            assert _PROM_SAMPLE.match(line), f"bad sample line: {line!r}"
            family = line.split("{")[0].split(" ")[0]
            base = re.sub(r"_(sum|count)$", "", family)
            assert family in typed or base in typed, f"untyped sample: {line!r}"


class TestExporters:
    def test_prometheus_from_registry_is_valid(self):
        registry = InstrumentRegistry()
        registry.counter("actions_total", kind="migrate", policy="rfh").inc(3)
        for value in (1.0, 5.0, 9.0):
            registry.histogram("replica_lifetime_epochs", policy="rfh").observe(value)
        text = to_prometheus(registry)
        assert_valid_prometheus(text)
        assert '# TYPE actions_total counter' in text
        assert '# TYPE replica_lifetime_epochs summary' in text
        assert 'replica_lifetime_epochs{policy="rfh",quantile="0.5"} 5' in text
        assert 'replica_lifetime_epochs_count{policy="rfh"} 3' in text

    def test_prometheus_prints_exact_samples(self):
        registry = InstrumentRegistry()
        registry.counter("sla_miss_total", policy="rfh").inc(5772.5329215172715)
        registry.counter("trace_events_total", kind="replicate").inc(1_234_567)
        registry.counter("actions_total", kind="migrate").inc(float("inf"))
        text = to_prometheus(registry)
        assert_valid_prometheus(text)
        assert 'sla_miss_total{policy="rfh"} 5772.5329215172715\n' in text
        assert 'trace_events_total{kind="replicate"} 1234567\n' in text
        assert 'actions_total{kind="migrate"} +Inf\n' in text
        rows = [{"name": "drift", "labels": {}, "value": value} for value in (-math.inf, math.nan)]
        text = to_prometheus({"counters": rows})
        assert_valid_prometheus(text)
        assert text.endswith("drift -Inf\ndrift NaN\n")

    def test_prometheus_escapes_label_values(self):
        registry = InstrumentRegistry()
        registry.counter("actions_total", reason='say "hi"\\now').inc()
        text = to_prometheus(registry)
        assert_valid_prometheus(text)
        assert '\\"hi\\"' in text

    def test_registry_from_events_counts_everything(self):
        events = [
            _event(0, "replica_bootstrap", server=1, partition=0, dc=0),
            _event(1, "replicate", server=2, partition=0, source=1,
                   reason="availability"),
            _event(2, "action_skipped", server=3, partition=1, action="migrate",
                   cause="bandwidth"),
            _event(3, "server_failure", server=2, replicas_lost=1, partitions=[0]),
            _event(4, "partition_restore", server=4, partition=0),
            _event(5, "sla_violation", count=7.0),
            _event(6, "link_failure", reason="wan-partition", u=1, v=4),
            _event(9, "link_recovery", reason="wan-partition", u=1, v=4),
            _event(9, "invariant_violation", server=4, partition=0,
                   reason="no-copy-on-dead-server", detail="1 copies"),
        ]
        registry = registry_from_events(events)
        snap = {
            (row["name"], tuple(sorted(row["labels"].items()))): row["value"]
            for row in registry.snapshot()["counters"]
        }
        assert snap[("actions_total", (("kind", "replicate"), ("policy", "rfh"),
                                       ("reason", "availability")))] == 1
        assert snap[("actions_skipped_total", (("cause", "bandwidth"),
                                               ("kind", "migrate")))] == 1
        assert snap[("membership_events_total", (("kind", "server_failure"),))] == 1
        assert snap[("partitions_restored_total", ())] == 1
        assert snap[("sla_miss_total", (("policy", "rfh"),))] == 7.0
        assert snap[("wan_link_events_total", (("kind", "link_failure"),))] == 1
        assert snap[("wan_link_events_total", (("kind", "link_recovery"),))] == 1
        assert snap[("invariant_violations_total",
                     (("invariant", "no-copy-on-dead-server"),))] == 1
        # The replicate stay (1..3, killed by the failure) is re-stitched.
        hist = registry.histogram("replica_lifetime_epochs", policy="rfh")
        assert 2.0 in hist.samples

    def test_chrome_trace_shape_and_metadata(self):
        events = [
            _event(0, "replica_bootstrap", server=1, partition=0, dc=0),
            _event(3, "migrate", server=2, partition=0, source=1, reason="hub"),
        ]
        payload = to_chrome_trace(events)
        assert set(payload) == {"traceEvents", "displayTimeUnit", "otherData"}
        trace_events = payload["traceEvents"]
        assert all({"name", "ph", "pid", "tid"} <= set(e) for e in trace_events)
        instants = [e for e in trace_events if e["ph"] == "i"]
        assert len(instants) == 2
        assert all("ts" in e and "s" in e for e in instants)
        names = {e["args"]["name"] for e in trace_events if e["ph"] == "M"}
        assert {"rfh", "replica_bootstrap", "migrate"} <= names
        json.dumps(payload)  # must be JSON-serialisable as-is


# ----------------------------------------------------------------------
# Pipeline + CLI
# ----------------------------------------------------------------------
class TestPipeline:
    def _traced_run(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTracer(path) as tracer:
            Simulation(
                _small_config(),
                tracer=tracer,
                events=[MassFailureEvent(epoch=20, count=30)],
            ).run(50)
        return path

    def test_analyze_trace_end_to_end(self, tmp_path):
        path = self._traced_run(tmp_path)
        analysis = analyze_trace(path, options=AnalysisOptions(window=15))
        assert analysis.total_events > 0 and analysis.skipped_lines == 0
        pa = analysis.policies["rfh"]
        assert pa.lineage.lifecycles
        text = render_text(analysis)
        assert "replica lineage" in text and "root causes" in text
        markdown = render_markdown(analysis)
        assert "| top cause |" in markdown or "(no SLA violations traced)" in markdown

    def test_truncated_trace_completes_with_warning(self, tmp_path):
        path = self._traced_run(tmp_path)
        data = path.read_bytes()
        truncated = tmp_path / "trunc.jsonl"
        truncated.write_bytes(data[: int(len(data) * 0.6) + 7])  # mid-line cut
        analysis = analyze_trace(truncated)
        assert analysis.skipped_lines >= 1
        assert analysis.policies  # the readable prefix still analysed
        assert "malformed" in render_text(analysis)

    def test_multi_policy_streams_are_split(self):
        events = [
            TraceEvent(epoch=0, kind="replica_bootstrap", server=1, partition=0,
                       policy="rfh"),
            TraceEvent(epoch=0, kind="replica_bootstrap", server=1, partition=0,
                       policy="random"),
        ]
        analysis = analyze_events(events)
        assert set(analysis.policies) == {"rfh", "random"}
        assert all(pa.events == 1 for pa in analysis.policies.values())

    def test_analysis_to_dict_is_json_ready(self, tmp_path):
        analysis = analyze_trace(self._traced_run(tmp_path))
        json.dumps(analysis.to_dict())


FAST = ["--epochs", "25", "--partitions", "8", "--rate", "60", "--seed", "3"]


class TestAnalyzeCli:
    def _trace(self, tmp_path):
        path = tmp_path / "t.jsonl"
        assert main(["run", "--policy", "rfh", *FAST, "--trace-out", str(path)]) == 0
        return path

    def test_text_report(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "replica lineage" in out
        assert "root causes" in out
        assert "anomalies" in out

    def test_json_format(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "policies" in payload and "rfh" in payload["policies"]

    def test_chrome_trace_format_loads(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        out_path = tmp_path / "trace.json"
        assert main(
            ["analyze", str(path), "--format", "chrome-trace", "--out", str(out_path)]
        ) == 0
        payload = json.loads(out_path.read_text())
        assert isinstance(payload["traceEvents"], list) and payload["traceEvents"]

    def test_prometheus_format_is_valid(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(path), "--format", "prometheus"]) == 0
        assert_valid_prometheus(capsys.readouterr().out)

    def test_truncated_file_does_not_crash(self, tmp_path, capsys):
        path = self._trace(tmp_path)
        truncated = tmp_path / "trunc.jsonl"
        truncated.write_bytes(path.read_bytes()[:-40])
        assert main(["analyze", str(truncated)]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "nope.jsonl")]) == 2

    def test_run_with_inline_analyze(self, capsys):
        assert main(["run", "--policy", "rfh", *FAST, "--analyze"]) == 0
        out = capsys.readouterr().out
        assert "replica lineage" in out

    def test_compare_with_inline_analyze_covers_all_policies(self, capsys):
        assert main(["compare", *FAST, "--analyze"]) == 0
        out = capsys.readouterr().out
        for policy in ("rfh", "random", "owner", "request"):
            assert f"[{policy}]" in out
