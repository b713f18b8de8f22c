"""Standard-format exporters: Chrome trace-event JSON and Prometheus text.

Two interchange formats every tooling ecosystem already reads:

* **Chrome trace-event JSON** (the Trace Event Format consumed by
  Perfetto and ``chrome://tracing``): engine trace events become
  ``"i"`` instant events grouped per policy (process) and per event
  kind (thread), so a whole run can be scrubbed visually.
* **Prometheus text exposition** (``# HELP`` / ``# TYPE`` + samples):
  an :class:`~repro.obs.registry.InstrumentRegistry` snapshot rendered
  as counters and summaries, scrape-ready or pushable to a gateway.

:func:`registry_from_events` rebuilds a registry from a raw JSONL
trace, so a file on disk can be exported to Prometheus format without
re-running the simulation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

from ..registry import InstrumentRegistry
from ..trace import TraceEvent

__all__ = [
    "chrome_trace_from_events",
    "to_chrome_trace",
    "to_prometheus",
    "registry_from_events",
]

#: Microseconds of timeline allotted to one epoch for instant events
#: (epochs are logical time; any fixed scale makes lags readable).
EPOCH_US = 1000.0


def chrome_trace_from_events(
    events: Iterable[TraceEvent], *, epoch_us: float = EPOCH_US
) -> list[dict[str, object]]:
    """Instant (``"i"``) trace events on an epoch timeline.

    Policies map to processes and event kinds to threads, with ``"M"``
    metadata records naming both, so Perfetto's track labels read
    ``rfh / migrate`` instead of ``pid 1 / tid 3``.
    """
    out: list[dict[str, object]] = []
    pids: dict[str, int] = {}
    tids: dict[tuple[str, str], int] = {}
    for event in events:
        policy = event.policy or "unknown"
        pid = pids.get(policy)
        if pid is None:
            pid = pids[policy] = len(pids) + 1
            out.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": policy},
                }
            )
        tid_key = (policy, event.kind)
        tid = tids.get(tid_key)
        if tid is None:
            tid = tids[tid_key] = sum(1 for key in tids if key[0] == policy) + 1
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": event.kind},
                }
            )
        args: dict[str, object] = {
            "epoch": event.epoch,
            "reason": event.reason,
        }
        if event.server is not None:
            args["server"] = event.server
        if event.partition is not None:
            args["partition"] = event.partition
        if event.cost:
            args["cost"] = event.cost
        args.update(event.extra)
        out.append(
            {
                "name": f"{event.kind}:{event.reason}" if event.reason else event.kind,
                "cat": event.kind,
                "ph": "i",
                "s": "t",  # thread-scoped instant tick
                "ts": event.epoch * epoch_us,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
    return out


def to_chrome_trace(
    events: Iterable[TraceEvent] = (), *, epoch_us: float = EPOCH_US
) -> dict[str, object]:
    """The full trace-event JSON object (``{"traceEvents": [...]}``)."""
    return {
        "traceEvents": chrome_trace_from_events(events, epoch_us=epoch_us),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs.analysis"},
    }


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
#: HELP strings for the families :func:`registry_from_events` rebuilds.
_HELP: dict[str, str] = {
    "actions_total": "Applied replication actions by kind, rule and policy.",
    "actions_skipped_total": "Actions refused by an engine gate, by gate.",
    "membership_events_total": "Server failures, recoveries and joins.",
    "partitions_restored_total": "Cold restores of partitions that lost every copy.",
    "wan_link_events_total": "WAN link cuts and heals, by kind.",
    "invariant_violations_total": "Runtime conservation-check failures, by invariant.",
    "sla_miss_total": "Queries served above the latency bound.",
    "trace_events_total": "Trace records consumed, by kind.",
    "replica_lifetime_epochs": "Lifetime of dead replicas, in epochs.",
}


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_text(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = {**labels, **(extra or {})}
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in sorted(merged.items())
    )
    return "{" + body + "}"


def _fmt_value(value: float) -> str:
    """A sample value, exact: integral values as integers, other finite
    values as ``repr``, non-finite ones as ``NaN``/``+Inf``/``-Inf``."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value.is_integer():
        return str(int(value))
    return repr(value)


def to_prometheus(
    registry: InstrumentRegistry | dict[str, list[dict[str, object]]],
) -> str:
    """Render a registry (or its ``snapshot()``) as Prometheus text
    exposition format, version 0.0.4.

    Counters map directly; histograms render as summaries
    (``{quantile="0.5"}`` / ``{quantile="0.95"}`` plus ``_sum`` and
    ``_count`` series), which is the faithful encoding of the
    registry's nearest-rank quantile snapshots.
    """
    snapshot = registry.snapshot() if isinstance(registry, InstrumentRegistry) else registry
    lines: list[str] = []

    def header(name: str, kind: str) -> None:
        lines.append(f"# HELP {name} {_HELP.get(name, 'repro instrument.')}")
        lines.append(f"# TYPE {name} {kind}")

    def families(rows: Sequence[dict[str, object]]) -> dict[str, list[dict[str, object]]]:
        grouped: dict[str, list[dict[str, object]]] = {}
        for row in rows:
            grouped.setdefault(str(row["name"]), []).append(row)
        return grouped

    for name, rows in sorted(families(snapshot.get("counters", ())).items()):
        header(name, "counter")
        for row in rows:
            labels = _label_text(row.get("labels", {}))  # type: ignore[arg-type]
            lines.append(f"{name}{labels} {_fmt_value(float(row['value']))}")  # type: ignore[arg-type]

    for name, rows in sorted(families(snapshot.get("histograms", ())).items()):
        header(name, "summary")
        for row in rows:
            labels: dict[str, str] = row.get("labels", {})  # type: ignore[assignment]
            for quantile in ("0.5", "0.95"):
                key = "p50" if quantile == "0.5" else "p95"
                lines.append(
                    f"{name}{_label_text(labels, {'quantile': quantile})} "
                    f"{_fmt_value(float(row[key]))}"  # type: ignore[arg-type]
                )
            lines.append(
                f"{name}_sum{_label_text(labels)} {_fmt_value(float(row['sum']))}"  # type: ignore[arg-type]
            )
            lines.append(
                f"{name}_count{_label_text(labels)} {_fmt_value(float(row['count']))}"  # type: ignore[arg-type]
            )

    return "\n".join(lines) + "\n"


def registry_from_events(events: Iterable[TraceEvent]) -> InstrumentRegistry:
    """Build the counter families from a raw event stream, so a JSONL
    trace on disk can be exported without re-running anything.

    The reconstruction covers every counter family the engine's events
    carry: actions, skips, membership, restores, WAN link changes,
    invariant violations and SLA misses, plus the
    ``replica_lifetime_epochs`` histogram re-stitched via lineage.
    Fleet-state levels (live replicas, alive servers) are metric series
    in the CSV and the time series, not counters.
    """
    from .lineage import build_lineage

    registry = InstrumentRegistry()
    per_policy: dict[str, list[TraceEvent]] = {}
    for event in events:
        policy = event.policy or "unknown"
        per_policy.setdefault(policy, []).append(event)
        registry.counter("trace_events_total", kind=event.kind).inc()
        if event.kind in ("replicate", "migrate", "suicide"):
            registry.counter(
                "actions_total", kind=event.kind, reason=event.reason, policy=policy
            ).inc()
        elif event.kind == "action_skipped":
            registry.counter(
                "actions_skipped_total",
                kind=str(event.extra.get("action", "unknown")),
                cause=str(event.extra.get("cause", "unknown")),
            ).inc()
        elif event.kind in ("server_failure", "server_recovery", "server_join"):
            registry.counter("membership_events_total", kind=event.kind).inc()
        elif event.kind == "partition_restore":
            registry.counter("partitions_restored_total").inc()
        elif event.kind in ("link_failure", "link_recovery"):
            registry.counter("wan_link_events_total", kind=event.kind).inc()
        elif event.kind == "invariant_violation":
            registry.counter(
                "invariant_violations_total", invariant=event.reason
            ).inc()
        elif event.kind == "sla_violation":
            count = event.extra.get("count", 1.0)
            registry.counter("sla_miss_total", policy=policy).inc(
                float(count if isinstance(count, (int, float)) else 1.0)
            )
    for policy, stream in per_policy.items():
        lineage = build_lineage(stream)
        histogram = registry.histogram("replica_lifetime_epochs", policy=policy)
        for lifetime in lineage.stay_lifetimes():
            histogram.observe(float(lifetime))
    return registry
