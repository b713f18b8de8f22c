"""The analysis pipeline: events in, structured findings + reports out.

:func:`analyze_trace` reads a JSONL trace (tolerating truncation) and
:func:`analyze_events` runs the full stack — lineage reconstruction,
root-cause attribution, anomaly detection — once per policy found in
the stream (a ``compare`` trace interleaves all four algorithms; each
is analysed against its own events).  The result renders as a CLI text
report, a markdown section for EXPERIMENTS.md, or plain JSON.
"""

from __future__ import annotations

import pathlib
import warnings
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..trace import TraceEvent, TraceReadWarning, read_jsonl
from .anomalies import Anomaly, detect_anomalies
from .lineage import Lineage, build_lineage
from .rootcause import Attribution, CauseSummary, attribute_violations, top_causes

__all__ = [
    "AnalysisOptions",
    "PolicyAnalysis",
    "TraceAnalysis",
    "analyze_events",
    "analyze_trace",
    "render_text",
    "render_markdown",
]


@dataclass(frozen=True)
class AnalysisOptions:
    """Tunables of the three analysis stages (CLI flags map here)."""

    window: int = 20  # root-cause look-back, epochs
    pingpong_k: int = 10
    storm_window: int = 25
    storm_z: float = 3.0
    storm_min_actions: int = 5
    hotspot_factor: float = 2.0


@dataclass
class PolicyAnalysis:
    """Everything derived from one policy's slice of the stream."""

    policy: str
    events: int
    first_epoch: int
    last_epoch: int
    lineage: Lineage
    attributions: list[Attribution]
    causes: list[CauseSummary]
    anomalies: list[Anomaly]

    def to_dict(self) -> dict[str, object]:
        return {
            "policy": self.policy,
            "events": self.events,
            "epochs": [self.first_epoch, self.last_epoch],
            "lineage": self.lineage.summary(),
            "sla_violations": len(self.attributions),
            "top_causes": [
                {
                    "cause": row.cause,
                    "violations": row.violations,
                    "misses": row.misses,
                    "mean_confidence": row.mean_confidence,
                    "median_lag": row.median_lag,
                }
                for row in self.causes
            ],
            "anomalies": [
                {
                    "kind": anomaly.kind,
                    "epoch": anomaly.epoch,
                    "severity": anomaly.severity,
                    "description": anomaly.description,
                    **anomaly.detail,
                }
                for anomaly in self.anomalies
            ],
        }


@dataclass
class TraceAnalysis:
    """The whole trace's analysis, one section per policy."""

    source: str
    total_events: int
    skipped_lines: int = 0
    policies: dict[str, PolicyAnalysis] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        return {
            "source": self.source,
            "total_events": self.total_events,
            "skipped_lines": self.skipped_lines,
            "policies": {name: pa.to_dict() for name, pa in self.policies.items()},
        }


def analyze_events(
    events: Iterable[TraceEvent],
    *,
    options: AnalysisOptions | None = None,
    source: str = "<memory>",
) -> TraceAnalysis:
    """Run lineage + root-cause + anomaly analysis per policy."""
    opts = options or AnalysisOptions()
    per_policy: dict[str, list[TraceEvent]] = {}
    total = 0
    for event in events:
        total += 1
        per_policy.setdefault(event.policy or "unknown", []).append(event)
    analysis = TraceAnalysis(source=source, total_events=total)
    for policy, stream in per_policy.items():
        attributions = attribute_violations(stream, window=opts.window)
        analysis.policies[policy] = PolicyAnalysis(
            policy=policy,
            events=len(stream),
            first_epoch=min(e.epoch for e in stream),
            last_epoch=max(e.epoch for e in stream),
            lineage=build_lineage(stream),
            attributions=attributions,
            causes=top_causes(attributions),
            anomalies=detect_anomalies(
                stream,
                pingpong_k=opts.pingpong_k,
                storm_window=opts.storm_window,
                storm_z=opts.storm_z,
                storm_min_actions=opts.storm_min_actions,
                hotspot_factor=opts.hotspot_factor,
            ),
        )
    return analysis


def analyze_trace(
    path: str | pathlib.Path, *, options: AnalysisOptions | None = None
) -> TraceAnalysis:
    """Read a JSONL trace file and analyse it.

    Malformed lines (an interrupted writer) are skipped and counted in
    ``skipped_lines`` rather than aborting the analysis — a partial
    trace still yields a partial answer.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", TraceReadWarning)
        events = list(read_jsonl(path))
    skipped = sum(1 for w in caught if issubclass(w.category, TraceReadWarning))
    analysis = analyze_events(events, options=options, source=str(path))
    analysis.skipped_lines = skipped
    return analysis


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def _fmt_dist(dist: dict[str, float], unit: str = "") -> str:
    if not dist["count"]:
        return "(no samples)"
    suffix = f" {unit}" if unit else ""
    return (
        f"n={dist['count']}  mean={dist['mean']:.1f}  p50={dist['p50']:.0f}  "
        f"p95={dist['p95']:.0f}  max={dist['max']:.0f}{suffix}"
    )


def _kind_counts(counts: dict[str, int]) -> str:
    return ", ".join(f"{kind} {count}" for kind, count in counts.items()) or "none"


def render_text(analysis: TraceAnalysis) -> str:
    """The ``repro analyze`` terminal report."""
    lines = [
        f"trace: {analysis.source} — {analysis.total_events} events, "
        f"{len(analysis.policies)} polic{'y' if len(analysis.policies) == 1 else 'ies'}"
    ]
    if analysis.skipped_lines:
        lines.append(
            f"warning: skipped {analysis.skipped_lines} malformed line(s) "
            "(truncated trace?) — results cover the readable prefix"
        )
    for policy in sorted(analysis.policies):
        pa = analysis.policies[policy]
        summary = pa.lineage.summary()
        lines += [
            "",
            f"[{policy}] epochs {pa.first_epoch}-{pa.last_epoch}, {pa.events} events",
            "  replica lineage:",
            f"    lifecycles {summary['lifecycles']} "
            f"(alive {summary['alive']}, closed {summary['closed']}); "
            f"births: {_kind_counts(summary['births_by_kind'])}; "  # type: ignore[arg-type]
            f"deaths: {_kind_counts(summary['deaths_by_kind'])}",  # type: ignore[arg-type]
            f"    lifetime epochs:     {_fmt_dist(summary['lifetime_epochs'])}",  # type: ignore[arg-type]
            f"    migrations/life:     {_fmt_dist(summary['migrations_per_lifecycle'])}",  # type: ignore[arg-type]
            f"    inter-dc hops (of {summary['migrated_lifecycles']} migrated): "
            f"{_fmt_dist(summary['dc_hops_per_migrated_lifecycle'])}",  # type: ignore[arg-type]
        ]
        for warning in summary["warnings"]:  # type: ignore[union-attr]
            lines.append(f"    warning: {warning}")
        lines.append(f"  root causes ({len(pa.attributions)} SLA-violation epochs):")
        if pa.causes:
            lines.append(
                f"    {'cause':<24} {'violations':>10} {'misses':>8} "
                f"{'confidence':>10} {'median lag':>10}"
            )
            for row in pa.causes:
                lag = f"{row.median_lag:.0f}ep" if row.median_lag is not None else "-"
                lines.append(
                    f"    {row.cause:<24} {row.violations:>10d} {row.misses:>8.0f} "
                    f"{row.mean_confidence:>10.2f} {lag:>10}"
                )
        else:
            lines.append("    (no SLA violations traced)")
        lines.append(f"  anomalies ({len(pa.anomalies)}):")
        for anomaly in pa.anomalies:
            lines.append(f"    [{anomaly.kind}] {anomaly.description}")
        if not pa.anomalies:
            lines.append("    (none detected)")
    return "\n".join(lines)


def render_markdown(analysis: TraceAnalysis, *, heading: str = "### Trace analysis") -> str:
    """Markdown section for experiment reports / EXPERIMENTS.md."""
    lines = [heading, ""]
    lines.append(
        f"`{analysis.source}` — {analysis.total_events} events"
        + (
            f", **{analysis.skipped_lines} malformed line(s) skipped**"
            if analysis.skipped_lines
            else ""
        )
    )
    lines.append("")
    for policy in sorted(analysis.policies):
        pa = analysis.policies[policy]
        summary = pa.lineage.summary()
        lifetime = summary["lifetime_epochs"]
        migrations = summary["migrations_per_lifecycle"]
        lines += [
            f"**{policy}** (epochs {pa.first_epoch}-{pa.last_epoch})",
            "",
            "| lineage | value |",
            "|---|---|",
            f"| lifecycles (alive / closed) | {summary['lifecycles']} "
            f"({summary['alive']} / {summary['closed']}) |",
            f"| lifetime epochs (mean / p50 / p95) | {lifetime['mean']:.1f} / "  # type: ignore[index]
            f"{lifetime['p50']:.0f} / {lifetime['p95']:.0f} |",  # type: ignore[index]
            f"| migrations per lifecycle (mean / max) | {migrations['mean']:.2f} / "  # type: ignore[index]
            f"{migrations['max']:.0f} |",  # type: ignore[index]
            "",
        ]
        if pa.causes:
            lines += [
                "| top cause | violations | misses | confidence | median lag |",
                "|---|---|---|---|---|",
            ]
            for row in pa.causes:
                lag = f"{row.median_lag:.0f} ep" if row.median_lag is not None else "-"
                lines.append(
                    f"| {row.cause} | {row.violations} | {row.misses:.0f} "
                    f"| {row.mean_confidence:.2f} | {lag} |"
                )
            lines.append("")
        else:
            lines += ["(no SLA violations traced)", ""]
        if pa.anomalies:
            lines += ["Anomalies:", ""]
            lines += [
                f"- **{anomaly.kind}** — {anomaly.description}"
                for anomaly in pa.anomalies
            ]
            lines.append("")
    return "\n".join(lines)
