"""Markdown rendering of figure results (feeds EXPERIMENTS.md)."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .figures import FigureResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.analysis import TraceAnalysis

__all__ = [
    "render_figure",
    "render_analysis",
    "render_report",
]

#: What the paper reports per figure, quoted/condensed for the table.
PAPER_CLAIMS: dict[str, str] = {
    "fig3": (
        "RFH highest utilization, random lowest; under flash crowd the "
        "request-oriented rate collapses after the stage change while RFH "
        "dips once and recovers sharply."
    ),
    "fig4": (
        "Random needs ~500 replicas (~8/partition), owner ~300 (4.5), RFH "
        "~250 (~4) close to request (fewest); RFH's count stays flat under "
        "flash crowd."
    ),
    "fig5": (
        "Random pays by far the highest replication cost; RFH total lowest; "
        "request's average cost inflates under flash crowd (long-distance "
        "replication)."
    ),
    "fig6": (
        "Request migrates by far the most in both settings; random never "
        "migrates; owner's condition is never reached; RFH stays low."
    ),
    "fig7": (
        "Migration cost mirrors migration times: request highest, random "
        "and owner zero, RFH low; flash crowd costs more than random query."
    ),
    "fig8": (
        "RFH (lowest blocking-probability placement) achieves the best load "
        "balance; request/random use blind placement and do worse."
    ),
    "fig9": (
        "All curves drop sharply as replicas appear; owner-oriented stays "
        "the longest; RFH shortest except flash stage 1 where request ~0."
    ),
    "fig10": (
        "Replica count grows, stabilises, drops sharply when 30 servers die "
        "at epoch 290, then recovers to the initial level."
    ),
}


def render_figure(result: FigureResult) -> str:
    """One markdown section for a figure result."""
    lines = [f"### {result.figure}", ""]
    claim = PAPER_CLAIMS.get(result.figure)
    if claim:
        lines += [f"**Paper:** {claim}", ""]
    lines += ["| shape check | held |", "|---|---|"]
    for name, ok in result.checks.items():
        lines.append(f"| {name} | {'yes' if ok else '**NO**'} |")
    if result.notes:
        lines += ["", "Measured values:", ""]
        lines += ["| quantity | value |", "|---|---|"]
        for name, value in result.notes.items():
            lines.append(f"| {name} | {value:.3f} |")
    lines.append("")
    return "\n".join(lines)


def render_analysis(analysis: TraceAnalysis, *, heading: str = "### Trace analysis") -> str:
    """Markdown section over a trace-analytics result (lineage digest,
    ranked top-causes table, anomalies) for experiment reports."""
    from ..obs.analysis import render_markdown

    return render_markdown(analysis, heading=heading)


def render_report(results: dict[str, FigureResult], header: str = "") -> str:
    """Full markdown report over all figures."""
    total = sum(len(r.checks) for r in results.values())
    held = sum(sum(r.checks.values()) for r in results.values())
    lines = []
    if header:
        lines += [header, ""]
    lines += [f"**Shape checks held: {held}/{total}**", ""]
    for key in sorted(results):
        lines.append(render_figure(results[key]))
    return "\n".join(lines)
