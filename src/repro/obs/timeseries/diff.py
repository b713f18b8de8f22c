"""Cross-run regression diffing over two ``.tsdb.json`` artifacts.

``repro diff BASELINE.tsdb.json CANDIDATE.tsdb.json`` answers the
question every performance PR raises: *did this change make any metric
trajectory worse?*  The engine aligns the two runs column by column,
computes three summary statistics per shared column —

* **tail mean** — mean over the trailing quarter of points (the
  steady-state estimate the paper's figures read off);
* **peak** — the worst single point (max);
* **cumulative** — the epoch-integrated total (what "total replication
  cost" style figures plot);

— applies per-metric relative + absolute tolerances, and classifies the
column as ``improved`` / ``unchanged`` / ``regressed`` using a polarity
table (is a higher value better, worse, or neutral?).  Neutral columns
out of tolerance are reported as ``changed`` but never fail the diff,
so environment series (``queries``, ``alive_servers``) cannot produce
false gates.  The report renders as text, markdown or JSON, and the CLI
exits non-zero when anything regressed so CI can gate on it.
"""

from __future__ import annotations

import fnmatch
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ...errors import TsdbError
from .artifact import TsdbArtifact

__all__ = [
    "Tolerance",
    "ColumnDiff",
    "DiffReport",
    "column_stats",
    "diff_artifacts",
    "diff_column",
    "polarity_of",
    "render_diff_json",
    "render_diff_markdown",
    "render_diff_text",
    "tolerance_of",
]

#: Fraction of trailing points in the tail-mean window.
TAIL_FRACTION = 0.25

#: The three summary statistics a column is judged on.
STATS = ("tail_mean", "peak", "cumulative")

#: Direction of goodness per column, matched in order: exact name
#: first, then glob patterns.  +1 = higher is better, -1 = lower is
#: better, 0 = neutral (reported, never gated).
POLARITY: tuple[tuple[str, int], ...] = (
    ("utilization", +1),
    ("sla_attainment", +1),
    ("mean_availability", +1),
    ("served", +1),
    ("alive_servers", 0),
    ("queries", 0),
    ("writes", 0),
    ("total_replicas", -1),
    ("avg_replicas", -1),
    ("replication_count", -1),
    ("replication_cost", -1),
    ("migration_count", -1),
    ("migration_cost", -1),
    ("suicide_count", 0),
    ("load_imbalance", -1),
    ("server_load_imbalance", -1),
    ("path_length", -1),
    ("mean_latency_ms", -1),
    ("unserved", -1),
    ("lost_partitions", -1),
    ("skipped_actions", -1),
    ("propagation_cost", -1),
    ("mean_staleness", -1),
    ("stale_replica_fraction", -1),
    ("stale_read_fraction", -1),
    ("propagation_transfers", 0),
    # Families by prefix.
    ("phase_s/*", -1),
    # Work counters are algorithmic observations: more work at equal
    # output is worth seeing, not worth gating (repro perfdiff
    # --gate-counters exists for the strict stance).
    ("work/*", 0),
    # Decision-mix columns are polarity-neutral: replicating for a
    # different *reason* is a behaviour change worth seeing, but neither
    # direction is inherently better (repro provdiff gives the
    # decision-level answer).
    ("decision/*", 0),
    ("traffic_dc/*", 0),
)

#: Per-column (relative, absolute) tolerance overrides; the default is
#: ``Tolerance(rel=0.05, abs=1e-9)``.  Noisy or tiny-valued series get
#: wider floors so epsilon wiggles don't page anyone.
DEFAULT_TOLERANCES: tuple[tuple[str, tuple[float, float]], ...] = (
    ("load_imbalance", (0.10, 0.05)),
    ("server_load_imbalance", (0.10, 0.05)),
    ("path_length", (0.05, 0.02)),
    ("mean_latency_ms", (0.05, 1.0)),
    ("unserved", (0.10, 2.0)),
    ("lost_partitions", (0.10, 1.0)),
    ("skipped_actions", (0.25, 5.0)),
    ("suicide_count", (0.25, 5.0)),
    ("sla_attainment", (0.01, 0.002)),
    ("mean_availability", (0.01, 0.001)),
    ("phase_s/*", (0.50, 1e-3)),
    ("work/*", (0.05, 2.0)),
    ("decision/*", (0.25, 5.0)),
)


@dataclass(frozen=True)
class Tolerance:
    """A column is unchanged while ``|delta| <= max(abs, rel * |base|)``."""

    rel: float = 0.05
    abs: float = 1e-9

    def allows(self, base: float, delta: float) -> bool:
        return abs(delta) <= max(self.abs, self.rel * abs(base))


def _match(name: str, table) -> object | None:
    """First exact-or-glob match of ``name`` in an (pattern, value) table."""
    for pattern, value in table:
        if pattern == name or fnmatch.fnmatchcase(name, pattern):
            return value
    return None


def polarity_of(name: str) -> int:
    value = _match(name, POLARITY)
    return 0 if value is None else int(value)


def tolerance_of(
    name: str, *, rel: float | None = None, abs_: float | None = None
) -> Tolerance:
    """The effective tolerance for a column.

    Explicit ``rel``/``abs_`` (the CLI's ``--rel-tol``/``--abs-tol``)
    override the per-metric defaults wholesale.
    """
    if rel is not None or abs_ is not None:
        return Tolerance(
            rel=rel if rel is not None else 0.05,
            abs=abs_ if abs_ is not None else 1e-9,
        )
    match = _match(name, DEFAULT_TOLERANCES)
    if match is None:
        return Tolerance()
    return Tolerance(rel=match[0], abs=match[1])


# ----------------------------------------------------------------------
# Per-column statistics
# ----------------------------------------------------------------------
def column_stats(epochs: np.ndarray, values: np.ndarray) -> dict[str, float]:
    """The three judged statistics of one aligned column."""
    if len(values) == 0:
        return {name: 0.0 for name in STATS}
    finite = values[np.isfinite(values)]
    if len(finite) == 0:
        return {name: 0.0 for name in STATS}
    tail = max(1, int(math.ceil(len(values) * TAIL_FRACTION)))
    tail_values = values[-tail:]
    tail_finite = tail_values[np.isfinite(tail_values)]
    # Each stored point represents `step` epochs (downsampled frames
    # integrate wider); derive the step from the epoch grid itself.
    if len(epochs) > 1:
        step = float(np.median(np.diff(epochs)))
    else:
        step = 1.0
    return {
        "tail_mean": float(tail_finite.mean()) if len(tail_finite) else 0.0,
        "peak": float(finite.max()),
        "cumulative": float(np.nansum(values) * step),
    }


def _align(
    base: TsdbArtifact, cand: TsdbArtifact, name: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One column from both runs on a shared epoch grid.

    Identical grids (the common case: same config, same stride) pass
    through untouched; differing grids are linearly interpolated onto
    the coarser of the two, restricted to the overlapping epoch span.
    """
    be, bv = base.epochs, base.column(name)
    ce, cv = cand.epochs, cand.column(name)
    if len(be) == len(ce) and np.array_equal(be, ce):
        return be, bv, cv
    if len(be) == 0 or len(ce) == 0:
        raise TsdbError(f"column {name!r}: a run recorded no points")
    lo = max(be.min(), ce.min())
    hi = min(be.max(), ce.max())
    if hi < lo:
        raise TsdbError(
            f"column {name!r}: runs share no epoch overlap "
            f"(baseline {be.min()}..{be.max()}, "
            f"candidate {ce.min()}..{ce.max()})"
        )
    grid_src = be if len(be) <= len(ce) else ce
    grid = grid_src[(grid_src >= lo) & (grid_src <= hi)]
    return (
        grid,
        np.interp(grid, be, bv),
        np.interp(grid, ce, cv),
    )


# ----------------------------------------------------------------------
# Diff result types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ColumnDiff:
    """Verdict for one shared column."""

    name: str
    polarity: int
    tolerance: Tolerance
    base: dict[str, float]
    cand: dict[str, float]
    classification: str  # improved | unchanged | changed | regressed
    #: Stats outside tolerance, with their signed deltas.
    exceeded: dict[str, float] = field(default_factory=dict)

    def delta(self, stat: str) -> float:
        return self.cand[stat] - self.base[stat]

    def rel_delta(self, stat: str) -> float:
        base = self.base[stat]
        # Exact-zero baseline is the degenerate case (relative delta is
        # undefined); a tolerance would misclassify tiny real baselines.
        if base == 0.0:
            return math.inf if self.delta(stat) != 0.0 else 0.0
        return self.delta(stat) / abs(base)

    def to_dict(self) -> dict[str, object]:
        return {
            "name": self.name,
            "polarity": self.polarity,
            "tolerance": {"rel": self.tolerance.rel, "abs": self.tolerance.abs},
            "baseline": self.base,
            "candidate": self.cand,
            "deltas": {stat: self.delta(stat) for stat in STATS},
            "classification": self.classification,
            "exceeded": dict(self.exceeded),
        }


@dataclass(frozen=True)
class DiffReport:
    """The full cross-run comparison."""

    baseline_meta: dict[str, object]
    candidate_meta: dict[str, object]
    columns: tuple[ColumnDiff, ...]
    only_in_baseline: tuple[str, ...]
    only_in_candidate: tuple[str, ...]

    @property
    def regressed(self) -> tuple[ColumnDiff, ...]:
        return tuple(c for c in self.columns if c.classification == "regressed")

    @property
    def improved(self) -> tuple[ColumnDiff, ...]:
        return tuple(c for c in self.columns if c.classification == "improved")

    @property
    def changed(self) -> tuple[ColumnDiff, ...]:
        return tuple(c for c in self.columns if c.classification == "changed")

    @property
    def unchanged_count(self) -> int:
        return sum(1 for c in self.columns if c.classification == "unchanged")

    @property
    def verdict(self) -> str:
        """``regressed`` > ``improved`` > ``changed`` > ``unchanged``."""
        if self.regressed:
            return "regressed"
        if self.improved:
            return "improved"
        if self.changed:
            return "changed"
        return "unchanged"

    def exit_code(self) -> int:
        return 1 if self.regressed else 0

    def to_dict(self) -> dict[str, object]:
        return {
            "baseline": dict(self.baseline_meta),
            "candidate": dict(self.candidate_meta),
            "verdict": self.verdict,
            "counts": {
                "regressed": len(self.regressed),
                "improved": len(self.improved),
                "changed": len(self.changed),
                "unchanged": self.unchanged_count,
            },
            "columns": [c.to_dict() for c in self.columns],
            "only_in_baseline": list(self.only_in_baseline),
            "only_in_candidate": list(self.only_in_candidate),
        }


# ----------------------------------------------------------------------
# The diff itself
# ----------------------------------------------------------------------
def diff_column(
    base: TsdbArtifact,
    cand: TsdbArtifact,
    name: str,
    *,
    rel: float | None = None,
    abs_: float | None = None,
) -> ColumnDiff:
    epochs, bv, cv = _align(base, cand, name)
    base_stats = column_stats(epochs, bv)
    cand_stats = column_stats(epochs, cv)
    polarity = polarity_of(name)
    tolerance = tolerance_of(name, rel=rel, abs_=abs_)
    exceeded = {
        stat: cand_stats[stat] - base_stats[stat]
        for stat in STATS
        if not tolerance.allows(base_stats[stat], cand_stats[stat] - base_stats[stat])
    }
    if not exceeded:
        classification = "unchanged"
    elif polarity == 0:
        classification = "changed"
    else:
        # Any out-of-tolerance stat moving against the polarity means a
        # regression, even if another stat improved.
        worse = any(math.copysign(1.0, d) != polarity for d in exceeded.values())
        classification = "regressed" if worse else "improved"
    return ColumnDiff(
        name=name,
        polarity=polarity,
        tolerance=tolerance,
        base=base_stats,
        cand=cand_stats,
        classification=classification,
        exceeded=exceeded,
    )


def diff_artifacts(
    baseline: TsdbArtifact,
    candidate: TsdbArtifact,
    *,
    rel: float | None = None,
    abs_: float | None = None,
    columns: tuple[str, ...] | None = None,
) -> DiffReport:
    """Compare two recorded runs column by column.

    ``columns`` restricts the comparison (glob patterns allowed);
    ``rel``/``abs_`` override every per-metric tolerance.
    """
    base_names = set(baseline.columns)
    cand_names = set(candidate.columns)
    shared = sorted(base_names & cand_names)
    if columns:
        shared = [
            name
            for name in shared
            if any(fnmatch.fnmatchcase(name, pat) or pat == name for pat in columns)
        ]
    diffs = tuple(
        diff_column(baseline, candidate, name, rel=rel, abs_=abs_) for name in shared
    )
    return DiffReport(
        baseline_meta=dict(baseline.meta),
        candidate_meta=dict(candidate.meta),
        columns=diffs,
        only_in_baseline=tuple(sorted(base_names - cand_names)),
        only_in_candidate=tuple(sorted(cand_names - base_names)),
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
_ARROWS = {"regressed": "✗", "improved": "✓", "changed": "~", "unchanged": "="}


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if abs(value) >= 1:
        return f"{value:.3g}"
    return f"{value:.3g}"


def _fmt_rel(diff: ColumnDiff, stat: str) -> str:
    rel = diff.rel_delta(stat)
    if math.isinf(rel):
        return "new"
    return f"{rel:+.1%}"


def _meta_line(meta: dict[str, object]) -> str:
    keys = ("policy", "scenario", "seed", "epochs", "chaos")
    parts = [f"{k}={meta[k]}" for k in keys if k in meta and meta[k] is not None]
    return " ".join(parts) if parts else "(no metadata)"


def render_diff_text(report: DiffReport, *, verbose: bool = False) -> str:
    """Fixed-width terminal report; non-unchanged columns only unless
    ``verbose``."""
    lines = [
        f"baseline:  {_meta_line(report.baseline_meta)}",
        f"candidate: {_meta_line(report.candidate_meta)}",
        "",
        f"{'column':<42} {'class':<10} {'tail Δ':>12} {'peak Δ':>12} {'cum Δ':>14}",
    ]
    lines.append("-" * len(lines[-1]))
    for diff in report.columns:
        if diff.classification == "unchanged" and not verbose:
            continue
        mark = _ARROWS[diff.classification]
        lines.append(
            f"{diff.name:<42} {mark} {diff.classification:<8} "
            f"{_fmt_rel(diff, 'tail_mean'):>12} {_fmt_rel(diff, 'peak'):>12} "
            f"{_fmt_rel(diff, 'cumulative'):>14}"
        )
    lines.append("")
    lines.append(
        f"verdict: {report.verdict.upper()} "
        f"({len(report.regressed)} regressed, {len(report.improved)} improved, "
        f"{len(report.changed)} changed, {report.unchanged_count} unchanged)"
    )
    for diff in report.regressed:
        for stat, delta in diff.exceeded.items():
            if math.copysign(1.0, delta) != diff.polarity:
                lines.append(
                    f"  ✗ {diff.name}.{stat}: {_fmt(diff.base[stat])} -> "
                    f"{_fmt(diff.cand[stat])} ({_fmt_rel(diff, stat)}; "
                    f"tolerance rel={diff.tolerance.rel:g} abs={diff.tolerance.abs:g})"
                )
    if report.only_in_baseline:
        lines.append(f"  only in baseline: {', '.join(report.only_in_baseline[:8])}")
    if report.only_in_candidate:
        lines.append(f"  only in candidate: {', '.join(report.only_in_candidate[:8])}")
    return "\n".join(lines)


def render_diff_markdown(report: DiffReport, *, verbose: bool = False) -> str:
    """Markdown report for PR comments / EXPERIMENTS.md."""
    lines = [
        "### Time-series diff",
        "",
        f"- baseline: `{_meta_line(report.baseline_meta)}`",
        f"- candidate: `{_meta_line(report.candidate_meta)}`",
        f"- **verdict: {report.verdict}** — {len(report.regressed)} regressed, "
        f"{len(report.improved)} improved, {len(report.changed)} changed, "
        f"{report.unchanged_count} unchanged",
        "",
        "| column | class | tail Δ | peak Δ | cumulative Δ |",
        "|---|---|---|---|---|",
    ]
    for diff in report.columns:
        if diff.classification == "unchanged" and not verbose:
            continue
        name = diff.name.replace("|", "\\|")
        cls = (
            f"**{diff.classification}**"
            if diff.classification == "regressed"
            else diff.classification
        )
        lines.append(
            f"| `{name}` | {cls} | {_fmt_rel(diff, 'tail_mean')} "
            f"| {_fmt_rel(diff, 'peak')} | {_fmt_rel(diff, 'cumulative')} |"
        )
    if len(lines) == 8:
        lines.append("| _no columns out of tolerance_ | | | | |")
    lines.append("")
    return "\n".join(lines)


def render_diff_json(report: DiffReport) -> str:
    return json.dumps(report.to_dict(), indent=1) + "\n"
