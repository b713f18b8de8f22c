"""Sweep-versus-sweep comparison with CI-overlap regression gating.

``repro sweepdiff`` answers "did anything change, and did it change for
the worse?" across two merged sweeps:

* **cells** — for cell ids present in both sweeps with identical
  configuration digests, the determinism contract says the fingerprint
  chains must match bit-for-bit; a mismatch is the strongest possible
  signal (same inputs, different history) and always gates.
* **groups** — for each shared ``(policy, scenario, scale, engine)``
  group and metric, the bootstrap confidence intervals are compared.
  Overlapping intervals mean "statistically indistinguishable"; disjoint
  intervals are judged through the metric's polarity
  (:func:`repro.obs.timeseries.polarity_of`): a shift toward worse is a
  **regression** (gates), toward better an **improvement**, and a
  disjoint shift in a neutral metric a **shift** (reported, not gated).

Verdict vocabulary per metric: ``identical``, ``overlap``,
``improved``, ``regressed``, ``shifted``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..obs.timeseries import polarity_of
from .artifact import SweepArtifact

__all__ = ["SweepDiffReport", "diff_sweeps"]


@dataclass
class SweepDiffReport:
    """Everything ``sweepdiff`` concluded, renderable and gateable."""

    same_manifest: bool
    #: cell ids in both sweeps whose fingerprint chains match.
    cells_identical: list[str] = field(default_factory=list)
    #: ``(cell_id, chain_a, chain_b)`` for same-digest cells that differ.
    cell_mismatches: list[tuple[str, str, str]] = field(default_factory=list)
    #: cell ids present in exactly one sweep (or digest changed).
    cells_only_a: list[str] = field(default_factory=list)
    cells_only_b: list[str] = field(default_factory=list)
    #: ``(group, metric, verdict, mean_a, mean_b)`` for every compared
    #: group statistic; verdict in {identical, overlap, improved,
    #: regressed, shifted}.
    judgements: list[tuple[str, str, str, float, float]] = field(
        default_factory=list
    )

    def verdict_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for _, _, verdict, _, _ in self.judgements:
            counts[verdict] = counts.get(verdict, 0) + 1
        return counts

    @property
    def regressions(self) -> list[tuple[str, str, str, float, float]]:
        return [j for j in self.judgements if j[2] == "regressed"]

    def exit_code(self) -> int:
        """0 = clean; 1 = fingerprint mismatch or CI-disjoint regression."""
        return 1 if (self.cell_mismatches or self.regressions) else 0

    def render(self) -> str:
        lines: list[str] = []
        lines.append(
            "sweepdiff: manifests "
            + ("match" if self.same_manifest else "DIFFER")
            + f" | {len(self.cells_identical)} cell(s) bit-identical, "
            f"{len(self.cell_mismatches)} mismatched, "
            f"{len(self.cells_only_a)} only in A, "
            f"{len(self.cells_only_b)} only in B"
        )
        for cell_id, chain_a, chain_b in self.cell_mismatches:
            lines.append(
                f"  FINGERPRINT MISMATCH {cell_id}: {chain_a} != {chain_b}"
            )
        counts = self.verdict_counts()
        if counts:
            summary = ", ".join(
                f"{counts[v]} {v}"
                for v in ("identical", "overlap", "improved", "regressed", "shifted")
                if v in counts
            )
            lines.append(f"group statistics: {summary}")
        for group, metric, verdict, mean_a, mean_b in self.judgements:
            if verdict in ("identical", "overlap"):
                continue
            marker = {"regressed": "REGRESSED", "improved": "improved",
                      "shifted": "shifted"}[verdict]
            lines.append(
                f"  {marker:<10} {group} {metric}: "
                f"{mean_a:.4g} -> {mean_b:.4g}"
            )
        lines.append(
            "verdict: "
            + ("FAIL (gate tripped)" if self.exit_code() else "OK")
        )
        return "\n".join(lines)


def _cell_index(artifact: SweepArtifact) -> dict[str, dict]:
    return {
        record["cell_id"]: record
        for record in artifact.cells
        if record.get("status") == "ok"
    }


def _judge(metric: str, stats_a: dict, stats_b: dict) -> tuple[str, float, float]:
    mean_a, mean_b = float(stats_a["mean"]), float(stats_b["mean"])
    # Exact equality intended: "identical" asserts a bit-identical
    # re-merge of the same cell set, not statistical closeness.
    same_mean = mean_a == mean_b  # bit-identity check
    same_sd = float(stats_a.get("stddev", 0)) == float(  # bit-identity check
        stats_b.get("stddev", 0)
    )
    if same_mean and same_sd:
        return "identical", mean_a, mean_b
    lo_a, hi_a = float(stats_a["ci_lo"]), float(stats_a["ci_hi"])
    lo_b, hi_b = float(stats_b["ci_lo"]), float(stats_b["ci_hi"])
    if hi_a >= lo_b and hi_b >= lo_a:  # intervals overlap
        return "overlap", mean_a, mean_b
    polarity = polarity_of(metric)
    if polarity == 0:
        return "shifted", mean_a, mean_b
    better = (mean_b - mean_a) * polarity > 0
    return ("improved" if better else "regressed"), mean_a, mean_b


def diff_sweeps(a: SweepArtifact, b: SweepArtifact) -> SweepDiffReport:
    """Compare two merged sweeps cell-by-cell and group-by-group."""
    report = SweepDiffReport(
        same_manifest=a.manifest.manifest_hash == b.manifest.manifest_hash
    )

    cells_a, cells_b = _cell_index(a), _cell_index(b)
    for cell_id in sorted(set(cells_a) | set(cells_b)):
        rec_a, rec_b = cells_a.get(cell_id), cells_b.get(cell_id)
        if rec_a is None:
            report.cells_only_b.append(cell_id)
        elif rec_b is None:
            report.cells_only_a.append(cell_id)
        elif rec_a.get("digest") != rec_b.get("digest"):
            # Same id, different configuration: not comparable runs.
            report.cells_only_a.append(cell_id)
            report.cells_only_b.append(cell_id)
        elif rec_a.get("fingerprint") == rec_b.get("fingerprint"):
            report.cells_identical.append(cell_id)
        else:
            report.cell_mismatches.append(
                (
                    cell_id,
                    str(rec_a.get("fingerprint")),
                    str(rec_b.get("fingerprint")),
                )
            )

    for group in sorted(set(a.groups) & set(b.groups)):
        stats_a, stats_b = a.groups[group], b.groups[group]
        for metric in sorted(set(stats_a) & set(stats_b)):
            if not stats_a[metric].get("n") or not stats_b[metric].get("n"):
                continue
            verdict, mean_a, mean_b = _judge(
                metric, stats_a[metric], stats_b[metric]
            )
            report.judgements.append((group, metric, verdict, mean_a, mean_b))

    return report
