#!/usr/bin/env python3
"""Regenerate EXPERIMENTS.md from live runs of every figure harness.

Regenerates all eight figures at paper scale from one run per scenario,
then the multi-seed sweep, the three ablations, the chaos scenarios and
the trace analysis, and writes the paper-versus-measured record.  Takes
about half a minute on a 2-vCPU host; the output is deterministic for a
fixed seed.

Run:  python scripts/generate_experiments_md.py [output-path]
"""

from __future__ import annotations

import sys
import pathlib

from repro.config import SimulationConfig
from repro.experiments.ablations import alpha_sweep, placement_ablation, threshold_sweep
from repro.experiments.figures import all_figures
from repro.experiments.report import render_analysis, render_report

HEADER = """\
# EXPERIMENTS — paper versus measured

Generated by `scripts/generate_experiments_md.py` (seed 7, Table I
parameters).  Every figure of the paper's evaluation (Section III) is
regenerated by the corresponding `benchmarks/bench_*.py` target; this
file records the qualitative *shape checks* — the claims the paper makes
about each figure — and the measured values behind them.

Absolute numbers are **not** expected to match the paper: the authors'
simulator, WAN geometry and per-server capacities were never released,
so ours are synthetic (DESIGN.md, substitution table).  What must match
— and is asserted below — is the *shape*: which algorithm wins each
metric, what collapses at the flash-crowd shifts, and what recovers
after the mass failure.

## Known deviations from the paper (and why)

1. **Eq. 14 (availability floor).**  As printed, the inclusion-exclusion
   sum evaluates to `1 − (1−f)^r`, making the left side `(1−f)^r` — a
   quantity that *decreases* with more replicas and so cannot be a
   minimum-replica bound; the standard redundancy formula `1 − f^r`
   contradicts the paper's own worked example (r_min = 2 at A=0.8,
   f=0.1) instead.  We use `max(2, min{r : 1 − f^r ≥ A})`, which matches
   the worked example exactly (see `repro.core.availability`).
2. **Eqs. 10–11 (smoothing).**  The printed update weights the *newest*
   sample by 1−α = 0.8, which neither "compensates for steep changes"
   nor produces the paper's smooth trajectories at per-partition query
   rates of O(1)/epoch.  We read α as the standard new-sample weight
   (see `repro.core.smoothing`).
3. **Eq. 26 (load imbalance).**  The absolute standard deviation is
   scale-dependent: a fleet of mostly-idle replicas (the random
   baseline) trivially minimises it.  The headline Fig. 8 series is the
   coefficient of variation of per-replica load; the raw Eq. 26 std is
   also recorded (`server_load_imbalance`).
4. **Lookup path length** is measured in WAN (datacenter-level) hops,
   not overlay hops — our interception model routes at datacenter
   granularity.  One consequence: the random baseline's large replica
   fleet blankets the datacenters and shortens *its* measured path below
   RFH's, which the paper's server-granular overlay does not show.  The
   orderings the paper emphasises (owner longest, RFH shorter than
   owner, sharp initial drop) are asserted.  "Owner longest" on the
   random setting (9a) is seed-fragile: request-oriented's steady path
   is within seed noise of owner's (multi-seed table below), and the
   check holds at only two of seeds 7, 11, 23, 42, 57 and 101 (11 and
   42), so it fails at seed 7 here.
5. **Owner-oriented total cost** comes out *lowest* in our runs (the
   paper has RFH lowest): neighbour-constrained owner placement pays
   only short-haul transfers, while our RFH pays for mid-path hubs.  The
   paper itself flags its own result as surprising ("It seems
   unreasonable that the RFH algorithm can achieve lower replication
   cost than the owner-oriented algorithm").  The claims the paper
   argues from — random far costliest, RFH below random, request's
   average inflating under flash crowd — all hold.
6. **Engineering constants** absent from the paper but required for a
   stable decentralized loop (suicide headroom/idle bar/warm-up, the
   request-oriented challenger margin, the blocked-queries overload
   trigger) are documented at their definitions and exercised by the
   ablation benches.

## Engine equivalence (scalar vs columnar)

Every experiment above can run on either epoch engine (`--engine
{scalar,columnar}`).  The two are not "statistically equivalent" — they
are *bit-identical*: same seed ⇒ same decision sequence, same RNG draw
order, same metric doubles, same `DeterminismSanitizer` fingerprint
chain, on all four policies.  The differential harness
(`tests/test_columnar_equivalence.py`), the byte-frozen goldens
(`tests/golden/`) and the CI `equivalence-smoke` job (cross-engine
`repro sanitize --against` / `repro diff` / `repro provdiff`) enforce
the identity, so every number in this file is engine-independent by
construction.  Until the columnar serve kernel returned a C-contiguous
served matrix, the identity had been checked only up to 24 partitions,
and past the 64-partition default it failed on `served`: numpy summed
the kernel's strided view in a different order than the scalar
engine's matrix, so the metric differed in the last ulp.  All 12
policy × scenario cases at 256 partitions, λ = 1000, seed 7 diverged
within 10 epochs, as did a 2,000-partition run on a 100-site ring and
a 3,000-partition run at λ = 3000.  The differential suite now runs 24
partitions (five seeds), 256 partitions at λ = 1000 and the
2,000-partition RFH run on a 100-site ring; CI sanitizes the
3,000-partition columnar run against a scalar trail.

Measured speedup (`BENCH_kernels.json`, medians): ~3× at Table I scale
(64 partitions, 10 DCs) and ~4.7× at 100 datacenters / 10⁵ partitions
(`test_large_scale_epoch_step`, workload pre-sampled into a trace so
the timed region is the engine).  The ratio is bounded by work both
engines run verbatim — the Fig. 2 decision-tree visit for every
partition that acts (replication churn is identical by contract) and
the EWMA smoothing arithmetic — which at Table I scale is most of the
epoch; the columnar win concentrates in the serve walk, the
no-op-partition prefilter and the metric roll-ups.
"""


def ablation_section(config: SimulationConfig) -> str:
    lines = ["## Ablations (DESIGN.md A1–A3)", ""]

    lines += ["### A1 — smoothing factor α (flash crowd)", ""]
    lines += ["| α | utilization | replicas | churn (repl+suicide) | unserved/ep |",
              "|---|---|---|---|---|"]
    for alpha, row in alpha_sweep(config, alphas=(0.05, 0.2, 0.8), epochs=400).items():
        lines.append(
            f"| {alpha} | {row['utilization']:.3f} | {row['total_replicas']:.0f} "
            f"| {row['churn']:.0f} | {row['unserved']:.2f} |"
        )
    lines.append("")

    lines += ["### A2 — β/δ thresholds (random query)", ""]
    lines += ["| β | δ | utilization | replicas | unserved/ep |", "|---|---|---|---|---|"]
    sweep = threshold_sweep(config, betas=(1.5, 3.0), deltas=(0.1, 0.4), epochs=250)
    for (beta, delta), row in sweep.items():
        lines.append(
            f"| {beta} | {delta} | {row['utilization']:.3f} "
            f"| {row['total_replicas']:.0f} | {row['unserved']:.2f} |"
        )
    lines.append("")

    lines += ["### A3 — Eq. 18 placement versus blind random in-DC", ""]
    lines += ["| placement | load imbalance (CV) | utilization | replicas |",
              "|---|---|---|---|"]
    for name, row in placement_ablation(config, epochs=300).items():
        lines.append(
            f"| {name} | {row['load_imbalance']:.3f} | {row['utilization']:.3f} "
            f"| {row['total_replicas']:.0f} |"
        )
    lines.append("")
    return "\n".join(lines)


def chaos_section(config: SimulationConfig, epochs: int = 120) -> str:
    """Run every registered chaos scenario under strict invariant
    checking and record what was injected and what it cost."""
    from repro.chaos import InvariantChecker
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import (
        CHAOS_SCENARIOS,
        chaos_schedule,
        random_query_scenario,
    )

    import dataclasses

    lines = [
        "## Chaos scenarios (DESIGN.md §8)",
        "",
        f"Every registered chaos scenario, RFH policy, {epochs} epochs,"
        " strict runtime invariant checking (a conservation bug aborts"
        " the run).  `violations` must be 0 on a healthy build.",
        "",
        "| scenario | servers hit | links cut | violations | min alive |"
        " lost partitions | unserved total | steady replicas |",
        "|---|---|---|---|---|---|---|---|",
    ]
    base = random_query_scenario(config, epochs=epochs)
    for name in sorted(CHAOS_SCENARIOS):
        scenario = dataclasses.replace(
            base, chaos=chaos_schedule(name, epochs)
        )
        checker = InvariantChecker(strict=True)
        result = run_experiment("rfh", scenario, invariants=checker)
        summary = result.simulation.chaos.summary()
        alive = result.series("alive_servers")
        lines.append(
            f"| {name} | {summary.servers_failed} | {summary.links_cut} "
            f"| {checker.violations_seen} | {alive.min():.0f} "
            f"| {result.series('lost_partitions').sum():.0f} "
            f"| {result.series('unserved').sum():.0f} "
            f"| {result.steady('total_replicas'):.0f} |"
        )
    lines.append("")
    return "\n".join(lines)


def trace_analysis_section(config: SimulationConfig) -> str:
    """Trace analytics of the failure/recovery run: replica lineage,
    the ranked root-cause table for its SLA violations, anomalies."""
    from repro.experiments.runner import run_experiment
    from repro.experiments.scenarios import failure_recovery_scenario
    from repro.obs import RingBufferTracer
    from repro.obs.analysis import analyze_events

    scenario = failure_recovery_scenario(config, epochs=400)
    tracer = RingBufferTracer(capacity=1_000_000)
    run_experiment("rfh", scenario, tracer=tracer)
    analysis = analyze_events(
        tracer.events(), source=f"{scenario.name} scenario, rfh, 400 epochs"
    )
    return render_analysis(
        analysis, heading="## Trace analysis (failure/recovery, RFH)"
    )


def sweep_section(
    seeds: tuple[int, ...] = (7, 11, 23, 42, 57), epochs: int = 400
) -> str:
    """Multi-seed Table I variant from the sweep orchestrator.

    Runs every policy over several seeds through ``repro.sweep`` and
    reports each metric as the cross-seed ``mean ± CI`` the merger
    computes — the spread the single-seed tables above cannot show.
    The columnar engine keeps this affordable; by the equivalence
    contract the numbers are identical to scalar runs.
    """
    import io
    import os
    import tempfile

    from repro.obs.fleet import FleetProgress
    from repro.sweep import SweepManifest, SweepScale, format_mean_ci, run_sweep
    from repro.sweep.report import REPORT_METRICS

    manifest = SweepManifest(
        name="experiments-table1",
        policies=("request", "owner", "random", "rfh"),
        scenarios=("random",),
        seeds=tuple(seeds),
        scales=(SweepScale("paper"),),
        engines=("columnar",),
        epochs=epochs,
        timeseries_stride=4,
    )
    with tempfile.TemporaryDirectory() as tmp:
        artifact = run_sweep(
            manifest,
            pathlib.Path(tmp) / "sweep",
            max_workers=min(4, os.cpu_count() or 1),
            progress=FleetProgress(
                manifest.num_cells, stream=io.StringIO(), live=False
            ),
        )
    if artifact.num_failed:
        raise RuntimeError(
            f"sweep for EXPERIMENTS.md had {artifact.num_failed} failed cell(s)"
        )

    lines = [
        "## Multi-seed Table I (sweep orchestrator, mean ± 95% CI)",
        "",
        f"`repro sweep` over all four policies × seeds {list(seeds)},"
        f" random-query scenario at Table I scale, {epochs} epochs"
        f" (manifest `{manifest.manifest_hash}`,"
        f" {artifact.num_ok} cells).  Each entry is the cross-seed mean"
        " ± half-width of the seeded-bootstrap 95% CI, so the per-policy"
        " orderings asserted above can be read against seed noise"
        " instead of a single draw.  Steady-state metrics are tail-30"
        " means; cost and churn metrics are whole-run totals.",
        "",
        "| policy | " + " | ".join(h for _, h, _ in REPORT_METRICS) + " |",
        "|" + "---|" * (len(REPORT_METRICS) + 1),
    ]
    for policy in manifest.policies:
        stats = artifact.groups[f"{policy}/random/paper/columnar"]
        row = [f"| {policy} "]
        for name, _, fmt in REPORT_METRICS:
            cell = format_mean_ci(stats[name], fmt) if name in stats else "–"
            row.append(f"| {cell} ")
        lines.append("".join(row) + "|")
    lines.append("")
    return "\n".join(lines)


def main() -> None:
    out = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else pathlib.Path("EXPERIMENTS.md")
    config = SimulationConfig(seed=7)
    print("Regenerating all figures (one run per scenario)...")
    results = all_figures(config)
    body = render_report(results, header=HEADER)
    print("Running multi-seed sweep (mean ± CI Table I)...")
    body += "\n" + sweep_section()
    print("Running ablations...")
    body += "\n" + ablation_section(config)
    print("Running chaos scenarios...")
    body += "\n" + chaos_section(config)
    print("Running trace analysis...")
    body += "\n" + trace_analysis_section(config)
    out.write_text(body)
    total = sum(len(r.checks) for r in results.values())
    held = sum(sum(r.checks.values()) for r in results.values())
    print(f"Wrote {out} — {held}/{total} shape checks held.")


if __name__ == "__main__":
    main()
