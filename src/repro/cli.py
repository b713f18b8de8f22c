"""Command-line interface: ``python -m repro <command>``.

Fourteen subcommands cover the workflows a user reaches for first:

* ``run``     — one policy, one scenario, headline metrics (optionally
  exported to CSV/JSON); ``--chaos NAME`` overlays a chaos schedule;
* ``compare`` — all four algorithms on one shared trace, as a table;
* ``chaos``   — run one policy under a named chaos scenario with strict
  runtime invariant checking, and print what was injected;
* ``figures`` — regenerate the paper's figures and report shape checks;
* ``sla``     — the introduction's 300 ms SLA scoreboard;
* ``analyze`` — post-hoc trace analytics over a ``--trace-out`` file:
  replica lineage, root-cause chains, anomalies, plus Chrome-trace and
  Prometheus exporters;
* ``diff``    — compare two ``--timeseries-out`` artifacts metric by
  metric and classify each as improved/unchanged/regressed (non-zero
  exit on regression, for CI gating);
* ``dashboard`` — render a ``.tsdb.json`` run (optionally against a
  baseline) as a self-contained offline HTML dashboard;
* ``lint``    — AST determinism lint (REP001–REP003 and REP006:
  unseeded RNGs, wall-clock reads, set-order iteration, non-literal rng
  stream names; REP101–REP102 in kernels: implicit dtype promotion,
  unordered reductions) with noqa suppressions and a committed
  baseline; text/JSON/GitHub-annotation output;
* ``sanitize`` — run a config twice (or against a saved
  ``--fingerprint-out`` artifact) and report the **first divergent
  epoch and which component diverged** (replicas / storage / rng /
  metrics, down to the RNG stream);
* ``explain`` — render a ``--provenance-out`` decision ledger as a
  causal narrative: which Eq. 12/13/15/16 predicate fired for a
  partition, with the actual numbers and threshold slack, and why the
  rejected alternatives lost (``--why-not DC``);
* ``provdiff`` — align two ``.prov.json`` ledgers decision by decision
  and name the first divergent decision and the exact Eq. term that
  differed (non-zero exit on divergence, for CI gating);
* ``sweep``   — expand a ``{policy × scenario × seed × scale × engine}``
  grid (from a JSON manifest and/or axis flags) across parallel worker
  processes with live fleet progress, and merge the per-cell artifacts
  into one versioned ``.sweep.json`` with cross-seed ``mean ± CI``
  statistics (``--report`` markdown, ``--dashboard`` band plots,
  ``--resume``, ``--verify-cells`` determinism guard);
* ``sweepdiff`` — compare two ``.sweep.json`` artifacts cell-by-cell
  (fingerprint identity) and group-by-group (bootstrap CI overlap,
  judged through each metric's polarity; non-zero exit on regression or
  fingerprint mismatch, for CI gating).

Examples::

    python -m repro run --policy rfh --epochs 200 --seed 7
    python -m repro run --engine columnar --policy rfh --epochs 200 --seed 7
    python -m repro run --chaos flapping --epochs 200
    python -m repro chaos rack-outage --seed 42
    python -m repro compare --scenario flash --epochs 400
    python -m repro figures --only fig3 fig10
    python -m repro sla --epochs 250 --csv out.csv
    python -m repro run --trace-out t.jsonl && python -m repro analyze t.jsonl
    python -m repro run --timeseries-out base.tsdb.json
    python -m repro diff base.tsdb.json candidate.tsdb.json
    python -m repro dashboard run.tsdb.json --compare base.tsdb.json --out dash.html
    python -m repro lint src/repro --format github
    python -m repro sanitize --policy rfh --epochs 120 --seed 7
    python -m repro run --sanitize --fingerprint-out run.fp.json
    python -m repro sanitize --against run.fp.json
    python -m repro sanitize --engine columnar --against run.fp.json
    python -m repro run --provenance-out run.prov.json
    python -m repro explain run.prov.json --partition 7 --why-not 3
    python -m repro provdiff base.prov.json run.prov.json
    python -m repro sweep --policies rfh owner --seeds 1 2 3 4 5 \
        --epochs 120 --max-workers 4 --out sweeps/main --report
    python -m repro sweep --manifest grid.json --resume --dashboard
    python -m repro sweepdiff sweeps/base/sweep.sweep.json \
        sweeps/main/sweep.sweep.json
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from collections.abc import Sequence

from .config import SimulationConfig, WorkloadParameters
from .experiments.comparison import POLICIES, compare_policies
from .experiments.runner import ENGINES, run_experiment
from .experiments.scenarios import (
    CHAOS_SCENARIOS,
    Scenario,
    chaos_schedule,
    failure_recovery_scenario,
    flash_crowd_scenario,
    random_query_scenario,
)
from .obs.paths import tagged_path

__all__ = ["main", "build_parser"]

_SCENARIOS = {
    "random": random_query_scenario,
    "flash": flash_crowd_scenario,
    "failure": failure_recovery_scenario,
}

_HEADLINE = (
    ("utilization", "{:.3f}"),
    ("total_replicas", "{:.0f}"),
    ("path_length", "{:.2f}"),
    ("load_imbalance", "{:.2f}"),
    ("unserved", "{:.1f}"),
    ("sla_attainment", "{:.4f}"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RFH replication-algorithm reproduction (ICPP 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42, help="root RNG seed")
        p.add_argument("--epochs", type=int, default=250, help="epochs to simulate")
        p.add_argument(
            "--partitions", type=int, default=64, help="number of data partitions"
        )
        p.add_argument(
            "--rate", type=float, default=300.0, help="Poisson queries per epoch"
        )
        p.add_argument(
            "--scenario",
            choices=sorted(_SCENARIOS),
            default="random",
            help="workload scenario",
        )

    def engine_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--engine",
            choices=ENGINES,
            default="scalar",
            help="epoch core: 'scalar' (reference implementation) or "
            "'columnar' (vectorized numpy kernels; bit-identical "
            "fingerprint chains by contract, enforced by the "
            "differential suite)",
        )

    def chaos_opt(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--chaos",
            choices=sorted(CHAOS_SCENARIOS),
            default=None,
            metavar="NAME",
            help="overlay a named chaos schedule "
            f"({', '.join(sorted(CHAOS_SCENARIOS))})",
        )

    def chaos_opts(p: argparse.ArgumentParser) -> None:
        chaos_opt(p)
        p.add_argument(
            "--check-invariants",
            action="store_true",
            help="validate conservation invariants every epoch (strict: "
            "the run aborts on the first violation)",
        )

    def observability(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace-out",
            metavar="PATH.jsonl",
            help="stream a per-event JSONL trace (actions, membership, "
            "restores, SLA violations) to this file",
        )
        p.add_argument(
            "--profile",
            action="store_true",
            help="time the six engine phases and count the engine's work; "
            "print a per-phase table and the work totals",
        )
        p.add_argument(
            "--analyze",
            action="store_true",
            help="run the trace-analytics pipeline (lineage, root causes, "
            "anomalies) on the captured trace after the run",
        )
        p.add_argument(
            "--timeseries-out",
            metavar="PATH.tsdb.json",
            help="record per-epoch metric, traffic, work, decision and phase columns and "
            "save them as a versioned time-series artifact (compare runs "
            "with `repro diff`, render with `repro dashboard`); the "
            "compare command writes one file per policy, e.g. "
            "out.rfh.tsdb.json",
        )
        p.add_argument(
            "--timeseries-stride",
            type=int,
            default=1,
            metavar="N",
            help="sample the time series every N epochs (default 1)",
        )
        p.add_argument(
            "--sanitize",
            action="store_true",
            help="fingerprint engine state every epoch (replica map, "
            "storage, rng stream positions, metrics) into a hash chain; "
            "prints the final chain, comparable across same-seed runs",
        )
        p.add_argument(
            "--fingerprint-out",
            metavar="PATH.fp.json",
            help="save the determinism fingerprint trail to this file "
            "(implies --sanitize; feed it to `repro sanitize --against`); "
            "the compare command writes one file per policy",
        )
        p.add_argument(
            "--provenance-out",
            metavar="PATH.prov.json",
            help="record a decision-provenance ledger (every threshold "
            "predicate, candidate and action fate) and save it as a "
            "versioned artifact (query with `repro explain`, compare "
            "runs with `repro provdiff`); the compare command writes "
            "one file per policy",
        )
        p.add_argument(
            "--provenance-budget",
            type=int,
            default=None,
            metavar="N",
            help="cap the ledger at N decision records; oldest no-op "
            "decisions are compacted away first (default 50000)",
        )

    run_p = sub.add_parser("run", help="run one policy and print headline metrics")
    common(run_p)
    chaos_opts(run_p)
    engine_opt(run_p)
    run_p.add_argument(
        "--policy", choices=sorted(POLICIES), default="rfh", help="algorithm to run"
    )
    run_p.add_argument("--csv", help="export the metric series to this CSV file")
    run_p.add_argument("--json", help="export the metric series to this JSON file")
    observability(run_p)

    cmp_p = sub.add_parser("compare", help="run all four algorithms on one trace")
    common(cmp_p)
    chaos_opts(cmp_p)
    engine_opt(cmp_p)
    observability(cmp_p)

    chaos_p = sub.add_parser(
        "chaos",
        help="run one policy under a named chaos scenario with strict "
        "invariant checking",
    )
    chaos_p.add_argument(
        "scenario_name",
        metavar="SCENARIO",
        choices=sorted(CHAOS_SCENARIOS),
        help=f"chaos scenario: {', '.join(sorted(CHAOS_SCENARIOS))}",
    )
    chaos_p.add_argument("--seed", type=int, default=42, help="root RNG seed")
    chaos_p.add_argument("--epochs", type=int, default=120, help="epochs to simulate")
    chaos_p.add_argument(
        "--partitions", type=int, default=64, help="number of data partitions"
    )
    chaos_p.add_argument(
        "--rate", type=float, default=300.0, help="Poisson queries per epoch"
    )
    chaos_p.add_argument(
        "--policy", choices=sorted(POLICIES), default="rfh", help="algorithm to run"
    )
    chaos_p.add_argument("--csv", help="export the metric series to this CSV file")
    engine_opt(chaos_p)
    observability(chaos_p)

    fig_p = sub.add_parser("figures", help="regenerate the paper's figures")
    fig_p.add_argument("--seed", type=int, default=7)
    fig_p.add_argument(
        "--only",
        nargs="*",
        default=None,
        metavar="FIG",
        help="subset, e.g. --only fig3 fig10 (default: all)",
    )

    sla_p = sub.add_parser("sla", help="SLA-attainment scoreboard (Section I)")
    common(sla_p)
    sla_p.add_argument("--csv", help="export the rfh run's series to CSV")

    an_p = sub.add_parser(
        "analyze",
        help="analyse a JSONL trace: replica lineage, root-cause chains, "
        "anomalies, or export to Chrome-trace / Prometheus formats",
    )
    an_p.add_argument("trace", metavar="TRACE.jsonl", help="a --trace-out file")
    an_p.add_argument(
        "--format",
        choices=("text", "json", "chrome-trace", "prometheus"),
        default="text",
        help="text report (default), structured JSON, Perfetto-loadable "
        "Chrome trace-event JSON, or Prometheus text exposition",
    )
    an_p.add_argument(
        "--out", help="write the output to this file instead of stdout"
    )
    an_p.add_argument(
        "--window",
        type=int,
        default=20,
        help="root-cause look-back window in epochs (default 20)",
    )

    diff_p = sub.add_parser(
        "diff",
        help="compare two time-series artifacts metric by metric; "
        "exits non-zero when any metric regressed",
    )
    diff_p.add_argument(
        "baseline", metavar="BASELINE.tsdb.json", help="the reference run"
    )
    diff_p.add_argument(
        "candidate", metavar="CANDIDATE.tsdb.json", help="the run under test"
    )
    diff_p.add_argument(
        "--format",
        choices=("text", "markdown", "json"),
        default="text",
        help="report format (default text)",
    )
    diff_p.add_argument("--out", help="write the report to this file instead of stdout")
    diff_p.add_argument(
        "--rel-tol",
        type=float,
        default=None,
        metavar="FRAC",
        help="override the default per-metric relative tolerance "
        "(e.g. 0.10 for 10%%)",
    )
    diff_p.add_argument(
        "--abs-tol",
        type=float,
        default=None,
        metavar="X",
        help="override the default per-metric absolute tolerance",
    )
    diff_p.add_argument(
        "--columns",
        nargs="*",
        default=None,
        metavar="NAME",
        help="restrict the diff to these columns (default: all shared)",
    )
    diff_p.add_argument(
        "--verbose",
        action="store_true",
        help="include unchanged metrics in the text/markdown report",
    )

    dash_p = sub.add_parser(
        "dashboard",
        help="render a time-series artifact as a self-contained "
        "offline HTML dashboard",
    )
    dash_p.add_argument("run", metavar="RUN.tsdb.json", help="the run to render")
    dash_p.add_argument(
        "--compare",
        metavar="BASE.tsdb.json",
        help="overlay a baseline run and show headline deltas",
    )
    dash_p.add_argument(
        "--out",
        default="dashboard.html",
        metavar="PATH.html",
        help="output HTML file (default dashboard.html)",
    )
    dash_p.add_argument("--title", help="dashboard title (default: from metadata)")

    lint_p = sub.add_parser(
        "lint",
        help="static analysis: determinism (REP0xx) and kernel purity "
        "(REP1xx)",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint_p.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format; 'github' emits ::error workflow commands "
        "that annotate PR diffs",
    )
    lint_p.add_argument(
        "--select",
        action="append",
        default=None,
        metavar="RULE|FAMILY",
        help="rule ids or family prefixes (REP0, REP1; comma-separable, "
        "e.g. REP1,REP002; repeatable); default: every rule",
    )
    lint_p.add_argument(
        "--changed",
        action="store_true",
        help="lint only files that differ from git HEAD (modified, "
        "staged or untracked) under the given paths",
    )
    lint_p.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline file of grandfathered findings (default: "
        ".repro-lint-baseline.json when present)",
    )
    lint_p.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; every finding gates",
    )
    lint_p.add_argument(
        "--write-baseline",
        action="store_true",
        help="grandfather all current active findings into the baseline "
        "file and exit 0",
    )
    lint_p.add_argument(
        "--verbose",
        action="store_true",
        help="also list suppressed and baselined findings (text format)",
    )

    san_p = sub.add_parser(
        "sanitize",
        help="determinism check: run the config twice (or against a "
        "saved fingerprint) and report the first divergent epoch "
        "and component",
    )
    common(san_p)
    chaos_opt(san_p)
    engine_opt(san_p)
    san_p.add_argument(
        "--policy", choices=sorted(POLICIES), default="rfh", help="algorithm to run"
    )
    san_p.add_argument(
        "--against",
        metavar="PATH.fp.json",
        default=None,
        help="compare this run against a saved fingerprint trail "
        "instead of re-running the config",
    )
    san_p.add_argument(
        "--save",
        metavar="PATH.fp.json",
        default=None,
        help="also save this run's fingerprint trail",
    )
    san_p.add_argument(
        "--json",
        action="store_true",
        help="print the divergence report as JSON",
    )

    exp_p = sub.add_parser(
        "explain",
        help="answer 'why did the policy do that?' from a .prov.json "
        "decision ledger: the causal narrative for one partition with "
        "every threshold term, slack and rejected alternative",
    )
    exp_p.add_argument(
        "artifact", metavar="RUN.prov.json", help="provenance artifact to query"
    )
    exp_p.add_argument(
        "--partition",
        type=int,
        required=True,
        metavar="P",
        help="partition whose decisions to explain",
    )
    exp_p.add_argument(
        "--epoch",
        type=int,
        default=None,
        metavar="E",
        help="restrict to one epoch (default: the partition's whole history)",
    )
    exp_p.add_argument(
        "--why-not",
        type=int,
        default=None,
        metavar="DC",
        help="also explain why this datacenter was NOT chosen "
        "(how far its traffic was from each threshold)",
    )
    exp_p.add_argument(
        "--out", default=None, help="write the narrative to this file"
    )

    pvd_p = sub.add_parser(
        "provdiff",
        help="diff two .prov.json decision ledgers decision-by-decision; "
        "names the first divergent decision and exact threshold term "
        "(non-zero exit on divergence, for CI gating)",
    )
    pvd_p.add_argument(
        "baseline", metavar="BASE.prov.json", help="baseline provenance artifact"
    )
    pvd_p.add_argument(
        "candidate", metavar="CAND.prov.json", help="candidate provenance artifact"
    )

    sweep_p = sub.add_parser(
        "sweep",
        help="fan a {policy x scenario x seed x scale x engine} grid "
        "across worker processes and merge the cells into one "
        ".sweep.json with cross-seed statistics",
    )
    sweep_p.add_argument(
        "--manifest",
        metavar="PATH.json",
        help="load the sweep grid from a JSON manifest (axis flags below "
        "override individual manifest fields)",
    )
    sweep_p.add_argument(
        "--name", default=None, help="sweep name (default 'sweep')"
    )
    sweep_p.add_argument(
        "--policies", nargs="+", choices=sorted(POLICIES), default=None,
        metavar="POLICY", help=f"policy axis (default: all of {sorted(POLICIES)})",
    )
    sweep_p.add_argument(
        "--scenarios", nargs="+", choices=sorted(_SCENARIOS), default=None,
        metavar="NAME", help="scenario axis (default: random)",
    )
    sweep_p.add_argument(
        "--seeds", nargs="+", type=int, default=None, metavar="SEED",
        help="seed axis (default: 42)",
    )
    sweep_p.add_argument(
        "--engines", nargs="+", choices=ENGINES, default=None, metavar="ENGINE",
        help="engine axis (default: scalar)",
    )
    sweep_p.add_argument(
        "--epochs", type=int, default=None, help="epochs per cell (default 120)"
    )
    sweep_p.add_argument(
        "--partitions", type=int, default=None,
        help="partitions for the (single) scale axis point (default 64)",
    )
    sweep_p.add_argument(
        "--rate", type=float, default=None,
        help="Poisson queries/epoch for the scale axis point (default 300)",
    )
    sweep_p.add_argument(
        "--timeseries-stride", type=int, default=None, metavar="N",
        help="sample each cell's time series every N epochs (default 1)",
    )
    sweep_p.add_argument(
        "--out", metavar="DIR", default=None,
        help="sweep directory (default sweep-<manifest hash>); holds "
        "manifest.json, cells/<cell>-<digest>/ and sweep.sweep.json",
    )
    sweep_p.add_argument(
        "--max-workers", type=int, default=1, metavar="N",
        help="parallel worker processes (1 = run inline in this process)",
    )
    sweep_p.add_argument(
        "--resume", action="store_true",
        help="adopt cells whose directories already hold a valid "
        "cell.json matching this manifest's hash instead of re-running",
    )
    sweep_p.add_argument(
        "--verify-cells", action="store_true",
        help="determinism guard: re-run every cell in-process and require "
        "an identical fingerprint chain (divergence becomes a structured "
        "sweep-cell failure)",
    )
    sweep_p.add_argument(
        "--report", nargs="?", const="-", default=None, metavar="PATH.md",
        help="render the mean ± CI markdown report (to PATH.md, or stdout "
        "when the flag is given without a value)",
    )
    sweep_p.add_argument(
        "--dashboard", nargs="?", const="", default=None, metavar="PATH.html",
        help="render the aggregate band-plot dashboard (default "
        "<out>/dashboard.html when the flag is given without a value)",
    )
    # Fault-injection testing aids (CI smoke sweep + tests).
    sweep_p.add_argument("--inject-crash", default=None, help=argparse.SUPPRESS)
    sweep_p.add_argument(
        "--inject-mode", choices=("raise", "exit"), default="raise",
        help=argparse.SUPPRESS,
    )

    swd_p = sub.add_parser(
        "sweepdiff",
        help="compare two .sweep.json artifacts cell-by-cell (fingerprint "
        "identity) and group-by-group (bootstrap CI overlap); non-zero "
        "exit on fingerprint mismatch or CI-disjoint regression",
    )
    swd_p.add_argument(
        "baseline", metavar="BASE.sweep.json", help="baseline sweep artifact"
    )
    swd_p.add_argument(
        "candidate", metavar="CAND.sweep.json", help="candidate sweep artifact"
    )

    return parser


def _config(args: argparse.Namespace) -> SimulationConfig:
    return SimulationConfig(
        seed=args.seed,
        workload=WorkloadParameters(
            queries_per_epoch_mean=args.rate, num_partitions=args.partitions
        ),
    )


def _scenario(args: argparse.Namespace) -> Scenario:
    scenario = _SCENARIOS[args.scenario](_config(args), epochs=args.epochs)
    if getattr(args, "chaos", None):
        scenario = dataclasses.replace(
            scenario, chaos=chaos_schedule(args.chaos, args.epochs)
        )
    return scenario


def _warn_dropped(tracer) -> None:
    """Surface silent ring-buffer eviction in the run summary."""
    dropped = getattr(tracer, "dropped", 0)
    if dropped:
        print(
            f"warning: trace buffer evicted {dropped} events; analysis "
            "covers the most recent events only",
            file=sys.stderr,
        )


class _Observers:
    """The observers one ``run``, ``compare`` or ``chaos`` invocation asked for.

    The tracer is opened at construction, so a bad ``--trace-out`` path
    fails before any run: the JSONL sink, or a 1,000,000-event ring when
    only ``--analyze`` needs the events.  As a context manager it closes
    the tracer on every path, an engine error included, so a partial
    trace stays analysable.  Called with a policy name, it returns that
    run's :func:`run_experiment` keyword arguments: the shared tracer
    and a fresh profiler with its work counters, time-series recorder,
    sanitizer and provenance ledger.  :meth:`finish` saves and reports
    them all.
    """

    def __init__(self, args: argparse.Namespace, *, invariants: bool | None) -> None:
        if args.timeseries_out and args.timeseries_stride < 1:
            raise SystemExit(
                f"--timeseries-stride must be >= 1, got {args.timeseries_stride}"
            )
        budget = args.provenance_budget
        if args.provenance_out and budget is not None and budget < 1:
            raise SystemExit(f"--provenance-budget must be >= 1, got {budget}")
        self.args = args
        self.invariants = invariants
        self.runs: dict[str, dict] = {}
        self.tracer = self.ring = None
        if args.trace_out:
            from .obs.trace import JsonlTracer

            try:
                self.tracer = JsonlTracer(args.trace_out)
            except OSError as exc:
                raise SystemExit(f"cannot open --trace-out {args.trace_out!r}: {exc}")
        elif args.analyze:
            from .obs.trace import RingBufferTracer

            self.tracer = self.ring = RingBufferTracer(capacity=1_000_000)

    def __enter__(self) -> _Observers:
        return self

    def __exit__(self, *exc: object) -> None:
        if self.tracer is not None:
            self.tracer.close()

    def __call__(self, policy: str) -> dict:
        args = self.args
        run: dict = {"tracer": self.tracer, "invariants": self.invariants}
        if args.profile:
            from .obs.perf import WorkCounters
            from .obs.profiler import PhaseProfiler

            run["profiler"] = PhaseProfiler()
            run["work"] = WorkCounters()
        if args.timeseries_out:
            from .obs.timeseries import TimeseriesRecorder

            run["timeseries"] = TimeseriesRecorder(stride=args.timeseries_stride)
        if args.sanitize or args.fingerprint_out:
            from .staticcheck.sanitizer import DeterminismSanitizer

            run["sanitizer"] = DeterminismSanitizer()
        if args.provenance_out:
            from .obs.provenance import ProvenanceRecorder

            budget = args.provenance_budget
            run["provenance"] = (
                ProvenanceRecorder() if budget is None else ProvenanceRecorder(budget)
            )
        self.runs[policy] = run
        return run

    def finish(self) -> None:
        """Save every artifact and print the summary, once the tracer is closed.

        Artifacts are reported by kind, each kind in run order; when
        several policies ran, every path gets the policy tag
        (``out.rfh.tsdb.json``) and every report names its policy.
        """
        args = self.args
        tagged = len(self.runs) > 1

        def out(path: str, policy: str) -> str:
            return tagged_path(path, policy) if tagged else path

        if args.trace_out:
            print(f"wrote {self.tracer.emitted} trace records to {args.trace_out}")
        for policy, run in self.runs.items():
            if "timeseries" in run:
                path = out(args.timeseries_out, policy)
                series = run["timeseries"].artifact()
                series.save(path)
                print(
                    f"wrote {len(series.epochs)} time-series points x "
                    f"{len(series.columns)} columns to {path}"
                )
        for policy, run in self.runs.items():
            if "provenance" in run:
                path = out(args.provenance_out, policy)
                ledger = run["provenance"].artifact()
                ledger.save(path)
                dropped = ledger.noop_dropped_total
                compacted = f" ({dropped} no-op decisions compacted)" if dropped else ""
                print(
                    f"wrote {ledger.num_decisions} decision records "
                    f"({ledger.num_actions} with actions){compacted} to {path}; "
                    f"query with `repro explain {path} --partition P`"
                )
        for policy, run in self.runs.items():
            if "sanitizer" in run:
                trail = run["sanitizer"].trail()
                tag = f"[{policy}] " if tagged else ""
                print(
                    f"{tag}determinism fingerprint: {trail.final_chain} "
                    f"({len(trail)} epoch(s) chained)"
                )
                if args.fingerprint_out:
                    path = out(args.fingerprint_out, policy)
                    trail.save(path)
                    print(f"wrote fingerprint trail to {path}")
        _warn_dropped(self.tracer)
        for policy, run in self.runs.items():
            if "profiler" in run:
                print(f"\nphase timings ({policy}):" if tagged else "\nphase timings:")
                print(run["profiler"].render_table())
                print("work counters:")
                for name, value in run["work"].totals().items():
                    print(f"  {name}: {value:.0f}")
        if args.analyze:
            from .obs.analysis import analyze_events, analyze_trace, render_text

            if self.ring is not None:
                analysis = analyze_events(self.ring.events(), source="<in-memory trace>")
            else:
                analysis = analyze_trace(args.trace_out)
            print()
            print(render_text(analysis))


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    # --check-invariants forces strict checking; otherwise the engine
    # default (the REPRO_CHECK_INVARIANTS environment) decides.
    with _Observers(args, invariants=args.check_invariants or None) as observers:
        result = run_experiment(
            args.policy, scenario, engine=args.engine, **observers(args.policy)
        )
    chaos_tag = f" chaos={args.chaos}" if args.chaos else ""
    engine_tag = f" engine={args.engine}" if args.engine != "scalar" else ""
    print(
        f"policy={args.policy} scenario={scenario.name} "
        f"epochs={args.epochs}{chaos_tag}{engine_tag}"
    )
    for name, fmt in _HEADLINE:
        print(f"  {name:<18} {fmt.format(result.steady(name))}")
    print(f"  {'replication_cost':<18} {result.series('replication_cost').sum():.1f}")
    print(f"  {'migrations':<18} {result.series('migration_count').sum():.0f}")
    if args.csv:
        from .metrics.export import to_csv

        to_csv(result.metrics, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        from .metrics.export import to_json

        to_json(result.metrics, args.json)
        print(f"wrote {args.json}")
    observers.finish()
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    scenario = _scenario(args)
    with _Observers(args, invariants=args.check_invariants or None) as observers:
        cmp = compare_policies(scenario, observers=observers, engine=args.engine)
    header = f"{'policy':>9} | " + " ".join(f"{name:>16}" for name, _ in _HEADLINE)
    print(f"scenario={scenario.name} epochs={args.epochs} seed={args.seed}")
    print(header)
    print("-" * len(header))
    for policy in cmp.policies():
        res = cmp[policy]
        cells = " ".join(
            f"{fmt.format(res.steady(name)):>16}" for name, fmt in _HEADLINE
        )
        print(f"{policy:>9} | {cells}")
    print("\nutilization ranking:", " > ".join(cmp.ranking("utilization")))
    observers.finish()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """One policy under a named chaos scenario, invariants strict."""
    schedule = chaos_schedule(args.scenario_name, args.epochs)
    scenario = dataclasses.replace(
        random_query_scenario(_config(args), epochs=args.epochs), chaos=schedule
    )
    with _Observers(args, invariants=True) as observers:
        result = run_experiment(
            args.policy, scenario, engine=args.engine, **observers(args.policy)
        )
    sim = result.simulation
    summary = sim.chaos.summary()
    print(
        f"chaos={summary.schedule} policy={args.policy} "
        f"epochs={args.epochs} seed={args.seed}"
    )
    print(
        f"  injected: {summary.injections} injections -> "
        f"{summary.failure_events} failure events, "
        f"{summary.recovery_events} recovery events, "
        f"{summary.servers_failed} servers hit, "
        f"{summary.links_cut} WAN links cut"
    )
    print(f"  domains:  {', '.join(summary.domains_hit)}")
    print(f"  invariant violations: {sim.invariants.violations_seen}")
    for name, fmt in _HEADLINE:
        print(f"  {name:<18} {fmt.format(result.steady(name))}")
    print(f"  {'lost_partitions':<18} {result.series('lost_partitions').sum():.0f}")
    print(f"  {'unserved_total':<18} {result.series('unserved').sum():.1f}")
    if args.csv:
        from .metrics.export import to_csv

        to_csv(result.metrics, args.csv)
        print(f"wrote {args.csv}")
    observers.finish()
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .experiments.figures import FIGURES, all_figures
    from .experiments.report import render_figure

    selected = args.only if args.only else sorted(FIGURES)
    unknown = [name for name in selected if name not in FIGURES]
    if unknown:
        print(f"unknown figures: {unknown}; have {sorted(FIGURES)}", file=sys.stderr)
        return 2
    # Only the runs the selected figures read are built.
    results = all_figures(SimulationConfig(seed=args.seed), only=selected)
    failures = 0
    for name in selected:
        result = results[name]
        print(render_figure(result))
        failures += len(result.failed_checks())
    print(f"{'OK' if failures == 0 else 'FAILED'}: {failures} shape checks failed")
    return 0 if failures == 0 else 1


def _cmd_sla(args: argparse.Namespace) -> int:
    from .experiments.sla import sla_comparison

    result = sla_comparison(_config(args), epochs=args.epochs)
    print(f"{'policy':>9} {'attainment':>11} {'latency ms':>11} {'replicas':>9}")
    for policy in result.attainment:
        print(
            f"{policy:>9} {result.attainment[policy]:>11.4f} "
            f"{result.latency_ms[policy]:>11.1f} {result.replicas[policy]:>9.0f}"
        )
    for name, ok in result.checks.items():
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
    return 0 if result.passed else 1


def _cmd_analyze(args: argparse.Namespace) -> int:
    import json
    import pathlib

    path = pathlib.Path(args.trace)
    if not path.exists():
        print(f"no such trace file: {path}", file=sys.stderr)
        return 2

    if args.format in ("text", "json"):
        from .obs.analysis import AnalysisOptions, analyze_trace, render_text

        analysis = analyze_trace(path, options=AnalysisOptions(window=args.window))
        if not analysis.total_events:
            print(f"{path} holds no readable trace events", file=sys.stderr)
            return 1
        output = (
            render_text(analysis)
            if args.format == "text"
            else json.dumps(analysis.to_dict(), indent=1) + "\n"
        )
    elif args.format == "chrome-trace":
        from .obs.analysis import to_chrome_trace
        from .obs.trace import read_jsonl

        payload = to_chrome_trace(read_jsonl(path))
        output = json.dumps(payload, separators=(",", ":")) + "\n"
    else:  # prometheus
        from .obs.analysis import registry_from_events, to_prometheus
        from .obs.trace import read_jsonl

        output = to_prometheus(registry_from_events(read_jsonl(path)))
    _emit(output, args.out)
    return 0


def _emit(text: str, out: str | None) -> None:
    """Write ``text``, newline-terminated, to ``out``; or print it."""
    if out:
        from .artifact import save_text

        save_text(out, text if text.endswith("\n") else text + "\n")
        print(f"wrote {out}")
    else:
        print(text[:-1] if text.endswith("\n") else text)


def _load(cls, path: str, what: str):
    """``cls.load(path)``; a missing or unreadable ``what`` exits with a message."""
    from .errors import ReproError

    if not os.path.exists(path):
        raise SystemExit(f"no such {what}: {path}")
    try:
        return cls.load(path)
    except ReproError as exc:
        raise SystemExit(f"cannot load {path}: {exc}")


def _cmd_diff(args: argparse.Namespace) -> int:
    from .errors import TsdbError
    from .obs.timeseries import (
        TsdbArtifact,
        diff_artifacts,
        render_diff_json,
        render_diff_markdown,
        render_diff_text,
    )

    baseline = _load(TsdbArtifact, args.baseline, "time-series artifact")
    candidate = _load(TsdbArtifact, args.candidate, "time-series artifact")
    try:
        report = diff_artifacts(
            baseline,
            candidate,
            rel=args.rel_tol,
            abs_=args.abs_tol,
            columns=tuple(args.columns) if args.columns else None,
        )
    except TsdbError as exc:
        raise SystemExit(f"cannot diff: {exc}")
    renderers = {
        "text": lambda r: render_diff_text(r, verbose=args.verbose),
        "markdown": lambda r: render_diff_markdown(r, verbose=args.verbose),
        "json": render_diff_json,
    }
    _emit(renderers[args.format](report), args.out)
    return report.exit_code()


def _cmd_dashboard(args: argparse.Namespace) -> int:
    from .artifact import save_text
    from .obs.timeseries import TsdbArtifact, render_dashboard

    run = _load(TsdbArtifact, args.run, "time-series artifact")
    baseline = (
        _load(TsdbArtifact, args.compare, "time-series artifact") if args.compare else None
    )
    html = render_dashboard(run, baseline, title=args.title)
    save_text(args.out, html)
    print(f"wrote {args.out} ({len(html) / 1024:.0f} KiB, self-contained)")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    import pathlib

    from .staticcheck import (
        DEFAULT_BASELINE_NAME,
        Baseline,
        changed_python_files,
        lint_paths,
        render_github,
        render_json,
        render_text,
    )

    baseline = None
    baseline_path = args.baseline or DEFAULT_BASELINE_NAME
    if not args.no_baseline and not args.write_baseline:
        if args.baseline or pathlib.Path(baseline_path).exists():
            baseline = _load(Baseline, baseline_path, "lint baseline")
    paths: list[str | pathlib.Path] = list(args.paths)
    if args.changed:
        try:
            paths = list(changed_python_files(paths))
        except RuntimeError as exc:
            raise SystemExit(str(exc))
        if not paths:
            print("no changed python files under the given paths")
            return 0
    try:
        result = lint_paths(paths, select=args.select, baseline=baseline)
    except ValueError as exc:  # unknown or empty --select
        raise SystemExit(str(exc))
    if args.write_baseline:
        new_baseline = Baseline.from_findings(result.findings)
        new_baseline.save(baseline_path)
        print(
            f"wrote {len(new_baseline)} grandfathered finding(s) to {baseline_path}"
        )
        return 0
    if args.format == "json":
        print(render_json(result))
    elif args.format == "github":
        print(render_github(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return result.exit_code


def _cmd_sanitize(args: argparse.Namespace) -> int:
    import json

    from .staticcheck.sanitizer import (
        DeterminismSanitizer,
        FingerprintTrail,
        bisect_divergence,
    )

    scenario = _scenario(args)

    def one_run() -> FingerprintTrail:
        sanitizer = DeterminismSanitizer()
        run_experiment(args.policy, scenario, sanitizer=sanitizer, engine=args.engine)
        return sanitizer.trail()

    candidate = one_run()
    if args.save:
        candidate.save(args.save)
        print(f"wrote fingerprint trail to {args.save}")
    if args.against:
        baseline = _load(FingerprintTrail, args.against, "fingerprint trail")
        label = f"against {args.against}"
    else:
        # The double-run: a fresh simulation replays the same recorded
        # trace, so any divergence is real nondeterminism, not workload.
        baseline = one_run()
        label = "double-run"
    report = bisect_divergence(baseline, candidate)
    if args.json:
        print(json.dumps(report.to_dict(), indent=1))
    else:
        print(
            f"sanitize policy={args.policy} scenario={scenario.name} "
            f"epochs={args.epochs} seed={args.seed} "
            f"engine={args.engine} ({label})"
        )
        print(f"  {report.describe()}")
        if report.exit_code != 0:
            print(
                "  hint: re-run both sides with --provenance-out and use "
                "`repro provdiff A.prov.json B.prov.json` to pinpoint the "
                "first divergent decision and threshold term"
            )
    return report.exit_code


def _cmd_explain(args: argparse.Namespace) -> int:
    from .errors import ProvenanceError
    from .obs.provenance import ProvArtifact, render_explanation

    artifact = _load(ProvArtifact, args.artifact, "provenance artifact")
    try:
        text = render_explanation(
            artifact,
            args.partition,
            epoch=args.epoch,
            why_not=args.why_not,
        )
    except ProvenanceError as exc:
        raise SystemExit(str(exc))
    _emit(text, args.out)
    return 0


def _cmd_provdiff(args: argparse.Namespace) -> int:
    from .obs.provenance import ProvArtifact, diff_provenance

    artifacts = [
        _load(ProvArtifact, path, "provenance artifact")
        for path in (args.baseline, args.candidate)
    ]
    report = diff_provenance(artifacts[0], artifacts[1])
    print(f"provdiff {args.baseline} vs {args.candidate}")
    print(report.describe())
    return report.exit_code


def _sweep_manifest(args: argparse.Namespace):
    """Build the sweep manifest from ``--manifest`` and/or axis flags.

    Axis flags override individual fields of a loaded manifest, so a
    committed grid can be re-run with, say, extra seeds without editing
    the file."""
    from .errors import SweepError
    from .sweep import SweepManifest, SweepScale

    overrides: dict[str, object] = {}
    if args.name is not None:
        overrides["name"] = args.name
    if args.policies is not None:
        overrides["policies"] = tuple(dict.fromkeys(args.policies))
    if args.scenarios is not None:
        overrides["scenarios"] = tuple(dict.fromkeys(args.scenarios))
    if args.seeds is not None:
        overrides["seeds"] = tuple(dict.fromkeys(args.seeds))
    if args.engines is not None:
        overrides["engines"] = tuple(dict.fromkeys(args.engines))
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.timeseries_stride is not None:
        overrides["timeseries_stride"] = args.timeseries_stride
    try:
        if args.manifest:
            manifest = _load(SweepManifest, args.manifest, "sweep manifest")
            if args.partitions is not None or args.rate is not None:
                base = manifest.scales[0]
                overrides["scales"] = (
                    SweepScale(
                        base.name,
                        partitions=args.partitions
                        if args.partitions is not None
                        else base.partitions,
                        rate=args.rate if args.rate is not None else base.rate,
                    ),
                )
            if overrides:
                manifest = dataclasses.replace(manifest, **overrides)
        else:
            overrides.setdefault(
                "scales",
                (
                    SweepScale(
                        "paper",
                        partitions=args.partitions
                        if args.partitions is not None
                        else 64,
                        rate=args.rate if args.rate is not None else 300.0,
                    ),
                ),
            )
            manifest = SweepManifest(**overrides)
    except SweepError as exc:
        raise SystemExit(str(exc))
    return manifest


def _cmd_sweep(args: argparse.Namespace) -> int:
    import pathlib

    from .artifact import save_text
    from .errors import SweepError
    from .obs.fleet import FleetProgress
    from .sweep import SWEEP_ARTIFACT_NAME, render_sweep, run_sweep

    manifest = _sweep_manifest(args)
    if args.max_workers < 1:
        raise SystemExit(f"--max-workers must be >= 1, got {args.max_workers}")
    out = pathlib.Path(args.out or f"sweep-{manifest.manifest_hash}")
    print(
        f"sweep {manifest.name}: {manifest.num_cells} cell(s) "
        f"[{len(manifest.policies)} policies x {len(manifest.scenarios)} "
        f"scenarios x {len(manifest.seeds)} seeds x {len(manifest.scales)} "
        f"scales x {len(manifest.engines)} engines], "
        f"manifest hash {manifest.manifest_hash} -> {out}"
    )
    try:
        artifact = run_sweep(
            manifest,
            out,
            max_workers=args.max_workers,
            resume=args.resume,
            verify=args.verify_cells,
            progress=FleetProgress(manifest.num_cells),
            inject_crash=args.inject_crash,
            inject_mode=args.inject_mode,
        )
    except SweepError as exc:
        raise SystemExit(str(exc))
    print(f"wrote {out / SWEEP_ARTIFACT_NAME}")

    if args.report is not None:
        text = render_sweep(artifact)
        if args.report == "-":
            print(text)
        else:
            save_text(args.report, text)
            print(f"wrote {args.report}")
    if args.dashboard is not None:
        from .obs.fleet.dashboard import render_fleet_dashboard

        dash_path = pathlib.Path(args.dashboard or out / "dashboard.html")
        try:
            save_text(dash_path, render_fleet_dashboard(artifact, out))
        except SweepError as exc:
            raise SystemExit(str(exc))
        print(f"wrote {dash_path}")

    for failure in artifact.failures:
        print(
            f"FAILED cell {failure.get('cell_id')} "
            f"[{failure.get('kind')}]: {failure.get('error')}"
        )
    return 1 if artifact.failures else 0


def _cmd_sweepdiff(args: argparse.Namespace) -> int:
    from .sweep import SweepArtifact, diff_sweeps

    artifacts = [
        _load(SweepArtifact, path, "sweep artifact")
        for path in (args.baseline, args.candidate)
    ]
    report = diff_sweeps(artifacts[0], artifacts[1])
    print(f"sweepdiff {args.baseline} vs {args.candidate}")
    print(report.render())
    return report.exit_code()


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    commands = {
        "run": _cmd_run,
        "compare": _cmd_compare,
        "chaos": _cmd_chaos,
        "figures": _cmd_figures,
        "sla": _cmd_sla,
        "analyze": _cmd_analyze,
        "diff": _cmd_diff,
        "dashboard": _cmd_dashboard,
        "lint": _cmd_lint,
        "sanitize": _cmd_sanitize,
        "explain": _cmd_explain,
        "provdiff": _cmd_provdiff,
        "sweep": _cmd_sweep,
        "sweepdiff": _cmd_sweepdiff,
    }
    try:
        return commands[args.command](args)
    except BrokenPipeError:  # e.g. `repro analyze ... | head`
        # Downstream closed the pipe; detach stdout so the interpreter's
        # exit-time flush does not raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
