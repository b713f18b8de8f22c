"""End-to-end job benchmark: whole jobs timed from outside, split into layers.

Run from the repository root::

    python benchmarks/e2e/run.py [--workload NAME ...] [--seed S]
        [--seconds N] [--trace [0|1]] [--results PATH]

Every rep of a job is a fresh interpreter running ``driver.py``.  This
process times it from spawn to reap on CLOCK_MONOTONIC and reads the
peak RSS of its process tree from ``os.wait4``.  The load is closed:
one job at a time, reps of the selected workloads round-robin, until
each workload has spent ``--seconds`` of rep wall time.  The untimed
correctness oracles follow.  ``--trace`` adds one traced rep per
workload (and, for the observed job, one rep per single observer on
each engine) and reports the per-layer split instead of the end-to-end
metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; metric names,
units and the default ``--seconds`` come from ``BENCHMARK.json``.
``--results PATH`` also writes every sample, the oracle checks, each
workload's output digest and the extras.
"""

import argparse
import hashlib
import importlib.metadata
import json
import os
import pathlib
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from driver import JOBS, OBSERVERS, cli_args

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DRIVER = HERE / "driver.py"
#: Rep scratch space, removed when the run ends (and ignored by git).
SCRATCH_DIR = HERE / ".scratch"

#: Metric names, units, bounds and the run length.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
PER_LAYER = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}

#: A rep that runs longer than this is killed and counted as failed.
REP_TIMEOUT_S = 150.0
#: Largest accepted |traced wall - sum of layers| / traced wall.
MAX_GAP_FRAC = 0.05

#: Per-layer count metric -> (numerator count, denominator count or None).
#: Every other per-layer metric is a timed layer of the traced rep (for
#: the sweep, of its cells, summed over cells) or is set in per_layer().
LAYER_COUNTS = {
    "core.serve.queries": ("queries", None),
    "core.serve.served_frac": ("served", "queries"),
    "core.serve.partitions_scanned": ("partitions_scanned", None),
    "core.decide.decisions": ("decisions", None),
    "core.decide.action_frac": ("proposed", "decisions"),
    "sim.apply.actions": ("applied", None),
    "sim.apply.skipped_frac": ("skipped_actions", "proposed"),
    "net.graph_hops": ("graph_hops", None),
    "workload.rng_draws": ("rng_draws", None),
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("REPRO_CHECK_INVARIANTS", None)  # the CLI default: checks off
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(cmd: list[str], log_path: pathlib.Path) -> dict:
    """Run ``cmd`` to completion; spawn/reap times, exit code, peak RSS.

    The child leads its own process group, so a timeout or an interrupt
    here also kills the sweep workers it forked.
    """
    with open(log_path, "wb") as log:
        t_spawn = now()
        proc = subprocess.Popen(
            cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
            start_new_session=True,
        )
        killer = threading.Timer(REP_TIMEOUT_S, kill_group, (proc.pid,))
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            kill_group(proc.pid)
            os.waitpid(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        t_exit = now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "t_spawn": t_spawn,
        "t_exit": t_exit,
        "exit": proc.returncode,
        # ru_maxrss is KiB on Linux and covers reaped descendants too.
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,
    }


#: The wall-clock stamp every JSONL trace record carries.
TRACE_TS = re.compile(rb',"ts":[-+.0-9eE]+')


def sha256(path: pathlib.Path) -> str:
    data = path.read_bytes()
    if path.suffix == ".jsonl":
        data = TRACE_TS.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def result_files(job: dict, out: pathlib.Path) -> tuple[dict, str | None]:
    """Hashes of a job's result files, and the first problem found.

    The trace is hashed without its wall-clock ``ts`` stamps.  The time
    series is left out: with the profiler attached it gains per-phase
    timing columns, so it differs between traced and untraced reps.
    """
    if job["kind"] == "sweep":
        return sweep_files(out)
    names = ["metrics.csv"]
    if job["kind"] == "run":
        names += [OBSERVERS[name][0] for name in job["observers"]]
    missing = [name for name in names if not (out / name).is_file()]
    if missing:
        return {}, f"missing outputs: {missing}"
    return {name: sha256(out / name) for name in names if name != "run.tsdb.json"}, None


def sweep_files(out: pathlib.Path) -> tuple[dict, str | None]:
    """Per cell, its fingerprint and CSV hash; checks engines agree."""
    files: dict[str, str] = {}
    fingerprints: dict[tuple, set] = {}
    merged_path = out / "sweep.sweep.json"
    if not merged_path.is_file():
        return {}, "no merged sweep artifact"
    merged = json.loads(merged_path.read_text())
    records = [json.loads(p.read_text()) for p in sorted(out.glob("cells/*/cell.json"))]
    if merged["failures"] or not records or len(records) != len(merged["cells"]):
        return {}, f"{len(merged['failures'])} failed cells, {len(records)} cell records"
    for record in records:
        cell = record["cell"]
        if record["status"] != "ok":
            return {}, f"cell {record['cell_id']} status {record['status']}"
        cell_dir = out / "cells" / f"{record['cell_id']}-{record['digest']}"
        files[record["cell_id"]] = record["fingerprint"] + " " + sha256(cell_dir / "metrics.csv")
        fingerprints.setdefault((cell["policy"], cell["seed"]), set()).add(record["fingerprint"])
    split = [key for key, prints in fingerprints.items() if len(prints) != 1]
    if split:
        return files, f"scalar and columnar fingerprints differ for {split}"
    return files, None


def digest(files: dict) -> str:
    text = "".join(f"{name} {value}\n" for name, value in sorted(files.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def tail(path: pathlib.Path, lines: int = 5) -> str:
    try:
        return " | ".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


class Session:
    """The reps and oracle runs of one invocation, under one scratch dir."""

    def __init__(self, seed: int, overrides: dict) -> None:
        self.seed = seed
        #: Applied to every job of the session (``--epochs``).
        self.overrides = overrides
        self.dir = SCRATCH_DIR / f"session-{os.getpid()}"
        self.runs = 0

    def scratch(self, label: str) -> pathlib.Path:
        self.runs += 1
        path = self.dir / f"{self.runs:04d}-{label}"
        (path / "out").mkdir(parents=True)
        return path

    def rep(self, workload: str, *, trace=False, check=False, overrides=None) -> dict:
        """One driver run: timings, outputs and their hashes, then cleanup."""
        overrides = {**self.overrides, **(overrides or {})}
        job = {**JOBS[workload], **overrides}
        rep_dir = self.scratch(workload)
        out = rep_dir / "out"
        spec = {
            "workload": workload,
            "seed": self.seed,
            "out": str(out),
            "timeline": str(rep_dir / "timeline.json"),
            "layers_dir": str(rep_dir),
            "trace": trace,
            "check": check,
            "overrides": overrides,
        }
        proc = spawn([sys.executable, str(DRIVER), json.dumps(spec)], rep_dir / "log.txt")
        try:
            return collect(job, proc, rep_dir)
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)

    def cli(self, workload: str) -> dict:
        """The CLI command of a ``run`` job, for the oracle."""
        job = {**JOBS[workload], **self.overrides}
        run_dir = self.scratch(f"cli-{workload}")
        out = run_dir / "out"
        cmd = [sys.executable, "-m", "repro", *cli_args(job, self.seed, out)]
        proc = spawn(cmd, run_dir / "log.txt")
        try:
            if proc["exit"] != 0:
                return {"ok": False, "error": f"exit {proc['exit']}: {tail(run_dir / 'log.txt')}"}
            files, error = result_files(job, out)
            return {"ok": error is None, "error": error, "digest": digest(files)}
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            SCRATCH_DIR.rmdir()
        except OSError:
            pass


def collect(job: dict, proc: dict, rep_dir: pathlib.Path) -> dict:
    """Turn one finished driver run into a rep record."""
    rep = {
        "ok": False,
        "error": None,
        "wall_s": proc["t_exit"] - proc["t_spawn"],
        "rss_mb": proc["rss_mb"],
    }
    timeline_path = rep_dir / "timeline.json"
    if proc["exit"] != 0 or not timeline_path.is_file():
        rep["error"] = f"exit code {proc['exit']}: {tail(rep_dir / 'log.txt')}"
        return rep
    timeline = json.loads(timeline_path.read_text())
    marks = timeline["marks"]
    out = rep_dir / "out"
    files, error = result_files(job, out)
    cell_layers: dict[str, float] = {}
    cell_counts: dict[str, float] = {}
    for dump in rep_dir.glob("cells-*.json"):
        payload = json.loads(dump.read_text())
        for name, value in payload["layers"].items():
            cell_layers[name] = cell_layers.get(name, 0.0) + value
        for name, value in payload["counts"].items():
            cell_counts[name] = cell_counts.get(name, 0.0) + value
    rep.update(
        ok=error is None,
        error=error,
        files=files,
        digest=digest(files),
        setup_s=marks["first_step"] - proc["t_spawn"],
        startup_s=marks["start"] - proc["t_spawn"],
        exit_s=proc["t_exit"] - marks["end"],
        loop_s=marks["loop_end"] - marks["first_step"],
        artifact_mb=sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) / 1e6,
        layers=timeline["layers"],
        counts={**timeline["counts"], **cell_counts},
        cell_layers=cell_layers,
        steps=timeline["steps"],
    )
    if job["kind"] == "sweep":
        cells = [json.loads(p.read_text()) for p in out.glob("cells/*/cell.json")]
        rep["epochs"] = len(cells) * job["epochs"]
        rep["cell_s"] = {
            engine: [c["duration_s"] for c in cells if c["cell"]["engine"] == engine]
            for engine in job["engines"]
        }
        rep["lanes"] = job["workers"]
    else:
        rep["epochs"] = len(timeline["steps"])
    return rep


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: Metric measured on every untraced rep -> its sample from one rep: the
#: end-to-end metrics and the whole-job ``job.*`` per-layer metrics.
SAMPLES = {
    "setup_s": lambda rep: rep["setup_s"],
    "peak_rss_mb": lambda rep: rep["rss_mb"],
    "job.wall_s": lambda rep: rep["wall_s"],
    "job.epochs_per_s": lambda rep: rep["epochs"] / rep["loop_s"],
    "job.artifact_mb": lambda rep: rep["artifact_mb"],
}


def untraced(reps: list[dict]) -> dict:
    """Median and samples of every metric measured on the untraced reps."""
    units = {**END_TO_END, **PER_LAYER}
    out = {}
    for name, sample in SAMPLES.items():
        values = [sample(rep) for rep in reps]
        out[name] = {"value": statistics.median(values), "unit": units[name], "samples": values}
    return out


def extras(job: dict, reps: list[dict]) -> dict:
    """Workload-specific numbers kept beside the end-to-end metrics."""
    out: dict[str, object] = {}
    if job["kind"] == "run":
        out["obs.artifact_save_s"] = statistics.median(
            r["layers"]["obs.artifact_save_s"] for r in reps
        )
    if job["kind"] == "sweep":
        for engine in job["engines"]:
            durations = [d for r in reps for d in r["cell_s"][engine]]
            out[f"sweep.cell_s_p50.{engine}"] = statistics.median(durations)
        out["sweep.lane_busy_frac"] = statistics.median(
            sum(sum(d) for d in r["cell_s"].values())
            / (r["lanes"] * r["layers"]["sweep.cells_s"])
            for r in reps
        )
        out["sweep.merge_save_s"] = statistics.median(
            r["layers"]["sweep.merge_save_s"] for r in reps
        )
    else:
        steps = [s * 1e3 for r in reps for s in r["steps"]]
        out["epoch_ms_samples"] = len(steps)
        if len(steps) >= 20:
            cuts = statistics.quantiles(steps, n=100, method="inclusive")
            for pct in (50, 90, 99):
                if len(steps) * (100 - pct) >= 1000:  # ten samples beyond it
                    out[f"epoch_ms_p{pct}"] = cuts[pct - 1]
    return out


def gaps(rep: dict) -> dict[str, float]:
    """How far the traced rep's layers fall from the times they split.

    ``process``: the rep's own wall-clock segments (never the sweep's
    per-cell lane-seconds) against the wall time measured from outside.
    ``cells`` (sweep only): the cell layers, summed over cells, against
    the summed ``duration_s`` the cells recorded themselves.
    """
    accounted = rep["startup_s"] + sum(rep["layers"].values()) + rep["exit_s"]
    out = {"process": abs(rep["wall_s"] - accounted) / rep["wall_s"]}
    if "cell_s" in rep:
        cell_s = sum(sum(durations) for durations in rep["cell_s"].values())
        out["cells"] = abs(cell_s - sum(rep["cell_layers"].values())) / cell_s
    return out


def per_layer(rep: dict, measured: dict) -> dict:
    """The traced rep's layer split, counts and reconciliation.

    The ``job.*`` metrics come from the untraced reps' ``measured``
    medians: tracing slows the job, and the profiler adds columns to
    the traced run's time series.
    """
    values = {name: entry["value"] for name, entry in measured.items()}
    values.update(rep["cell_layers"])
    values.update(rep["layers"])
    values.update({
        "interp.startup_s": rep["startup_s"],
        "interp.exit_s": rep["exit_s"],
        "reconcile.gap_frac": max(gaps(rep).values()),
        "trace.overhead_frac": rep["wall_s"] / values["job.wall_s"] - 1.0,
    })
    counts = rep["counts"]
    for name, (num, den) in LAYER_COUNTS.items():
        value = counts.get(num, 0.0)
        values[name] = value / counts[den] if den is not None and counts.get(den) else value
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


class Workload:
    """Reps, checks and results of one workload in this invocation."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.job = JOBS[name]
        self.reps: list[dict] = []
        self.checks: list[dict] = []
        self.layers: dict | None = None
        self.observer_overheads: dict[str, float] = {}
        self.traced_failed = 0

    @property
    def spent(self) -> float:
        return sum(r["wall_s"] for r in self.reps)

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append({"check": name, "passed": bool(passed), "detail": detail})

    @property
    def expected(self) -> dict | None:
        """The first successful rep: every later output must match it."""
        return next((r for r in self.reps if r["ok"]), None)

    def failed_reps(self) -> list[dict]:
        expected = self.expected
        return [
            r for r in self.reps
            if not r["ok"] or expected is None or r["digest"] != expected["digest"]
        ]

    def run_oracles(self, session: Session) -> None:
        expected = self.expected
        if expected is None:
            self.check("some rep succeeded", False, self.reps[0]["error"])
            return
        for rep in self.failed_reps():
            self.check("rep output", False, rep["error"] or "digest differs from first rep")
        kind = self.job["kind"]
        if kind == "run":
            cli = session.cli(self.name)
            self.check(
                "CLI writes the same outputs",
                cli["ok"] and cli["digest"] == expected["digest"],
                cli["error"] or "",
            )
            scalar = session.rep(
                self.name, overrides={"engine": "scalar", "observers": []}
            )
            self.check(
                "scalar engine writes the same CSV",
                scalar["ok"]
                and scalar["files"]["metrics.csv"] == expected["files"]["metrics.csv"],
                scalar["error"] or "",
            )
        elif kind == "large":
            checked = session.rep(self.name, check=True)
            self.check(
                "no invariant violations at the end",
                checked["ok"]
                and checked["counts"].get("invariant_violations") == 0
                and checked["digest"] == expected["digest"],
                checked["error"] or "",
            )
        else:
            self.check("every cell ok, engines agree", not self.failed_reps())

    def run_traced(self, session: Session) -> None:
        rep = session.rep(self.name, trace=True)
        expected = self.expected
        if not rep["ok"] or expected is None:
            self.traced_failed = 1
            self.check("traced rep", False, rep["error"] or "")
            return
        self.layers = per_layer(rep, untraced([r for r in self.reps if r["ok"]]))
        same = rep["digest"] == expected["digest"]
        self.check("traced digest equals untraced", same)
        reconciled = True
        for scope, gap in gaps(rep).items():
            reconciled &= gap <= MAX_GAP_FRAC
            self.check(
                f"{scope} layers reconcile within {MAX_GAP_FRAC:.0%}",
                gap <= MAX_GAP_FRAC,
                f"gap {gap:.4f}",
            )
        self.traced_failed = int(not same or not reconciled)
        if self.job["kind"] == "run" and self.job["observers"]:
            self.run_observer_overheads(session)

    def run_observer_overheads(self, session: Session) -> None:
        """Bare job, then each observer alone, on both engines (1 sample each).

        Overheads compare wall time after the imports, which carry most
        of the rep-to-rep noise and no observer cost.
        """
        def job_s(rep: dict) -> float:
            imports = rep["layers"]["import.numpy_s"] + rep["layers"]["import.repro_s"]
            return rep["wall_s"] - rep["startup_s"] - imports

        csv = self.expected["files"]["metrics.csv"]
        for engine in ("scalar", "columnar"):
            bare = session.rep(self.name, overrides={"engine": engine, "observers": []})
            runs = [bare]
            for observer in OBSERVERS:
                rep = session.rep(
                    self.name, overrides={"engine": engine, "observers": [observer]}
                )
                runs.append(rep)
                if rep["ok"] and bare["ok"]:
                    self.observer_overheads[f"obs.{observer}.overhead_s.{engine}"] = (
                        job_s(rep) - job_s(bare)
                    )
            self.check(
                f"single-observer runs on {engine} write the same CSV",
                all(r["ok"] and r["files"]["metrics.csv"] == csv for r in runs),
            )

    def result(self, trace: bool) -> dict:
        ok_reps = [r for r in self.reps if r["ok"]]
        failed = len(self.failed_reps()) + self.traced_failed
        attempted = len(self.reps) + int(trace)
        expected = self.expected
        out = {
            "attempted": attempted,
            "failed": failed,
            "failed_frac": failed / attempted,
            "correct": failed == 0 and all(c["passed"] for c in self.checks),
            "output_digest": expected["digest"] if expected else None,
            "reps": len(self.reps),
            "checks": self.checks,
            "untraced": untraced(ok_reps) if ok_reps else {},
            "extra": extras(self.job, ok_reps) if ok_reps else {},
        }
        if trace:
            out["per_layer"] = self.layers or {}
            if self.observer_overheads:
                out["extra"]["observer_overheads_single_sample"] = self.observer_overheads
        return out


def machine() -> dict:
    model = ""
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "machine": platform.machine(),
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
    }


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", nargs="+", action="extend", choices=sorted(JOBS),
        help="workloads to run (default: all), reps interleaved round-robin",
    )
    parser.add_argument("--seed", type=int, default=42, help="input seed (default 42)")
    parser.add_argument(
        "--seconds", type=float, default=SPEC["run_seconds"],
        help="rep wall time to spend per workload (default: run_seconds of"
        " BENCHMARK.json; at least one rep)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: add a traced rep per workload and report the per-layer metrics",
    )
    parser.add_argument(
        "--results", type=pathlib.Path,
        help="also write the full results (every sample, checks, digests) here",
    )
    parser.add_argument(
        "--epochs", type=int, default=None,
        help="override every job's epoch count (for smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # SIGTERM unwinds like an interrupt, so the running rep's process
    # group is killed and reaped before this process exits.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(128 + signal.SIGTERM))
    names = list(dict.fromkeys(args.workload or JOBS))
    workloads = [Workload(name) for name in names]
    session = Session(args.seed, {} if args.epochs is None else {"epochs": args.epochs})
    try:
        pending = list(workloads)
        while pending:
            for workload in list(pending):
                workload.reps.append(session.rep(workload.name))
                if workload.spent >= args.seconds:
                    pending.remove(workload)
        for workload in workloads:
            workload.run_oracles(session)
        if args.trace:
            for workload in workloads:
                workload.run_traced(session)
    finally:
        session.close()

    results = {
        "format": "repro-e2e-bench",
        "version": 1,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": machine(),
        "workloads": {w.name: w.result(bool(args.trace)) for w in workloads},
    }
    if args.results:
        args.results.parent.mkdir(parents=True, exist_ok=True)
        args.results.write_text(json.dumps(results, indent=1) + "\n")

    metrics: dict[str, dict] = {}
    for name, result in results["workloads"].items():
        print_workload(name, result)
        if args.trace:
            shown = result.get("per_layer", {})
        else:
            shown = {m: e for m, e in result["untraced"].items() if m in END_TO_END}
        prefix = "" if len(names) == 1 else f"{name}/"
        for metric, entry in shown.items():
            metrics[prefix + metric] = {"value": entry["value"], "unit": entry["unit"]}
    summary = {
        "correct": all(r["correct"] for r in results["workloads"].values()),
        "attempted": sum(r["attempted"] for r in results["workloads"].values()),
        "failed": sum(r["failed"] for r in results["workloads"].values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


def print_workload(name: str, result: dict) -> None:
    print(
        f"== {name}: {result['reps']} reps, {result['failed']}/{result['attempted']} failed,"
        f" correct={result['correct']}, digest {str(result['output_digest'])[:16]}"
    )
    for metric, entry in result["untraced"].items():
        q1, _median, q3 = quartiles(entry["samples"])
        print(
            f"  {metric:<30} {entry['value']:>12.4f} {entry['unit']:<6}"
            f" (q1 {q1:.4f}, q3 {q3:.4f})"
        )
    for metric, entry in result.get("per_layer", {}).items():
        if metric not in result["untraced"]:
            print(f"  {metric:<30} {entry['value']:>12.4f} {entry['unit']}")
    for metric, value in result["extra"].items():
        if isinstance(value, dict):
            for key, sub in value.items():
                print(f"  {key:<30} {sub:>12.4f} (single sample)")
        else:
            print(f"  {metric:<30} {value:>12.4f}")
    for check in result["checks"]:
        status = "ok  " if check["passed"] else "FAIL"
        print(f"  [{status}] {check['check']} {check['detail']}".rstrip())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
