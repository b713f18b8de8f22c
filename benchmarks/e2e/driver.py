"""Run one end-to-end benchmark job in this interpreter.

``run.py`` starts this script once per rep, each time in a fresh
interpreter, and times the process from outside::

    python benchmarks/e2e/driver.py '<job spec as JSON>'

The job makes the same public calls its CLI command makes: the scenario
builders, ``Simulation`` / ``ColumnarSimulation`` and ``step()``, the
exporters and ``run_sweep``.  All the driver adds is CLOCK_MONOTONIC
marks around those calls and each ``step()``, written to the spec's
``timeline`` file at exit; ``run.py`` reads
them against its own spawn and reap times (the same clock), so the
process wall time splits into layers.

With ``"trace": true`` the job also attaches the engine's public
``PhaseProfiler`` and ``WorkCounters`` and times ``decide()`` through a
forwarding policy wrapper.  A traced sweep patches the three module
globals ``repro.sweep.worker`` calls per cell and the ``save()`` of the
two observer artifacts each cell writes; forked workers inherit the
patch and leave their per-cell layer totals in ``layers_dir``.
"""

import contextlib
import dataclasses
import json
import os
import pathlib
import sys
import time


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


T_START = now()

#: Per observer: the file it writes and the ``repro run`` flag that asks
#: for it.  The driver writes the file names the CLI oracle passes.
OBSERVERS = {
    "tracer": ("run.jsonl", "--trace-out"),
    "timeseries": ("run.tsdb.json", "--timeseries-out"),
    "sanitizer": ("run.fp.json", "--fingerprint-out"),
    "provenance": ("run.prov.json", "--provenance-out"),
}

#: The benchmark's jobs.  Sizes live here only; ``run.py`` imports this.
JOBS = {
    # `repro run --engine columnar --csv`: Table I, random queries, RFH.
    "run-table1": {
        "kind": "run", "scenario": "random", "epochs": 250,
        "engine": "columnar", "chaos": None, "observers": [],
    },
    # `repro sweep` over 4 policies x seeds S, S+1 x both engines, CLI
    # default 120 epochs, two worker lanes.
    "sweep-table1": {
        "kind": "sweep", "epochs": 120, "seeds": 2,
        "engines": ["scalar", "columnar"], "workers": 2,
    },
    # 100 DCs x 1 server, 2x10^4 partitions, Zipf 2.0, live generator,
    # RFH on the columnar engine from a cold start.
    "large-20k": {
        "kind": "large", "epochs": 40, "datacenters": 100,
        "partitions": 20_000, "rate": 10_000.0, "zipf": 2.0,
    },
    # `repro run --scenario failure --chaos wan-partition` with every
    # observer on and every artifact saved.
    "chaos-observed": {
        "kind": "run", "scenario": "failure", "epochs": 500,
        "engine": "columnar", "chaos": "wan-partition",
        "observers": list(OBSERVERS),
    },
}

#: Engine phase -> layer metric it feeds.
PHASE_LAYERS = {
    "membership": "sim.membership_s",
    "workload": "workload.generate_s",
    "serve": "core.serve_s",
    "observe": "sim.observe_s",
    "apply": "sim.apply_s",
    "record": "sim.record_s",
}


def cli_args(job: dict, seed: int, out: pathlib.Path) -> list[str]:
    """The ``python -m repro`` arguments of a ``run`` job."""
    args = [
        "run", "--seed", str(seed), "--epochs", str(job["epochs"]),
        "--scenario", job["scenario"], "--engine", job["engine"],
        "--csv", str(out / "metrics.csv"),
    ]
    if job["chaos"]:
        args += ["--chaos", job["chaos"]]
    for name in job["observers"]:
        filename, flag = OBSERVERS[name]
        args += [flag, str(out / filename)]
    return args


class Timeline:
    """Named marks, summed layer durations and counts of one process."""

    def __init__(self) -> None:
        self.marks: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self.steps: list[float] = []

    def add(self, name: str, seconds: float) -> None:
        self.layers[name] = self.layers.get(name, 0.0) + seconds

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + float(value)

    @contextlib.contextmanager
    def layer(self, name: str):
        t0 = now()
        try:
            yield
        finally:
            self.add(name, now() - t0)


class TimedPolicy:
    """Forwards everything to the wrapped policy; times ``decide()``."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.seconds = 0.0
        self.actions = 0

    def __getattr__(self, name: str):
        return getattr(self._inner, name)

    def decide(self, observation):
        t0 = now()
        actions = self._inner.decide(observation)
        self.seconds += now() - t0
        self.actions += len(actions)
        return actions


def engine_class(engine: str):
    from repro.sim import Simulation
    from repro.sim.columnar import ColumnarSimulation

    return {"scalar": Simulation, "columnar": ColumnarSimulation}[engine]


def stamp(policy: str, scenario, engine: str, observers: dict) -> None:
    """Stamp run identity into observer metadata as ``run_experiment`` does."""
    keys = {
        "policy": policy,
        "scenario": scenario.name,
        "seed": scenario.config.seed,
        "epochs": scenario.epochs,
        "engine": engine,
    }
    if observers.get("sanitizer") is not None:
        for key, value in keys.items():
            observers["sanitizer"].trail().meta.setdefault(key, value)
    if scenario.chaos is not None:
        keys["chaos"] = scenario.chaos.name
    for name in ("timeseries", "provenance"):
        if observers.get(name) is not None:
            for key, value in keys.items():
                observers[name].meta.setdefault(key, value)


def simulate(sim_class, config, epochs: int, tl: Timeline, trace: bool, **kwargs):
    """Build the engine and step it ``epochs`` times, timing each step."""
    policy = None
    if trace:
        from repro.obs.perf import WorkCounters
        from repro.obs.profiler import PhaseProfiler

        kwargs.update(profiler=PhaseProfiler(), work=WorkCounters())
    with tl.layer("sim.bootstrap_s"):
        sim = sim_class(config, **kwargs)
        if trace:
            # After construction, so the attach_* hand-offs reach the
            # real policy; step() then calls decide() through the wrapper.
            sim.policy = policy = TimedPolicy(sim.policy)
    tl.marks.setdefault("first_step", now())
    steps = tl.steps
    for _ in range(epochs):
        t0 = now()
        sim.step()
        steps.append(now() - t0)
    tl.marks["loop_end"] = now()
    if trace:
        fold_trace(sim, policy, tl)
    return sim


def fold_trace(sim, policy: TimedPolicy, tl: Timeline) -> None:
    """Move the profiler, work counters and metric series into ``tl``."""
    for phase, stats in sim.profiler.phase_timings().items():
        tl.add(PHASE_LAYERS[phase], stats.total)
    tl.add("sim.observe_s", -policy.seconds)
    tl.add("core.decide_s", policy.seconds)
    work = sim.work.totals()
    tl.count("partitions_scanned", work["partitions_scanned"])
    tl.count("decisions", work["decisions_evaluated"])
    tl.count("proposed", policy.actions)
    tl.count(
        "applied",
        work["replicate_actions"] + work["migrate_actions"] + work["evict_actions"],
    )
    tl.count("graph_hops", work["graph_hops"])
    tl.count(
        "rng_draws",
        sum(value for name, value in work.items() if name.startswith("rng_draws/")),
    )
    for series in ("queries", "served", "skipped_actions"):
        tl.count(series, sim.metrics.array(series).sum())


def run_job(job: dict, spec: dict, out: pathlib.Path, tl: Timeline) -> None:
    """One ``repro run`` job: scenario, engine, CSV and observer artifacts."""
    from repro.config import SimulationConfig, WorkloadParameters
    from repro.experiments import scenarios
    from repro.metrics.export import to_csv
    from repro.obs.provenance import ProvenanceRecorder
    from repro.obs.timeseries import TimeseriesRecorder
    from repro.obs.trace import JsonlTracer
    from repro.staticcheck.sanitizer import DeterminismSanitizer

    epochs = job["epochs"]
    with tl.layer("experiments.scenario_s"):
        config = SimulationConfig(
            seed=spec["seed"],
            workload=WorkloadParameters(queries_per_epoch_mean=300.0, num_partitions=64),
        )
        build = {
            "random": scenarios.random_query_scenario,
            "failure": scenarios.failure_recovery_scenario,
        }[job["scenario"]]
        scenario = build(config, epochs=epochs)
        if job["chaos"]:
            scenario = dataclasses.replace(
                scenario, chaos=scenarios.chaos_schedule(job["chaos"], epochs)
            )
    with tl.layer("sim.bootstrap_s"):
        makers = {
            "tracer": JsonlTracer,
            "timeseries": lambda _path: TimeseriesRecorder(stride=1),
            "sanitizer": lambda _path: DeterminismSanitizer(),
            "provenance": lambda _path: ProvenanceRecorder(),
        }
        observers = {
            name: makers[name](out / OBSERVERS[name][0]) for name in job["observers"]
        }
        stamp("rfh", scenario, job["engine"], observers)
    sim = simulate(
        engine_class(job["engine"]),
        scenario.config,
        epochs,
        tl,
        spec["trace"],
        policy="rfh",
        workload=scenario.trace,
        events=scenario.events,
        chaos=scenario.chaos,
        invariants=None,
        tracer=observers.get("tracer"),
        timeseries=observers.get("timeseries"),
        sanitizer=observers.get("sanitizer"),
        provenance=observers.get("provenance"),
    )
    with tl.layer("metrics.export_s"):
        to_csv(sim.metrics, out / "metrics.csv")
    with tl.layer("obs.artifact_save_s"):
        for name, observer in observers.items():
            path = out / OBSERVERS[name][0]
            if name == "tracer":
                observer.close()
            elif name == "sanitizer":
                observer.trail().save(path)
            else:
                observer.artifact().save(path)


def large_job(job: dict, spec: dict, out: pathlib.Path, tl: Timeline) -> None:
    """RFH on the columnar engine over a synthetic 100-site topology."""
    from repro.config import ClusterParameters, SimulationConfig, WorkloadParameters
    from repro.geo import build_synthetic_hierarchy
    from repro.metrics.export import to_csv
    from repro.net import build_ring_wan
    from repro.sim.columnar import ColumnarSimulation

    with tl.layer("experiments.scenario_s"):
        config = SimulationConfig(
            seed=spec["seed"],
            cluster=ClusterParameters(
                rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
            ),
            workload=WorkloadParameters(
                queries_per_epoch_mean=job["rate"],
                num_partitions=job["partitions"],
                zipf_exponent=job["zipf"],
            ),
        )
        hierarchy = build_synthetic_hierarchy(job["datacenters"])
        wan = build_ring_wan(hierarchy)
    sim = simulate(
        ColumnarSimulation, config, job["epochs"], tl, spec["trace"],
        policy="rfh", hierarchy=hierarchy, wan=wan, invariants=None,
    )
    with tl.layer("metrics.export_s"):
        to_csv(sim.metrics, out / "metrics.csv")
    if spec.get("check"):
        from repro.chaos.invariants import InvariantChecker

        violations = InvariantChecker(strict=False).collect(
            sim.clock.epoch, sim.cluster, sim.replicas
        )
        tl.count("invariant_violations", len(violations))


def sweep_job(job: dict, spec: dict, out: pathlib.Path, tl: Timeline) -> None:
    """``repro sweep`` with the job's axes and worker lanes."""
    from repro.obs.fleet import FleetProgress
    from repro.obs.fleet.events import CELL_FAILED, CELL_FINISHED, CELL_STARTED
    from repro.sweep import SweepManifest, SweepScale, run_sweep

    class MarkedProgress(FleetProgress):
        """The CLI's progress renderer, marking the cell phase's ends."""

        def handle(self, event: dict) -> None:
            if event.get("kind") == CELL_STARTED:
                tl.marks.setdefault("first_step", now())
            elif event.get("kind") in (CELL_FINISHED, CELL_FAILED):
                tl.marks["loop_end"] = now()
            super().handle(event)

    seed = spec["seed"]
    manifest = SweepManifest(
        seeds=tuple(range(seed, seed + job["seeds"])),
        engines=tuple(job["engines"]),
        epochs=job["epochs"],
        scales=(SweepScale("paper", partitions=64, rate=300.0),),
    )
    if spec["trace"]:
        trace_cells(pathlib.Path(spec["layers_dir"]))
    t0 = now()
    artifact = run_sweep(
        manifest,
        out,
        max_workers=job["workers"],
        progress=MarkedProgress(manifest.num_cells),
    )
    run_s = now() - t0
    cells_s = float(artifact.meta["wall_s"])
    tl.add("sweep.cells_s", cells_s)
    tl.add("sweep.merge_save_s", run_s - cells_s)
    tl.count("cells_failed", len(artifact.failures))


def trace_cells(layers_dir: pathlib.Path) -> None:
    """Time the scenario build, engine, CSV export and saves of every sweep cell."""
    import repro.sweep.worker as worker
    from repro.experiments.runner import ExperimentResult
    from repro.obs.timeseries.artifact import TsdbArtifact
    from repro.staticcheck.sanitizer import FingerprintTrail

    cell_tl = Timeline()
    build, to_csv = worker.build_cell_scenario, worker.to_csv
    tsdb_save, trail_save = TsdbArtifact.save, FingerprintTrail.save

    def traced_build(cell):
        with cell_tl.layer("experiments.scenario_s"):
            return build(cell)

    def traced_run(policy, scenario, *, engine="scalar", **observers):
        stamp(policy, scenario, engine, observers)
        sim = simulate(
            engine_class(engine), scenario.config, scenario.epochs, cell_tl, True,
            policy=policy, workload=scenario.trace, events=scenario.events,
            chaos=scenario.chaos, **observers,
        )
        return ExperimentResult(
            policy=policy, scenario=scenario.name, metrics=sim.metrics,
            simulation=sim, engine=engine,
        )

    def traced_csv(metrics, path) -> None:
        with cell_tl.layer("metrics.export_s"):
            to_csv(metrics, path)

    def traced_tsdb_save(artifact, path) -> None:
        with cell_tl.layer("obs.artifact_save_s"):
            tsdb_save(artifact, path)

    def traced_trail_save(trail, path) -> None:
        with cell_tl.layer("obs.artifact_save_s"):
            trail_save(trail, path)
        # The last timed call of a cell: leave this process's totals.
        dump = {"layers": cell_tl.layers, "counts": cell_tl.counts}
        (layers_dir / f"cells-{os.getpid()}.json").write_text(json.dumps(dump))

    worker.build_cell_scenario = traced_build
    worker.run_experiment = traced_run
    worker.to_csv = traced_csv
    # The two observer artifacts every cell saves after its CSV.
    TsdbArtifact.save = traced_tsdb_save
    FingerprintTrail.save = traced_trail_save


def main(argv: list[str]) -> int:
    spec = json.loads(argv[1])
    job = {**JOBS[spec["workload"]], **spec.get("overrides", {})}
    tl = Timeline()
    tl.marks["start"] = T_START
    with tl.layer("import.numpy_s"):
        import numpy  # noqa: F401
    with tl.layer("import.repro_s"):
        # The CLI's own import set plus what the job imports lazily.
        import repro.cli  # noqa: F401
        import repro.metrics.export  # noqa: F401
        import repro.sim.columnar  # noqa: F401
        if job["kind"] == "sweep":
            import repro.obs.fleet  # noqa: F401
            import repro.sweep  # noqa: F401
        elif job["kind"] == "run":
            import repro.obs.provenance  # noqa: F401
            import repro.obs.timeseries  # noqa: F401
            import repro.staticcheck.sanitizer  # noqa: F401
        if spec["trace"]:
            # Here, so forked sweep workers do not import them inside a cell.
            import repro.obs.perf  # noqa: F401
            import repro.obs.profiler  # noqa: F401
    out = pathlib.Path(spec["out"])
    {"run": run_job, "large": large_job, "sweep": sweep_job}[job["kind"]](
        job, spec, out, tl
    )
    tl.marks["end"] = now()
    record = {
        "marks": tl.marks,
        "layers": tl.layers,
        "counts": tl.counts,
        "steps": tl.steps,
    }
    pathlib.Path(spec["timeline"]).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
