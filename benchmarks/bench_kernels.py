"""Micro-benchmarks of the hot kernels (guide: measure before tuning).

These are the only benchmarks with multiple timing rounds — they exist
to catch performance regressions in the inner loops that every
experiment epoch exercises: the Eq. 2–8 service walk, Erlang-B, ring
lookups and one full engine epoch.
"""

import numpy as np
import pytest

from repro.config import ClusterParameters, SimulationConfig, WorkloadParameters
from repro.core.blocking import erlang_b
from repro.core.traffic import serve_epoch
from repro.geo import build_synthetic_hierarchy
from repro.net import Router, build_default_wan, build_ring_wan
from repro.ring import FingerTable, HashRing, stable_hash
from repro.sim import Simulation
from repro.sim.columnar import ColumnarSimulation
from repro.workload import QueryBatch, WorkloadTrace

#: The two epoch engines under test.  The scalar engine is the
#: reference implementation; the columnar one must produce bit-identical
#: trajectories (tests/test_columnar_equivalence.py), so these rows are
#: directly comparable — same work, different arithmetic route.
_ENGINES = {"scalar": Simulation, "columnar": ColumnarSimulation}


def test_serve_epoch_kernel(benchmark):
    """One epoch of the Eq. 2–8 walk at Table I scale."""
    _, wan = build_default_wan()
    router = Router(wan)
    rng = np.random.default_rng(3)
    counts = rng.poisson(0.5, size=(64, 10))
    batch = QueryBatch(0, counts)
    holders = [int(h) for h in rng.integers(0, 10, size=64)]
    layouts = []
    for p in range(64):
        layout = {}
        for dc in rng.choice(10, size=4, replace=False):
            layout[int(dc)] = [(int(dc) * 10 + k, 2.0) for k in range(2)]
        layouts.append(layout)
    result = benchmark(
        serve_epoch, batch, holders, layouts, router, 100, holder_sid=None
    )
    assert result.total_served > 0


def test_erlang_b_kernel(benchmark):
    def run():
        total = 0.0
        for a in range(1, 200):
            total += erlang_b(a * 0.25, 8)
        return total

    total = benchmark(run)
    assert total > 0


def test_ring_lookup_kernel(benchmark):
    ring = HashRing()
    for sid in range(100):
        ring.add_server(sid)
    ft = FingerTable(ring)
    keys = [stable_hash(f"k:{i}") for i in range(500)]

    def run():
        return sum(ft.lookup(k)[1] for k in keys)

    hops = benchmark(run)
    assert hops > 0


@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_full_epoch_step(benchmark, engine):
    """One complete engine epoch (workload -> route -> decide -> apply)."""
    sim = _ENGINES[engine](SimulationConfig(seed=7), policy="rfh")
    sim.run(50)  # warm state: replicas placed, signals warm

    def step():
        return sim.step()

    result = benchmark.pedantic(step, rounds=20, iterations=1)
    assert result.query_count >= 0


# Large-scale case: 100 datacenters (one server each), 10^5 partitions,
# heavy skew.  The workload is pre-sampled into a trace during setup so
# the timed region measures the *engine* (serve / observe / apply /
# record), not the Poisson/multinomial sampling both engines share.
_LARGE_DCS = 100
_LARGE_PARTITIONS = 100_000
_LARGE_WARM_EPOCHS = 14
_LARGE_ROUNDS = 5
_LARGE_SCALE: dict = {}


def _large_scale_config() -> SimulationConfig:
    return SimulationConfig(
        seed=7,
        cluster=ClusterParameters(
            rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=50_000.0,
            num_partitions=_LARGE_PARTITIONS,
            zipf_exponent=2.0,
        ),
    )


def _large_scale_trace() -> WorkloadTrace:
    """One shared trace, recorded from the engine's own generator."""
    if "trace" not in _LARGE_SCALE:
        hierarchy = build_synthetic_hierarchy(_LARGE_DCS)
        probe = Simulation(
            _large_scale_config(),
            policy="rfh",
            hierarchy=hierarchy,
            wan=build_ring_wan(hierarchy),
        )
        _LARGE_SCALE["trace"] = WorkloadTrace.record(
            probe.workload, _LARGE_WARM_EPOCHS + _LARGE_ROUNDS + 3
        )
    return _LARGE_SCALE["trace"]


@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_large_scale_epoch_step(benchmark, engine):
    """One engine epoch at 100 DCs / 10^5 partitions, traced workload.

    This is where the columnar rewrite pays: the scalar per-flow walk
    and per-partition decision loop scale with P x D, the columnar
    kernels with the number of nonzero flows.
    """
    trace = _large_scale_trace()
    hierarchy = build_synthetic_hierarchy(_LARGE_DCS)
    sim = _ENGINES[engine](
        _large_scale_config(),
        policy="rfh",
        hierarchy=hierarchy,
        wan=build_ring_wan(hierarchy),
        workload=trace,
    )
    sim.run(_LARGE_WARM_EPOCHS)  # warm state: replicas placed, signals warm

    def step():
        return sim.step()

    result = benchmark.pedantic(step, rounds=_LARGE_ROUNDS, iterations=1)
    assert result.query_count >= 0


def test_full_epoch_step_timeseries(benchmark):
    """One engine epoch with the time-series recorder attached at
    stride 1 — the recorder's per-epoch cost must stay within noise of
    ``test_full_epoch_step`` (the acceptance bar for always-on
    recording)."""
    from repro.obs.timeseries import TimeseriesRecorder

    recorder = TimeseriesRecorder(stride=1)
    sim = Simulation(SimulationConfig(seed=7), policy="rfh", timeseries=recorder)
    sim.run(50)  # warm state: replicas placed, signals warm

    def step():
        return sim.step()

    result = benchmark.pedantic(step, rounds=20, iterations=1)
    assert result.query_count >= 0
    assert len(recorder.artifact().epochs) > 0


def test_full_epoch_step_sanitized(benchmark):
    """One engine epoch with the determinism sanitizer attached — the
    per-epoch fingerprinting (replica map, storage, rng streams,
    metrics into a hash chain) must stay within noise of
    ``test_full_epoch_step`` so `--sanitize` can run in CI smoke jobs."""
    from repro.staticcheck import DeterminismSanitizer

    sanitizer = DeterminismSanitizer()
    sim = Simulation(SimulationConfig(seed=7), policy="rfh", sanitizer=sanitizer)
    sim.run(50)  # warm state: replicas placed, signals warm

    def step():
        return sim.step()

    result = benchmark.pedantic(step, rounds=20, iterations=1)
    assert result.query_count >= 0
    assert len(sanitizer.trail()) > 0


def test_full_epoch_step_counters(benchmark):
    """One engine epoch with work counters attached — the counting
    overhead (one predictable branch per hot-path site plus the RNG
    stream proxy) must stay within noise of ``test_full_epoch_step``
    so cost-model recording can ride along in CI runs."""
    from repro.obs.perf import WorkCounters

    work = WorkCounters()
    sim = Simulation(SimulationConfig(seed=7), policy="rfh", work=work)
    sim.run(50)  # warm state: replicas placed, signals warm

    def step():
        return sim.step()

    result = benchmark.pedantic(step, rounds=20, iterations=1)
    assert result.query_count >= 0
    assert work.decisions_evaluated > 0


def test_full_epoch_step_provenance(benchmark):
    """One engine epoch with the decision-provenance recorder attached —
    the per-decision draft capture (predicates, candidate sets, fates)
    must stay close enough to ``test_full_epoch_step`` that
    ``--provenance-out`` is viable in CI smoke jobs; the detached path
    is covered by ``test_full_epoch_step`` itself since the disabled
    recorder is a ``None`` check."""
    from repro.obs.provenance import ProvenanceRecorder

    recorder = ProvenanceRecorder()
    sim = Simulation(SimulationConfig(seed=7), policy="rfh", provenance=recorder)
    sim.run(50)  # warm state: replicas placed, signals warm

    def step():
        return sim.step()

    result = benchmark.pedantic(step, rounds=20, iterations=1)
    assert result.query_count >= 0
    assert len(recorder.records) > 0


def test_full_epoch_step_hot_profiler(benchmark):
    """One engine epoch under the hot-path profiler (phases + nested
    kernel spans) — the span overhead bounds what ``repro profile``
    costs in kernels mode."""
    from repro.obs.perf import HotPathProfiler

    profiler = HotPathProfiler()
    sim = Simulation(SimulationConfig(seed=7), policy="rfh", profiler=profiler)
    sim.run(50)
    profiler.reset()  # attribute the timed epochs only

    def step():
        return sim.step()

    result = benchmark.pedantic(step, rounds=20, iterations=1)
    assert result.query_count >= 0
    assert any(len(node["stack"]) > 1 for node in profiler.span_nodes())


def test_full_epoch_step_phase_attribution(benchmark):
    """The same epoch loop under the phase profiler: prints where the
    wall-time goes (membership/workload/serve/observe/apply/record) so a
    regression in ``test_full_epoch_step`` can be pinned to a phase."""
    from repro.obs import ENGINE_PHASES, PhaseProfiler

    profiler = PhaseProfiler()
    sim = Simulation(SimulationConfig(seed=7), policy="rfh", profiler=profiler)
    sim.run(50)
    profiler.reset()  # attribute the timed epochs only

    def step():
        return sim.step()

    result = benchmark.pedantic(step, rounds=20, iterations=1)
    assert result.query_count >= 0
    timings = profiler.phase_timings()
    assert tuple(timings) == ENGINE_PHASES
    print("\n" + profiler.render_table())


def test_lint_src_tree(benchmark):
    """The full lint over ``src/repro`` — both rule families (REP0/REP1)
    on every file.  This is the pre-commit and CI gate's cost; it must
    stay interactive (the driver parses each file once and shares the
    tree across both families)."""
    import pathlib

    from repro.staticcheck import lint_paths

    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"

    def lint():
        return lint_paths([src])

    result = benchmark.pedantic(lint, rounds=3, iterations=1)
    assert result.errors == []
    assert result.active == []  # the committed tree gates at zero
    assert result.files_checked > 100
