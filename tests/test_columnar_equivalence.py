"""Differential equivalence suite: scalar vs columnar engine.

The columnar engine's correctness proof is *identity*, not tolerance:
for the same seed the DeterminismSanitizer fingerprint chain — which
hashes the replica map, storage ledger, RNG stream positions and every
recorded metric each epoch — must be bit-identical between engines.
This suite enforces that contract over the full policy matrix, three
scenario shapes, multiple seeds, Table I scale and 256 partitions,
every kernel code path (the serve kernel picks between python and
vectorized drain/tail branches by survivor count), the exported metric
CSVs and the decision-provenance ledgers, a 2,000-partition RFH run on
a 100-site ring, a sparse 2,000-partition run whose work counters must
match too, plus hypothesis sweeps over random small clusters and over
the cell-backed service result's reductions.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import ClusterParameters, SimulationConfig, WorkloadParameters
from repro.core.policy import SID_BITS
from repro.core.traffic import CellMatrix
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    Scenario,
    chaos_schedule,
    flash_crowd_scenario,
    random_query_scenario,
)
from repro.geo.hierarchy import DEFAULT_SITES, GeoHierarchy, build_synthetic_hierarchy
from repro.metrics.export import to_csv
from repro.net.builder import build_ring_wan, build_wan
from repro.obs.perf import WorkCounters
from repro.obs.provenance import ProvenanceRecorder, diff_provenance
from repro.sim.actions import Migrate, Replicate, Suicide
from repro.sim.columnar import ColumnarSimulation
from repro.sim.columnar import kernels as columnar_kernels
from repro.sim.engine import Simulation
from repro.sim.events import MassFailureEvent, ServerJoinEvent, ServerRecoveryEvent
from repro.staticcheck.sanitizer import DeterminismSanitizer

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships with the image
    given = None  # type: ignore[assignment]

POLICIES = ("request", "owner", "random", "rfh")
SCENARIOS = ("default", "chaos", "flash-crowd")
SEEDS = (3, 7, 11, 23, 42)
ENGINES = ("scalar", "columnar")
#: Differential sizes: (partitions, queries per epoch, seeds, epochs).
#: Table I scale runs every seed; 256 partitions at λ = 1000 is past the
#: 64-partition default, where the columnar served matrix was once a
#: strided view that numpy summed in a different order than the scalar
#: engine's contiguous one.
SIZES = (
    (24, 120.0, SEEDS, 25),
    (256, 1000.0, (7,), 10),
)

#: Every Simulation hook ColumnarSimulation overrides.  This tuple is
#: the differential suite's coverage contract:
#: test_differential_hooks_match_overrides below asserts (by
#: reflection) that the tuple matches the real override set — so a new
#: override cannot ship without landing in this list, and a stale entry
#: cannot linger after a hook is removed.  The fingerprint chain each
#: equivalence test compares hashes the outputs of every one of these
#: hooks each epoch.
DIFFERENTIAL_HOOKS = (
    "_alive_mask_array",
    "_alive_server_count",
    "_availability_summary",
    "_blocking_probabilities",
    "_restore_lost_partitions",
    "_serve_epoch",
    "_server_capacity_array",
    "_server_imbalance_value",
    "_served_metrics",
    "_total_replicas",
)


def test_differential_hooks_match_overrides() -> None:
    """DIFFERENTIAL_HOOKS is exactly the set of Simulation methods
    ColumnarSimulation overrides (no gaps, no stale entries)."""
    overrides = sorted(
        name
        for name, member in vars(ColumnarSimulation).items()
        if callable(member)
        and not name.startswith("__")
        and callable(getattr(Simulation, name, None))
    )
    assert overrides == sorted(DIFFERENTIAL_HOOKS)


def _small_config(
    seed: int, partitions: int = 24, rate: float = 120.0
) -> SimulationConfig:
    """Fast but non-trivial: enough partitions and load that every
    decision branch (replicate / migrate / suicide) fires."""
    return SimulationConfig(
        seed=seed,
        workload=WorkloadParameters(
            queries_per_epoch_mean=rate, num_partitions=partitions
        ),
    )


def _scenario(
    name: str, seed: int, epochs: int, partitions: int = 24, rate: float = 120.0
) -> Scenario:
    config = _small_config(seed, partitions, rate)
    if name == "flash-crowd":
        return flash_crowd_scenario(config, epochs=epochs)
    scenario = random_query_scenario(config, epochs=epochs)
    if name == "chaos":
        scenario = dataclasses.replace(
            scenario, chaos=chaos_schedule("rack-outage", epochs)
        )
    return scenario


def _chains(policy: str, scenario: Scenario, engine: str) -> list[str]:
    sanitizer = DeterminismSanitizer()
    run_experiment(policy, scenario, sanitizer=sanitizer, engine=engine)
    return [record.chain for record in sanitizer.trail().records]


@pytest.mark.parametrize("scenario_name", SCENARIOS)
@pytest.mark.parametrize("policy", POLICIES)
def test_fingerprint_chains_and_metric_csvs_match(
    policy: str, scenario_name: str, tmp_path
) -> None:
    """Every policy x scenario x size x seed: identical per-epoch chain
    and byte-identical metric CSV export between engines."""
    for partitions, rate, seeds, epochs in SIZES:
        for seed in seeds:
            scenario = _scenario(scenario_name, seed, epochs, partitions, rate)
            chains: dict[str, list[str]] = {}
            csv_bytes: dict[str, bytes] = {}
            for engine in ENGINES:
                sanitizer = DeterminismSanitizer()
                result = run_experiment(
                    policy, scenario, sanitizer=sanitizer, engine=engine
                )
                path = tmp_path / f"{policy}-{scenario_name}-{partitions}-{seed}-{engine}.csv"
                to_csv(result.metrics, path)
                chains[engine] = [r.chain for r in sanitizer.trail().records]
                csv_bytes[engine] = path.read_bytes()
            context = (
                f"policy={policy} scenario={scenario_name} "
                f"partitions={partitions} seed={seed}"
            )
            assert chains["scalar"] == chains["columnar"], (
                f"chain diverged: {context}"
            )
            assert csv_bytes["scalar"] == csv_bytes["columnar"], (
                f"metric CSV diverged: {context}"
            )


def test_hundred_site_ring_matches(tmp_path) -> None:
    """RFH on a 100-site ring (one server per site, 2,000 partitions,
    Zipf 2.0): identical chains and CSV bytes, with every EWMA update
    spanning two row blocks."""
    hierarchy = build_synthetic_hierarchy(100)
    wan = build_ring_wan(hierarchy)
    config = SimulationConfig(
        seed=11,
        cluster=ClusterParameters(
            rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=2000.0, num_partitions=2000, zipf_exponent=2.0
        ),
    )
    chains: dict[str, list[str]] = {}
    csv_bytes: dict[str, bytes] = {}
    for engine_cls in (Simulation, ColumnarSimulation):
        sanitizer = DeterminismSanitizer()
        sim = engine_cls(
            config, policy="rfh", hierarchy=hierarchy, wan=wan, sanitizer=sanitizer
        )
        sim.run(10)
        # A strided served view would reduce in a different order.
        assert sim.last_result.served_server.flags.c_contiguous
        path = tmp_path / f"{engine_cls.engine_name}.csv"
        to_csv(sim.metrics, path)
        chains[engine_cls.engine_name] = [r.chain for r in sanitizer.trail().records]
        csv_bytes[engine_cls.engine_name] = path.read_bytes()
    assert chains["scalar"] == chains["columnar"]
    assert csv_bytes["scalar"] == csv_bytes["columnar"]


def test_sparse_batches_match_with_work_counters() -> None:
    """2,000 partitions at 60 queries per epoch: almost every partition
    sees no query, so the serve kernel's flows come from the batch's
    cells alone.  Chains and every work counter match."""
    config = _small_config(5, partitions=2000, rate=60.0)
    runs = {}
    for engine_cls in (Simulation, ColumnarSimulation):
        sanitizer = DeterminismSanitizer()
        work = WorkCounters()
        sim = engine_cls(config, policy="rfh", sanitizer=sanitizer, work=work)
        sim.run(15)
        chains = [r.chain for r in sanitizer.trail().records]
        runs[engine_cls.engine_name] = (chains, work.totals())
    assert runs["scalar"] == runs["columnar"]
    # Under 5% of the partition-epochs carry a query.
    assert 0 < runs["columnar"][1]["partitions_scanned"] < 0.05 * 15 * 2000


@pytest.mark.parametrize("scenario_name", SCENARIOS)
@pytest.mark.parametrize("policy", POLICIES)
def test_provenance_decision_sequences_match(
    policy: str, scenario_name: str
) -> None:
    """The decision ledgers align record for record (provenance disables
    the columnar decision prefilter, so both engines log every
    evaluation)."""
    for seed in SEEDS[:2]:
        scenario = _scenario(scenario_name, seed, epochs=20)
        artifacts = {}
        for engine in ENGINES:
            recorder = ProvenanceRecorder()
            run_experiment(policy, scenario, provenance=recorder, engine=engine)
            artifacts[engine] = recorder.artifact()
        report = diff_provenance(artifacts["scalar"], artifacts["columnar"])
        assert report.identical, (
            f"policy={policy} scenario={scenario_name} seed={seed}: "
            f"{report.describe()}"
        )


def test_every_kernel_branch_is_equivalent(monkeypatch) -> None:
    """Force each serve-kernel code path and re-prove identity.

    The kernel switches between a python small-drain loop and the
    vectorized batch drain at ``_SMALL_DRAIN`` flows, and between a
    python tail walk and the vectorized per-level loop at ``_PY_TAIL``
    survivors.  Default-scale runs only exercise the python branches, so
    this test pins the thresholds to force every combination.
    """
    scenario = _scenario("default", 7, epochs=20)
    reference = _chains("rfh", scenario, "scalar")
    combos = (
        (0, 0),  # vectorized drain + vectorized level loop
        (0, 10**9),  # vectorized drain + python tail
        (10**9, 0),  # python small-drain + vectorized level loop
    )
    for small_drain, py_tail in combos:
        monkeypatch.setattr(columnar_kernels, "_SMALL_DRAIN", small_drain)
        monkeypatch.setattr(columnar_kernels, "_PY_TAIL", py_tail)
        assert _chains("rfh", scenario, "columnar") == reference, (
            f"_SMALL_DRAIN={small_drain} _PY_TAIL={py_tail}"
        )


def test_wan_partition_fallback_is_equivalent() -> None:
    """Link cuts swap in a different router; the columnar engine falls
    back to the scalar serve path for those epochs and must still chain
    identically through the cut-and-restore cycle."""
    epochs = 25
    scenario = dataclasses.replace(
        random_query_scenario(_small_config(11), epochs=epochs),
        chaos=chaos_schedule("wan-partition", epochs),
    )
    for policy in ("rfh", "request"):
        assert _chains(policy, scenario, "scalar") == _chains(
            policy, scenario, "columnar"
        ), f"policy={policy}"


def _replay_births(births: dict[int, dict[int, int]], epoch: int, actions) -> None:
    """RFH's birth ledger as a dict of dicts, ``partition -> {sid: epoch}``."""
    for action in actions:
        if isinstance(action, Replicate):
            births.setdefault(action.partition, {})[action.target_sid] = epoch
        elif isinstance(action, Migrate):
            by_sid = births.setdefault(action.partition, {})
            by_sid[action.target_sid] = epoch
            by_sid.pop(action.source_sid, None)
        elif isinstance(action, Suicide):
            births.get(action.partition, {}).pop(action.sid, None)


def test_cell_mirror_and_birth_ledger_through_failure_join_and_recovery() -> None:
    """A mass failure, a join and a recovery on both engines.  After
    every epoch the columnar mirror's cells and totals are the nonzero
    cells and row sums of the count matrix built from the ReplicaMap
    (the join re-keys them on a wider server axis), and on both engines
    RFH's birth ledger is a dict-of-dicts replay of the actions its
    ``decide()`` returned, births of copies lost with a failed server
    included.  The run is past the suicide warm-up, so Migrate sources
    and Suicides remove births.  The fingerprint chains match."""
    config = _small_config(7, partitions=64, rate=300.0)
    events = (
        MassFailureEvent(epoch=28, count=30),
        ServerJoinEvent(epoch=30, dc=2, count=3),
        ServerRecoveryEvent(epoch=34),
    )
    chains: dict[str, list[str]] = {}
    for engine_cls in (Simulation, ColumnarSimulation):
        sanitizer = DeterminismSanitizer()
        sim = engine_cls(config, policy="rfh", sanitizer=sanitizer)
        for event in events:
            sim.schedule_event(event)
        decided: list = []

        def recording(obs, decide=sim.policy.decide):
            actions = decide(obs)
            decided.append((obs.epoch, actions))
            return actions

        sim.policy.decide = recording
        replay: dict[int, dict[int, int]] = {}
        kinds: set[type] = set()
        orphans = joined = 0
        for _ in range(40):
            sim.step()
            for epoch, actions in decided:
                _replay_births(replay, epoch, actions)
                kinds.update(type(action) for action in actions)
            decided.clear()
            want = {(p, sid): e for p, by_sid in replay.items() for sid, e in by_sid.items()}
            ledger = sim.policy._births
            got = {
                (key >> SID_BITS, key & ((1 << SID_BITS) - 1)): epoch
                for key, epoch in zip(ledger.keys.tolist(), ledger.epochs.tolist())
            }
            assert got == want, f"{engine_cls.engine_name} epoch {sim.clock.epoch}"
            orphans += sum(
                not sim.cluster.server(sid).alive and sim.replicas.count(p, sid) == 0
                for p, sid in want
            )
            if engine_cls is ColumnarSimulation:
                dense = Simulation._replica_count_matrix(sim)
                index, count = sim._state.cells()
                assert sim._state.num_servers == dense.shape[1]
                assert index.tolist() == np.flatnonzero(dense).tolist()
                assert count.tolist() == dense.reshape(-1)[index].tolist()
                assert sim._state.replica_counts().tolist() == dense.sum(axis=1).tolist()
                joined += int(np.count_nonzero(index % dense.shape[1] >= 100))
        assert sim.cluster.num_servers == 103
        assert kinds == {Replicate, Migrate, Suicide}
        assert orphans > 0, "no birth outlived its failed server"
        if engine_cls is ColumnarSimulation:
            assert joined > 0, "no copy landed on a joined server"
        chains[engine_cls.engine_name] = [r.chain for r in sanitizer.trail().records]
    assert chains["scalar"] == chains["columnar"]


def test_engine_metadata_is_stamped() -> None:
    """Artifacts record which engine produced them (`run_benchmarks.py
    --check` and `repro diff` compare like with like via this key)."""
    scenario = _scenario("default", 3, epochs=5)
    for engine in ENGINES:
        sanitizer = DeterminismSanitizer()
        result = run_experiment(
            "rfh", scenario, sanitizer=sanitizer, engine=engine
        )
        assert result.engine == engine
        assert sanitizer.trail().meta["engine"] == engine


if given is not None:

    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        num_partitions=st.integers(min_value=4, max_value=16),
        rate=st.integers(min_value=20, max_value=200),
        num_dcs=st.integers(min_value=3, max_value=10),
        racks=st.integers(min_value=1, max_value=2),
        servers=st.integers(min_value=1, max_value=3),
        policy=st.sampled_from(POLICIES),
    )
    def test_random_small_clusters_are_equivalent(
        seed: int,
        num_partitions: int,
        rate: int,
        num_dcs: int,
        racks: int,
        servers: int,
        policy: str,
    ) -> None:
        """Property: identity holds on arbitrary small topologies, not
        just the paper's 10-site deployment."""
        config = SimulationConfig(
            seed=seed,
            cluster=ClusterParameters(
                racks_per_room=racks, servers_per_rack=servers
            ),
            workload=WorkloadParameters(
                queries_per_epoch_mean=float(rate), num_partitions=num_partitions
            ),
        )
        hierarchy = GeoHierarchy(DEFAULT_SITES[:num_dcs])
        # A ring over the sliced sites (the default link set names all
        # ten letters, so sub-topologies need their own connected WAN).
        names = [site.name for site in hierarchy.sites]
        links = tuple(
            (names[i], names[(i + 1) % len(names)])
            for i in range(len(names) if len(names) > 2 else len(names) - 1)
        )
        wan = build_wan(hierarchy, links)
        chains: dict[str, list[str]] = {}
        for engine_cls in (Simulation, ColumnarSimulation):
            sanitizer = DeterminismSanitizer()
            sim = engine_cls(
                config,
                policy=policy,
                hierarchy=hierarchy,
                wan=wan,
                sanitizer=sanitizer,
            )
            sim.run(8)
            chains[engine_cls.__name__] = [
                r.chain for r in sanitizer.trail().records
            ]
        assert chains["Simulation"] == chains["ColumnarSimulation"]

else:  # pragma: no cover - hypothesis ships with the image

    @pytest.mark.skip(reason="hypothesis is not installed")
    def test_random_small_clusters_are_equivalent() -> None:
        pass


@pytest.fixture(scope="module")
def warm_columnar() -> ColumnarSimulation:
    """A columnar RFH run past its growth burst at 256 partitions."""
    sim = ColumnarSimulation(_small_config(7, partitions=256, rate=1000.0), policy="rfh")
    sim.run(6)
    return sim


if given is not None:

    @settings(max_examples=60, deadline=None)
    @given(
        density=st.sampled_from((0.0, 0.1, 0.5, 1.0)),
        strays=st.integers(min_value=0, max_value=20),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_served_metrics_match_the_dense_formulas(
        warm_columnar: ColumnarSimulation, density: float, strays: int, seed: int
    ) -> None:
        """The columnar ``_served_metrics`` fed served cells equals the
        scalar hook on the dense matrix bit for bit — total served (the
        dense ``sum()``), Eq. 21 utilization and the Eq. 26 load CV —
        and a second call on other cells does too, so nothing of one
        call carries into the next.  ``strays`` served cells sit where
        no copy is left (the apply phase removed it after serve)."""
        sim = warm_columnar
        rng = np.random.default_rng(seed)
        counts = sim._replica_count_matrix()  # the scalar hook, from the ReplicaMap
        capacities = sim._server_capacity_array()
        for _ in range(2):
            served = np.zeros(counts.shape)
            copies = np.nonzero(counts)
            pick = rng.random(copies[0].shape[0]) < density
            limit = counts[copies][pick] * capacities[copies[1][pick]]
            served[copies[0][pick], copies[1][pick]] = limit * rng.random(limit.shape)
            empty = np.flatnonzero(counts == 0)
            stray = rng.choice(empty, size=min(strays, empty.shape[0]), replace=False)
            served.reshape(-1)[stray] = rng.exponential(5.0, stray.shape[0])
            result = dataclasses.replace(
                sim.last_result, served_cells=CellMatrix.from_dense(served)
            )
            got = sim._served_metrics(result)
            want = Simulation._served_metrics(sim, result)
            assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()
            assert got[0] == float(served.sum())

    @settings(max_examples=50, deadline=None)
    @given(
        flows=st.integers(min_value=1, max_value=400),
        cells=st.integers(min_value=1, max_value=35),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_traffic_cells_add_in_scatter_order(flows: int, cells: int, seed: int) -> None:
        """Each traffic cell adds its contributions in input order, as a
        dense ``np.add.at`` scatter does; amounts over 16 orders of
        magnitude make any other order show in the bits."""
        rng = np.random.default_rng(seed)
        key = rng.choice(rng.choice(35, size=cells, replace=False), size=flows)
        amount = rng.exponential(1.0, flows) * 10.0 ** rng.uniform(-8.0, 8.0, flows)
        dense = np.zeros(35)
        np.add.at(dense, key, amount)
        got = columnar_kernels._traffic_cells((7, 5), key, amount)
        assert got.index.tolist() == np.flatnonzero(dense).tolist()
        assert got.dense().reshape(-1).view(np.int64).tolist() == dense.view(np.int64).tolist()
