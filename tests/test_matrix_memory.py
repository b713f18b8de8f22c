"""Memory guards: each partition × site matrix on the RFH path exists once.

M below is one dense ``(P, S)`` float64 matrix.  RFH's own state — the
Eq. 11 traffic EWMA and the served EWMA — is at most two such matrices,
and only the rows of partitions that have seen traffic are stored.  The
epoch's query batch and service result keep only their nonzero cells,
the record phase sums the served cells without a dense scratch, and the
replica mirror and RFH's birth ledger keep only their cells.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.config import ClusterParameters, SimulationConfig, WorkloadParameters
from repro.core import RFHPolicy
from repro.core.traffic import CellMatrix
from repro.geo import build_synthetic_hierarchy
from repro.net import build_ring_wan
from repro.sim.columnar import ColumnarSimulation
from repro.sim.columnar.state import SimState
from repro.sim.rng import RngTree
from repro.workload import QueryGenerator, UniformPattern

MB = 1 << 20


def test_policy_retains_only_its_two_ewma_states() -> None:
    """Two traffic + served updates keep 2·M, not a scratch copy each."""
    rng = np.random.default_rng(5)
    traffic = CellMatrix.from_dense(rng.exponential(3.0, (4000, 100)))
    served = CellMatrix.from_dense(rng.exponential(3.0, (4000, 100)))
    matrix = traffic.shape[0] * traffic.shape[1] * 8
    policy = RFHPolicy()
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            policy._update_traffic(traffic)
            policy._update_served(served)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    assert retained <= 2 * matrix + MB, f"retained {retained / matrix:.2f} M"


def test_policy_ewma_states_keep_only_active_rows() -> None:
    """After a warm columnar step at 4,000 partitions × 100 sites (Zipf
    2.0, so few partitions ever see a query), RFH's traffic and served
    EWMAs together retain at most 0.1·M, not two dense matrices."""
    hierarchy = build_synthetic_hierarchy(100)
    config = SimulationConfig(
        seed=11,
        cluster=ClusterParameters(
            rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=2000.0, num_partitions=4000, zipf_exponent=2.0
        ),
    )
    gc.collect()
    # Tracing starts before the first epoch: the states are built then.
    tracemalloc.start()
    try:
        sim = ColumnarSimulation(
            config,
            policy="rfh",
            hierarchy=hierarchy,
            wan=build_ring_wan(hierarchy),
            invariants=False,
        )
        sim.run(5)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        sim.policy._traffic = sim.policy._served = None
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    matrix = config.workload.num_partitions * sim.cluster.num_servers * 8
    assert retained <= 0.1 * matrix, f"EWMA states retained {retained / matrix:.2f} M"


def test_columnar_step_peak_stays_within_two_matrices() -> None:
    """One warm epoch on the 100-site ring raises the traced peak by at
    most 1·M: the previous result is freed before the next is built, and
    the query batch holds its nonzero cells, not a dense matrix."""
    hierarchy = build_synthetic_hierarchy(100)
    config = SimulationConfig(
        seed=11,
        cluster=ClusterParameters(
            rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=2000.0, num_partitions=4000
        ),
    )
    sim = ColumnarSimulation(
        config,
        policy="rfh",
        hierarchy=hierarchy,
        wan=build_ring_wan(hierarchy),
        invariants=False,
    )
    sim.run(4)
    matrix = config.workload.num_partitions * sim.cluster.num_servers * 8
    gc.collect()
    tracemalloc.start()
    try:
        # Tracing starts one epoch early so the result the measured step
        # releases was itself traced.
        sim.step()
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sim.step()
        rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rise <= matrix, f"step peak rose {rise / matrix:.2f} M"


def test_last_result_keeps_only_its_cells() -> None:
    """After a warm epoch on the 100-site ring, the service result the
    engine keeps in ``last_result`` holds at most 0.1·M: its served and
    traffic cells and two length-P vectors, not two dense matrices."""
    hierarchy = build_synthetic_hierarchy(100)
    config = SimulationConfig(
        seed=11,
        cluster=ClusterParameters(
            rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=2000.0, num_partitions=4000
        ),
    )
    sim = ColumnarSimulation(
        config,
        policy="rfh",
        hierarchy=hierarchy,
        wan=build_ring_wan(hierarchy),
        invariants=False,
    )
    sim.run(4)
    matrix = config.workload.num_partitions * sim.cluster.num_servers * 8
    gc.collect()
    tracemalloc.start()
    try:
        sim.step()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        sim.last_result = None
        gc.collect()
        retained = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 0.1 * matrix, f"last_result retained {retained / matrix:.2f} M"


def test_columnar_engine_holds_no_dense_float_matrix() -> None:
    """After a warm columnar run on the 100-site ring, no array the
    engine holds is a dense ``(P, S)`` float64 matrix, and one
    ``_served_metrics`` call (served total, utilization and load CV from
    the served cells) raises the traced peak by at most 1 MB."""
    hierarchy = build_synthetic_hierarchy(100)
    config = SimulationConfig(
        seed=11,
        cluster=ClusterParameters(
            rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=2000.0, num_partitions=4000
        ),
    )
    sim = ColumnarSimulation(
        config,
        policy="rfh",
        hierarchy=hierarchy,
        wan=build_ring_wan(hierarchy),
        invariants=False,
    )
    sim.run(5)
    cells = config.workload.num_partitions * sim.cluster.num_servers
    dense = [
        name
        for name, value in vars(sim).items()
        if isinstance(value, np.ndarray)
        and value.dtype == np.float64
        and value.size >= cells
    ]
    assert dense == []
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sim._served_metrics(sim.last_result)
        rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert rise <= MB, f"_served_metrics peak rose {rise / MB:.2f} MB"


def test_generated_batch_keeps_only_its_cells() -> None:
    """At 2×10⁴ partitions × 100 sites, generating the first and a
    steady epoch each raises the traced peak by at most 0.05·M, where M
    is one dense P·D matrix (16 MB), and the batch keeps at most 1 MB —
    its λ-bounded cells."""
    num_partitions, num_sites = 20_000, 100
    matrix = num_partitions * num_sites * 8
    params = WorkloadParameters(
        queries_per_epoch_mean=10_000.0, num_partitions=num_partitions
    )
    pattern = UniformPattern(num_partitions, num_sites, 2.0)
    gen = QueryGenerator(params, pattern, RngTree(7).stream("wl"))
    gc.collect()
    tracemalloc.start()
    try:
        for epoch in range(2):
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            batch = gen.generate(epoch)
            gc.collect()
            current, peak = tracemalloc.get_traced_memory()
            assert batch.num_partitions == num_partitions
            assert batch.total > 0
            del batch
            rise, kept = peak - start, current - start
            assert rise <= 0.05 * matrix, f"epoch {epoch} peak rose {rise / matrix:.3f} M"
            assert kept <= MB, f"epoch {epoch} batch kept {kept / MB:.2f} MB"
    finally:
        tracemalloc.stop()


def test_replica_mirror_is_int32_and_sums_in_int64() -> None:
    """The mirror's cells keep int32 counts under an int64 row-major
    index, re-keyed when a join widens the server axis; a count of zero
    drops its cell; per-partition totals stay int64."""
    state = SimState(4, 3)
    state.on_count(1, 2, 3)
    state.on_count(1, 5, 2)  # a copy on a joined server widens the axis
    assert state.num_servers == 6
    index, count = state.cells()
    assert index.dtype == np.int64 and count.dtype == np.int32
    assert index.tolist() == [1 * 6 + 2, 1 * 6 + 5] and count.tolist() == [3, 2]
    state.ensure_servers(8)
    index, count = state.cells()
    assert index.tolist() == [1 * 8 + 2, 1 * 8 + 5] and count.dtype == np.int32
    state.on_count(1, 2, 0)
    state.on_count(0, 7, 1)
    index, count = state.cells()
    assert index.tolist() == [0 * 8 + 7, 1 * 8 + 5] and count.tolist() == [1, 2]
    totals = state.replica_counts()
    assert totals.dtype == np.int64 and totals.tolist() == [1, 2, 0, 0]


def test_replica_cells_and_births_stay_small_at_scale() -> None:
    """At 2×10⁴ partitions × 100 sites after 5 epochs, RFH's growth
    burst included, the mirror's cells and the birth ledger hold at
    most 1 MB together (a dense int32 mirror alone is 8 MB), and no
    array attribute of the engine, its mirror or the policy has P·S or
    more elements."""
    hierarchy = build_synthetic_hierarchy(100)
    config = SimulationConfig(
        seed=11,
        cluster=ClusterParameters(
            rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=10_000.0, num_partitions=20_000, zipf_exponent=2.0
        ),
    )
    sim = ColumnarSimulation(
        config,
        policy="rfh",
        hierarchy=hierarchy,
        wan=build_ring_wan(hierarchy),
        invariants=False,
    )
    sim.run(5)
    state, births = sim._state, sim.policy._births
    index, count = state.cells()
    held = index.nbytes + count.nbytes + births.keys.nbytes + births.epochs.nbytes
    assert held <= MB, f"cells and births hold {held / MB:.2f} MB"
    owners = {
        "engine": vars(sim),
        "state": {name: getattr(state, name) for name in SimState.__slots__},
        "policy": vars(sim.policy),
    }
    cells = config.workload.num_partitions * sim.cluster.num_servers
    large = [
        f"{owner}.{name}"
        for owner, attributes in owners.items()
        for name, value in attributes.items()
        if isinstance(value, np.ndarray) and value.size >= cells
    ]
    assert large == []


def test_columnar_engine_keeps_no_object_per_partition_or_route() -> None:
    """At 2×10⁴ partitions × 100 sites, constructing the columnar RFH
    engine keeps at most 7 MB traced, and five epochs from the cold
    start, growth burst included, raise the traced peak to at most 20 MB
    above the start.  A dict per partition in the replica map, a Python
    int per partition key, a tuple per route and a boxed float per route
    level kept 11.5 MiB at construction and peaked 28.3 MiB above the
    start."""
    hierarchy = build_synthetic_hierarchy(100)
    wan = build_ring_wan(hierarchy)
    config = SimulationConfig(
        seed=11,
        cluster=ClusterParameters(
            rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=10_000.0, num_partitions=20_000, zipf_exponent=2.0
        ),
    )
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        sim = ColumnarSimulation(
            config, policy="rfh", hierarchy=hierarchy, wan=wan, invariants=False
        )
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - start
        tracemalloc.reset_peak()
        sim.run(5)
        rise = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert kept <= 7 * MB, f"constructor kept {kept / MB:.2f} MB"
    assert rise <= 20 * MB, f"five epochs peaked {rise / MB:.2f} MB above the start"
