"""Memory guards: each partition × site matrix on the RFH path exists once.

M below is one dense ``(P, S)`` float64 matrix.  RFH's own state is two
such matrices — the Eq. 11 traffic EWMA and the served EWMA — and an
epoch step allocates the new query counts and service result while the
previous result is already released.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np

from repro.config import ClusterParameters, SimulationConfig, WorkloadParameters
from repro.core import RFHPolicy
from repro.geo import build_synthetic_hierarchy
from repro.net import build_ring_wan
from repro.sim.columnar import ColumnarSimulation

MB = 1 << 20


def test_policy_retains_only_its_two_ewma_states() -> None:
    """Two traffic + served updates keep 2·M, not a scratch copy each."""
    rng = np.random.default_rng(5)
    traffic = rng.exponential(3.0, (4000, 100))
    served = rng.exponential(3.0, (4000, 100))
    matrix = traffic.nbytes
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


def test_columnar_step_peak_stays_within_two_matrices() -> None:
    """One warm epoch on the 100-site ring raises the traced peak by at
    most 2·M: the previous result is freed before the next is built."""
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
    assert rise <= 2 * matrix, f"step peak rose {rise / matrix:.2f} M"
