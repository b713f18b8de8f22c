"""The immutable per-epoch snapshot handed to replication policies.

Policies are *pure observers* (DESIGN.md Section 5): they see one
:class:`EpochObservation` per epoch and return actions; the engine owns
all mutation.  The observation bundles everything any of the four
algorithms consults:

* the raw query matrix ``q_ijt`` (Eq. 9 inputs),
* the epoch's service result: per-(partition, datacenter) traffic
  ``tr_ikt`` (Eq. 8 outputs) and per-(partition, server) served counts
  (utilization, Eq. 20 inputs), both kept as their nonzero cells,
* per-server blocking probabilities (Eq. 18),
* replica layout, cluster and router references (read-only by contract),
* the availability floor ``r_min`` (Eq. 14) and the RFH parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.replicas import ReplicaMap
from ..config import RFHParameters
from ..net.routing import Router
from ..workload.query import QueryBatch

if TYPE_CHECKING:
    from ..core.traffic import ServiceResult

__all__ = ["EpochObservation"]


@dataclass(frozen=True)
class EpochObservation:
    """Read-only world state at the end of one epoch's service phase.

    Attributes
    ----------
    epoch:
        The epoch index just served.
    queries:
        The epoch's query matrix (``q_ijt``; partitions x datacenters).
    result:
        The epoch's service outcome.  Its traffic and served matrices
        are kept as their nonzero cells; :attr:`traffic_dc`,
        :attr:`served_server`, :attr:`unserved` and
        :attr:`holder_traffic` read them from here.
    blocking_probability:
        Length-``S`` array: each server's Erlang-B blocking probability
        estimate (Eq. 18), 1.0 for dead servers.
    replicas:
        The replica layout.  **Read-only by contract** — policies must
        only call query methods.
    cluster:
        The physical deployment.  Read-only by contract.
    router:
        WAN shortest-path oracle (paths, distances, hop counts).
    rmin:
        Minimum replica count satisfying the availability floor
        (Eq. 14) under the configured failure rate.
    params:
        The RFH control constants (thresholds are shared with baselines
        so all algorithms use one overload definition).
    partition_size_mb:
        Size of one partition copy (for storage-gate checks).
    """

    epoch: int
    queries: QueryBatch
    result: ServiceResult
    blocking_probability: np.ndarray
    replicas: ReplicaMap
    cluster: Cluster
    router: Router
    rmin: int
    params: RFHParameters
    partition_size_mb: float

    # ------------------------------------------------------------------
    # Convenience queries shared by several policies
    # ------------------------------------------------------------------
    @property
    def traffic_dc(self) -> np.ndarray:
        """``(P, D)`` Eq. 8 traffic — the flow *arriving* at each
        datacenter after upstream replicas absorbed their share (the
        serving site's own service is not subtracted).  Rebuilt dense
        from the cells on every access."""
        return self.result.traffic_dc

    @property
    def served_server(self) -> np.ndarray:
        """``(P, S)`` queries of partition ``i`` served by server ``sid``;
        ``S`` is ``cluster.num_servers`` (dead servers' columns are
        zero).  Rebuilt dense from the cells on every access."""
        return self.result.served_server

    @property
    def unserved(self) -> np.ndarray:
        """Length-``P``: queries that overflowed every replica
        *including* the holder (blocked this epoch)."""
        return self.result.unserved

    @property
    def holder_traffic(self) -> np.ndarray:
        """Length-``P``: Eq. 12's ``tr_iit`` — the flow that reached the
        holder *server* itself after every other replica on the path
        (including co-located ones) absorbed its share."""
        return self.result.holder_traffic

    @property
    def num_partitions(self) -> int:
        return self.queries.num_partitions

    @property
    def num_datacenters(self) -> int:
        return self.queries.num_origins

    def system_average_query(self) -> np.ndarray:
        """Eq. 9's per-partition average query over requesters (raw)."""
        return self.queries.system_average_query()

    def holder_dc(self, partition: int) -> int:
        """Datacenter of the partition's primary holder."""
        return self.cluster.dc_of(self.replicas.holder(partition))

    def partition_traffic_mean(self, partition: int) -> float:
        """Eq. 17: average traffic of all datacenters for one partition."""
        return float(self.result.traffic_cells.row(partition).mean())
