"""Runtime conservation invariants over the engine's world state.

The simulation mutates three coupled structures every epoch — cluster
(liveness, storage), replica map (placement multiset, holder pointers)
and ring — through many code paths (membership events, restores, policy
actions, chaos injections).  :class:`InvariantChecker` re-derives the
relationships those paths must preserve and validates them at every
epoch boundary:

* **no-copy-on-dead-server** — a failed server's disk is wiped, so no
  partition may still count copies there;
* **live-holder** — every partition with at least one copy has a holder
  pointer, the holder is alive, and it actually holds a copy; at epoch
  end (post-restore) every partition has at least one copy;
* **replica-matrix** — the per-server counts, per-partition totals,
  per-DC grouping and the global total all describe the same multiset
  (guards the ``ReplicaMap`` layout updates);
* **storage-accounting** — every alive server's storage equals its
  copies × partition size, usage is within ``[0, capacity]``, and the
  per-DC sums add up to the global ``total_replicas × size``.

A failed check raises (strict mode) or collects a structured
:class:`InvariantViolation` naming the epoch and the offending
partition/server; the engine traces each violation through
``repro.obs`` before raising.
"""

from __future__ import annotations

from ..cluster.cluster import Cluster
from ..cluster.replicas import ReplicaMap
from ..errors import SimulationError

__all__ = ["InvariantViolation", "InvariantChecker", "INVARIANT_NAMES"]

#: Every invariant the checker validates, for consumers that group by it.
INVARIANT_NAMES: tuple[str, ...] = (
    "no-copy-on-dead-server",
    "live-holder",
    "replica-matrix",
    "storage-accounting",
)


class InvariantViolation(SimulationError):
    """One broken invariant, pinned to an epoch and an offender.

    Attributes
    ----------
    invariant:
        Which rule broke (one of :data:`INVARIANT_NAMES`).
    epoch:
        Epoch the check ran at.
    partition / server:
        The offending partition / server id, when one exists.
    detail:
        Human-readable specifics (expected vs actual).
    """

    def __init__(
        self,
        invariant: str,
        epoch: int,
        detail: str,
        *,
        partition: int | None = None,
        server: int | None = None,
    ) -> None:
        self.invariant = invariant
        self.epoch = epoch
        self.partition = partition
        self.server = server
        self.detail = detail
        where = f"invariant {invariant!r} violated at epoch {epoch}"
        if partition is not None:
            where += f", partition {partition}"
        if server is not None:
            where += f", server {server}"
        super().__init__(f"{where}: {detail}")


class InvariantChecker:
    """Validates the conservation invariants of one world state.

    Parameters
    ----------
    strict:
        When True (the default), the engine raises the first violation;
        when False it only traces/counts them and the run continues —
        useful for harvesting every inconsistency of a buggy build in
        one pass.
    tolerance_mb:
        Absolute slack for floating-point storage comparisons.
    """

    def __init__(self, strict: bool = True, tolerance_mb: float = 1e-6) -> None:
        self.strict = strict
        self.tolerance_mb = float(tolerance_mb)
        #: Total violations seen across all :meth:`collect` calls.
        self.violations_seen = 0

    # ------------------------------------------------------------------
    def collect(
        self, epoch: int, cluster: Cluster, replicas: ReplicaMap
    ) -> list[InvariantViolation]:
        """Return every violation of the current state (empty == healthy)."""
        out: list[InvariantViolation] = []
        size = replicas.partition_size_mb
        expected_mb: dict[int, float] = {}

        for partition in range(replicas.num_partitions):
            entries = replicas.servers_with(partition)
            total = 0
            for sid, count in entries:
                if count <= 0:
                    out.append(
                        InvariantViolation(
                            "replica-matrix",
                            epoch,
                            f"non-positive replica count {count}",
                            partition=partition,
                            server=sid,
                        )
                    )
                total += count
                expected_mb[sid] = expected_mb.get(sid, 0.0) + count * size
                if not cluster.server(sid).alive:
                    out.append(
                        InvariantViolation(
                            "no-copy-on-dead-server",
                            epoch,
                            f"{count} copies recorded on a failed server",
                            partition=partition,
                            server=sid,
                        )
                    )
            if total != replicas.replica_count(partition):
                out.append(
                    InvariantViolation(
                        "replica-matrix",
                        epoch,
                        f"servers_with sums to {total} but replica_count says "
                        f"{replicas.replica_count(partition)}",
                        partition=partition,
                    )
                )
            out.extend(self._check_holder(epoch, cluster, replicas, partition, total))
            out.extend(self._check_dc_grouping(epoch, cluster, replicas, partition, entries))

        out.extend(self._check_storage(epoch, cluster, replicas, expected_mb))

        per_partition = sum(replicas.per_partition_counts())
        if per_partition != replicas.total_replicas():
            out.append(
                InvariantViolation(
                    "replica-matrix",
                    epoch,
                    f"per-partition counts sum to {per_partition} but "
                    f"total_replicas says {replicas.total_replicas()}",
                )
            )
        self.violations_seen += len(out)
        return out

    def check(self, epoch: int, cluster: Cluster, replicas: ReplicaMap) -> None:
        """Raise the first violation found, if any."""
        violations = self.collect(epoch, cluster, replicas)
        if violations:
            raise violations[0]

    # ------------------------------------------------------------------
    def _check_holder(
        self,
        epoch: int,
        cluster: Cluster,
        replicas: ReplicaMap,
        partition: int,
        total: int,
    ) -> list[InvariantViolation]:
        out: list[InvariantViolation] = []
        if not replicas.has_holder(partition):
            # The engine restores fully-lost partitions before serving,
            # so a missing holder at a check point is a conservation bug
            # whether or not stray copies remain.
            out.append(
                InvariantViolation(
                    "live-holder",
                    epoch,
                    f"partition has {total} copies but no holder pointer",
                    partition=partition,
                )
            )
            return out
        holder = replicas.holder(partition)
        if not cluster.server(holder).alive:
            out.append(
                InvariantViolation(
                    "live-holder",
                    epoch,
                    "holder points at a failed server",
                    partition=partition,
                    server=holder,
                )
            )
        if replicas.count(partition, holder) < 1:
            out.append(
                InvariantViolation(
                    "live-holder",
                    epoch,
                    "holder holds no copy of its own partition",
                    partition=partition,
                    server=holder,
                )
            )
        return out

    def _check_dc_grouping(
        self,
        epoch: int,
        cluster: Cluster,
        replicas: ReplicaMap,
        partition: int,
        entries: tuple[tuple[int, int], ...],
    ) -> list[InvariantViolation]:
        out: list[InvariantViolation] = []
        grouped = replicas.replicas_by_dc(partition)
        flat: list[tuple[int, int]] = []
        for dc, dc_entries in grouped.items():
            for sid, count in dc_entries:
                flat.append((sid, count))
                if cluster.dc_of(sid) != dc:
                    out.append(
                        InvariantViolation(
                            "replica-matrix",
                            epoch,
                            f"dc grouping files server under dc {dc} but it lives "
                            f"in dc {cluster.dc_of(sid)}",
                            partition=partition,
                            server=sid,
                        )
                    )
        if sorted(flat) != sorted(entries):
            out.append(
                InvariantViolation(
                    "replica-matrix",
                    epoch,
                    f"dc grouping {sorted(flat)} disagrees with "
                    f"servers_with {sorted(entries)}",
                    partition=partition,
                )
            )
        return out

    def _check_storage(
        self,
        epoch: int,
        cluster: Cluster,
        replicas: ReplicaMap,
        expected_mb: dict[int, float],
    ) -> list[InvariantViolation]:
        out: list[InvariantViolation] = []
        tol = self.tolerance_mb
        total_used = 0.0
        for server in cluster.servers:
            used = server.storage_used_mb
            if used < -tol:
                out.append(
                    InvariantViolation(
                        "storage-accounting",
                        epoch,
                        f"negative storage {used} MB",
                        server=server.sid,
                    )
                )
            if used > server.storage_capacity_mb + tol:
                out.append(
                    InvariantViolation(
                        "storage-accounting",
                        epoch,
                        f"storage {used} MB exceeds capacity "
                        f"{server.storage_capacity_mb} MB",
                        server=server.sid,
                    )
                )
            if server.alive:
                expected = expected_mb.get(server.sid, 0.0)
                if abs(used - expected) > tol:
                    out.append(
                        InvariantViolation(
                            "storage-accounting",
                            epoch,
                            f"stores {used} MB but replica map accounts for "
                            f"{expected} MB",
                            server=server.sid,
                        )
                    )
                total_used += used
        expected_total = replicas.total_replicas() * replicas.partition_size_mb
        # Per-DC sums must add up across the deployment (dead servers
        # hold nothing, so alive-only total is the global total).
        if abs(total_used - expected_total) > tol * max(1, cluster.num_servers):
            out.append(
                InvariantViolation(
                    "storage-accounting",
                    epoch,
                    f"cluster stores {total_used} MB across datacenters but "
                    f"{replicas.total_replicas()} copies account for "
                    f"{expected_total} MB",
                )
            )
        return out
