"""Authoritative replica-placement state.

:class:`ReplicaMap` records, for every partition, which servers hold how
many copies (the paper's ``m_ikt``: "the number of total replicas of
partition B_i that are now in physical node N_k" — a physical node hosts
virtual nodes, so multiplicity > 1 is legal) and which server is the
*primary holder* of the original partition.

Counting convention (used consistently by the Fig. 4 metrics): the
original copy at the holder *is* a replica, so a freshly bootstrapped
partition has replica count 1 and ``m_i,holder = 1``.

Every mutation keeps server storage accounting in sync: adding a copy
stores ``partition_size_mb`` on the target server, removing releases it.
"""

from __future__ import annotations

from collections import defaultdict

from ..errors import ActionError, SimulationError
from .cluster import Cluster

__all__ = ["ReplicaMap"]


class ReplicaMap:
    """Per-partition replica multiset with storage side-effects.

    Parameters
    ----------
    cluster:
        The physical deployment; storage is debited/credited on it.
    num_partitions:
        Number of data partitions (Table I: 64).
    partition_size_mb:
        Size of one partition copy (Table I: 512 KB = 0.5 MB).
    """

    def __init__(self, cluster: Cluster, num_partitions: int, partition_size_mb: float) -> None:
        if num_partitions < 1:
            raise ActionError(f"num_partitions must be >= 1, got {num_partitions}")
        if partition_size_mb <= 0:
            raise ActionError(f"partition_size_mb must be > 0, got {partition_size_mb}")
        self._cluster = cluster
        self._num_partitions = num_partitions
        self._size_mb = float(partition_size_mb)
        self._counts: list[dict[int, int]] = [dict() for _ in range(num_partitions)]
        self._holder: list[int | None] = [None] * num_partitions
        # Lazily-built per-partition grouping {dc: [(sid, count), ...]}.
        self._dc_cache: list[dict[int, list[tuple[int, int]]] | None] = [None] * num_partitions
        # Optional columnar mirror (repro.sim.columnar.state.SimState):
        # notified on every count/holder mutation so the mirror's replica
        # cells can track this map without O(P*S) rebuilds.
        self._mirror = None

    # ------------------------------------------------------------------
    # Columnar mirror
    # ------------------------------------------------------------------
    def attach_mirror(self, mirror) -> None:
        """Attach an object receiving ``on_count(partition, sid, count)``
        and ``on_holder(partition, sid_or_none)`` on every mutation.

        The mirror is responsible for syncing itself to the current state
        at attach time; only one mirror is supported."""
        self._mirror = mirror

    # ------------------------------------------------------------------
    # Bootstrap
    # ------------------------------------------------------------------
    def bootstrap(self, holders: list[int]) -> None:
        """Place the original copy of every partition on its holder."""
        if len(holders) != self._num_partitions:
            raise ActionError(
                f"expected {self._num_partitions} holders, got {len(holders)}"
            )
        for partition, sid in enumerate(holders):
            if self._holder[partition] is not None:
                raise SimulationError(f"partition {partition} already bootstrapped")
            self._holder[partition] = sid
            if self._mirror is not None:
                self._mirror.on_holder(partition, sid)
            self._cluster.server(sid).store(self._size_mb)
            self._add_count(partition, sid)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def partition_size_mb(self) -> float:
        return self._size_mb

    def holder(self, partition: int) -> int:
        """Primary holder's server id.

        Raises :class:`SimulationError` when the partition has lost *all*
        copies and has not been restored yet.
        """
        self._check_partition(partition)
        holder = self._holder[partition]
        if holder is None:
            raise SimulationError(f"partition {partition} currently has no holder")
        return holder

    def has_holder(self, partition: int) -> bool:
        """Whether the partition currently has a primary holder."""
        self._check_partition(partition)
        return self._holder[partition] is not None

    def count(self, partition: int, sid: int) -> int:
        """Copies of ``partition`` on server ``sid`` (``m_ik``)."""
        self._check_partition(partition)
        return self._counts[partition].get(sid, 0)

    def replica_count(self, partition: int) -> int:
        """Total copies of ``partition`` across all servers."""
        self._check_partition(partition)
        return sum(self._counts[partition].values())

    def servers_with(self, partition: int) -> tuple[tuple[int, int], ...]:
        """Sorted ``(sid, count)`` pairs of servers holding the partition."""
        self._check_partition(partition)
        return tuple(sorted(self._counts[partition].items()))

    def replicas_by_dc(self, partition: int) -> dict[int, list[tuple[int, int]]]:
        """Replica layout grouped by datacenter: ``{dc: [(sid, count)]}``.

        Cached until the partition's layout mutates; lists are sorted by
        sid for determinism.  Callers must not mutate the returned
        structure.
        """
        self._check_partition(partition)
        cache = self._dc_cache[partition]
        if cache is None:
            grouped: dict[int, list[tuple[int, int]]] = defaultdict(list)
            for sid, count in sorted(self._counts[partition].items()):
                grouped[self._cluster.dc_of(sid)].append((sid, count))
            cache = dict(grouped)
            self._dc_cache[partition] = cache
        return cache

    def total_replicas(self) -> int:
        """Total copies across all partitions (Fig. 4's "replica number")."""
        return sum(sum(c.values()) for c in self._counts)

    def per_partition_counts(self) -> list[int]:
        """Replica count per partition, index-aligned."""
        return [sum(c.values()) for c in self._counts]

    def partitions_on(self, sid: int) -> tuple[int, ...]:
        """Partitions with at least one copy on server ``sid``."""
        return tuple(
            p for p in range(self._num_partitions) if self._counts[p].get(sid, 0) > 0
        )

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, partition: int, sid: int) -> None:
        """Add one copy on ``sid`` (stores ``partition_size_mb`` there).

        Raises
        ------
        ActionError
            If the target server is down.
        CapacityError
            If the target's raw storage is full.
        """
        self._check_partition(partition)
        server = self._cluster.server(sid)
        if not server.alive:
            raise ActionError(f"cannot place partition {partition} on down server {sid}")
        server.store(self._size_mb)
        self._add_count(partition, sid)

    def remove(self, partition: int, sid: int) -> None:
        """Remove one copy from ``sid`` (releases its storage).

        The last remaining copy of a partition cannot be removed — that
        would be data loss by policy action, which no algorithm in the
        paper performs voluntarily.
        """
        self._check_partition(partition)
        current = self._counts[partition].get(sid, 0)
        if current <= 0:
            raise ActionError(f"no copy of partition {partition} on server {sid}")
        if self.replica_count(partition) <= 1:
            raise ActionError(
                f"refusing to remove the last copy of partition {partition}"
            )
        server = self._cluster.server(sid)
        if server.alive:
            server.release(self._size_mb)
        if current == 1:
            del self._counts[partition][sid]
        else:
            self._counts[partition][sid] = current - 1
        self._dc_cache[partition] = None
        if self._mirror is not None:
            self._mirror.on_count(partition, sid, current - 1)
        # Keep the holder pointer on a server that still has a copy.
        if self._holder[partition] == sid and self._counts[partition].get(sid, 0) == 0:
            self._holder[partition] = min(self._counts[partition])
            if self._mirror is not None:
                self._mirror.on_holder(partition, self._holder[partition])

    def move(self, partition: int, src_sid: int, dst_sid: int) -> None:
        """Migrate one copy from ``src_sid`` to ``dst_sid`` atomically."""
        if src_sid == dst_sid:
            raise ActionError(f"migration source and destination are both {src_sid}")
        # Add first so the partition never transiently loses its last copy.
        self.add(partition, dst_sid)
        self.remove(partition, src_sid)

    def set_holder(self, partition: int, sid: int) -> None:
        """Point the primary-holder role at ``sid`` (must hold a copy)."""
        self._check_partition(partition)
        if self._counts[partition].get(sid, 0) <= 0:
            raise ActionError(
                f"server {sid} holds no copy of partition {partition}; cannot be holder"
            )
        self._holder[partition] = sid
        if self._mirror is not None:
            self._mirror.on_holder(partition, sid)

    # ------------------------------------------------------------------
    # Failure handling
    # ------------------------------------------------------------------
    def drop_server(self, sid: int) -> tuple[int, ...]:
        """Erase all copies on a failed server; returns affected partitions.

        Storage is *not* released through :meth:`Server.release` — the
        server wiped its own disk in :meth:`Server.fail`.  Partitions that
        lose their holder are re-pointed at the surviving copy with the
        lowest sid; partitions that lose *every* copy get holder ``None``
        (the engine restores them, see Fig. 10 recovery).
        """
        affected: list[int] = []
        for partition in range(self._num_partitions):
            if self._counts[partition].pop(sid, 0) > 0:
                affected.append(partition)
                self._dc_cache[partition] = None
                if self._mirror is not None:
                    self._mirror.on_count(partition, sid, 0)
                if self._holder[partition] == sid:
                    survivors = self._counts[partition]
                    self._holder[partition] = min(survivors) if survivors else None
                    if self._mirror is not None:
                        self._mirror.on_holder(partition, self._holder[partition])
        return tuple(affected)

    def restore(self, partition: int, sid: int) -> None:
        """Re-create a fully-lost partition on ``sid`` as its new holder."""
        self._check_partition(partition)
        if self._holder[partition] is not None:
            raise SimulationError(f"partition {partition} still has a holder")
        self._holder[partition] = sid
        if self._mirror is not None:
            self._mirror.on_holder(partition, sid)
        server = self._cluster.server(sid)
        server.store(self._size_mb)
        self._add_count(partition, sid)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _add_count(self, partition: int, sid: int) -> None:
        counts = self._counts[partition]
        counts[sid] = counts.get(sid, 0) + 1
        self._dc_cache[partition] = None
        if self._mirror is not None:
            self._mirror.on_count(partition, sid, counts[sid])

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self._num_partitions:
            raise ActionError(f"unknown partition: {partition}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaMap(partitions={self._num_partitions}, "
            f"total_replicas={self.total_replicas()})"
        )
