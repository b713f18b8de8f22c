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

from bisect import bisect_left
from itertools import chain
from operator import itemgetter

from ..errors import ActionError, SimulationError
from .cluster import Cluster

__all__ = ["ReplicaMap"]

#: One partition's copies: ``(sid, count)`` pairs sorted by sid.
Layout = tuple[tuple[int, int], ...]

_COUNT = itemgetter(1)


def _find(layout: Layout, sid: int) -> tuple[int, int]:
    """``(position, count)`` of ``sid`` in ``layout``: its pair's index and
    copies, or the index its pair would take and 0.

    ``(sid,)`` sorts before every ``(sid, count)`` and after every pair
    of a smaller sid, so :func:`bisect_left` lands on ``sid``'s pair.
    """
    i = bisect_left(layout, (sid,))
    if i < len(layout) and layout[i][0] == sid:
        return i, layout[i][1]
    return i, 0


class ReplicaMap:
    """Per-partition replica multiset with storage side-effects.

    Each partition's layout is one tuple of ``(sid, count)`` pairs sorted
    by sid, replaced (never edited) on every mutation: a new tuple is the
    old one with one pair inserted, replaced or cut out at its
    :func:`bisect` position.  A pair with count 1 is the one ``(sid, 1)``
    tuple this map keeps per server, so the common single copy costs a
    pointer.  :meth:`servers_with` returns the layout itself, and
    :meth:`replicas_by_dc` groups it on each call.

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
        self._layout: list[Layout] = [()] * num_partitions
        self._holder: list[int | None] = [None] * num_partitions
        # _ones[sid] is the shared (sid, 1) pair, grown as sids appear.
        self._ones: list[tuple[int, int]] = []
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
        at attach time (see :meth:`holders_and_layouts`); only one mirror
        is supported."""
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
        return _find(self._layout[partition], sid)[1]

    def replica_count(self, partition: int) -> int:
        """Total copies of ``partition`` across all servers."""
        self._check_partition(partition)
        return sum(map(_COUNT, self._layout[partition]))

    def servers_with(self, partition: int) -> Layout:
        """Sorted ``(sid, count)`` pairs of servers holding the partition."""
        self._check_partition(partition)
        return self._layout[partition]

    def replicas_by_dc(self, partition: int) -> dict[int, list[tuple[int, int]]]:
        """Replica layout grouped by datacenter: ``{dc: [(sid, count)]}``.

        Grouped from the layout tuple on each call, so datacenters appear
        in the order of their lowest sid and each list is sorted by sid.
        """
        self._check_partition(partition)
        grouped: dict[int, list[tuple[int, int]]] = {}
        for pair in self._layout[partition]:
            grouped.setdefault(self._cluster.dc_of(pair[0]), []).append(pair)
        return grouped

    def total_replicas(self) -> int:
        """Total copies across all partitions (Fig. 4's "replica number")."""
        return sum(map(_COUNT, chain.from_iterable(self._layout)))

    def per_partition_counts(self) -> list[int]:
        """Replica count per partition, index-aligned."""
        return [sum(map(_COUNT, layout)) for layout in self._layout]

    def partitions_on(self, sid: int) -> tuple[int, ...]:
        """Partitions with at least one copy on server ``sid``."""
        return tuple(
            partition
            for partition, layout in enumerate(self._layout)
            if _find(layout, sid)[1] > 0
        )

    def holders_and_layouts(self) -> tuple[tuple[int | None, ...], tuple[Layout, ...]]:
        """Every partition's holder (``None`` for a fully-lost partition)
        and layout tuple, index-aligned, for a mirror's attach-time sync."""
        return tuple(self._holder), tuple(self._layout)

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
        layout = self._layout[partition]
        i, current = _find(layout, sid)
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
            layout = layout[:i] + layout[i + 1 :]
        else:
            layout = layout[:i] + (self._pair(sid, current - 1),) + layout[i + 1 :]
        self._layout[partition] = layout
        if self._mirror is not None:
            self._mirror.on_count(partition, sid, current - 1)
        # Keep the holder pointer on a server that still has a copy: the
        # first pair, the lowest surviving sid.
        if self._holder[partition] == sid and current == 1:
            self._holder[partition] = layout[0][0]
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
        if self.count(partition, sid) <= 0:
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
        for partition, layout in enumerate(self._layout):
            i, count = _find(layout, sid)
            if count <= 0:
                continue
            layout = layout[:i] + layout[i + 1 :]
            self._layout[partition] = layout
            affected.append(partition)
            if self._mirror is not None:
                self._mirror.on_count(partition, sid, 0)
            if self._holder[partition] == sid:
                self._holder[partition] = layout[0][0] if layout else None
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
    def _pair(self, sid: int, count: int) -> tuple[int, int]:
        """The ``(sid, count)`` pair, shared per server when count is 1."""
        if count != 1:
            return (sid, count)
        ones = self._ones
        if sid >= len(ones):
            ones.extend((s, 1) for s in range(len(ones), sid + 1))
        return ones[sid]

    def _add_count(self, partition: int, sid: int) -> None:
        layout = self._layout[partition]
        i, count = _find(layout, sid)
        if count:
            count += 1
            layout = layout[:i] + ((sid, count),) + layout[i + 1 :]
        else:
            count = 1
            layout = layout[:i] + (self._pair(sid, 1),) + layout[i:]
        self._layout[partition] = layout
        if self._mirror is not None:
            self._mirror.on_count(partition, sid, count)

    def _check_partition(self, partition: int) -> None:
        if not 0 <= partition < self._num_partitions:
            raise ActionError(f"unknown partition: {partition}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaMap(partitions={self._num_partitions}, "
            f"total_replicas={self.total_replicas()})"
        )
