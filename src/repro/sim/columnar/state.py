"""Dense mirrors of the authoritative scalar state.

:class:`SimState` is the columnar engine's view of the
:class:`~repro.cluster.replicas.ReplicaMap`: a ``(P, S)`` replica-count
matrix plus a partition→holder index, kept in sync through the map's
mutation callbacks (``attach_mirror``) instead of O(P·S) rebuilds.  The
``ReplicaMap`` stays the single source of truth — every mutation still
goes through it, and the sanitizer keeps fingerprinting the map itself —
so the mirror can never *cause* divergence, only go stale (guarded by
the version counter and the equivalence suite).
"""

from __future__ import annotations

import numpy as np

from ...cluster.replicas import ReplicaMap

__all__ = ["SimState"]


class SimState:
    """Columnar replica-layout mirror.

    Attributes
    ----------
    R:
        ``(P, S)`` int32 replica-count matrix (the paper's ``m_ikt``).
        Copy counts are small, so int32 halves its footprint; sums over
        it are taken in int64.  ``S`` grows in place when servers join.
    holder:
        ``(P,)`` int64 primary-holder server id per partition; ``-1``
        marks a partition whose every copy is lost.
    version:
        Monotonic mutation counter; derived caches (slot CSR,
        availability summary) key off it.
    """

    __slots__ = ("R", "holder", "version", "_num_partitions", "_counts")

    def __init__(self, num_partitions: int, num_servers: int) -> None:
        self._num_partitions = num_partitions
        self.R = np.zeros((num_partitions, num_servers), dtype=np.int32)
        self.holder = np.full(num_partitions, -1, dtype=np.int64)
        self.version = 0
        # Per-partition copy totals, maintained incrementally by
        # ``on_count`` (integer add/subtract, so always exactly the row
        # sum of ``R``) — callers treat the array as read-only.
        self._counts = np.zeros(num_partitions, dtype=np.int64)

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def num_servers(self) -> int:
        return int(self.R.shape[1])

    def replica_counts(self) -> np.ndarray:
        """Per-partition total copies (length P, read-only)."""
        return self._counts

    # ------------------------------------------------------------------
    # ReplicaMap mirror protocol
    # ------------------------------------------------------------------
    def on_count(self, partition: int, sid: int, count: int) -> None:
        """One (partition, server) count changed on the authoritative map."""
        if sid >= self.R.shape[1]:
            self.ensure_servers(sid + 1)
        self._counts[partition] += count - int(self.R[partition, sid])
        self.R[partition, sid] = count
        self.version += 1

    def on_holder(self, partition: int, sid: int | None) -> None:
        """The primary-holder pointer moved (``None`` = all copies lost)."""
        self.holder[partition] = -1 if sid is None else sid
        self.version += 1

    def ensure_servers(self, num_servers: int) -> None:
        """Grow the server axis (joins only ever append columns)."""
        if num_servers <= self.R.shape[1]:
            return
        grown = np.zeros((self._num_partitions, num_servers), dtype=np.int32)
        grown[:, : self.R.shape[1]] = self.R
        self.R = grown
        self.version += 1

    # ------------------------------------------------------------------
    def sync(self, replicas: ReplicaMap, num_servers: int) -> None:
        """Full resync from the authoritative map (attach time)."""
        self.ensure_servers(num_servers)
        self.R[:, :] = 0
        for partition in range(self._num_partitions):
            for sid, count in replicas.servers_with(partition):
                self.R[partition, sid] = count
            self.holder[partition] = (
                replicas.holder(partition) if replicas.has_holder(partition) else -1
            )
        np.sum(self.R, axis=1, dtype=np.int64, out=self._counts)
        self.version += 1
