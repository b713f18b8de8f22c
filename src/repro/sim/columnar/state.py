"""Cell mirror of the authoritative scalar state.

:class:`SimState` is the columnar engine's view of the
:class:`~repro.cluster.replicas.ReplicaMap`: the (partition, server)
cells that hold copies, with their counts, plus a partition→holder
index, kept in sync through the map's mutation callbacks
(``attach_mirror``) instead of O(P·S) rebuilds.  The ``ReplicaMap``
stays the single source of truth — every mutation still goes through
it, and the sanitizer keeps fingerprinting the map itself — so the
mirror can never *cause* divergence, only go stale (guarded by the
version counter and the equivalence suite).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from ...cluster.replicas import ReplicaMap
from ...core.traffic import upsert_cells

__all__ = ["SimState"]


class SimState:
    """Columnar replica-layout mirror, kept as its nonzero cells.

    The paper's ``m_ikt`` is a handful of copies per partition, so the
    mirror stores only the cells that hold copies: :meth:`cells` gives
    their ascending row-major flat index ``partition · S + sid`` (int64)
    and their int32 copy counts.  Count callbacks are queued and folded
    into the cells once, on the next read: one sorted merge for every
    cell touched since the last read, where a per-callback insert would
    be quadratic in a growth burst.  A join that widens the server axis
    re-keys the index.

    Attributes
    ----------
    holder:
        ``(P,)`` int64 primary-holder server id per partition; ``-1``
        marks a partition whose every copy is lost.
    version:
        Monotonic mutation counter; derived caches (slot CSR,
        availability summary, replica-cell index) key off it.
    """

    __slots__ = (
        "holder",
        "version",
        "_num_partitions",
        "_num_servers",
        "_index",
        "_count",
        "_totals",
        "_pending",
    )

    def __init__(self, num_partitions: int, num_servers: int) -> None:
        self._num_partitions = num_partitions
        self._num_servers = num_servers
        self.holder = np.full(num_partitions, -1, dtype=np.int64)
        self.version = 0
        self._index = np.zeros(0, dtype=np.int64)
        self._count = np.zeros(0, dtype=np.int32)
        # Per-partition copy totals: the row sums of the cells, rebuilt
        # on each fold.  Callers treat the array as read-only.
        self._totals = np.zeros(num_partitions, dtype=np.int64)
        # Count callbacks not yet folded in: flat index -> new count.
        self._pending: dict[int, int] = {}

    # ------------------------------------------------------------------
    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def num_servers(self) -> int:
        return self._num_servers

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """``(index, count)`` of the cells holding copies (read-only).

        ``index`` is the ascending row-major flat index (int64), the
        order ``np.nonzero`` enumerates a dense matrix in; ``count`` is
        each cell's copies (int32, at least 1).  A fold or a widening
        builds new arrays, so a returned pair stays as it was.
        """
        self._fold()
        return self._index, self._count

    def replica_counts(self) -> np.ndarray:
        """Per-partition total copies (length P, int64, read-only)."""
        self._fold()
        return self._totals

    # ------------------------------------------------------------------
    # ReplicaMap mirror protocol
    # ------------------------------------------------------------------
    def on_count(self, partition: int, sid: int, count: int) -> None:
        """One (partition, server) count changed on the authoritative map."""
        if sid >= self._num_servers:
            self.ensure_servers(sid + 1)
        self._pending[partition * self._num_servers + sid] = count
        self.version += 1

    def on_holder(self, partition: int, sid: int | None) -> None:
        """The primary-holder pointer moved (``None`` = all copies lost)."""
        self.holder[partition] = -1 if sid is None else sid
        self.version += 1

    def ensure_servers(self, num_servers: int) -> None:
        """Grow the server axis (joins only ever append servers)."""
        if num_servers <= self._num_servers:
            return
        # Queued keys use the old width: fold them in, then re-key.
        self._fold()
        index = self._index
        self._index = index // self._num_servers * num_servers + index % self._num_servers
        self._num_servers = num_servers
        self.version += 1

    # ------------------------------------------------------------------
    def sync(self, replicas: ReplicaMap, num_servers: int) -> None:
        """Full resync from the authoritative map (attach time): one pass
        over its holders and ``(sid, count)`` layout tuples."""
        self._pending = {}
        self._num_servers = max(self._num_servers, num_servers)
        holders, layouts = replicas.holders_and_layouts()
        self.holder[:] = [-1 if sid is None else sid for sid in holders]
        sizes = np.fromiter(map(len, layouts), dtype=np.int64, count=len(layouts))
        # Flattened (sid, count, sid, count, ...) in partition order; each
        # layout is sorted by sid, so the row-major index ascends.
        pairs = np.fromiter(
            chain.from_iterable(chain.from_iterable(layouts)),
            dtype=np.int64,
            count=2 * int(sizes.sum()),
        ).reshape(-1, 2)
        rows = np.repeat(np.arange(self._num_partitions, dtype=np.int64), sizes)
        self._set_cells(
            rows * self._num_servers + pairs[:, 0], pairs[:, 1].astype(np.int32)
        )
        self.version += 1

    # ------------------------------------------------------------------
    def _fold(self) -> None:
        """Merge the queued count callbacks into the cells."""
        pending = self._pending
        if not pending:
            return
        self._pending = {}
        keys = np.fromiter(pending.keys(), dtype=np.int64, count=len(pending))
        counts = np.fromiter(pending.values(), dtype=np.int32, count=len(pending))
        self._set_cells(*upsert_cells(self._index, self._count, keys, counts, counts > 0))

    def _set_cells(self, index: np.ndarray, count: np.ndarray) -> None:
        self._index, self._count = index, count
        # Small integer sums, exact in float64's 53-bit mantissa.
        totals = np.bincount(
            index // self._num_servers, weights=count, minlength=self._num_partitions
        )
        self._totals = totals.astype(np.int64)
