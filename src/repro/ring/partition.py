"""Mapping data partitions to primary holders via the ring.

"Data is dynamically partitioned or stripped over the set of storage
hosts or physical nodes in the system" (Section II-B).  Each of the
Table-I partitions gets a stable key ``stable_hash(f"partition:{i}")``;
its primary holder is the ring owner of that key.  When membership
changes, only partitions whose owning arc moved change holder — the
minimal-disruption property the paper claims for virtual-node rings.
"""

from __future__ import annotations

import numpy as np

from ..errors import RingError
from .hashring import HashRing
from .hashspace import stable_hash

__all__ = ["PartitionMapper"]


class PartitionMapper:
    """Stable partition keys + current holder resolution.

    The keys are one ``uint32`` array (the hash space is 32 bits wide),
    and :meth:`holders` resolves all of them with one ``searchsorted``
    over the ring's token positions: ``side="left"`` is
    :meth:`HashRing.owner`'s ``bisect_left``, and a key past the last
    token wraps to the first.
    """

    def __init__(self, num_partitions: int, ring: HashRing) -> None:
        if num_partitions < 1:
            raise RingError(f"num_partitions must be >= 1, got {num_partitions}")
        self._ring = ring
        self._keys = np.fromiter(
            (stable_hash(f"partition:{i}") for i in range(num_partitions)),
            dtype=np.uint32,
            count=num_partitions,
        )

    @property
    def num_partitions(self) -> int:
        return len(self._keys)

    @property
    def ring(self) -> HashRing:
        return self._ring

    def key(self, partition: int) -> int:
        """Ring position of a partition's key."""
        if not 0 <= partition < len(self._keys):
            raise RingError(f"unknown partition: {partition}")
        return int(self._keys[partition])

    def holder(self, partition: int) -> int:
        """Server id currently owning the partition's key."""
        return self._ring.owner(self.key(partition))

    def holders(self) -> list[int]:
        """Current holder of every partition, index-aligned."""
        return self._owners().tolist()

    def successor_sites(self, partition: int, n: int) -> tuple[int, ...]:
        """First ``n`` distinct servers clockwise from the partition key.

        This is the Dynamo placement the paper's *random* baseline uses:
        "replicate data at the N-1 clockwise successor nodes".
        """
        return self._ring.successors(self.key(partition), n)

    def partitions_held_by(self, sid: int) -> tuple[int, ...]:
        """Partitions whose primary holder is ``sid``."""
        return tuple(np.flatnonzero(self._owners() == sid).tolist())

    def _owners(self) -> np.ndarray:
        """Owner sid of every key (int64), as :meth:`HashRing.owner` gives it."""
        tokens = self._ring.tokens()
        if not tokens:
            raise RingError("the ring is empty")
        positions = np.fromiter(
            (token.position for token in tokens), dtype=np.uint32, count=len(tokens)
        )
        sids = np.fromiter((token.sid for token in tokens), dtype=np.int64, count=len(tokens))
        return sids[np.searchsorted(positions, self._keys, side="left") % len(tokens)]
