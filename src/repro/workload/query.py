"""The per-epoch query matrix.

All downstream maths (Eqs. 2–13) is expressed over ``q_ijt`` — "the
number of queries for a partition B_i, during a unit time period, from
requester j".  :class:`QueryBatch` is exactly that matrix for one epoch:
``counts[i, j]`` = queries for partition ``i`` raised near datacenter
``j`` ("we regard queries closest to datacenter j as from requester j").

An epoch's Poisson(λ) queries touch at most λ of the ``P · D`` cells,
so a batch stores only its nonzero cells — a row-major flat index and
an int64 count each — and sums over them.  Integer sums are exact in
any order, so every total equals the dense matrix's bit for bit.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError

__all__ = ["QueryBatch"]

#: Smallest count int64 cannot hold; float and unsigned inputs at or
#: above it would wrap to negative counts on conversion.
_INT64_LIMIT = 2**63


class QueryBatch:
    """Immutable (partitions x datacenters) query-count matrix for one epoch.

    Stored as its nonzero cells: ``O(cells)`` memory whatever ``P · D``
    is.  :meth:`cells` hands them out directly; :attr:`counts` rebuilds
    the dense matrix for callers that walk it cell by cell.
    """

    __slots__ = ("_index", "_values", "_shape", "_epoch")

    def __init__(self, epoch: int, counts: np.ndarray) -> None:
        if epoch < 0:
            raise WorkloadError(f"epoch must be >= 0, got {epoch}")
        counts = np.asarray(counts)
        if counts.ndim != 2:
            raise WorkloadError(f"counts must be 2-D, got shape {counts.shape}")
        if counts.size == 0:
            raise WorkloadError("counts must be non-empty")
        kind = counts.dtype.kind
        if kind not in "biuf":
            raise WorkloadError(f"query counts must be numeric, got {counts.dtype}")
        if kind == "f" and not np.all(np.isfinite(counts)):
            raise WorkloadError("query counts must be finite")
        if np.any(counts < 0):
            raise WorkloadError("query counts must be non-negative")
        if kind in "uf" and np.any(counts >= _INT64_LIMIT):
            raise WorkloadError("query counts must fit in int64")
        if kind == "f" and not np.all(counts == np.floor(counts)):
            raise WorkloadError("query counts must be integral")
        flat = counts.ravel()
        index = np.flatnonzero(flat)
        self._init(epoch, counts.shape, index, flat[index].astype(np.int64, copy=False))

    @classmethod
    def from_cells(
        cls,
        epoch: int,
        shape: tuple[int, int],
        index: np.ndarray,
        values: np.ndarray,
    ) -> "QueryBatch":
        """Wrap nonzero cells the caller owns, skipping checks.

        For generators only: ``index`` must hold strictly increasing
        row-major flat indices into ``shape`` and ``values`` their
        positive int64 counts — fresh arrays with no other writable
        references.
        """
        batch = cls.__new__(cls)
        batch._init(epoch, shape, index, values)
        return batch

    def _init(
        self, epoch: int, shape: tuple[int, int], index: np.ndarray, values: np.ndarray
    ) -> None:
        index.setflags(write=False)
        values.setflags(write=False)
        self._index = index
        self._values = values
        self._shape = (int(shape[0]), int(shape[1]))
        self._epoch = epoch

    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Epoch this batch belongs to."""
        return self._epoch

    @property
    def counts(self) -> np.ndarray:
        """Read-only ``(P, D)`` count matrix (``q_ijt``).

        Built from the cells on every access, at O(P·D) time and
        memory: it exists for the scalar reference walk, the baselines
        and the ``.npz`` trace format.  Hot paths read :meth:`cells`.
        """
        dense = np.zeros(self._shape[0] * self._shape[1], dtype=np.int64)
        dense[self._index] = self._values
        dense = dense.reshape(self._shape)
        dense.setflags(write=False)
        return dense

    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """The nonzero cells as read-only ``(index, count)`` arrays.

        ``index`` holds row-major flat indices ``i · D + j`` in
        ascending order — ``np.flatnonzero(counts)`` — and ``count``
        the int64 ``q_ijt`` of each cell.
        """
        return self._index, self._values

    @property
    def num_partitions(self) -> int:
        return self._shape[0]

    @property
    def num_origins(self) -> int:
        return self._shape[1]

    @property
    def total(self) -> int:
        """Total queries this epoch."""
        return int(self._values.sum())

    def per_partition(self) -> np.ndarray:
        """Queries per partition, summed over origins (length P, int64)."""
        out = np.zeros(self._shape[0], dtype=np.int64)
        np.add.at(out, self._index // self._shape[1], self._values)
        return out

    def per_origin(self) -> np.ndarray:
        """Queries per origin datacenter, summed over partitions (length D, int64)."""
        out = np.zeros(self._shape[1], dtype=np.int64)
        np.add.at(out, self._index % self._shape[1], self._values)
        return out

    def system_average_query(self) -> np.ndarray:
        """Eq. 9: per-partition average over the N requesters,
        ``q̄_it = Σ_j q_ijt / N``."""
        return self.per_partition() / self._shape[1]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryBatch):
            return NotImplemented
        return (
            self._epoch == other._epoch
            and self._shape == other._shape
            and np.array_equal(self._index, other._index)
            and np.array_equal(self._values, other._values)
        )

    def __hash__(self) -> int:  # batches are value objects
        return hash(
            (self._epoch, self._shape, self._index.tobytes(), self._values.tobytes())
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueryBatch(epoch={self._epoch}, shape={self._shape}, "
            f"cells={self._index.shape[0]}, total={self.total})"
        )
