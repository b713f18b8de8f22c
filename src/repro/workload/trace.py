"""Workload trace record / replay.

Fair algorithm comparison (Figs. 3–9 plot all four algorithms on one
chart) requires every algorithm to see the *identical* query sequence.
:class:`WorkloadTrace` records generated batches once and replays them
through the same ``generate(epoch)`` interface, so an engine cannot tell
a trace from a live generator.  Traces round-trip through ``.npz`` files
for persistence.
"""

from __future__ import annotations

import pathlib
import zipfile
import zlib

import numpy as np

from ..errors import WorkloadError
from .generator import QueryGenerator
from .query import QueryBatch

__all__ = ["WorkloadTrace"]


class WorkloadTrace:
    """An immutable, replayable sequence of :class:`QueryBatch` objects."""

    def __init__(self, batches: list[QueryBatch]) -> None:
        if not batches:
            raise WorkloadError("a trace needs at least one batch")
        shape = (batches[0].num_partitions, batches[0].num_origins)
        for epoch, batch in enumerate(batches):
            if batch.epoch != epoch:
                raise WorkloadError(
                    f"batch at position {epoch} carries epoch {batch.epoch}"
                )
            if (batch.num_partitions, batch.num_origins) != shape:
                raise WorkloadError("all batches in a trace must share one shape")
        self._batches = tuple(batches)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def record(cls, generator: QueryGenerator, epochs: int) -> "WorkloadTrace":
        """Run a generator for ``epochs`` epochs and capture the output."""
        if epochs < 1:
            raise WorkloadError(f"epochs must be >= 1, got {epochs}")
        return cls([generator.generate(epoch) for epoch in range(epochs)])

    # ------------------------------------------------------------------
    # Replay interface (mirrors QueryGenerator)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._batches)

    @property
    def num_partitions(self) -> int:
        return self._batches[0].num_partitions

    @property
    def num_origins(self) -> int:
        return self._batches[0].num_origins

    def generate(self, epoch: int) -> QueryBatch:
        """Return the recorded batch for ``epoch``."""
        if not 0 <= epoch < len(self._batches):
            raise WorkloadError(
                f"trace covers epochs 0..{len(self._batches) - 1}, asked for {epoch}"
            )
        return self._batches[epoch]

    def batches(self) -> tuple[QueryBatch, ...]:
        return self._batches

    def total_queries(self) -> int:
        """Total queries over the whole trace."""
        return sum(batch.total for batch in self._batches)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str | pathlib.Path) -> None:
        """Write the trace to an ``.npz`` file."""
        stacked = np.stack([batch.counts for batch in self._batches])
        np.savez_compressed(pathlib.Path(path), counts=stacked)

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "WorkloadTrace":
        """Read a trace previously written by :meth:`save`.

        Raises :class:`WorkloadError` naming ``path`` for anything that
        is not such a trace: an unreadable, empty, truncated or non-zip
        file, a pickled (object) array, or counts a :class:`QueryBatch`
        rejects.
        """
        path = pathlib.Path(path)
        try:
            loaded = np.load(path)
            if not isinstance(loaded, np.lib.npyio.NpzFile):
                raise WorkloadError(f"{path} is not a workload trace file")
            with loaded as data:
                if "counts" not in data:
                    raise WorkloadError(f"{path} is not a workload trace file")
                stacked = data["counts"]
        except (OSError, EOFError, ValueError, zipfile.BadZipFile, zlib.error) as exc:
            raise WorkloadError(f"cannot read workload trace {path}: {exc}") from exc
        if stacked.ndim != 3:
            raise WorkloadError(
                f"{path}: trace array must be 3-D, got shape {stacked.shape}"
            )
        try:
            return cls(
                [QueryBatch(epoch, stacked[epoch]) for epoch in range(stacked.shape[0])]
            )
        except WorkloadError as exc:
            raise WorkloadError(f"{path}: {exc}") from exc
