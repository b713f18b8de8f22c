"""Per-epoch time-series recording with bounded memory.

The engine drives one :class:`TimeseriesRecorder` per run: once per
epoch it hands over the epoch's metric values, per-datacenter traffic,
work and decision counts and phase timings as one flat
``{column: value}`` row.  The recorder stores rows columnar (one float list per signal) and
keeps memory bounded by two mechanisms:

* a **sampling stride** — only epochs divisible by ``stride`` are
  accepted at all (markers are always kept);
* a **point budget** with automatic **2:1 downsampling** — whenever the
  stored frame would exceed ``point_budget`` points, adjacent pairs are
  merged by mean and the internal decimation factor doubles, so a run of
  any length costs at most ``budget`` points per column while every
  stored point remains the exact mean of the epochs it covers.

Downsampling is streaming and deterministic: incoming rows accumulate
in a pending bucket of ``decimation`` samples that is flushed as its
mean, so recorder state never depends on when you look at it.  Column
sets may grow mid-run (a decision reason first applied at epoch 500):
earlier points are backfilled with zero, matching counter semantics.
"""

from __future__ import annotations

import math

import numpy as np

from ...errors import TsdbError
from .artifact import Marker, TsdbArtifact

__all__ = ["TimeseriesRecorder"]

#: Markers kept before the recorder starts dropping (and counting) them.
MARKER_BUDGET = 4096


class TimeseriesRecorder:
    """Columnar per-epoch sampler with stride + budgeted downsampling.

    Parameters
    ----------
    stride:
        Record every ``stride``-th epoch (default 1: every epoch).
    point_budget:
        Maximum stored points per column; crossing it halves resolution
        (2:1 mean-downsampling) and doubles the internal decimation.
    meta:
        Free-form run metadata stamped into the artifact (policy,
        scenario, seed...).  :func:`repro.experiments.runner.run_experiment`
        fills the standard keys in when they are absent.
    """

    def __init__(
        self,
        *,
        stride: int = 1,
        point_budget: int = 2048,
        meta: dict[str, object] | None = None,
    ) -> None:
        if stride < 1:
            raise TsdbError(f"stride must be >= 1, got {stride}")
        if point_budget < 16:
            raise TsdbError(f"point_budget must be >= 16, got {point_budget}")
        self.stride = stride
        self.point_budget = point_budget
        self.meta: dict[str, object] = dict(meta) if meta else {}
        self._decimation = 1
        self._epochs: list[int] = []
        self._columns: dict[str, list[float]] = {}
        # Pending bucket: sums over the samples accumulated since the
        # last flush (flushed as their mean once `decimation` are in).
        self._pending_sums: dict[str, float] = {}
        self._pending_count = 0
        self._pending_epoch: int | None = None
        self._markers: list[Marker] = []
        self.markers_dropped = 0
        self.samples_seen = 0

    # ------------------------------------------------------------------
    @property
    def decimation(self) -> int:
        """Accepted samples merged per stored point (power of two)."""
        return self._decimation

    @property
    def num_points(self) -> int:
        """Fully-flushed stored points (excludes the pending bucket)."""
        return len(self._epochs)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample(self, epoch: int, row: dict[str, float]) -> None:
        """Record one epoch's flat ``{column: value}`` row.

        Epochs not on the stride grid are ignored.  Non-finite values
        contribute zero, so one bad sample cannot poison a downsampled
        mean.
        """
        self.samples_seen += 1
        if epoch % self.stride != 0:
            return
        if self._pending_epoch is None:
            self._pending_epoch = epoch
        # Grow the column set first so every column sees this sample.
        for name in row:
            if name not in self._columns:
                self._columns[name] = [0.0] * len(self._epochs)
                self._pending_sums[name] = 0.0
        for name, sums in self._pending_sums.items():
            value = float(row.get(name, 0.0))
            if math.isfinite(value):
                self._pending_sums[name] = sums + value
        self._pending_count += 1
        if self._pending_count >= self._decimation:
            self._flush_pending()
            if len(self._epochs) > self.point_budget:
                self._compress()

    def _flush_pending(self) -> None:
        count = self._pending_count
        self._epochs.append(self._pending_epoch)
        for name, total in self._pending_sums.items():
            self._columns[name].append(total / count)
            self._pending_sums[name] = 0.0
        self._pending_count = 0
        self._pending_epoch = None

    def _compress(self) -> None:
        """2:1 downsample the stored frame and double the decimation.

        Runs only right after a flush, so the pending bucket is empty;
        an odd trailing point is pushed back into it (as a half-full
        bucket under the doubled decimation) to keep every stored point
        an exact mean of a contiguous epoch range.
        """
        old = self._decimation
        if len(self._epochs) % 2 == 1:
            self._pending_epoch = self._epochs.pop()
            self._pending_count = old
            for name, values in self._columns.items():
                self._pending_sums[name] = values.pop() * old
        half = len(self._epochs) // 2
        self._epochs = [self._epochs[2 * i] for i in range(half)]
        for name, values in self._columns.items():
            self._columns[name] = [
                (values[2 * i] + values[2 * i + 1]) / 2.0 for i in range(half)
            ]
        self._decimation = old * 2

    # ------------------------------------------------------------------
    # Markers
    # ------------------------------------------------------------------
    def mark(self, epoch: int, kind: str, label: str = "") -> None:
        """Annotate ``epoch`` with an event marker.

        Repeats of the same (epoch, kind, label) fold into one marker
        with a growing count; past :data:`MARKER_BUDGET` distinct
        markers, new ones are dropped and counted in
        ``markers_dropped``.
        """
        if self._markers:
            last = self._markers[-1]
            if last.epoch == epoch and last.kind == kind and last.label == label:
                self._markers[-1] = Marker(epoch, kind, label, last.count + 1)
                return
        if len(self._markers) >= MARKER_BUDGET:
            self.markers_dropped += 1
            return
        self._markers.append(Marker(epoch, kind, label))

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def artifact(self) -> TsdbArtifact:
        """Snapshot the recording as a :class:`TsdbArtifact`.

        A partially-filled pending bucket is flushed into the snapshot
        (as the mean of the samples it holds) without disturbing the
        recorder, so this can be called mid-run.
        """
        epochs = list(self._epochs)
        columns = {name: list(values) for name, values in self._columns.items()}
        if self._pending_count > 0:
            epochs.append(self._pending_epoch)
            for name, total in self._pending_sums.items():
                columns[name].append(total / self._pending_count)
        meta = dict(self.meta)
        meta.setdefault("samples_seen", self.samples_seen)
        if self.markers_dropped:
            meta["markers_dropped"] = self.markers_dropped
        return TsdbArtifact(
            epochs=np.array(epochs, dtype=np.int64),
            columns={
                name: np.array(values, dtype=np.float64)
                for name, values in columns.items()
            },
            markers=tuple(self._markers),
            meta=meta,
            stride=self.stride,
            decimation=self._decimation,
        )

    def save(self, path) -> TsdbArtifact:
        """Write :meth:`artifact` to ``path``; returns the artifact."""
        art = self.artifact()
        art.save(path)
        return art

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TimeseriesRecorder(points={self.num_points}, "
            f"columns={len(self._columns)}, stride={self.stride}, "
            f"decimation={self._decimation})"
        )
