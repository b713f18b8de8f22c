"""The per-epoch metric store experiments read back.

One :class:`MetricsCollector` per simulation run; the engine records a
fixed set of named series every epoch (see
:attr:`MetricsCollector.STANDARD_SERIES`), so downstream figure code can
rely on their presence and equal lengths.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from .series import Series

__all__ = ["MetricsCollector"]


class MetricsCollector:
    """Named per-epoch series with an enforced common length."""

    #: Series the engine records every epoch, in recording order.
    STANDARD_SERIES: tuple[str, ...] = (
        "utilization",
        "total_replicas",
        "avg_replicas",
        "replication_count",
        "replication_cost",
        "migration_count",
        "migration_cost",
        "suicide_count",
        "load_imbalance",
        "server_load_imbalance",
        "path_length",
        "mean_latency_ms",
        "sla_attainment",
        "unserved",
        "served",
        "queries",
        "alive_servers",
        "mean_availability",
        "lost_partitions",
        "skipped_actions",
    )

    def __init__(self) -> None:
        self._series: dict[str, Series] = {}
        self._epochs_recorded = 0

    # ------------------------------------------------------------------
    def record_epoch(self, values: dict[str, float]) -> None:
        """Record one epoch's values; every epoch must carry the same keys."""
        if self._epochs_recorded == 0:
            for name in values:
                self._series[name] = Series(name)
        elif set(values) != set(self._series):
            missing = set(self._series) ^ set(values)
            raise SimulationError(
                f"inconsistent metric keys across epochs; difference: {sorted(missing)}"
            )
        for name, value in values.items():
            self._series[name].append(value)
        self._epochs_recorded += 1

    # ------------------------------------------------------------------
    @property
    def num_epochs(self) -> int:
        return self._epochs_recorded

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._series))

    def series(self, name: str) -> Series:
        try:
            return self._series[name]
        except KeyError:
            raise SimulationError(
                f"unknown metric series {name!r}; have {sorted(self._series)}"
            ) from None

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def array(self, name: str) -> np.ndarray:
        """Shortcut for ``series(name).to_array()``."""
        return self.series(name).to_array()

    def head(self, epochs: int) -> MetricsCollector:
        """A new collector holding every series' first ``epochs`` values."""
        if not 1 <= epochs <= self._epochs_recorded:
            raise SimulationError(
                f"head({epochs}) outside 1..{self._epochs_recorded} recorded epochs"
            )
        columns = {name: series.values for name, series in self._series.items()}
        out = MetricsCollector()
        for epoch in range(epochs):
            out.record_epoch({name: values[epoch] for name, values in columns.items()})
        return out

    def as_dict(self) -> dict[str, list[float]]:
        """All series as plain lists (JSON-friendly)."""
        return {name: series.values for name, series in sorted(self._series.items())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MetricsCollector(epochs={self._epochs_recorded}, series={len(self._series)})"
