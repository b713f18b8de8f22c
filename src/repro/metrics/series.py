"""A named per-epoch metric series."""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError

__all__ = ["Series"]


class Series:
    """An append-only sequence of per-epoch float values.

    The index is the epoch: value ``k`` was recorded at epoch ``k``.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise SimulationError("series name must be non-empty")
        self.name = name
        self._values: list[float] = []

    def append(self, value: float) -> None:
        """Record the value for the next epoch."""
        value = float(value)
        # ``x - x`` is 0.0 exactly for every finite float and NaN for
        # NaN/±inf — a pure-Python finiteness test, hot-path cheap.
        if value - value != 0.0:
            raise SimulationError(
                f"series {self.name!r}: refusing non-finite value {value}"
            )
        self._values.append(value)

    def __len__(self) -> int:
        return len(self._values)

    def __getitem__(self, index: int | slice) -> float | list[float]:
        return self._values[index]

    @property
    def values(self) -> list[float]:
        """Copy of the recorded values."""
        return list(self._values)

    def to_array(self) -> np.ndarray:
        """The series as a float array."""
        return np.asarray(self._values, dtype=np.float64)

    def cumulative(self) -> np.ndarray:
        """Running sum — the paper's "total ..." figures (5a, 6a, 7a)
        plot cumulative quantities."""
        return np.cumsum(self.to_array()) if self._values else np.array([])

    def last(self) -> float:
        """Most recent value."""
        if not self._values:
            raise SimulationError(f"series {self.name!r} is empty")
        return self._values[-1]

    def mean(self, start: int = 0, stop: int | None = None) -> float:
        """Mean over ``[start, stop)`` epochs (whole series by default)."""
        window = self._values[start:stop]
        if not window:
            raise SimulationError(
                f"series {self.name!r}: empty window [{start}, {stop})"
            )
        return float(np.mean(window))

    def tail_mean(self, epochs: int) -> float:
        """Mean over the last ``epochs`` values (steady-state estimate)."""
        if epochs < 1:
            raise SimulationError(f"epochs must be >= 1, got {epochs}")
        return self.mean(start=max(0, len(self._values) - epochs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Series({self.name!r}, n={len(self._values)})"
