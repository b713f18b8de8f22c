"""Query origin/popularity patterns, including the paper's flash crowd.

A pattern answers two questions per epoch: how popular is each partition
(``partition_weights``) and where do queries come from
(``origin_weights``).  The generator samples the epoch's Poisson query
count into the outer product of the two weight vectors.

Patterns implemented:

* :class:`UniformPattern` — the evaluation's "random and even" setting;
* :class:`HotspotPattern` — static concentration of origins (Fig. 1's
  "80% of the queries are from the clients near to datacenters I, J and
  H");
* :class:`FlashCrowdPattern` — the exact four-stage schedule of
  Section III-A: each stage lasts a quarter of the run; 80 % of queries
  come from near H/I/J, then A/B/C, then E/F/G, then uniform;
* :class:`LocationShiftPattern` — Section II-F's first surge type: query
  origin drifts from one site to another over a transition window;
* :class:`PopularityShiftPattern` — Section II-F's second surge type:
  *which* partition is hot changes at scheduled epochs.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import WorkloadError
from .zipf import rotate_ranks, zipf_weights

__all__ = [
    "QueryPattern",
    "UniformPattern",
    "HotspotPattern",
    "FlashCrowdPattern",
    "LocationShiftPattern",
    "PopularityShiftPattern",
]


@runtime_checkable
class QueryPattern(Protocol):
    """What the generator needs from a workload pattern."""

    num_partitions: int
    num_origins: int

    def partition_weights(self, epoch: int) -> np.ndarray:
        """Probability over partitions at ``epoch`` (length P, sums to 1)."""
        ...

    def origin_weights(self, epoch: int) -> np.ndarray:
        """Probability over origin datacenters at ``epoch`` (length D)."""
        ...


def _concentrated(num_origins: int, hot: tuple[int, ...], share: float) -> np.ndarray:
    """Weight vector putting ``share`` of mass evenly on ``hot`` sites."""
    if not hot:
        raise WorkloadError("hot origin set must be non-empty")
    if not 0.0 < share <= 1.0:
        raise WorkloadError(f"share must be in (0, 1], got {share}")
    weights = np.zeros(num_origins, dtype=np.float64)
    for dc in hot:
        if not 0 <= dc < num_origins:
            raise WorkloadError(f"origin index out of range: {dc}")
        weights[dc] = share / len(hot)
    cold = num_origins - len(set(hot))
    if cold > 0:
        remainder = (1.0 - share) / cold
        for dc in range(num_origins):
            # Exact zero means "not a hot DC" (assigned above), a
            # sentinel, not a computed value.
            if weights[dc] == 0.0:
                weights[dc] = remainder
    else:
        weights /= weights.sum()
    return weights


class _BasePattern:
    """Shared validation and Zipf caching."""

    def __init__(self, num_partitions: int, num_origins: int, zipf_exponent: float) -> None:
        if num_partitions < 1:
            raise WorkloadError(f"num_partitions must be >= 1, got {num_partitions}")
        if num_origins < 1:
            raise WorkloadError(f"num_origins must be >= 1, got {num_origins}")
        self.num_partitions = num_partitions
        self.num_origins = num_origins
        self._zipf = zipf_weights(num_partitions, zipf_exponent)

    def partition_weights(self, epoch: int) -> np.ndarray:
        if epoch < 0:
            raise WorkloadError(f"epoch must be >= 0, got {epoch}")
        return self._zipf


class UniformPattern(_BasePattern):
    """Random-and-even origins: every datacenter equally likely."""

    def origin_weights(self, epoch: int) -> np.ndarray:
        if epoch < 0:
            raise WorkloadError(f"epoch must be >= 0, got {epoch}")
        return np.full(self.num_origins, 1.0 / self.num_origins)


class HotspotPattern(_BasePattern):
    """Static origin concentration (Fig. 1's 80 %-from-H/I/J situation)."""

    def __init__(
        self,
        num_partitions: int,
        num_origins: int,
        zipf_exponent: float,
        hot_origins: tuple[int, ...],
        hot_share: float = 0.8,
    ) -> None:
        super().__init__(num_partitions, num_origins, zipf_exponent)
        self._weights = _concentrated(num_origins, hot_origins, hot_share)
        self.hot_origins = tuple(hot_origins)
        self.hot_share = hot_share

    def origin_weights(self, epoch: int) -> np.ndarray:
        if epoch < 0:
            raise WorkloadError(f"epoch must be >= 0, got {epoch}")
        return self._weights


class FlashCrowdPattern(_BasePattern):
    """The four-stage flash crowd of Section III-A.

    "In the first stage, 80 % of queries are from areas near datacenters
    H, I and J.  And then dramatic change happens.  80 % of all queries
    are near datacenters A, B and C, in the second stage.  It moves to
    the areas near E, F and G in the third stage, and then becomes random
    and even distributed in the last stage."  Each stage lasts a quarter
    of ``total_epochs``.
    """

    #: Default stage origin sets, as datacenter indices of the default
    #: hierarchy (A=0 .. J=9).
    DEFAULT_STAGES: tuple[tuple[int, ...] | None, ...] = (
        (7, 8, 9),  # H, I, J
        (0, 1, 2),  # A, B, C
        (4, 5, 6),  # E, F, G
        None,  # uniform
    )

    def __init__(
        self,
        num_partitions: int,
        num_origins: int,
        zipf_exponent: float,
        total_epochs: int,
        stages: tuple[tuple[int, ...] | None, ...] = DEFAULT_STAGES,
        hot_share: float = 0.8,
    ) -> None:
        super().__init__(num_partitions, num_origins, zipf_exponent)
        if total_epochs < len(stages):
            raise WorkloadError(
                f"total_epochs ({total_epochs}) must cover {len(stages)} stages"
            )
        self.total_epochs = total_epochs
        self.stages = tuple(stages)
        self._stage_weights = [
            np.full(num_origins, 1.0 / num_origins)
            if hot is None
            else _concentrated(num_origins, hot, hot_share)
            for hot in stages
        ]

    def stage_of(self, epoch: int) -> int:
        """Which stage an epoch falls in (clamped to the last stage)."""
        if epoch < 0:
            raise WorkloadError(f"epoch must be >= 0, got {epoch}")
        stage_len = self.total_epochs / len(self.stages)
        return min(int(epoch / stage_len), len(self.stages) - 1)

    def stage_boundaries(self) -> tuple[int, ...]:
        """First epoch of each stage (useful for plotting/assertions)."""
        stage_len = self.total_epochs / len(self.stages)
        return tuple(int(round(k * stage_len)) for k in range(len(self.stages)))

    def origin_weights(self, epoch: int) -> np.ndarray:
        return self._stage_weights[self.stage_of(epoch)]


class LocationShiftPattern(_BasePattern):
    """Origin drifts linearly from one hot set to another (Section II-F).

    "Most of the queries ... may first come from Tokyo ... and then
    become very few.  At the same time, queries for the same partition,
    which come from Beijing ... is keeping increasing."
    """

    def __init__(
        self,
        num_partitions: int,
        num_origins: int,
        zipf_exponent: float,
        from_origins: tuple[int, ...],
        to_origins: tuple[int, ...],
        shift_start: int,
        shift_end: int,
        hot_share: float = 0.8,
    ) -> None:
        super().__init__(num_partitions, num_origins, zipf_exponent)
        if shift_end <= shift_start:
            raise WorkloadError("shift_end must be after shift_start")
        self._from = _concentrated(num_origins, from_origins, hot_share)
        self._to = _concentrated(num_origins, to_origins, hot_share)
        self.shift_start = shift_start
        self.shift_end = shift_end

    def origin_weights(self, epoch: int) -> np.ndarray:
        if epoch < 0:
            raise WorkloadError(f"epoch must be >= 0, got {epoch}")
        if epoch <= self.shift_start:
            return self._from
        if epoch >= self.shift_end:
            return self._to
        frac = (epoch - self.shift_start) / (self.shift_end - self.shift_start)
        return (1.0 - frac) * self._from + frac * self._to


class PopularityShiftPattern(_BasePattern):
    """Which partition is hot rotates at scheduled epochs (Section II-F).

    At every epoch in ``shift_epochs`` the Zipf rank order rotates by
    ``rotate_by`` partitions, so the previously hot partition cools down
    and a previously cold one heats up, with origins staying put.
    """

    def __init__(
        self,
        num_partitions: int,
        num_origins: int,
        zipf_exponent: float,
        shift_epochs: tuple[int, ...],
        rotate_by: int = 1,
        origin_pattern: QueryPattern | None = None,
    ) -> None:
        super().__init__(num_partitions, num_origins, zipf_exponent)
        if any(e < 0 for e in shift_epochs):
            raise WorkloadError("shift epochs must be >= 0")
        self.shift_epochs = tuple(sorted(shift_epochs))
        self.rotate_by = rotate_by
        self._origin_pattern = origin_pattern

    def partition_weights(self, epoch: int) -> np.ndarray:
        if epoch < 0:
            raise WorkloadError(f"epoch must be >= 0, got {epoch}")
        shifts = sum(1 for e in self.shift_epochs if e <= epoch)
        return rotate_ranks(self._zipf, shifts * self.rotate_by)

    def origin_weights(self, epoch: int) -> np.ndarray:
        if self._origin_pattern is not None:
            return self._origin_pattern.origin_weights(epoch)
        if epoch < 0:
            raise WorkloadError(f"epoch must be >= 0, got {epoch}")
        return np.full(self.num_origins, 1.0 / self.num_origins)
