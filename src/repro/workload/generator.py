"""Poisson query generation.

"At each epoch, the number of generated queries follows a Poisson
distribution with a mean rate λ" (Table I: λ = 300).  The epoch total is
drawn once from Poisson(λ) and then distributed multinomially over the
(partition x origin) cells weighted by the pattern's outer product — so
marginals follow the pattern exactly in expectation and all draws come
from one seeded stream.
"""

from __future__ import annotations

import numpy as np

from ..config import WorkloadParameters
from ..errors import WorkloadError
from .patterns import QueryPattern
from .query import QueryBatch
from .timevarying import rate_multiplier_of

__all__ = ["QueryGenerator"]


class QueryGenerator:
    """Samples one :class:`QueryBatch` per epoch.

    Epochs must be generated in order (0, 1, 2, ...) — the stream is
    consumed sequentially, which is what makes runs reproducible.  Use
    :class:`~repro.workload.trace.WorkloadTrace` to reuse one sampled
    workload across algorithm runs.
    """

    def __init__(
        self,
        params: WorkloadParameters,
        pattern: QueryPattern,
        rng: np.random.Generator,
    ) -> None:
        if pattern.num_partitions != params.num_partitions:
            raise WorkloadError(
                f"pattern covers {pattern.num_partitions} partitions, "
                f"params say {params.num_partitions}"
            )
        self._params = params
        self._pattern = pattern
        self._rng = rng
        self._next_epoch = 0
        # Joint-probability cache: stationary patterns return the same
        # weights every epoch, so the outer product and normalisation
        # can be reused whenever both weight vectors are unchanged.
        self._joint_cache: np.ndarray | None = None
        self._joint_part_w: np.ndarray | None = None
        self._joint_orig_w: np.ndarray | None = None

    @property
    def pattern(self) -> QueryPattern:
        return self._pattern

    @property
    def num_origins(self) -> int:
        return self._pattern.num_origins

    def generate(self, epoch: int) -> QueryBatch:
        """Sample the query matrix for ``epoch`` (must be the next epoch)."""
        if epoch != self._next_epoch:
            raise WorkloadError(
                f"epochs must be generated in order; expected {self._next_epoch}, got {epoch}"
            )
        self._next_epoch += 1
        part_w = np.asarray(self._pattern.partition_weights(epoch), dtype=np.float64)
        orig_w = np.asarray(self._pattern.origin_weights(epoch), dtype=np.float64)
        if part_w.shape != (self._params.num_partitions,):
            raise WorkloadError(f"bad partition weight shape: {part_w.shape}")
        if orig_w.shape != (self._pattern.num_origins,):
            raise WorkloadError(f"bad origin weight shape: {orig_w.shape}")
        if (
            self._joint_cache is not None
            and np.array_equal(part_w, self._joint_part_w)
            and np.array_equal(orig_w, self._joint_orig_w)
        ):
            joint = self._joint_cache
        else:
            joint = np.outer(part_w, orig_w).ravel()
            joint_sum = joint.sum()
            if not np.isfinite(joint_sum) or joint_sum <= 0:
                raise WorkloadError(
                    "pattern weights must sum to a positive finite value"
                )
            joint /= joint_sum
            self._joint_cache = joint
            self._joint_part_w = part_w.copy()
            self._joint_orig_w = orig_w.copy()
        rate = self._params.queries_per_epoch_mean * rate_multiplier_of(
            self._pattern, epoch
        )
        total = int(self._rng.poisson(rate))
        # The multinomial's dense P·D output lives only until its
        # nonzero cells (at most ``total``) are pulled out.
        drawn = self._rng.multinomial(total, joint)
        index = np.flatnonzero(drawn)
        return QueryBatch.from_cells(
            epoch,
            (self._params.num_partitions, self._pattern.num_origins),
            index,
            drawn[index],
        )
