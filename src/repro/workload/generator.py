"""Poisson query generation.

"At each epoch, the number of generated queries follows a Poisson
distribution with a mean rate λ" (Table I: λ = 300).  The epoch total is
drawn once from Poisson(λ) and spread over the (partition x origin)
cells with probability ``p_i · o_j``, the product of the pattern's two
normalised weight vectors, so marginals follow the pattern exactly in
expectation and all draws come from one seeded stream.

The spread is drawn in factorised form: the partition totals from
``Multinomial(total, p)``, then each partition that drew queries splits
its ``n_i`` over the origins by ``Multinomial(n_i, o)``, in one
broadcast call.  Because the cell probabilities are an outer product,
this has exactly the law of one ``Multinomial(total, p ⊗ o)`` draw over
all ``P · D`` cells: given the partition totals, the joint multinomial's
rows are independent multinomials with probabilities ``o``.  No ``P · D``
array is built; an epoch costs O(P + cells) memory at any shape.
"""

from __future__ import annotations

import numpy as np

from ..config import WorkloadParameters
from ..errors import WorkloadError
from .patterns import QueryPattern
from .query import QueryBatch
from .timevarying import rate_multiplier_of

__all__ = ["QueryGenerator"]


def _probabilities(weights: np.ndarray, size: int, name: str) -> np.ndarray:
    """Normalise one factor's weights, rejecting any that are not a
    finite, non-negative vector of length ``size`` with a positive sum."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (size,):
        raise WorkloadError(f"bad {name} weight shape: {weights.shape}")
    if not np.all(np.isfinite(weights)) or np.any(weights < 0):
        raise WorkloadError(f"{name} weights must be finite and non-negative")
    total = weights.sum()
    if not np.isfinite(total) or total <= 0:
        raise WorkloadError(f"{name} weights must sum to a positive finite value")
    return weights / total


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
        num_origins = self._pattern.num_origins
        # Both factors are checked before the first draw, so a rejected
        # pattern leaves the stream untouched.
        part_p = _probabilities(
            self._pattern.partition_weights(epoch),
            self._params.num_partitions,
            "partition",
        )
        orig_p = _probabilities(
            self._pattern.origin_weights(epoch), num_origins, "origin"
        )
        rate = self._params.queries_per_epoch_mean * rate_multiplier_of(
            self._pattern, epoch
        )
        total = int(self._rng.poisson(rate))
        per_partition = self._rng.multinomial(total, part_p)
        rows = np.flatnonzero(per_partition)
        # One (k, D) block for the k partitions that drew queries.  Rows
        # ascend, and so do the columns within a row, so the flat indices
        # come out strictly increasing, as ``from_cells`` requires.
        block = self._rng.multinomial(per_partition[rows], orig_p)
        row, col = np.nonzero(block)
        return QueryBatch.from_cells(
            epoch,
            (self._params.num_partitions, num_origins),
            rows[row] * num_origins + col,
            block[row, col],
        )
