"""Shared baseline machinery.

Every algorithm in the comparison needs the same Eq. 12 overload test
over the same smoothed signals: the per-partition average query rate
(Eqs. 9–10), the traffic reaching the holder (Eq. 11) and the blocked
queries.  :class:`SmoothedSignals` packages that state so the three
baselines and any future policy stay signal-compatible with RFH.  No
baseline reads the per-(partition, datacenter) traffic, so it is not
smoothed here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import RFHParameters
from ..core.smoothing import Ewma
from ..core.thresholds import is_blocked, is_holder_overloaded
from ..sim.observation import EpochObservation

__all__ = ["SmoothedSignals", "EpochSignals"]


@dataclass(frozen=True)
class EpochSignals:
    """The smoothed signals for one epoch."""

    avg_query: np.ndarray  # (P,)   Eq. 10
    holder_traffic: np.ndarray  # (P,)   Eq. 11 over the holder server
    raw_holder_traffic: np.ndarray  # (P,)  this epoch, unsmoothed
    unserved: np.ndarray  # (P,)   smoothed blocked queries

    def holder_overloaded(self, partition: int, beta: float) -> bool:
        """Eq. 12, requiring the smoothed *and* the raw signal to agree,
        plus the blocked-queries trigger.

        The same definition every policy (including RFH) uses: smoothing
        alone keeps reporting overload for ~1/alpha epochs after relief
        arrives, which would over-build each partition by that many
        replicas regardless of placement quality; and persistently
        blocked queries are overload even when Eq. 12's relative
        threshold is not crossed.
        """
        avg = float(self.avg_query[partition])
        if is_blocked(float(self.unserved[partition]), avg):
            return True
        return is_holder_overloaded(
            float(self.holder_traffic[partition]), avg, beta
        ) and is_holder_overloaded(
            float(self.raw_holder_traffic[partition]), avg, beta
        )


class SmoothedSignals:
    """EWMA state shared by the baseline policies."""

    def __init__(self, params: RFHParameters) -> None:
        self._params = params
        self._avg_query = Ewma(params.alpha)
        self._holder_traffic = Ewma(params.alpha)
        self._unserved = Ewma(params.alpha)

    def update(self, obs: EpochObservation) -> EpochSignals:
        """Fold one epoch's observation in; returns this epoch's signals."""
        avg_query = np.asarray(self._avg_query.update(obs.system_average_query()))
        holder_traffic = np.asarray(self._holder_traffic.update(obs.holder_traffic))
        unserved = np.asarray(self._unserved.update(obs.unserved))
        return EpochSignals(
            avg_query=avg_query,
            holder_traffic=holder_traffic,
            raw_holder_traffic=np.asarray(obs.holder_traffic, dtype=np.float64),
            unserved=unserved,
        )
