"""The engine-facing RFH algorithm.

:class:`RFHPolicy` owns the smoothing state of Eqs. 10–11 (each virtual
node "periodically calculates its traffic load" against history) and
runs the Fig. 2 decision tree for every partition each epoch.  It is the
``"rfh"`` entry of the four-algorithm comparison.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..config import RFHParameters
from ..sim.actions import Action, Migrate, Replicate, Suicide
from ..sim.observation import EpochObservation
from .decision import (
    SUICIDE_HEADROOM,
    SUICIDE_IDLE_BAR,
    RFHDecision,
)
from .smoothing import ActiveRowEwma, Ewma
from .thresholds import UNSERVED_TOLERANCE
from .traffic import upsert_cells

if TYPE_CHECKING:
    from .traffic import CellMatrix
    from ..obs.perf import WorkCounters
    from ..sim.columnar.state import SimState

__all__ = ["BirthLedger", "RFHPolicy", "ReplicaAges"]

#: A birth key is ``partition << SID_BITS | sid``: keys sort by
#: partition, then sid.
SID_BITS = 32


class BirthLedger:
    """Birth epochs of the replicas the policy placed, for the suicide
    warm-up exemption.

    ``keys`` are the ascending int64 ``(partition, sid)`` keys of the
    births (``partition << SID_BITS | sid``) and ``epochs`` their int32
    birth epochs.  Every Replicate or Migrate target a decision returns
    is born then, whether or not apply places it; a Migrate source or a
    Suicide removes its birth.  Nothing else does: a birth outlives its
    copy's server failing, and reads again if a restore or a later
    placement puts a copy on that server.
    """

    __slots__ = ("keys", "epochs")

    def __init__(self) -> None:
        self.keys = np.zeros(0, dtype=np.int64)
        self.epochs = np.zeros(0, dtype=np.int32)

    def born(self, partition: int, sid: int) -> int | None:
        """Birth epoch of the copy of ``partition`` on ``sid``, if recorded."""
        key = partition << SID_BITS | sid
        i = int(self.keys.searchsorted(key))
        if i < self.keys.shape[0] and int(self.keys[i]) == key:
            return int(self.epochs[i])
        return None

    def record(self, epoch: int, actions: list[Action]) -> None:
        """Write one epoch's actions in, in one sorted merge.

        The actions apply in order, so where two touch the same copy
        the later one decides whether its birth stays.
        """
        born: dict[int, bool] = {}
        for action in actions:
            if isinstance(action, (Replicate, Migrate)):
                born[action.partition << SID_BITS | action.target_sid] = True
            if isinstance(action, Migrate):
                born[action.partition << SID_BITS | action.source_sid] = False
            elif isinstance(action, Suicide):
                born[action.partition << SID_BITS | action.sid] = False
        if not born:
            return
        keys = np.fromiter(born.keys(), dtype=np.int64, count=len(born))
        live = np.fromiter(born.values(), dtype=bool, count=len(born))
        epochs = np.full(len(born), epoch, dtype=np.int32)
        self.keys, self.epochs = upsert_cells(self.keys, self.epochs, keys, epochs, live)


class ReplicaAges:
    """Lazy ``(partition, sid) → age-in-epochs`` view of the birth ledger.

    The decision tree only ever looks up replicas of the partition it is
    evaluating, so resolving ages on demand (a binary search per lookup)
    instead of materialising every recorded birth each epoch returns the
    identical values at O(lookups) cost.
    """

    __slots__ = ("_births", "_epoch")

    def __init__(self, births: BirthLedger, epoch: int) -> None:
        self._births = births
        self._epoch = epoch

    def get(self, key: tuple[int, int], default: int) -> int:
        born = self._births.born(key[0], key[1])
        return default if born is None else self._epoch - born


class RFHPolicy:
    """Resilient, Fault-tolerant, High-efficient replication (the paper)."""

    name = "rfh"

    def __init__(self, params: RFHParameters | None = None) -> None:
        self._params = params if params is not None else RFHParameters()
        self._avg_query = Ewma(self._params.alpha)  # Eq. 10, per partition
        self._holder_traffic = Ewma(self._params.alpha)  # Eq. 11 at the holder
        self._unserved = Ewma(self._params.alpha)  # blocked-query signal
        # The two matrix-shaped EWMAs — Eq. 11's (partition, dc) traffic
        # and the per-(partition, server) served signal — keep only the
        # rows that have ever held a nonzero value and update them from
        # the epoch's nonzero cells (bit-identical to the dense EWMA; see
        # :class:`ActiveRowEwma`).  At scale most partitions are never
        # queried, so their rows are never stored.  The server axis
        # grows when nodes join mid-run.
        self._traffic = ActiveRowEwma(self._params.alpha)  # Eq. 11, (partition, dc)
        self._served = ActiveRowEwma(self._params.alpha)  # (partition, server)
        # Birth epoch of replicas this policy created, for the suicide
        # warm-up exemption.
        self._births = BirthLedger()
        self._decision = RFHDecision(self._params)
        # Work counters (opt-in via attach_perf).
        self._work: WorkCounters | None = None
        # Columnar decision prefilter (opt-in via attach_columnar_state):
        # with a replica-cell mirror available, partitions that provably
        # take no branch of the Fig. 2 tree are skipped in bulk.  Scalar
        # runs never attach one, so the reference loop stays untouched.
        self._columnar_state: SimState | None = None
        self._provenance_attached = False

    @property
    def params(self) -> RFHParameters:
        return self._params

    def attach_perf(self, *, work: "WorkCounters") -> None:
        """Opt into work counting (``repro.obs.perf``): ``work`` counts
        decisions evaluated.  Called by the engine when it is attached."""
        self._work = work
        self._decision.attach_perf(work=work)

    def attach_provenance(self, recorder) -> None:
        """Opt into decision-provenance recording (``repro.obs.provenance``)."""
        self._decision.attach_provenance(recorder)
        # Drafts open per evaluated partition, so the prefilter must not
        # skip any while a recorder is attached (ledger completeness).
        self._provenance_attached = recorder is not None

    def attach_columnar_state(self, state: "SimState") -> None:
        """Opt into the columnar decision prefilter (``repro.sim.columnar``)."""
        self._columnar_state = state

    def decide(self, obs: EpochObservation) -> list[Action]:
        """Run the decision tree over all partitions for one epoch."""
        avg_query = np.asarray(self._avg_query.update(obs.system_average_query()))
        traffic = self._update_traffic(obs.result.traffic_cells)
        holder_traffic = np.asarray(self._holder_traffic.update(obs.holder_traffic))
        unserved = np.asarray(self._unserved.update(obs.unserved))
        served = self._update_served(obs.result.served_cells)
        actions: list[Action] = []
        partitions = self._decision_partitions(
            obs, avg_query, holder_traffic, unserved, served
        )
        age = self._replica_ages(obs.epoch)
        for partition in partitions:
            actions.extend(
                self._decision.decide_partition(
                    partition,
                    obs,
                    float(avg_query[partition]),
                    traffic.row(partition),
                    float(holder_traffic[partition]),
                    served.row(partition),
                    float(unserved[partition]),
                    replica_age=age,
                )
            )
        self._births.record(obs.epoch, actions)
        return actions

    def _decision_partitions(
        self,
        obs: EpochObservation,
        avg_query: np.ndarray,
        holder_traffic: np.ndarray,
        unserved: np.ndarray,
        served: ActiveRowEwma,
    ) -> "range | list[int]":
        """Partitions the decision tree must visit this epoch, in order.

        Without a columnar mirror (or with provenance attached) this is
        every partition — the scalar reference behaviour.  With one, a
        conservative vectorized evaluation of the Fig. 2 predicates
        skips partitions that provably return no action: availability
        floor met, holder neither blocked nor past Eq. 12 on both the
        smoothed and raw signal, and no replica that could clear the
        suicide gates.  Every comparison below is the same IEEE-754
        operation the scalar tree performs on the same float64 values,
        so a skipped partition is exactly one whose evaluation would be
        a no-op; skipped evaluations are re-credited to the
        ``decisions_evaluated`` work counter in bulk.
        """
        state = self._columnar_state
        num_servers = served.shape[1]
        if (
            state is None
            or self._provenance_attached
            or state.num_servers != num_servers
        ):
            return range(obs.num_partitions)
        params = self._params
        tol = np.maximum(UNSERVED_TOLERANCE, 0.5 * avg_query)
        blocked = unserved > tol
        # Eq. 12's zero-demand guard (see thresholds.is_holder_overloaded):
        # q̄ = 0 pins the overload comparison false, element-wise here.
        demand = avg_query > 0.0
        beta_bar = params.beta * avg_query
        raw_holder = obs.holder_traffic
        threshold_hit = (
            demand & (holder_traffic >= beta_bar) & (raw_holder >= beta_bar)
        )
        overload = blocked | threshold_hit
        relaxed_bar = (params.beta * SUICIDE_HEADROOM) * avg_query
        comfortable = (unserved <= SUICIDE_HEADROOM * tol) & ~(
            demand & (holder_traffic >= relaxed_bar)
        )
        # A suicide is only *possible* when some non-holder replica sits
        # under both the Eq. 15 bar and the idle bar (age is checked in
        # the tree itself — ignoring it here only costs an evaluation).
        # The per-replica scan runs only on the cells of rows that
        # already cleared the comfortable/floor gates — the candidate
        # predicate is pure and elementwise, so restricting its
        # evaluation changes nothing.
        counts = state.replica_counts()
        shrinkable = comfortable & (counts - 1 >= obs.rmin)
        may_shrink = shrinkable
        if shrinkable.any():
            index, _count = state.cells()
            row = index // num_servers
            picked = shrinkable[row]
            row = row[picked]
            col = index[picked] % num_servers
            served_cells = served.cells(row, col)
            candidate = (
                (col != state.holder[row])
                & (served_cells <= params.delta * avg_query[row])
                & (served_cells <= SUICIDE_IDLE_BAR)
            )
            may_shrink = np.zeros(counts.shape[0], dtype=bool)
            may_shrink[row[candidate]] = True
        skip = (
            (state.holder >= 0)
            & (counts >= obs.rmin)
            & ~overload
            & ~may_shrink
        )
        if self._work is not None:
            self._work.decisions_evaluated += int(np.count_nonzero(skip))
        return np.nonzero(~skip)[0].tolist()

    def _replica_ages(self, epoch: int) -> ReplicaAges:
        """Age view of policy-placed replicas, resolved on lookup."""
        return ReplicaAges(self._births, epoch)

    def _update_traffic(self, raw: "CellMatrix") -> ActiveRowEwma:
        """EWMA of the (P, D) traffic matrix (Eq. 11), in place."""
        return self._traffic.update(raw)

    def _update_served(self, raw: "CellMatrix") -> ActiveRowEwma:
        """EWMA of the (P, S) served matrix, widened on server growth."""
        return self._served.update(raw)
