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
from ..sim.actions import Action
from ..sim.observation import EpochObservation
from .decision import (
    SUICIDE_HEADROOM,
    SUICIDE_IDLE_BAR,
    RFHDecision,
)
from .smoothing import ActiveRowEwma, Ewma
from .thresholds import UNSERVED_TOLERANCE
from .traffic import _null_span

if TYPE_CHECKING:
    from .traffic import CellMatrix
    from ..obs.perf.counters import WorkCounters
    from ..sim.columnar.state import SimState

__all__ = ["RFHPolicy", "ReplicaAges"]


class ReplicaAges:
    """Lazy ``(partition, sid) → age-in-epochs`` view of the birth ledger.

    The decision tree only ever looks up replicas of the partition it is
    evaluating, so resolving ages on demand (instead of materialising a
    dict over every recorded birth each epoch) returns the identical
    values at O(lookups) cost.
    """

    __slots__ = ("_birth", "_epoch")

    def __init__(self, birth: dict[int, dict[int, int]], epoch: int) -> None:
        self._birth = birth
        self._epoch = epoch

    def get(self, key: tuple[int, int], default: int) -> int:
        by_sid = self._birth.get(key[0])
        if by_sid is None:
            return default
        born = by_sid.get(key[1])
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
        # warm-up exemption, indexed partition → {sid: epoch} so the age
        # view can be built only for the partitions under evaluation.
        self._birth: dict[int, dict[int, int]] = {}
        self._decision = RFHDecision(self._params)
        # Perf instrumentation (opt-in via attach_perf): a kernel-span
        # factory and the shared work counters.
        self._span = _null_span
        self._work: WorkCounters | None = None
        # Columnar decision prefilter (opt-in via attach_columnar_state):
        # with a dense replica mirror available, partitions that provably
        # take no branch of the Fig. 2 tree are skipped in bulk.  Scalar
        # runs never attach one, so the reference loop stays untouched.
        self._columnar_state: SimState | None = None
        self._provenance_attached = False
        self._arange_servers = np.zeros(0, dtype=np.int64)

    @property
    def params(self) -> RFHParameters:
        return self._params

    def attach_perf(self, *, profiler=None, work: "WorkCounters | None" = None) -> None:
        """Opt into perf observability (``repro.obs.perf``).

        ``profiler`` (when it supports spans) times the EWMA-smoothing
        and decision-evaluation kernels; ``work`` counts decisions
        evaluated.  Called by the engine when either is attached.
        """
        if profiler is not None and getattr(profiler, "supports_spans", False):
            self._span = profiler.span
        self._work = work
        self._decision.attach_perf(work=work, span=self._span)

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
        with self._span("ewma-smoothing"):
            avg_query = np.asarray(self._avg_query.update(obs.system_average_query()))
            traffic = self._update_traffic(obs.result.traffic_cells)
            holder_traffic = np.asarray(
                self._holder_traffic.update(obs.holder_traffic)
            )
            unserved = np.asarray(self._unserved.update(obs.unserved))
            served = self._update_served(obs.result.served_cells)
        actions: list[Action] = []
        with self._span("decision-eval"):
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
        self._record_births(obs.epoch, actions)
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
        # The per-server scan runs only on rows that already cleared the
        # comfortable/floor gates — the candidate predicate is pure and
        # elementwise, so restricting its evaluation changes nothing.
        counts = state.replica_counts()
        shrinkable = comfortable & (counts - 1 >= obs.rmin)
        may_shrink = shrinkable
        rows = np.nonzero(shrinkable)[0]
        if rows.shape[0]:
            arange = self._arange_servers
            if arange.shape[0] != num_servers:
                arange = np.arange(num_servers)
                self._arange_servers = arange
            delta_bar = params.delta * avg_query
            served_rows = served.take(rows)
            candidate_rows = (
                (state.R[rows] > 0)
                & (arange[None, :] != state.holder[rows, None])
                & (served_rows <= delta_bar[rows, None])
                & (served_rows <= SUICIDE_IDLE_BAR)
            ).any(axis=1)
            may_shrink = np.zeros(counts.shape[0], dtype=bool)
            may_shrink[rows] = candidate_rows
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
        return ReplicaAges(self._birth, epoch)

    def _record_births(self, epoch: int, actions: list[Action]) -> None:
        """Track creation epochs of replicas this policy just placed."""
        from ..sim.actions import Migrate, Replicate, Suicide

        for action in actions:
            if isinstance(action, Replicate):
                self._birth.setdefault(action.partition, {})[action.target_sid] = epoch
            elif isinstance(action, Migrate):
                by_sid = self._birth.setdefault(action.partition, {})
                by_sid[action.target_sid] = epoch
                by_sid.pop(action.source_sid, None)
            elif isinstance(action, Suicide):
                by_sid = self._birth.get(action.partition)
                if by_sid is not None:
                    by_sid.pop(action.sid, None)

    def _update_traffic(self, raw: "CellMatrix") -> ActiveRowEwma:
        """EWMA of the (P, D) traffic matrix (Eq. 11), in place."""
        return self._traffic.update(raw)

    def _update_served(self, raw: "CellMatrix") -> ActiveRowEwma:
        """EWMA of the (P, S) served matrix, widened on server growth."""
        return self._served.update(raw)
