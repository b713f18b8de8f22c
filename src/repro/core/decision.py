"""The RFH decision tree (paper Fig. 2), per virtual node.

"Every node is self-organized.  They replicate, migrate or choose to
suicide with a decentralized manner."  Each data partition is a virtual
node running this agent once per epoch:

1. **Availability branch** — "for each epoch, every node calculates
   availability according to (14).  If the minimum availability is not
   reached for a primary partition holder, it will replicate to its most
   forwarding nodes, even if all the nodes are not overloaded."
2. **Load branch** — the holder checks Eq. 12 (β-overload); forwarding
   nodes check Eq. 13 (γ-hub).  An overloaded holder picks among the
   ``hub_fanout`` (3) largest-traffic hubs; "if there's any replica of
   it not at these three nodes, it will check the migration condition
   according to (16) and sends a migration request to the node holding
   this replica.  Otherwise, it will replicate to the chosen traffic hub
   node."  When no forwarding hub qualifies but the holder is drowning,
   RFH replicates inside the holder's own datacenter — the paper
   observes exactly these same-DC replicas in its cost analysis
   ("some replicas are placed on the same datacenter of the primary
   partition holders, but in different servers").
3. **Suicide branch** — Eq. 15 (δ-cold) replicas "calculate the
   availability without [themselves].  If the minimum availability is
   still satisfied without it, it will commit suicide."

Pacing: at most one replicate-or-migrate plus one suicide per partition
per epoch — the paper's holder picks *a* node among the top hubs each
round, which is what makes Fig. 4's replica-count curves ramp over tens
of epochs instead of jumping.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from ..config import RFHParameters
from ..sim.actions import Action, Migrate, Replicate, Suicide
from ..sim.observation import EpochObservation
from ..sim.reasons import (
    AVAILABILITY,
    COLD_REPLICA,
    HUB_MIGRATION,
    LOCAL_RELIEF,
    TRAFFIC_HUB,
)

if TYPE_CHECKING:
    from ..obs.perf import WorkCounters
    from ..obs.provenance.recorder import ProvenanceRecorder
    from ..obs.provenance.records import DecisionDraft
from .migration import (
    coldest_replica_dc,
    mean_partition_traffic,
    pick_hub_target,
    replica_sid_in_dc,
)
from .placement import choose_lowest_blocking
from .thresholds import (
    blocked_tolerance,
    is_blocked,
    is_holder_overloaded,
    is_suicide_candidate,
    migration_benefit_met,
)

__all__ = ["AgeLookup", "RFHDecision"]


class AgeLookup(Protocol):
    """Replica-age source: a plain dict or a lazy view over birth records."""

    def get(self, key: tuple[int, int], default: int) -> int:
        """Age in epochs of replica ``(partition, sid)``, or ``default``."""
        ...

#: Anti-flapping deadband: a replica may only suicide while the holder's
#: smoothed traffic sits below this fraction of the Eq. 12 overload
#: threshold.  Without hysteresis the replicate/suicide pair limit-cycles
#: around the β boundary (kill a lightly-used replica → holder crosses β
#: → replicate → new surplus goes cold → kill ...).  0.5 gives a 2x gap
#: between the grow and shrink set-points; the ablation bench
#: ``bench_ablation_thresholds`` sweeps it.
SUICIDE_HEADROOM: float = 0.5

#: Absolute near-idle bar for suicide, in queries/epoch.  Eq. 15's
#: relative bar δ·q̄ can exceed a replica's whole contribution when q̄ is
#: large — killing a replica that still serves ~1 query/epoch in a
#: system with no spare capacity converts that service into blocked
#: queries, which re-triggers replication (a grow/shrink limit cycle).
#: A replica must be essentially idle, not merely below-average, to
#: reclaim itself.
SUICIDE_IDLE_BAR: float = 0.05

#: Epochs a replica must live before it may suicide.  A newborn's
#: served-EWMA starts at zero and needs ~2/alpha epochs to reflect its
#: real service level; without the warm-up, replicas created during a
#: load spike are reclaimed one epoch later and immediately re-created.
SUICIDE_WARMUP_EPOCHS: int = 25


class RFHDecision:
    """Stateless per-partition decision agent; all state is in the inputs."""

    def __init__(self, params: RFHParameters) -> None:
        self._params = params
        self._work: "WorkCounters | None" = None
        self._prov: "ProvenanceRecorder | None" = None

    def attach_perf(self, *, work: "WorkCounters") -> None:
        """Opt into work counting (``repro.obs.perf``)."""
        self._work = work

    def attach_provenance(self, recorder: "ProvenanceRecorder | None") -> None:
        """Opt into decision-provenance recording (``repro.obs.provenance``).

        While attached, every ``decide_partition`` call opens a draft,
        records each threshold predicate and candidate it evaluates, and
        seals the draft into the recorder's ledger.  Detach with ``None``;
        the disabled path is a single ``is None`` check per site.
        """
        self._prov = recorder

    # ------------------------------------------------------------------
    def decide_partition(
        self,
        partition: int,
        obs: EpochObservation,
        avg_query: float,
        traffic_row: np.ndarray,
        holder_traffic: float,
        served_row: np.ndarray,
        unserved: float,
        replica_age: AgeLookup | None = None,
    ) -> list[Action]:
        """Run the Fig. 2 tree for one partition.

        Parameters
        ----------
        avg_query:
            Smoothed ``q̄_it`` (Eqs. 9–10) for this partition.
        traffic_row:
            Smoothed per-datacenter traffic ``tr_ikt`` (Eqs. 8, 11),
            length ``D``.
        holder_traffic:
            Smoothed ``tr_iit`` — traffic reaching the holder server
            itself (Eq. 12's left-hand side).
        served_row:
            Smoothed per-*server* served queries for this partition
            (length ``S``).  Eq. 15's suicide test is per *node*: an
            individual replica that no longer sees traffic must be able
            to reclaim itself even when its datacenter as a whole is
            busy (other replicas there absorb the arriving flow first).
        unserved:
            Smoothed blocked-query count for this partition; persistent
            blocking counts as overload regardless of Eq. 12 (see
            :data:`repro.core.thresholds.UNSERVED_TOLERANCE`).
        replica_age:
            Optional ``{(partition, sid): age_in_epochs}`` map; replicas
            younger than :data:`SUICIDE_WARMUP_EPOCHS` are exempt from
            the suicide branch (their served-EWMA is still warming up).
        """
        if self._work is not None:
            self._work.decisions_evaluated += 1
        replicas = obs.replicas
        if not replicas.has_holder(partition):
            return []  # lost partition: the engine restores it first
        holder_sid = replicas.holder(partition)
        holder_dc = obs.cluster.dc_of(holder_sid)
        layout_by_dc = replicas.replicas_by_dc(partition)
        replica_dcs = list(layout_by_dc)
        replica_count = replicas.replica_count(partition)

        draft = (
            None
            if self._prov is None
            else self._prov.open(
                epoch=obs.epoch,
                partition=partition,
                avg_query=avg_query,
                holder_traffic=holder_traffic,
                unserved=unserved,
                mean_traffic=mean_partition_traffic(traffic_row),
                replica_count=replica_count,
                rmin=obs.rmin,
                holder_dc=holder_dc,
            )
        )

        actions: list[Action] = []
        grow = self._growth_action(
            partition,
            obs,
            avg_query,
            traffic_row,
            holder_traffic,
            unserved,
            holder_sid,
            holder_dc,
            layout_by_dc,
            replica_dcs,
            replica_count,
            replica_age,
            draft,
        )
        if grow is not None:
            actions.append(grow)

        # Growth and shrinkage are exclusive branches of the Fig. 2 tree:
        # a partition that is still relieving load (or rebuilding its
        # availability floor) never reclaims replicas in the same epoch —
        # otherwise replicate/suicide chase each other forever.
        headroom_tol = SUICIDE_HEADROOM * blocked_tolerance(avg_query)
        relaxed = not is_holder_overloaded(
            holder_traffic, avg_query, self._params.beta * SUICIDE_HEADROOM
        )
        comfortable = unserved <= headroom_tol and relaxed
        if grow is None and draft is not None:
            draft.predicate(
                "headroom-blocked",
                f"partition:{partition}",
                unserved,
                headroom_tol,
                unserved <= headroom_tol,
            )
            draft.predicate(
                "headroom-load",
                f"partition:{partition}",
                holder_traffic,
                self._params.beta * SUICIDE_HEADROOM * avg_query,
                relaxed,
            )
        if grow is None and comfortable:
            shrink = self._suicide_action(
                partition,
                obs,
                avg_query,
                served_row,
                replica_count,
                replica_age,
                draft,
            )
            if shrink is not None:
                actions.append(shrink)
        if draft is not None and self._prov is not None:
            self._prov.close(draft, actions, dc_of=obs.cluster.dc_of)
        return actions

    # ------------------------------------------------------------------
    # Branch 1 + 2: replication / migration
    # ------------------------------------------------------------------
    def _growth_action(
        self,
        partition: int,
        obs: EpochObservation,
        avg_query: float,
        traffic_row: np.ndarray,
        holder_traffic: float,
        unserved: float,
        holder_sid: int,
        holder_dc: int,
        layout_by_dc: dict[int, list[tuple[int, int]]],
        replica_dcs: list[int],
        replica_count: int,
        replica_age: AgeLookup | None,
        draft: "DecisionDraft | None" = None,
    ) -> Action | None:
        params = self._params

        # --- availability branch (Eq. 14 floor) -----------------------
        floor_met = replica_count >= obs.rmin
        if draft is not None:
            draft.predicate(
                "eq14", f"partition:{partition}", replica_count, obs.rmin, floor_met
            )
        if not floor_met:
            if draft is not None:
                draft.branch = "availability"
            target = self._place_by_traffic(
                partition, obs, traffic_row, replica_dcs, prefer_new_dc=True,
                draft=draft,
            )
            if target is not None:
                return Replicate(partition, holder_sid, target, reason=AVAILABILITY)
            return None

        # --- load branch (Eqs. 12/13) ----------------------------------
        # Both the smoothed signal (Eq. 11 history) and the current raw
        # epoch must agree the holder is drowning: smoothing alone keeps
        # reporting overload for ~1/alpha epochs after relief arrives,
        # which over-builds by exactly that many replicas per partition.
        raw_holder = float(obs.holder_traffic[partition])
        blocked = is_blocked(unserved, avg_query)
        threshold_hit = is_holder_overloaded(
            holder_traffic, avg_query, params.beta
        ) and is_holder_overloaded(raw_holder, avg_query, params.beta)
        overload = blocked or threshold_hit
        # Hub candidates are *nodes not holding the original
        # partition*; at our datacenter granularity that includes
        # the holder's own datacenter — its other servers are
        # forwarders sitting directly on every incoming path, which
        # is how the paper's same-DC replicas arise ("some replicas
        # are placed on the same datacenter of the primary
        # partition holders").
        # One vectorized Eq. 13 sweep over the datacenters: the
        # γ·q̄ bar is a single double and each lane runs the same
        # ``>=`` the scalar :func:`is_traffic_hub` call performs
        # (zero-demand pinned false first), so the candidate list
        # is element-for-element the per-dc loop's.
        if overload and avg_query > 0.0:
            hubs = np.nonzero(traffic_row >= params.gamma * avg_query)[0].tolist()
        else:
            hubs = []
        if draft is not None:
            beta_bar = params.beta * avg_query
            draft.predicate(
                "blocked",
                f"partition:{partition}",
                unserved,
                blocked_tolerance(avg_query),
                blocked,
            )
            draft.predicate(
                "eq12",
                f"server:{holder_sid}",
                holder_traffic,
                beta_bar,
                is_holder_overloaded(holder_traffic, avg_query, params.beta),
            )
            draft.predicate(
                "eq12-raw",
                f"server:{holder_sid}",
                raw_holder,
                beta_bar,
                is_holder_overloaded(raw_holder, avg_query, params.beta),
            )
            if overload:
                draft.branch = "load"
                gamma_bar = params.gamma * avg_query
                hub_set = set(hubs)
                for dc in range(obs.num_datacenters):
                    draft.candidate(
                        "hub",
                        dc,
                        cause="not-tried" if dc in hub_set else "below-gamma",
                        value=float(traffic_row[dc]),
                        threshold=gamma_bar,
                    )
        if not overload:
            return None
        if not hubs:
            # Overloaded with no qualifying forwarding hub: relieve locally.
            target = self._choose_server(partition, obs, holder_dc)
            if draft is not None:
                draft.candidate(
                    "local-relief",
                    holder_dc,
                    sid=-1 if target is None else target,
                    verdict="rejected" if target is None else "chosen",
                    cause="no-eligible-server" if target is None else "same-dc-relief",
                )
            if target is not None:
                return Replicate(partition, holder_sid, target, reason=LOCAL_RELIEF)
            return None

        top = sorted(hubs, key=lambda dc: (-float(traffic_row[dc]), dc))
        top = top[: params.hub_fanout]
        if draft is not None and len(hubs) > len(top):
            top_set = set(top)
            for dc in hubs:
                if dc not in top_set:
                    draft.resolve_candidate("hub", dc, "rejected", "outside-top-fanout")
        chosen_dc = pick_hub_target(top, traffic_row, replica_dcs)
        if chosen_dc is None:
            return None

        # Replicas parked outside the hot set are migration candidates —
        # but only on a genuine Eq. 12 threshold crossing (a capacity
        # shortfall is solved by adding copies, not by moving them) and
        # only for replicas old enough to have proven themselves cold.
        outside = [
            dc for dc in replica_dcs if dc != holder_dc and dc not in top
        ]
        if outside and threshold_hit:
            src_dc = coldest_replica_dc(traffic_row, outside)
            if src_dc is not None:
                mean_traffic = mean_partition_traffic(traffic_row)
                benefit = migration_benefit_met(
                    float(traffic_row[chosen_dc]),
                    float(traffic_row[src_dc]),
                    mean_traffic,
                    params.mu,
                )
                src_sid = replica_sid_in_dc(layout_by_dc, src_dc)
                mature = src_sid is not None and (
                    replica_age is None
                    or replica_age.get((partition, src_sid), SUICIDE_WARMUP_EPOCHS)
                    >= SUICIDE_WARMUP_EPOCHS
                )
                if draft is not None:
                    draft.predicate(
                        "eq16",
                        f"dc:{src_dc}->dc:{chosen_dc}",
                        float(traffic_row[chosen_dc]) - float(traffic_row[src_dc]),
                        params.mu * mean_traffic,
                        benefit,
                    )
                    if src_sid is not None:
                        age = (
                            SUICIDE_WARMUP_EPOCHS
                            if replica_age is None
                            else replica_age.get(
                                (partition, src_sid), SUICIDE_WARMUP_EPOCHS
                            )
                        )
                        draft.predicate(
                            "maturity",
                            f"server:{src_sid}",
                            age,
                            SUICIDE_WARMUP_EPOCHS,
                            mature,
                        )
                if benefit and mature and src_sid != holder_sid:
                    target = self._choose_server(
                        partition, obs, chosen_dc, exclude=(src_sid,)
                    )
                    if target is not None:
                        if draft is not None:
                            draft.candidate(
                                "migration-source",
                                src_dc,
                                sid=src_sid if src_sid is not None else -1,
                                verdict="chosen",
                                cause="coldest-outside-replica",
                                value=float(traffic_row[src_dc]),
                            )
                            draft.resolve_candidate(
                                "hub", chosen_dc, "chosen", "migration-destination"
                            )
                        return Migrate(
                            partition, src_sid, target, reason=HUB_MIGRATION
                        )
                    elif draft is not None:
                        draft.candidate(
                            "migration-source",
                            src_dc,
                            sid=src_sid if src_sid is not None else -1,
                            verdict="rejected",
                            cause="no-eligible-server",
                            value=float(traffic_row[src_dc]),
                        )
                elif draft is not None:
                    cause = (
                        "below-mu"
                        if not benefit
                        else ("warming-up" if not mature else "holder-replica")
                    )
                    draft.candidate(
                        "migration-source",
                        src_dc,
                        sid=src_sid if src_sid is not None else -1,
                        verdict="rejected",
                        cause=cause,
                        value=float(traffic_row[src_dc]),
                    )
        # Replicate into the chosen hub; if every eligible server there
        # already holds a copy, fall through the remaining top hubs in
        # preference order (fresh datacenters first, then traffic).
        replica_set = set(replica_dcs)
        fallbacks = sorted(
            top, key=lambda dc: (dc in replica_set, -float(traffic_row[dc]), dc)
        )
        ordered = [chosen_dc] + [dc for dc in fallbacks if dc != chosen_dc]
        for dc in ordered:
            target = self._choose_server(partition, obs, dc)
            if target is not None:
                if draft is not None:
                    draft.resolve_candidate(
                        "hub",
                        dc,
                        "chosen",
                        "preferred-hub" if dc == chosen_dc else "fallback-hub",
                    )
                return Replicate(partition, holder_sid, target, reason=TRAFFIC_HUB)
            if draft is not None:
                draft.resolve_candidate("hub", dc, "rejected", "no-eligible-server")
        return None

    # ------------------------------------------------------------------
    # Branch 3: suicide
    # ------------------------------------------------------------------
    def _suicide_action(
        self,
        partition: int,
        obs: EpochObservation,
        avg_query: float,
        served_row: np.ndarray,
        replica_count: int,
        replica_age: AgeLookup | None,
        draft: "DecisionDraft | None" = None,
    ) -> Suicide | None:
        floor_holds = replica_count - 1 >= obs.rmin
        if draft is not None:
            draft.predicate(
                "eq14-next",
                f"partition:{partition}",
                replica_count - 1,
                obs.rmin,
                floor_holds,
            )
        if not floor_holds:
            return None  # availability without the replica would fail
        params = self._params
        holder_sid = obs.replicas.holder(partition)
        if draft is None:
            candidates = [
                sid
                for sid, _count in obs.replicas.servers_with(partition)
                if sid != holder_sid
                and is_suicide_candidate(
                    float(served_row[sid]), avg_query, params.delta
                )
                and float(served_row[sid]) <= SUICIDE_IDLE_BAR
                and (
                    replica_age is None
                    or replica_age.get((partition, sid), SUICIDE_WARMUP_EPOCHS)
                    >= SUICIDE_WARMUP_EPOCHS
                )
            ]
        else:
            draft.branch = "suicide"
            delta_bar = params.delta * avg_query
            candidates = []
            for sid, _count in obs.replicas.servers_with(partition):
                if sid == holder_sid:
                    continue
                served = float(served_row[sid])
                if not is_suicide_candidate(served, avg_query, params.delta):
                    cause = "above-delta"
                elif served > SUICIDE_IDLE_BAR:
                    cause = "above-idle-bar"
                elif not (
                    replica_age is None
                    or replica_age.get((partition, sid), SUICIDE_WARMUP_EPOCHS)
                    >= SUICIDE_WARMUP_EPOCHS
                ):
                    cause = "warming-up"
                else:
                    candidates.append(sid)
                    continue  # verdict recorded once the coldest is known
                draft.candidate(
                    "suicide",
                    obs.cluster.dc_of(sid),
                    sid=sid,
                    cause=cause,
                    value=served,
                    threshold=delta_bar,
                )
        if not candidates:
            return None
        coldest = min(candidates, key=lambda sid: (float(served_row[sid]), sid))
        if draft is not None:
            for sid in candidates:
                draft.candidate(
                    "suicide",
                    obs.cluster.dc_of(sid),
                    sid=sid,
                    verdict="chosen" if sid == coldest else "rejected",
                    cause="coldest" if sid == coldest else "warmer-than-chosen",
                    value=float(served_row[sid]),
                    threshold=params.delta * avg_query,
                )
        return Suicide(partition, coldest, reason=COLD_REPLICA)

    # ------------------------------------------------------------------
    # Placement helpers
    # ------------------------------------------------------------------
    def _choose_server(
        self,
        partition: int,
        obs: EpochObservation,
        dc: int,
        exclude: tuple[int, ...] = (),
    ) -> int | None:
        """Lowest-blocking eligible server in ``dc`` without a copy."""
        holding = {sid for sid, _ in obs.replicas.servers_with(partition)}
        holding.update(exclude)
        return choose_lowest_blocking(
            obs.cluster,
            dc,
            obs.blocking_probability,
            obs.partition_size_mb,
            self._params.phi,
            exclude=holding,
        )

    def _place_by_traffic(
        self,
        partition: int,
        obs: EpochObservation,
        traffic_row: np.ndarray,
        replica_dcs: list[int],
        prefer_new_dc: bool,
        draft: "DecisionDraft | None" = None,
    ) -> int | None:
        """Most-forwarding datacenter placement for the availability branch.

        Datacenters are tried by (no-replica-first if requested, traffic
        descending, index); the first one with an eligible server wins.
        """
        replica_set = set(replica_dcs)
        order = sorted(
            range(obs.num_datacenters),
            key=lambda dc: (
                (dc in replica_set) if prefer_new_dc else False,
                -float(traffic_row[dc]),
                dc,
            ),
        )
        for dc in order:
            target = self._choose_server(partition, obs, dc)
            if target is not None:
                if draft is not None:
                    draft.candidate(
                        "availability-target",
                        dc,
                        sid=target,
                        verdict="chosen",
                        cause="most-forwarding",
                        value=float(traffic_row[dc]),
                    )
                return target
            if draft is not None:
                draft.candidate(
                    "availability-target",
                    dc,
                    cause="no-eligible-server",
                    value=float(traffic_row[dc]),
                )
        return None
