"""The epoch-driven simulation engine.

One :class:`Simulation` owns the full world — WAN, cluster, ring,
replica map, workload, policy, metrics — and advances it epoch by epoch
(DESIGN.md Section 3):

1. apply due membership events (failures / recoveries / joins) and
   restore partitions that lost every copy;
2. generate the epoch's query matrix;
3. route and serve it through the current replica layout
   (:func:`repro.core.traffic.serve_epoch` — Eqs. 2–8);
4. hand the policy an immutable observation, collect its actions;
5. apply the actions under storage gates, bandwidth budgets and Eq. 1
   cost accounting;
6. record every metric series of the paper's figures.

The engine is policy-agnostic: ``policy="rfh" | "random" | "owner" |
"request"`` builds the corresponding algorithm, and any object
satisfying :class:`~repro.sim.policy.ReplicationPolicy` is accepted
directly, which is how ablation experiments plug in variants.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Iterable
from typing import TYPE_CHECKING

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.failure import FailureInjector

if TYPE_CHECKING:  # imported lazily at runtime (chaos imports sim.events)
    from ..chaos.controller import ChaosController
    from ..chaos.invariants import InvariantChecker
    from ..chaos.schedule import ChaosSchedule
    from ..consistency.tracker import ConsistencySummary
    from ..metrics.availability_metric import AvailabilitySummary
    from ..obs.perf import WorkCounters
    from ..obs.provenance.recorder import ProvenanceRecorder
    from ..obs.timeseries import TimeseriesRecorder
    from ..staticcheck.sanitizer import DeterminismSanitizer
    from ..workload.query import QueryBatch
from ..consistency.tracker import ConsistencyConfig, ConsistencyTracker
from ..cluster.replicas import ReplicaMap
from ..config import SimulationConfig
from ..core.availability import min_replicas_for_availability
from ..core.blocking import server_blocking_probabilities
from ..core.smoothing import ewma_update_rows
from ..core.traffic import ServiceResult, serve_epoch
from ..errors import ActionError, SimulationError
from ..geo.hierarchy import GeoHierarchy, build_default_hierarchy
from ..metrics.availability_metric import availability_summary
from ..metrics.collector import MetricsCollector
from ..metrics.cost import migration_cost, replication_cost
from ..metrics.imbalance import replica_load_cv, server_load_imbalance
from ..metrics.latency import LatencyModel
from ..metrics.utilization import average_utilization
from ..net.builder import build_wan
from ..net.coordinates import INTRA_DATACENTER_KM
from ..net.graph import WanGraph
from ..net.routing import Router
from ..obs.profiler import NullProfiler, PhaseProfiler
from ..obs.trace import NullTracer, TraceEvent, Tracer
from ..ring.hashring import HashRing
from ..ring.partition import PartitionMapper
from ..workload.generator import QueryGenerator
from ..workload.patterns import UniformPattern
from .actions import Action, Migrate, Replicate, Suicide
from .clock import EpochClock
from .events import (
    ChaosFailureEvent,
    ChaosRecoveryEvent,
    EventQueue,
    LinkFailureEvent,
    LinkRecoveryEvent,
    MassFailureEvent,
    MembershipEvent,
    ServerFailureEvent,
    ServerJoinEvent,
    ServerRecoveryEvent,
)
from .observation import EpochObservation
from .policy import ReplicationPolicy
from .reasons import (
    ALL_COPIES_LOST,
    BOOTSTRAP,
    JOIN,
    LATENCY_BOUND_EXCEEDED,
    MASS_FAILURE,
    RECOVERY,
    SERVER_FAILURE,
    SKIP_BANDWIDTH,
    SKIP_LAST_COPY,
    SKIP_NETWORK_PARTITION,
    SKIP_STORAGE_GATE,
)
from .rng import RngTree

__all__ = ["Simulation"]

#: Something with a ``generate(epoch) -> QueryBatch`` method (a live
#: :class:`QueryGenerator` or a recorded :class:`WorkloadTrace`).
WorkloadSource = object

PolicySpec = str | ReplicationPolicy | Callable[["Simulation"], ReplicationPolicy]


class Simulation:
    """A complete, reproducible simulation run.

    Parameters
    ----------
    config:
        Full parameter set (Table I defaults).
    policy:
        Algorithm name (``"rfh"``, ``"random"``, ``"owner"``,
        ``"request"``), a ready policy object, or a factory called with
        the simulation (for policies that need the mapper / RNG tree).
    workload:
        Optional workload source; defaults to a fresh Poisson generator
        over a :class:`UniformPattern` seeded from the config.  Pass a
        :class:`~repro.workload.trace.WorkloadTrace` to compare
        algorithms on identical queries.
    events:
        Membership events to schedule up-front.
    hierarchy / wan:
        Topology overrides (defaults: the paper's 10-site deployment).
    tracer:
        Optional :class:`~repro.obs.trace.Tracer`; every membership
        event, restore, WAN link change, applied/skipped action,
        invariant violation and SLA violation emits one typed record.
        The trace is the only source of event counters:
        :func:`repro.obs.analysis.registry_from_events` rebuilds them.
        Defaults to a :class:`NullTracer` whose cost is one attribute
        check per emission site.
    profiler:
        Optional :class:`~repro.obs.profiler.PhaseProfiler` timing the
        six phases of :meth:`step`.  Defaults to a no-op.
    chaos:
        Optional :class:`~repro.chaos.schedule.ChaosSchedule`; compiled
        against this simulation's cluster at construction (victims drawn
        from the seeded ``"chaos"`` stream) and scheduled on the event
        queue.  The compiled controller stays reachable as ``self.chaos``.
    invariants:
        Runtime conservation checking
        (:class:`~repro.chaos.invariants.InvariantChecker`), validated
        at the end of every epoch.  Pass a checker, ``True`` for a
        strict default checker, or ``False`` to disable.  The default
        ``None`` consults the ``REPRO_CHECK_INVARIANTS`` environment
        variable — the test suite sets it, so every test run is checked.
    timeseries:
        Optional :class:`~repro.obs.timeseries.TimeseriesRecorder`;
        once per epoch the engine feeds it the epoch's metric values,
        per-datacenter traffic, applied actions per policy reason, work
        counters (when ``work`` is attached) and phase timings (when a
        real profiler is attached), plus membership/chaos event markers.
    sanitizer:
        Optional :class:`~repro.staticcheck.sanitizer.DeterminismSanitizer`;
        once per epoch (end of the record phase) the engine feeds it the
        replica map, cluster storage accounting, RNG stream positions
        and the epoch's metric values, building a fingerprint hash
        chain.  Two same-seed runs can then be diffed down to the first
        divergent epoch and component (``repro sanitize``).
    work:
        Optional :class:`~repro.obs.perf.WorkCounters`; when
        attached, the engine and the kernels it drives count units of
        algorithmic work (partitions scanned, decisions evaluated,
        actions applied, ring lookups, graph hops, RNG draws per
        stream).  Per-epoch deltas are recorded into the timeseries as
        ``work/*`` columns.  Counters are deterministic: two same-seed
        runs produce identical values.
    """

    #: Engine tag stamped into experiment metadata and benchmark records
    #: (the columnar subclass overrides it).
    engine_name: str = "scalar"

    def __init__(
        self,
        config: SimulationConfig,
        policy: PolicySpec = "rfh",
        *,
        workload: WorkloadSource | None = None,
        events: Iterable[MembershipEvent] = (),
        hierarchy: GeoHierarchy | None = None,
        wan: WanGraph | None = None,
        latency: LatencyModel | None = None,
        consistency: ConsistencyConfig | None = None,
        tracer: Tracer | None = None,
        profiler: PhaseProfiler | None = None,
        chaos: ChaosSchedule | None = None,
        invariants: InvariantChecker | bool | None = None,
        timeseries: TimeseriesRecorder | None = None,
        sanitizer: DeterminismSanitizer | None = None,
        work: WorkCounters | None = None,
        provenance: ProvenanceRecorder | None = None,
    ) -> None:
        self.config = config
        self.tracer: Tracer = tracer if tracer is not None else NullTracer()
        self.profiler = profiler if profiler is not None else NullProfiler()
        self.timeseries = timeseries
        self.sanitizer = sanitizer
        #: Decision-provenance ledger (``repro.obs.provenance``); when
        #: attached, the policy's decision tree records every threshold
        #: predicate and the apply phase stamps each action's fate.
        self.provenance = provenance
        #: Hardware-independent work counters (``repro.obs.perf``); when
        #: attached, the hot paths bump cheap integer counters and the
        #: per-epoch deltas ride into the timeseries as ``work/*`` columns.
        self.work = work
        #: Response-time model used for the latency/SLA series (the
        #: intro's 300 ms bound by default).
        self.latency = latency if latency is not None else LatencyModel()
        self.rng_tree = RngTree(config.seed)
        if work is not None:
            # Must attach before any component caches its stream.
            self.rng_tree.attach_draw_counter(work.rng_draws)
        self.hierarchy = hierarchy if hierarchy is not None else build_default_hierarchy()
        self.wan = wan if wan is not None else build_wan(self.hierarchy)
        self.router = Router(self.wan)
        self.cluster = Cluster(
            self.hierarchy, config.cluster, self.rng_tree.stream("capacity")
        )
        self.ring = HashRing()
        for server in self.cluster.servers:
            self.ring.add_server(server.sid)
        self.mapper = PartitionMapper(config.workload.num_partitions, self.ring)
        self.replicas = ReplicaMap(
            self.cluster,
            config.workload.num_partitions,
            config.workload.partition_size_mb,
        )
        self.replicas.bootstrap(self.mapper.holders())
        self.injector = FailureInjector(self.cluster, self.rng_tree.stream("failures"))
        self.clock = EpochClock(config.epoch_seconds)
        self.metrics = MetricsCollector()
        self.rmin = min_replicas_for_availability(
            config.rfh.min_availability, config.rfh.failure_rate
        )
        self._events = EventQueue()
        for event in events:
            self._events.schedule(event)
        # Degraded-routing state for chaos WAN partitions: the physical
        # graph (self.wan) never changes; self.router reflects the
        # currently-up link set.
        self._base_router = self.router
        self._down_links: set[tuple[int, int]] = set()
        #: Compiled chaos controller, or None when no schedule was given.
        self.chaos: ChaosController | None = None
        if chaos is not None:
            from ..chaos.controller import ChaosController
            from ..chaos.domains import FaultDomainIndex

            self.chaos = ChaosController(
                chaos,
                FaultDomainIndex(self.cluster),
                self.hierarchy,
                self.wan,
                self.rng_tree.stream("chaos"),
            )
            for event in self.chaos.compiled_events():
                self._events.schedule(event)
        #: Runtime conservation checking (see class docstring).
        self.invariants: InvariantChecker | None = self._resolve_invariants(invariants)
        if workload is None:
            pattern = UniformPattern(
                config.workload.num_partitions,
                self.hierarchy.num_datacenters,
                config.workload.zipf_exponent,
            )
            workload = QueryGenerator(
                config.workload, pattern, self.rng_tree.stream("workload")
            )
        self.workload = workload
        # Smoothed per-server load feeding the Eq. 18 blocking estimates
        # (maintained by hand because the server count can grow on joins).
        self._smoothed_load = np.zeros(self.cluster.num_servers, dtype=np.float64)
        self._load_initialized = False
        self.policy = self._resolve_policy(policy)
        #: Policy tag stamped on every trace record.
        self.policy_name: str = getattr(
            self.policy, "name", type(self.policy).__name__
        )
        # Work-counter hand-off: policies that count their decisions
        # receive the counters (duck-typed so the ReplicationPolicy
        # protocol stays unchanged).
        attach = getattr(self.policy, "attach_perf", None)
        if attach is not None and work is not None:
            attach(work=work)
        # Provenance hand-off (same duck-typed pattern): policies without
        # an instrumented decision tree still get ledger coverage through
        # the apply phase's fate notes (synthesized minimal records).
        if provenance is not None:
            attach_prov = getattr(self.policy, "attach_provenance", None)
            if attach_prov is not None:
                attach_prov(provenance)
        # Bootstrap placements are engine-internal (no action produced
        # them), so lineage reconstruction from a trace alone needs them
        # emitted explicitly — one record per original copy.
        if self.tracer.enabled:
            for partition in range(self.replicas.num_partitions):
                for sid, _count in self.replicas.servers_with(partition):
                    self.tracer.emit(
                        TraceEvent(
                            epoch=self.clock.epoch,
                            kind="replica_bootstrap",
                            server=sid,
                            partition=partition,
                            reason=BOOTSTRAP,
                            policy=self.policy_name,
                            extra={"dc": self.cluster.dc_of(sid)},
                        )
                    )
        # Applied-action counts by policy reason for the last epoch,
        # exported as ``decision/<reason>`` time-series columns.
        self._decision_counts: dict[str, float] = {}
        self.last_result: ServiceResult | None = None
        # Optional consistency extension (the paper's future work; off by
        # default so every reproduced figure is unaffected).
        self.consistency: ConsistencyTracker | None = None
        if consistency is not None:
            self.consistency = ConsistencyTracker(
                consistency,
                self.rng_tree.stream("consistency"),
                config.workload.partition_size_mb,
                config.rfh.failure_rate,
                config.cluster.replication_bandwidth_mb,
            )

    # ------------------------------------------------------------------
    # Invariant resolution
    # ------------------------------------------------------------------
    @staticmethod
    def _resolve_invariants(
        spec: InvariantChecker | bool | None,
    ) -> InvariantChecker | None:
        if spec is None:
            spec = os.environ.get("REPRO_CHECK_INVARIANTS", "") not in ("", "0")
        if spec is False:
            return None
        if spec is True:
            from ..chaos.invariants import InvariantChecker

            return InvariantChecker(strict=True)
        return spec

    # ------------------------------------------------------------------
    # Policy resolution
    # ------------------------------------------------------------------
    def _resolve_policy(self, spec: PolicySpec) -> ReplicationPolicy:
        if isinstance(spec, str):
            from ..baselines.owner_oriented import OwnerOrientedPolicy
            from ..baselines.random_policy import RandomPolicy
            from ..baselines.request_oriented import RequestOrientedPolicy
            from ..core.policy import RFHPolicy

            builders: dict[str, Callable[[], ReplicationPolicy]] = {
                "rfh": lambda: RFHPolicy(self.config.rfh),
                "random": lambda: RandomPolicy(
                    self.config.rfh, self.mapper, self.rng_tree.stream("policy-random")
                ),
                "owner": lambda: OwnerOrientedPolicy(self.config.rfh),
                "request": lambda: RequestOrientedPolicy(
                    self.config.rfh, self.rng_tree.stream("policy-request")
                ),
            }
            try:
                return builders[spec]()
            except KeyError:
                raise SimulationError(
                    f"unknown policy {spec!r}; choose from {sorted(builders)}"
                ) from None
        if callable(spec) and not hasattr(spec, "decide"):
            return spec(self)  # factory
        return spec  # ready policy object

    # ------------------------------------------------------------------
    # Event scheduling
    # ------------------------------------------------------------------
    def schedule_event(self, event: MembershipEvent) -> None:
        """Schedule a membership event for a future epoch."""
        if event.epoch < self.clock.epoch:
            raise SimulationError(
                f"cannot schedule an event at past epoch {event.epoch} "
                f"(now at {self.clock.epoch})"
            )
        self._events.schedule(event)

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------
    def run(self, epochs: int) -> MetricsCollector:
        """Advance ``epochs`` epochs and return the metric collector."""
        if epochs < 1:
            raise SimulationError(f"epochs must be >= 1, got {epochs}")
        for _ in range(epochs):
            self.step()
        return self.metrics

    def step(self) -> ServiceResult:
        """Advance exactly one epoch; returns the epoch's service result."""
        epoch = self.clock.epoch
        profiler = self.profiler
        with profiler.phase("membership"):
            restored = self._apply_due_events(epoch)
            self.cluster.reset_epoch_budgets()

        # Drop the previous epoch's result before this one's matrices are
        # allocated; ``last_result`` holds the new one once serve is done.
        self.last_result = None
        with profiler.phase("workload"):
            batch = self.workload.generate(epoch)
            if batch.num_partitions != self.replicas.num_partitions:
                raise SimulationError(
                    f"workload produces {batch.num_partitions} partitions, "
                    f"world has {self.replicas.num_partitions}"
                )

        with profiler.phase("serve"):
            result = self._serve_epoch(batch)
            self.last_result = result

        with profiler.phase("observe"):
            blocking = self._update_blocking(result)
            obs = EpochObservation(
                epoch=epoch,
                queries=batch,
                result=result,
                blocking_probability=blocking,
                replicas=self.replicas,
                cluster=self.cluster,
                router=self.router,
                rmin=self.rmin,
                params=self.config.rfh,
                partition_size_mb=self.config.workload.partition_size_mb,
            )
            actions = self.policy.decide(obs)

        with profiler.phase("apply"):
            applied = self._apply_actions(actions, epoch)

        with profiler.phase("record"):
            if self.tracer.enabled and result.sla_miss > 0:
                self.tracer.emit(
                    TraceEvent(
                        epoch=epoch,
                        kind="sla_violation",
                        reason=LATENCY_BOUND_EXCEEDED,
                        policy=self.policy_name,
                        extra={
                            "count": float(result.sla_miss),
                            "queries": float(batch.total),
                        },
                    )
                )
            consistency = None
            if self.consistency is not None:
                consistency = self.consistency.observe(
                    batch.per_partition(),
                    result.served_server,
                    self.replicas,
                    self.cluster,
                    self.router,
                )
            values = self._record_metrics(batch, result, applied, restored, consistency)
            if self.sanitizer is not None:
                self.sanitizer.observe(
                    epoch,
                    replicas=self.replicas,
                    cluster=self.cluster,
                    rng_tree=self.rng_tree,
                    metrics=values,
                )
            if self.timeseries is not None:
                self._sample_timeseries(epoch, values, result)
            self._check_invariants(epoch)
            self.clock.advance()
        return result

    def _sample_timeseries(
        self, epoch: int, values: dict[str, float], result: ServiceResult
    ) -> None:
        """Feed the time-series recorder one flat row for this epoch."""
        row = dict(values)
        per_dc = result.traffic_cells.column_sums()
        for dc in range(per_dc.shape[0]):
            row[f"traffic_dc/{dc}"] = float(per_dc[dc])
        if self.profiler.enabled:
            for phase, seconds in self.profiler.latest().items():
                row[f"phase_s/{phase}"] = seconds
        if self.work is not None:
            for name, count in self.work.epoch_deltas().items():
                row[f"work/{name}"] = float(count)
        for reason, count in self._decision_counts.items():
            row[f"decision/{reason}"] = count
        self.timeseries.sample(epoch, row)

    def _check_invariants(self, epoch: int) -> None:
        """End-of-epoch conservation check (see ``invariants`` in __init__)."""
        if self.invariants is None:
            return
        violations = self.invariants.collect(epoch, self.cluster, self.replicas)
        for violation in violations:
            if self.tracer.enabled:
                self.tracer.emit(
                    TraceEvent(
                        epoch=epoch,
                        kind="invariant_violation",
                        server=violation.server,
                        partition=violation.partition,
                        reason=violation.invariant,
                        policy=self.policy_name,
                        extra={"detail": violation.detail},
                    )
                )
        if violations and self.invariants.strict:
            raise violations[0]

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _apply_due_events(self, epoch: int) -> int:
        """Apply membership events due at ``epoch``; returns the number of
        fully-lost partitions restored afterwards."""
        for event in self._events.pop_due(epoch):
            if isinstance(event, MassFailureEvent):
                victims = self.injector.choose_victims(event.count)
                self._fail(victims, epoch, cause=MASS_FAILURE)
            elif isinstance(event, ServerFailureEvent):
                self._fail(event.sids, epoch, cause=SERVER_FAILURE)
            elif isinstance(event, ServerRecoveryEvent):
                sids = event.sids or tuple(
                    s.sid for s in self.cluster.servers if not s.alive
                )
                for sid in sids:
                    self.cluster.recover_server(sid)
                    self.ring.add_server(sid)
                    self._note_event(
                        epoch,
                        "server_recovery",
                        RECOVERY,
                        server=sid,
                        dc=self.cluster.dc_of(sid),
                    )
            elif isinstance(event, ServerJoinEvent):
                for _ in range(event.count):
                    server = self.cluster.join_server(event.dc)
                    self.ring.add_server(server.sid)
                    self._note_event(
                        epoch, "server_join", JOIN, server=server.sid, dc=event.dc
                    )
            elif isinstance(event, ChaosFailureEvent):
                # Chaos injections may overlap (flapping over a rolling
                # outage): victims already down are skipped, not errors.
                victims = tuple(
                    sid for sid in event.sids if self.cluster.server(sid).alive
                )
                self._fail(victims, epoch, cause=event.cause)
            elif isinstance(event, ChaosRecoveryEvent):
                for sid in event.sids:
                    if self.cluster.server(sid).alive:
                        continue
                    self.cluster.recover_server(sid)
                    self.ring.add_server(sid)
                    self._note_event(
                        epoch,
                        "server_recovery",
                        event.cause,
                        server=sid,
                        dc=self.cluster.dc_of(sid),
                    )
            elif isinstance(event, LinkFailureEvent):
                self._apply_link_change(epoch, event.links, down=True, cause=event.cause)
            elif isinstance(event, LinkRecoveryEvent):
                self._apply_link_change(epoch, event.links, down=False, cause=event.cause)
            else:  # pragma: no cover - closed union
                raise SimulationError(f"unknown event type: {event!r}")
        return self._restore_lost_partitions(epoch)

    def _apply_link_change(
        self,
        epoch: int,
        links: tuple[tuple[int, int], ...],
        *,
        down: bool,
        cause: str,
    ) -> None:
        """Cut or heal WAN links, then recompute the degraded router."""
        changed = []
        for u, v in links:
            link = (u, v) if u < v else (v, u)
            if down and link not in self._down_links:
                self._down_links.add(link)
                changed.append(link)
            elif not down and link in self._down_links:
                self._down_links.discard(link)
                changed.append(link)
        if not changed:
            return
        if self._down_links:
            self.router = Router(self.wan.without_links(self._down_links))
        else:
            self.router = self._base_router
        kind = "link_failure" if down else "link_recovery"
        for u, v in changed:
            self._note_event(epoch, kind, cause, u=u, v=v)

    def _note_event(
        self,
        epoch: int,
        kind: str,
        reason: str,
        *,
        server: int | None = None,
        partition: int | None = None,
        **extra: object,
    ) -> None:
        """Record a membership, link or restore event: the time-series
        marker first, then the trace record, whose ``extra`` keys keep
        their call order (the JSONL byte order)."""
        if self.timeseries is not None:
            self.timeseries.mark(epoch, kind, reason)
        if self.tracer.enabled:
            self.tracer.emit(
                TraceEvent(
                    epoch=epoch,
                    kind=kind,
                    server=server,
                    partition=partition,
                    reason=reason,
                    policy=self.policy_name,
                    extra=extra,
                )
            )

    def _fail(self, sids: Iterable[int], epoch: int, cause: str) -> None:
        for sid in sids:
            self.cluster.fail_server(sid)
            dropped = self.replicas.drop_server(sid)
            self.ring.remove_server(sid)
            # ``partitions`` names every copy that died with the server,
            # so trace consumers can close the right replica lifecycles.
            self._note_event(
                epoch,
                "server_failure",
                cause,
                server=sid,
                replicas_lost=len(dropped),
                partitions=list(dropped),
                dc=self.cluster.dc_of(sid),
            )

    def _restore_lost_partitions(self, epoch: int) -> int:
        """Re-create partitions that lost every copy at their current ring
        owner (a synthetic cold-archive restore; counted in metrics as
        ``lost_partitions`` for the epoch it happened)."""
        restored = 0
        for partition in range(self.replicas.num_partitions):
            if self.replicas.has_holder(partition):
                continue
            owner = self.mapper.holder(partition)  # ring holds alive servers only
            if self.work is not None:
                self.work.ring_lookups += 1
            self.replicas.restore(partition, owner)
            restored += 1
            self._note_event(
                epoch,
                "partition_restore",
                ALL_COPIES_LOST,
                server=owner,
                partition=partition,
                dc=self.cluster.dc_of(owner),
            )
        return restored

    def _serve_epoch(self, batch: "QueryBatch") -> ServiceResult:
        """Route one epoch's queries through the current replica layout.

        The scalar reference implementation; the columnar engine
        (:mod:`repro.sim.columnar`) overrides this with the vectorized
        kernel under the bit-identical reduction contract.
        """
        holder_dc, holder_sid, layouts = self._current_layouts()
        return serve_epoch(
            batch,
            holder_dc,
            layouts,
            self.router,
            self.cluster.num_servers,
            holder_sid=holder_sid,
            latency=self.latency,
            work=self.work,
        )

    def _current_layouts(
        self,
    ) -> tuple[
        list[int | None], list[int | None], list[dict[int, list[tuple[int, float]]]]
    ]:
        holder_dc: list[int | None] = []
        holder_sid: list[int | None] = []
        layouts: list[dict[int, list[tuple[int, float]]]] = []
        for partition in range(self.replicas.num_partitions):
            if not self.replicas.has_holder(partition):
                holder_dc.append(None)
                holder_sid.append(None)
                layouts.append({})
                continue
            sid = self.replicas.holder(partition)
            holder_sid.append(sid)
            holder_dc.append(self.cluster.dc_of(sid))
            layout: dict[int, list[tuple[int, float]]] = {}
            for dc, entries in self.replicas.replicas_by_dc(partition).items():
                layout[dc] = [
                    (entry_sid, count * self.cluster.server(entry_sid).replica_capacity)
                    for entry_sid, count in entries
                    if self.cluster.server(entry_sid).alive
                ]
            layouts.append(layout)
        return holder_dc, holder_sid, layouts

    def _update_blocking(self, result: ServiceResult) -> np.ndarray:
        load = result.per_server_load
        if load.shape[0] > self._smoothed_load.shape[0]:
            grown = np.zeros(load.shape[0], dtype=np.float64)
            grown[: self._smoothed_load.shape[0]] = self._smoothed_load
            self._smoothed_load = grown
        alpha = self.config.rfh.alpha
        if not self._load_initialized:
            self._smoothed_load = load.astype(np.float64, copy=True)
            self._load_initialized = True
        else:
            # The EWMA of core.smoothing: alpha weights the new sample.
            ewma_update_rows(self._smoothed_load, load, alpha)
        return self._blocking_probabilities(self._smoothed_load)

    def _blocking_probabilities(self, load: np.ndarray) -> np.ndarray:
        """Eq. 18 per-server blocking from smoothed load (columnar overrides)."""
        return server_blocking_probabilities(self.cluster, load)

    # ------------------------------------------------------------------
    # Action application
    # ------------------------------------------------------------------
    def _apply_actions(self, actions: list[Action], epoch: int) -> dict[str, float]:
        stats = {
            "replication_count": 0.0,
            "replication_cost": 0.0,
            "migration_count": 0.0,
            "migration_cost": 0.0,
            "suicide_count": 0.0,
            "skipped_actions": 0.0,
        }
        if self.timeseries is not None:
            self._decision_counts = {}
        for action in actions:
            if isinstance(action, Replicate):
                self._apply_replicate(action, stats, epoch)
            elif isinstance(action, Migrate):
                self._apply_migrate(action, stats, epoch)
            elif isinstance(action, Suicide):
                self._apply_suicide(action, stats, epoch)
            else:  # pragma: no cover - closed union
                raise ActionError(f"unknown action type: {action!r}")
        return stats

    def _count_decision(self, action: Action) -> None:
        """Bump the per-epoch applied-action count for the action's reason."""
        if self.timeseries is None:
            return
        reason = action.reason or "unspecified"
        self._decision_counts[reason] = self._decision_counts.get(reason, 0.0) + 1.0

    def _note_fate(
        self,
        epoch: int,
        kind: str,
        action: Action,
        fate: str,
        cause: str = "",
        target_dc: int = -1,
    ) -> None:
        """Report an action's applied/skipped fate to the provenance ledger."""
        if self.provenance is not None:
            self.provenance.note_fate(
                epoch, kind, action, fate, cause=cause, target_dc=target_dc
            )

    def _trace_action(
        self,
        epoch: int,
        kind: str,
        action: Action,
        server: int,
        partition: int,
        cost: float = 0.0,
        **extra: object,
    ) -> None:
        """One record per applied action, tagged with the policy's reason."""
        if self.tracer.enabled:
            self.tracer.emit(
                TraceEvent(
                    epoch=epoch,
                    kind=kind,
                    server=server,
                    partition=partition,
                    reason=action.reason,
                    cost=cost,
                    policy=self.policy_name,
                    extra=dict(extra),
                )
            )

    def _skip_action(
        self, epoch: int, kind: str, action: Action, cause: str, stats: dict[str, float]
    ) -> None:
        """A gate refused the action: count it and say which gate."""
        stats["skipped_actions"] += 1
        self._note_fate(epoch, kind, action, "skipped", cause=cause)
        if self.tracer.enabled:
            self.tracer.emit(
                TraceEvent(
                    epoch=epoch,
                    kind="action_skipped",
                    server=getattr(action, "target_sid", getattr(action, "sid", None)),
                    partition=action.partition,
                    reason=action.reason,
                    policy=self.policy_name,
                    extra={"action": kind, "cause": cause},
                )
            )

    def _transfer_distance_km(self, src_dc: int, dst_dc: int) -> float:
        if src_dc == dst_dc:
            return INTRA_DATACENTER_KM
        return self.router.distance_km(src_dc, dst_dc)

    def _apply_replicate(
        self, action: Replicate, stats: dict[str, float], epoch: int
    ) -> None:
        source = self.cluster.server(action.source_sid)
        target = self.cluster.server(action.target_sid)
        if not source.alive:
            raise ActionError(f"replication source {source.sid} is down: {action}")
        if not target.alive:
            raise ActionError(f"replication target {target.sid} is down: {action}")
        if self.replicas.count(action.partition, action.source_sid) < 1:
            raise ActionError(
                f"replication source holds no copy of partition "
                f"{action.partition}: {action}"
            )
        if not self.router.reachable(source.dc, target.dc):
            self._skip_action(epoch, "replicate", action, SKIP_NETWORK_PARTITION, stats)
            return
        size = self.config.workload.partition_size_mb
        # Resource races between same-epoch actions are skips, not bugs.
        if not target.storage_gate_open(size, self.config.rfh.phi):
            self._skip_action(epoch, "replicate", action, SKIP_STORAGE_GATE, stats)
            return
        if not source.consume_replication_bandwidth(size):
            self._skip_action(epoch, "replicate", action, SKIP_BANDWIDTH, stats)
            return
        self.replicas.add(action.partition, action.target_sid)
        stats["replication_count"] += 1
        if self.work is not None:
            self.work.replicate_actions += 1
        cost = replication_cost(
            self._transfer_distance_km(source.dc, target.dc),
            self.config.rfh.failure_rate,
            size,
            self.config.cluster.replication_bandwidth_mb,
        )
        stats["replication_cost"] += cost
        self._count_decision(action)
        self._note_fate(epoch, "replicate", action, "applied", target_dc=target.dc)
        self._trace_action(
            epoch,
            "replicate",
            action,
            action.target_sid,
            action.partition,
            cost=cost,
            source=action.source_sid,
            dc=target.dc,
            source_dc=source.dc,
        )

    def _apply_migrate(
        self, action: Migrate, stats: dict[str, float], epoch: int
    ) -> None:
        source = self.cluster.server(action.source_sid)
        target = self.cluster.server(action.target_sid)
        if action.source_sid == action.target_sid:
            raise ActionError(f"migration to self: {action}")
        if not source.alive or not target.alive:
            raise ActionError(f"migration endpoint is down: {action}")
        if self.replicas.count(action.partition, action.source_sid) < 1:
            raise ActionError(
                f"migration source holds no copy of partition "
                f"{action.partition}: {action}"
            )
        if not self.router.reachable(source.dc, target.dc):
            self._skip_action(epoch, "migrate", action, SKIP_NETWORK_PARTITION, stats)
            return
        size = self.config.workload.partition_size_mb
        if not target.storage_gate_open(size, self.config.rfh.phi):
            self._skip_action(epoch, "migrate", action, SKIP_STORAGE_GATE, stats)
            return
        if not source.consume_migration_bandwidth(size):
            self._skip_action(epoch, "migrate", action, SKIP_BANDWIDTH, stats)
            return
        self.replicas.move(action.partition, action.source_sid, action.target_sid)
        stats["migration_count"] += 1
        if self.work is not None:
            self.work.migrate_actions += 1
        cost = migration_cost(
            self._transfer_distance_km(source.dc, target.dc),
            self.config.rfh.failure_rate,
            size,
            self.config.cluster.migration_bandwidth_mb,
        )
        stats["migration_cost"] += cost
        self._count_decision(action)
        self._note_fate(epoch, "migrate", action, "applied", target_dc=target.dc)
        self._trace_action(
            epoch,
            "migrate",
            action,
            action.target_sid,
            action.partition,
            cost=cost,
            source=action.source_sid,
            dc=target.dc,
            source_dc=source.dc,
        )

    def _apply_suicide(
        self, action: Suicide, stats: dict[str, float], epoch: int
    ) -> None:
        if self.replicas.count(action.partition, action.sid) < 1:
            raise ActionError(
                f"suicide on a server without a copy of partition "
                f"{action.partition}: {action}"
            )
        if self.replicas.replica_count(action.partition) <= 1:
            self._skip_action(epoch, "suicide", action, SKIP_LAST_COPY, stats)
            return
        self.replicas.remove(action.partition, action.sid)
        stats["suicide_count"] += 1
        if self.work is not None:
            self.work.evict_actions += 1
        self._count_decision(action)
        self._note_fate(
            epoch,
            "suicide",
            action,
            "applied",
            target_dc=self.cluster.dc_of(action.sid),
        )
        self._trace_action(
            epoch,
            "suicide",
            action,
            action.sid,
            action.partition,
            dc=self.cluster.dc_of(action.sid),
        )

    # ------------------------------------------------------------------
    # Metric recording
    # ------------------------------------------------------------------
    def _replica_count_matrix(self) -> np.ndarray:
        """Dense ``(P, S)`` copy counts, for the scalar metric formulas."""
        counts = np.zeros(
            (self.replicas.num_partitions, self.cluster.num_servers), dtype=np.int64
        )
        for partition in range(self.replicas.num_partitions):
            for sid, count in self.replicas.servers_with(partition):
                counts[partition, sid] = count
        return counts

    def _server_capacity_array(self) -> np.ndarray:
        """Per-server ``replica_capacity`` (read-only; columnar caches it)."""
        return np.array(
            [s.replica_capacity for s in self.cluster.servers], dtype=np.float64
        )

    def _alive_mask_array(self) -> np.ndarray:
        """Per-server liveness mask (read-only; columnar caches it)."""
        return np.array([s.alive for s in self.cluster.servers], dtype=bool)

    def _alive_server_count(self) -> int:
        """Number of live servers (columnar counts its cached mask)."""
        return len(self.cluster.alive_servers())

    def _total_replicas(self) -> int:
        """Total live copies across all partitions (columnar overrides)."""
        return self.replicas.total_replicas()

    def _availability_summary(self) -> "AvailabilitySummary":
        """Eq. 9 availability summary (columnar caches by layout version)."""
        return availability_summary(
            self.replicas, self.config.rfh.failure_rate, self.rmin
        )

    # Metric-kernel hooks: the columnar engine overrides these with
    # cached-index evaluations of the same formulas (bit-identical by
    # construction); the scalar reference calls the metric module.
    def _served_metrics(self, result: ServiceResult) -> tuple[float, float, float]:
        """Total served, Eq. 21 utilization and normalised Eq. 26 load CV."""
        served = result.served_server
        counts = self._replica_count_matrix()
        capacities = self._server_capacity_array()
        return (
            float(served.sum()),
            average_utilization(served, counts, capacities),
            replica_load_cv(served, counts),
        )

    def _server_imbalance_value(
        self, per_server_load: np.ndarray, alive_mask: np.ndarray
    ) -> float:
        return server_load_imbalance(per_server_load, alive_mask)

    def _record_metrics(
        self,
        batch: "QueryBatch",
        result: ServiceResult,
        applied: dict[str, float],
        restored: int,
        consistency: "ConsistencySummary | None" = None,
    ) -> dict[str, float]:
        alive_mask = self._alive_mask_array()
        summary = self._availability_summary()
        latency = self.latency.summarize_epoch(
            result.distance_sum_km,
            result.hop_sum,
            result.sla_miss,
            float(batch.total),
        )
        total_replicas = self._total_replicas()
        served, utilization, load_cv = self._served_metrics(result)
        values = {
                "utilization": utilization,
                "total_replicas": float(total_replicas),
                "avg_replicas": total_replicas / self.replicas.num_partitions,
                "replication_count": applied["replication_count"],
                "replication_cost": applied["replication_cost"],
                "migration_count": applied["migration_count"],
                "migration_cost": applied["migration_cost"],
                "suicide_count": applied["suicide_count"],
                "load_imbalance": load_cv,
                "server_load_imbalance": self._server_imbalance_value(
                    result.per_server_load, alive_mask
                ),
                "path_length": result.mean_path_length,
                "mean_latency_ms": latency.mean_ms,
                "sla_attainment": latency.sla_attainment,
                "unserved": float(result.unserved.sum()),
                "served": served,
                "queries": float(batch.total),
                "alive_servers": float(self._alive_server_count()),
                "mean_availability": summary.mean_availability,
                "lost_partitions": float(restored),
                "skipped_actions": applied["skipped_actions"],
        }
        if consistency is not None:
            values.update(
                {
                    "writes": consistency.writes,
                    "propagation_transfers": consistency.propagation_transfers,
                    "propagation_cost": consistency.propagation_cost,
                    "mean_staleness": consistency.mean_staleness,
                    "stale_replica_fraction": consistency.stale_replica_fraction,
                    "stale_read_fraction": consistency.stale_read_fraction,
                }
            )
        self.metrics.record_epoch(values)
        return values
