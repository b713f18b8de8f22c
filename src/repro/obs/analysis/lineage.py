"""Replica-lifecycle reconstruction from an event trace.

The engine's metric series say *how many* replicas existed per epoch;
the trace says which copy was created where and why — and from it the
full per-copy biography can be stitched back together.  The mean-field
replication literature (Sun et al., arXiv:1701.00335) treats replica
*lifetime* and loss-lineage distributions as the primary lens on a
replication algorithm's behaviour, so this module rebuilds exactly
those: every copy's chain of **stays** (a residence on one server),
linked across migrations into a **lifecycle**, annotated with birth and
death causes.

A stay opens when a copy lands on a server (bootstrap, restore,
replication, or the target end of a migration) and closes when it
leaves it (suicide, the source end of a migration, or the failure of
its server).  The trace names every such event, so on a complete trace
the reconstruction is exact: the closed stays are the replica map's
cell deaths and the open stays are its occupied cells (test-enforced
against a mirror of :class:`~repro.cluster.replicas.ReplicaMap`).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from ..trace import TraceEvent

__all__ = [
    "ReplicaStay",
    "ReplicaLifecycle",
    "Lineage",
    "build_lineage",
    "distribution",
]

#: Kinds that create a brand-new copy (start a lifecycle).
BIRTH_KINDS: tuple[str, ...] = ("replica_bootstrap", "partition_restore", "replicate")


def distribution(values: Iterable[float]) -> dict[str, float]:
    """count/mean/p50/p95/max of a sample (nearest-rank percentiles)."""
    ordered = sorted(values)
    if not ordered:
        return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}
    n = len(ordered)

    def pct(q: float) -> float:
        return ordered[min(n - 1, max(0, round(q * (n - 1))))]

    return {
        "count": n,
        "mean": sum(ordered) / n,
        "p50": pct(0.50),
        "p95": pct(0.95),
        "max": ordered[-1],
    }


@dataclass
class ReplicaStay:
    """One copy's residence on one server.

    ``born_epoch`` is ``None`` when the birth predates the trace (a
    truncated or ring-buffer-evicted prefix); such stays are excluded
    from lifetime statistics, since their duration is unknown.
    """

    partition: int
    sid: int
    dc: int | None
    born_epoch: int | None
    born_kind: str
    end_epoch: int | None = None
    end_kind: str | None = None

    @property
    def closed(self) -> bool:
        return self.end_epoch is not None

    @property
    def duration(self) -> int | None:
        """Epochs lived, when both endpoints are known."""
        if self.born_epoch is None or self.end_epoch is None:
            return None
        return self.end_epoch - self.born_epoch


@dataclass
class ReplicaLifecycle:
    """A copy's full biography: stays chained across migrations."""

    partition: int
    stays: list[ReplicaStay] = field(default_factory=list)

    @property
    def born_epoch(self) -> int | None:
        return self.stays[0].born_epoch

    @property
    def born_kind(self) -> str:
        return self.stays[0].born_kind

    @property
    def end_epoch(self) -> int | None:
        return self.stays[-1].end_epoch

    @property
    def end_kind(self) -> str | None:
        """What finally killed the copy (migration ends a stay, not a life)."""
        return self.stays[-1].end_kind

    @property
    def alive(self) -> bool:
        return self.stays[-1].end_epoch is None

    @property
    def migrations(self) -> int:
        return len(self.stays) - 1

    @property
    def dc_hops(self) -> int:
        """Migrations that crossed datacenters (needs ``dc`` tags)."""
        hops = 0
        for prev, cur in zip(self.stays, self.stays[1:]):
            if prev.dc is not None and cur.dc is not None and prev.dc != cur.dc:
                hops += 1
        return hops

    @property
    def lifetime(self) -> int | None:
        """Birth-to-death epochs across the whole chain, when known."""
        if self.born_epoch is None or self.end_epoch is None:
            return None
        return self.end_epoch - self.born_epoch

    @property
    def servers(self) -> list[int]:
        return [stay.sid for stay in self.stays]


class Lineage:
    """Every reconstructed lifecycle of one policy's event stream."""

    def __init__(self) -> None:
        self.lifecycles: list[ReplicaLifecycle] = []
        #: (partition, sid) -> lifecycle whose last stay is still open there.
        self._live: dict[tuple[int, int], ReplicaLifecycle] = {}
        #: Closed stays with a known birth, in death order.
        self.closed_stays: list[ReplicaStay] = []
        #: Stitching problems worth surfacing (e.g. failures without a
        #: ``partitions`` list from a pre-analytics trace).
        self.warnings: list[str] = []
        self._warned_no_partitions = False

    # -- construction ---------------------------------------------------
    def _open(
        self, partition: int, sid: int, dc: int | None, epoch: int | None, kind: str
    ) -> ReplicaLifecycle:
        """Start a new lifecycle at (partition, sid)."""
        existing = self._live.pop((partition, sid), None)
        if existing is not None:
            # A second birth at an occupied cell: close the old stay as
            # superseded and keep it out of the lifetime statistics.
            self._close_stay(existing.stays[-1], epoch or 0, "superseded", record=False)
        life = ReplicaLifecycle(partition=partition)
        life.stays.append(
            ReplicaStay(
                partition=partition, sid=sid, dc=dc, born_epoch=epoch, born_kind=kind
            )
        )
        self.lifecycles.append(life)
        self._live[(partition, sid)] = life
        return life

    def _resume_or_adopt(
        self, partition: int, sid: int, dc: int | None
    ) -> ReplicaLifecycle:
        """The live lifecycle at (partition, sid), or a pre-trace stand-in."""
        life = self._live.pop((partition, sid), None)
        if life is not None:
            return life
        life = ReplicaLifecycle(partition=partition)
        life.stays.append(
            ReplicaStay(
                partition=partition,
                sid=sid,
                dc=dc,
                born_epoch=None,
                born_kind="pre-trace",
            )
        )
        self.lifecycles.append(life)
        return life

    def _close_stay(
        self, stay: ReplicaStay, epoch: int, kind: str, *, record: bool = True
    ) -> None:
        stay.end_epoch = epoch
        stay.end_kind = kind
        if record and stay.born_epoch is not None:
            self.closed_stays.append(stay)

    def apply(self, event: TraceEvent) -> None:
        """Fold one trace event into the lineage state."""
        kind = event.kind
        if kind in BIRTH_KINDS and event.partition is not None and event.server is not None:
            self._open(
                event.partition,
                event.server,
                _as_int(event.extra.get("dc")),
                event.epoch,
                "bootstrap" if kind == "replica_bootstrap" else kind,
            )
        elif kind == "migrate" and event.partition is not None:
            source = _as_int(event.extra.get("source"))
            if source is None or event.server is None:
                return
            life = self._resume_or_adopt(
                event.partition, source, _as_int(event.extra.get("source_dc"))
            )
            self._close_stay(life.stays[-1], event.epoch, "migrate")
            existing = self._live.pop((event.partition, event.server), None)
            if existing is not None:
                self._close_stay(
                    existing.stays[-1], event.epoch, "superseded", record=False
                )
            life.stays.append(
                ReplicaStay(
                    partition=event.partition,
                    sid=event.server,
                    dc=_as_int(event.extra.get("dc")),
                    born_epoch=event.epoch,
                    born_kind="migrate",
                )
            )
            self._live[(event.partition, event.server)] = life
        elif kind == "suicide" and event.partition is not None and event.server is not None:
            life = self._resume_or_adopt(
                event.partition, event.server, _as_int(event.extra.get("dc"))
            )
            self._close_stay(life.stays[-1], event.epoch, "suicide")
        elif kind == "server_failure" and event.server is not None:
            partitions = event.extra.get("partitions")
            if partitions is None:
                lost = _as_int(event.extra.get("replicas_lost")) or 0
                if lost and not self._warned_no_partitions:
                    self.warnings.append(
                        "server_failure events carry no 'partitions' list "
                        "(pre-analytics trace?); failure deaths cannot be "
                        "stitched and lifetime stats will undercount"
                    )
                    self._warned_no_partitions = True
                return
            for partition in partitions:  # type: ignore[union-attr]
                p = _as_int(partition)
                if p is None:
                    continue
                life = self._resume_or_adopt(
                    p, event.server, _as_int(event.extra.get("dc"))
                )
                self._close_stay(life.stays[-1], event.epoch, "failure")

    # -- statistics -----------------------------------------------------
    def stay_lifetimes(self) -> list[int]:
        """Durations of closed stays with a known birth, in death order:
        the samples of the ``replica_lifetime_epochs`` histogram that
        :func:`~repro.obs.analysis.registry_from_events` rebuilds."""
        return [stay.duration for stay in self.closed_stays if stay.duration is not None]

    def lifecycle_lifetimes(self) -> list[int]:
        """Birth-to-death epochs per whole lifecycle (chains included)."""
        return [
            life.lifetime
            for life in self.lifecycles
            if life.lifetime is not None and life.end_kind != "superseded"
        ]

    def summary(self) -> dict[str, object]:
        """JSON-able digest of the reconstruction."""
        closed = [life for life in self.lifecycles if not life.alive]
        births: dict[str, int] = {}
        deaths: dict[str, int] = {}
        for life in self.lifecycles:
            births[life.born_kind] = births.get(life.born_kind, 0) + 1
        for life in closed:
            key = life.end_kind or "unknown"
            deaths[key] = deaths.get(key, 0) + 1
        migrated = [life for life in self.lifecycles if life.migrations > 0]
        return {
            "lifecycles": len(self.lifecycles),
            "alive": len(self.lifecycles) - len(closed),
            "closed": len(closed),
            "births_by_kind": dict(sorted(births.items())),
            "deaths_by_kind": dict(sorted(deaths.items())),
            "lifetime_epochs": distribution(self.lifecycle_lifetimes()),
            "stay_lifetime_epochs": distribution(self.stay_lifetimes()),
            "migrations_per_lifecycle": distribution(
                [life.migrations for life in self.lifecycles]
            ),
            "migrated_lifecycles": len(migrated),
            "dc_hops_per_migrated_lifecycle": distribution(
                [life.dc_hops for life in migrated]
            ),
            "warnings": list(self.warnings),
        }


def _as_int(value: object) -> int | None:
    if value is None or isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return int(value)
    try:
        return int(str(value))
    except ValueError:
        return None


def build_lineage(events: Iterable[TraceEvent]) -> Lineage:
    """Stitch an event stream (one policy's, in emission order) into a
    :class:`Lineage`."""
    lineage = Lineage()
    for event in events:
        lineage.apply(event)
    return lineage
