"""The :class:`ProvenanceRecorder`: decision ledger capture.

The recorder is attached to a policy's decision tree (the RFH tree
opens a :class:`~repro.obs.provenance.records.DecisionDraft` per
partition per epoch and closes it with the emitted actions) and to the
engine's apply phase (:meth:`ProvenanceRecorder.note_fate` stamps each
action's applied/skipped fate back onto its decision row).  Baseline
policies that never open drafts still get minimal synthesized records
per applied/skipped action, so the lineage guarantee — every trace
action has a provenance record — holds for every policy.

Rows go straight into the columns of a
:class:`~repro.obs.provenance.ledger.Ledger`; no record object exists
while recording.  :attr:`ProvenanceRecorder.records` and
:meth:`ProvenanceRecorder.artifact` are read views over those columns,
with records built on demand.

Budget: the ledger keeps at most ``budget`` records.  When the cap is
exceeded the *oldest no-op* records (``action == "none"`` and
``fate == "none"``) are dropped first, deterministically, and the count
of drops per epoch is kept in :attr:`ProvenanceRecorder.noop_dropped`
so a reader can tell compaction from absence.  Records that carry an
action are never dropped.  A record's no-op status is fixed when it is
sealed (fates only land on records that carry an action), so dropping
the oldest no-ops once per ``budget // 8`` surplus rows, and once more
before any read, drops exactly the rows that dropping after every
append would.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from .artifact import ProvArtifact
from .ledger import Ledger, LedgerView
from .records import DecisionDraft

__all__ = ["DEFAULT_BUDGET", "ProvenanceRecorder"]

#: Default ledger budget (decision records kept before compaction).
DEFAULT_BUDGET = 50_000


def _action_fields(action: object) -> tuple[str, str, int, int]:
    """(kind, reason, target_sid, source_sid) for any shipped action."""
    kind = type(action).__name__.lower()
    reason = str(getattr(action, "reason", ""))
    if kind == "suicide":
        return kind, reason, int(getattr(action, "sid", -1)), -1
    target = int(getattr(action, "target_sid", -1))
    source = int(getattr(action, "source_sid", -1))
    return kind, reason, target, source


class ProvenanceRecorder:
    """Accumulates decision rows across a run."""

    def __init__(self, budget: int = DEFAULT_BUDGET) -> None:
        if budget < 1:
            raise ValueError(f"provenance budget must be >= 1, got {budget}")
        self.budget = int(budget)
        self.meta: dict[str, object] = {}
        self._ledger = Ledger()
        #: No-op rows currently in the ledger.
        self._noops = 0
        #: Surplus of droppable rows that triggers a compaction.
        self._slack = max(1, self.budget // 8)
        self._noop_dropped: dict[int, int] = {}
        # FIFO of ledger rows awaiting a fate, keyed by (partition,
        # action kind); valid for the current epoch only.
        self._pending: dict[tuple[int, str], list[int]] = {}
        self._pending_epoch = -1

    # ------------------------------------------------------------------
    # Decision-phase API (called by the instrumented decision tree)
    # ------------------------------------------------------------------
    def open(
        self,
        *,
        epoch: int,
        partition: int,
        avg_query: float,
        holder_traffic: float,
        unserved: float,
        mean_traffic: float,
        replica_count: int,
        rmin: int,
        holder_dc: int,
    ) -> DecisionDraft:
        """Start a draft for one partition's evaluation this epoch."""
        self._roll_epoch(epoch)
        return DecisionDraft(
            epoch=int(epoch),
            partition=int(partition),
            avg_query=float(avg_query),
            holder_traffic=float(holder_traffic),
            unserved=float(unserved),
            mean_traffic=float(mean_traffic),
            replica_count=int(replica_count),
            rmin=int(rmin),
            holder_dc=int(holder_dc),
        )

    def close(
        self,
        draft: DecisionDraft,
        actions: Iterable[object],
        *,
        dc_of: Callable[[int], int] | None = None,
    ) -> None:
        """Seal a draft into a ledger row, registering its action for fate.

        ``dc_of`` (sid -> datacenter index) resolves the target
        datacenter of the decided action when available.
        """
        kind, reason, target_sid, source_sid, target_dc = "none", "", -1, -1, -1
        for action in actions:
            kind, reason, target_sid, source_sid = _action_fields(action)
            if dc_of is not None and target_sid >= 0:
                target_dc = int(dc_of(target_sid))
            break  # grow XOR shrink: at most one action per partition
        row = self._ledger.append(
            (
                draft.epoch,
                draft.partition,
                target_sid,
                target_dc,
                source_sid,
                draft.replica_count,
                draft.rmin,
                draft.holder_dc,
            ),
            (draft.branch, kind, reason, "none", ""),
            (draft.avg_query, draft.holder_traffic, draft.unserved, draft.mean_traffic),
            draft.predicates,
            draft.candidates,
        )
        if kind == "none":
            self._noops += 1
        else:
            self._pending.setdefault((draft.partition, kind), []).append(row)
        self._after_append()

    # ------------------------------------------------------------------
    # Apply-phase API (called by the engine)
    # ------------------------------------------------------------------
    def note_fate(
        self,
        epoch: int,
        kind: str,
        action: object,
        fate: str,
        cause: str = "",
        target_dc: int = -1,
    ) -> None:
        """Stamp an action's applied/skipped fate onto its record.

        Matches the oldest pending record for ``(partition, kind)``; if
        none exists (a policy that does not open drafts) a minimal
        record is synthesized so the ledger still mirrors the trace.
        """
        self._roll_epoch(epoch)
        partition = int(getattr(action, "partition", -1))
        queue = self._pending.get((partition, kind))
        if queue:
            row = queue.pop(0)
            if not queue:
                del self._pending[(partition, kind)]
            self._ledger.stamp_fate(row, fate, cause, int(target_dc))
            return
        kind2, reason, target_sid, source_sid = _action_fields(action)
        nan = float("nan")
        self._ledger.append(
            (int(epoch), partition, target_sid, int(target_dc), source_sid, -1, -1, -1),
            ("", kind2, reason, fate, cause),
            (nan, nan, nan, nan),
        )
        self._after_append()

    # ------------------------------------------------------------------
    def _roll_epoch(self, epoch: int) -> None:
        if epoch != self._pending_epoch:
            # A pending action that never received a fate keeps
            # fate == "none"; the cross-check will surface it.
            self._pending.clear()
            self._pending_epoch = epoch

    def _after_append(self) -> None:
        if min(self._noops, len(self._ledger) - self.budget) >= self._slack:
            self._compact()

    def _compact(self) -> None:
        """Drop the oldest no-op rows until the ledger fits its budget or
        no no-op row is left."""
        drop = min(self._noops, len(self._ledger) - self.budget)
        if drop <= 0:
            return
        rows = self._ledger.noop_rows()[:drop]
        epochs = self._ledger.column("decisions", "epoch")[rows]
        for epoch, count in zip(*np.unique(epochs, return_counts=True)):
            self._noop_dropped[int(epoch)] = self._noop_dropped.get(int(epoch), 0) + int(count)
        self._ledger, new_row = self._ledger.dropping(rows)
        self._noops -= drop
        # Pending rows carry actions, so none was dropped; renumber them.
        for queue in self._pending.values():
            queue[:] = new_row[queue].tolist()

    # ------------------------------------------------------------------
    @property
    def records(self) -> LedgerView:
        """The ledger so far, as records built on demand."""
        self._compact()
        return LedgerView(self._ledger)

    @property
    def noop_dropped(self) -> dict[int, int]:
        self._compact()
        return dict(self._noop_dropped)

    def artifact(self) -> ProvArtifact:
        """Freeze the ledger into a saveable artifact (a view, not a copy)."""
        return ProvArtifact(
            records=self.records,
            meta=dict(self.meta),
            budget=self.budget,
            noop_dropped=dict(self._noop_dropped),
        )
