"""Event tracing: per-decision records the epoch aggregates throw away.

The engine's metric series answer "how many migrations happened at
epoch 120?"; a trace answers "*which* replica moved, from where to
where, and which rule fired".  Replication studies need the latter —
per-event replica creation/loss histories, not per-epoch sums — so the
engine emits one :class:`TraceEvent` per membership change, restore,
applied or skipped action, and SLA violation.

Two real sinks plus a null object:

* :class:`RingBufferTracer` keeps the last ``capacity`` events in memory
  (a :class:`collections.deque`), counting what it dropped — safe on
  arbitrarily long runs;
* :class:`JsonlTracer` streams every event to a JSON-Lines file, one
  object per line, for archival / ``jq`` analysis;
* :class:`NullTracer` is the engine default: ``enabled`` is ``False``
  and the hot path pays exactly one attribute check per emission site.
"""

from __future__ import annotations

import json
import pathlib
import time
import warnings
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass, field

__all__ = [
    "TRACE_KINDS",
    "TraceEvent",
    "TraceReadWarning",
    "Tracer",
    "NullTracer",
    "RingBufferTracer",
    "JsonlTracer",
    "read_jsonl",
]


class TraceReadWarning(UserWarning):
    """A trace file contained lines that could not be decoded."""

#: Every ``kind`` the engine emits, for consumers that switch on it.
TRACE_KINDS: tuple[str, ...] = (
    "replica_bootstrap",
    "server_failure",
    "server_recovery",
    "server_join",
    "partition_restore",
    "replicate",
    "migrate",
    "suicide",
    "action_skipped",
    "sla_violation",
    "link_failure",
    "link_recovery",
    "invariant_violation",
)


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One engine event, self-describing and JSON-serialisable.

    ``server`` is the acted-on server (replication/migration target,
    suicide victim, failed/joined server); the counterpart, if any,
    rides in ``extra`` (e.g. ``{"source": 12}``).  ``reason`` carries
    the policy's :attr:`~repro.sim.actions.Replicate.reason` verbatim
    for action kinds, or the engine's own cause tag otherwise.
    """

    epoch: int
    kind: str
    server: int | None = None
    partition: int | None = None
    reason: str = ""
    cost: float = 0.0
    policy: str = ""
    # Wall-clock on purpose: ``ts`` is observability metadata (when the
    # record was emitted), never simulation state — replays ignore it.
    ts: float = field(default_factory=time.time)  # repro: noqa[REP002]
    extra: dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict[str, object]:
        """Flat dict for JSONL: ``extra`` keys are inlined."""
        out: dict[str, object] = {
            "epoch": self.epoch,
            "kind": self.kind,
            "server": self.server,
            "partition": self.partition,
            "reason": self.reason,
            "cost": self.cost,
            "policy": self.policy,
            "ts": self.ts,
        }
        for key, value in self.extra.items():
            if key not in out:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> TraceEvent:
        """Inverse of :meth:`to_dict` (extra keys recovered)."""
        known = {"epoch", "kind", "server", "partition", "reason", "cost", "policy", "ts"}
        extra = {k: v for k, v in payload.items() if k not in known}
        server = payload.get("server")
        partition = payload.get("partition")
        return cls(
            epoch=int(payload["epoch"]),  # type: ignore[arg-type]
            kind=str(payload["kind"]),
            server=None if server is None else int(server),  # type: ignore[arg-type]
            partition=None if partition is None else int(partition),  # type: ignore[arg-type]
            reason=str(payload.get("reason", "")),
            cost=float(payload.get("cost", 0.0)),  # type: ignore[arg-type]
            policy=str(payload.get("policy", "")),
            ts=float(payload.get("ts", 0.0)),  # type: ignore[arg-type]
            extra=extra,
        )


class Tracer:
    """Base sink: subclasses override :meth:`emit`.

    ``enabled`` is what the engine checks before building an event, so a
    disabled tracer costs one attribute load per site — the event object
    is never constructed.
    """

    enabled: bool = True

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    def close(self) -> None:
        """Flush/release resources; safe to call twice."""

    def __enter__(self) -> Tracer:
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class NullTracer(Tracer):
    """The default: tracing off, one attribute check on the hot path."""

    enabled = False

    def emit(self, event: TraceEvent) -> None:  # pragma: no cover - never called
        pass


class RingBufferTracer(Tracer):
    """Keep the most recent ``capacity`` events in memory.

    Long runs cannot grow without bound: once full, each new event
    evicts the oldest and bumps :attr:`dropped`.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._buffer: deque[TraceEvent] = deque(maxlen=capacity)
        #: Events evicted because the buffer was full.
        self.dropped = 0

    def emit(self, event: TraceEvent) -> None:
        if len(self._buffer) == self.capacity:
            self.dropped += 1
        self._buffer.append(event)

    def __len__(self) -> int:
        return len(self._buffer)

    def events(self, kind: str | None = None) -> list[TraceEvent]:
        """Buffered events, oldest first, optionally filtered by kind."""
        if kind is None:
            return list(self._buffer)
        return [event for event in self._buffer if event.kind == kind]

    def clear(self) -> None:
        self._buffer.clear()
        self.dropped = 0


class JsonlTracer(Tracer):
    """Stream every event to ``path`` as JSON Lines (one object/line).

    The file is opened eagerly (so a bad path fails fast) and each event
    is written immediately; call :meth:`close` (or use the tracer as a
    context manager) to flush.  Lines are analysable with ``jq``::

        jq -r 'select(.kind == "migrate") | .reason' trace.jsonl
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        self.path = pathlib.Path(path)
        self._handle = open(self.path, "w", encoding="utf-8")
        self.emitted = 0

    def emit(self, event: TraceEvent) -> None:
        # ``json.dumps`` runs the C encoder.  ``json.dump`` writes the same
        # text through the pure-Python one, whose closures leave a
        # reference cycle per call for the cyclic GC.
        self._handle.write(json.dumps(event.to_dict(), separators=(",", ":")) + "\n")
        self.emitted += 1

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


def read_jsonl(path: str | pathlib.Path, *, strict: bool = False) -> Iterator[TraceEvent]:
    """Yield the :class:`TraceEvent` records of a :class:`JsonlTracer` file.

    An interrupted run leaves a truncated final line (and a crashed
    writer can leave garbage anywhere).  Each line is decoded on its
    own, and by default a malformed one (not UTF-8, not JSON, or JSON
    that is not an event) is skipped with a :class:`TraceReadWarning`,
    so post-hoc analysis of a partial trace still completes.  Pass
    ``strict=True`` to re-raise the underlying error instead
    (:class:`UnicodeDecodeError`, :class:`json.JSONDecodeError`, or the
    ``KeyError``/``TypeError``/``ValueError`` of a non-event).
    """
    with open(pathlib.Path(path), "rb") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                event = TraceEvent.from_dict(json.loads(line.decode("utf-8")))
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                if strict:
                    raise
                warnings.warn(
                    f"{path}:{lineno}: skipping malformed trace line "
                    f"({type(exc).__name__}: {exc})",
                    TraceReadWarning,
                    stacklevel=2,
                )
                continue
            yield event
