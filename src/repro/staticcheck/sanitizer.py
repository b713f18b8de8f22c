"""Runtime determinism sanitizer: per-epoch state fingerprints.

The lint rules catch nondeterminism *sources*; this module catches the
*symptom* — two same-seed runs whose state drifts apart — and, crucially,
answers the question "where and when" instead of "outputs differ".

Per epoch the engine hands the sanitizer four state components and it
condenses each into an 8-byte BLAKE2b digest:

* ``replicas``   — the full ReplicaMap (holder + (sid, count) multiset
  per partition);
* ``storage``    — per-server liveness and storage accounting;
* ``rng``        — the position of every named ``rng_tree`` stream
  (also kept per stream, so a divergence names the stream);
* ``metrics``    — every metric value recorded for the epoch, bit-exact.

The component digests are folded into a running **hash chain**:
``chain[e] = H(chain[e-1] || e || digests[e])``.  Because the chain is
prefix-cumulative, two trails can be compared by *binary search* on the
chain values — :func:`bisect_divergence` finds the first divergent
epoch in O(log n) record comparisons, then attributes it to the
component(s) (and RNG stream(s)) whose digests differ at that epoch.

Digests are built from explicit byte encodings (``struct``-packed
doubles, length-prefixed UTF-8), never ``hash()`` or ``repr`` of
floats, so a trail saved on one machine is comparable on another.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from hashlib import blake2b
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

from ..artifact import (
    JsonArray,
    JsonObject,
    atomic_write,
    check_header,
    read_json,
    write_json,
)
from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.cluster import Cluster
    from ..cluster.replicas import ReplicaMap
    from ..sim.rng import RngTree

__all__ = [
    "COMPONENTS",
    "DeterminismSanitizer",
    "DivergenceReport",
    "EpochFingerprint",
    "FingerprintError",
    "FingerprintTrail",
    "bisect_divergence",
]

#: Fingerprinted state components, in digest order.
COMPONENTS: tuple[str, ...] = ("replicas", "storage", "rng", "metrics")

_DIGEST_SIZE = 8  # bytes -> 16 hex chars per component
_FORMAT = "repro-fingerprint"
_VERSION = 1


class FingerprintError(SimulationError):
    """A fingerprint artifact is malformed or unusable."""


def _hexdigest(payload: bytes) -> str:
    return blake2b(payload, digest_size=_DIGEST_SIZE).hexdigest()


def _pack_float(value: float) -> bytes:
    return struct.pack("<d", float(value))


def _pack_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


@dataclass(frozen=True)
class EpochFingerprint:
    """One epoch's component digests plus the running chain value."""

    epoch: int
    components: dict[str, str]
    rng_streams: dict[str, str]
    chain: str

    def to_dict(self) -> dict[str, object]:
        return {
            "epoch": self.epoch,
            "components": dict(self.components),
            "rng_streams": dict(self.rng_streams),
            "chain": self.chain,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "EpochFingerprint":
        try:
            return cls(
                epoch=int(payload["epoch"]),  # type: ignore[arg-type]
                components={
                    str(k): str(v)
                    for k, v in dict(payload["components"]).items()  # type: ignore[arg-type]
                },
                rng_streams={
                    str(k): str(v)
                    for k, v in dict(payload.get("rng_streams", {})).items()  # type: ignore[arg-type]
                },
                chain=str(payload["chain"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FingerprintError(f"malformed fingerprint record: {exc}") from exc


@dataclass
class FingerprintTrail:
    """A run's full fingerprint sequence, saveable as a JSON artifact."""

    meta: dict[str, object] = field(default_factory=dict)
    records: list[EpochFingerprint] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final_chain(self) -> str:
        """The whole-run digest: equal chains imply equal runs."""
        return self.records[-1].chain if self.records else ""

    # ------------------------------------------------------------------
    # Artifact I/O
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "format": _FORMAT,
            "version": _VERSION,
            "meta": dict(self.meta),
            "epochs": [record.to_dict() for record in self.records],
        }

    def save(self, path: str | Path) -> None:
        """Write the trail to ``path`` as pretty-printed JSON.

        Writes one epoch record at a time and replaces ``path`` only once
        the file is complete.  The bytes equal ``json.dumps(self.to_dict(),
        indent=1) + "\\n"``.
        """
        document = JsonObject(
            (
                ("format", _FORMAT),
                ("version", _VERSION),
                ("meta", dict(self.meta)),
                ("epochs", JsonArray(record.to_dict() for record in self.records)),
            )
        )
        with atomic_write(path) as out:
            write_json(out, document)
            out.write("\n")

    @classmethod
    def from_dict(cls, payload: object) -> "FingerprintTrail":
        payload = check_header(payload, _FORMAT, _VERSION, FingerprintError)
        epochs = payload.get("epochs")
        if not isinstance(epochs, list):
            raise FingerprintError("'epochs' must be a list")
        meta = payload.get("meta")
        return cls(
            meta=dict(meta) if isinstance(meta, Mapping) else {},
            records=[EpochFingerprint.from_dict(record) for record in epochs],
        )

    @classmethod
    def load(cls, path: str | Path) -> "FingerprintTrail":
        return cls.from_dict(read_json(path, FingerprintError, "fingerprint trail"))


class DeterminismSanitizer:
    """Fingerprints engine state once per epoch (driven by the engine).

    Attach via ``Simulation(..., sanitizer=DeterminismSanitizer())`` or
    the CLI's ``--sanitize``; after the run, :meth:`trail` returns the
    artifact to save or compare.  The per-epoch cost is a few byte-pack
    loops over ~64 partitions and ~120 servers — benchmarked in
    ``bench_kernels.py`` to stay within noise of a bare epoch step.
    """

    def __init__(self, *, meta: Mapping[str, object] | None = None) -> None:
        self._trail = FingerprintTrail(meta=dict(meta or {}))
        self._chain = b""

    # ------------------------------------------------------------------
    # Component digests
    # ------------------------------------------------------------------
    @staticmethod
    def _digest_replicas(replicas: "ReplicaMap") -> str:
        parts: list[bytes] = []
        for partition in range(replicas.num_partitions):
            holder = (
                replicas.holder(partition) if replicas.has_holder(partition) else -1
            )
            entries = replicas.servers_with(partition)  # sorted by sid
            parts.append(struct.pack("<iiI", partition, holder, len(entries)))
            for sid, count in entries:
                parts.append(struct.pack("<ii", sid, count))
        return _hexdigest(b"".join(parts))

    @staticmethod
    def _digest_storage(cluster: "Cluster") -> str:
        parts: list[bytes] = []
        for server in cluster.servers:  # stable sid order
            parts.append(
                struct.pack("<i?", server.sid, server.alive)
                + _pack_float(server.storage_used_mb)
            )
        return _hexdigest(b"".join(parts))

    @staticmethod
    def _digest_rng(rng_tree: "RngTree") -> tuple[str, dict[str, str]]:
        streams: dict[str, str] = {}
        parts: list[bytes] = []
        for name, state in rng_tree.stream_states().items():
            encoded = json.dumps(state, sort_keys=True, default=str).encode("utf-8")
            digest = _hexdigest(encoded)
            streams[name] = digest
            parts.append(_pack_str(name) + digest.encode("ascii"))
        return _hexdigest(b"".join(parts)), streams

    @staticmethod
    def _digest_metrics(values: Mapping[str, float]) -> str:
        parts = [
            _pack_str(name) + _pack_float(values[name]) for name in sorted(values)
        ]
        return _hexdigest(b"".join(parts))

    # ------------------------------------------------------------------
    # Engine hook
    # ------------------------------------------------------------------
    def observe(
        self,
        epoch: int,
        *,
        replicas: "ReplicaMap",
        cluster: "Cluster",
        rng_tree: "RngTree",
        metrics: Mapping[str, float],
    ) -> EpochFingerprint:
        """Fingerprint one epoch's end-of-epoch state; returns the record."""
        rng_digest, rng_streams = self._digest_rng(rng_tree)
        components = {
            "replicas": self._digest_replicas(replicas),
            "storage": self._digest_storage(cluster),
            "rng": rng_digest,
            "metrics": self._digest_metrics(metrics),
        }
        payload = self._chain + struct.pack("<q", epoch)
        for name in COMPONENTS:
            payload += components[name].encode("ascii")
        chain = _hexdigest(payload)
        self._chain = chain.encode("ascii")
        record = EpochFingerprint(
            epoch=epoch,
            components=components,
            rng_streams=rng_streams,
            chain=chain,
        )
        self._trail.records.append(record)
        return record

    def trail(self) -> FingerprintTrail:
        """The trail recorded so far (live object, not a copy)."""
        return self._trail


# ----------------------------------------------------------------------
# Divergence bisection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DivergenceReport:
    """Outcome of comparing two fingerprint trails."""

    identical: bool
    epochs_compared: int
    #: Trailing epochs present in only one trail (baseline, candidate).
    extra_epochs: tuple[int, int] = (0, 0)
    first_divergent_epoch: int | None = None
    #: Components whose digests differ at the first divergent epoch.
    components: tuple[str, ...] = ()
    #: RNG streams whose digests differ there (when ``rng`` diverged, or
    #: streams that exist in only one run).
    rng_streams: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return 0 if self.identical else 1

    def to_dict(self) -> dict[str, object]:
        return {
            "identical": self.identical,
            "epochs_compared": self.epochs_compared,
            "extra_epochs": list(self.extra_epochs),
            "first_divergent_epoch": self.first_divergent_epoch,
            "components": list(self.components),
            "rng_streams": list(self.rng_streams),
        }

    def describe(self) -> str:
        """Human verdict, one short paragraph."""
        if self.identical:
            text = (
                f"runs are fingerprint-identical over "
                f"{self.epochs_compared} epoch(s)"
            )
            if any(self.extra_epochs):
                text += (
                    f" (note: trails differ in length by "
                    f"{self.extra_epochs[0]}/{self.extra_epochs[1]} trailing "
                    "epoch(s))"
                )
            return text
        if self.first_divergent_epoch is None:
            return "runs share no comparable epochs"
        parts = [
            f"DIVERGENCE at epoch {self.first_divergent_epoch}: "
            f"component(s) {', '.join(self.components) or '<chain only>'} differ"
        ]
        if self.rng_streams:
            parts.append(f"rng stream(s): {', '.join(self.rng_streams)}")
        return "; ".join(parts)


def _diverged_detail(
    a: EpochFingerprint, b: EpochFingerprint
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    names = sorted(set(a.components) | set(b.components))
    components = tuple(
        name for name in names if a.components.get(name) != b.components.get(name)
    )
    stream_names = sorted(set(a.rng_streams) | set(b.rng_streams))
    streams = tuple(
        name
        for name in stream_names
        if a.rng_streams.get(name) != b.rng_streams.get(name)
    )
    return components, streams


def bisect_divergence(
    baseline: FingerprintTrail, candidate: FingerprintTrail
) -> DivergenceReport:
    """Locate the first divergent epoch between two trails.

    Exploits the chain's prefix-cumulative property: if ``chain[i]``
    matches, every epoch ``<= i`` matches, so a binary search over the
    shared prefix finds the first mismatch in O(log n) comparisons.
    Epochs must line up index-by-index (same stride); mismatched epoch
    numbering is reported as an immediate divergence at the first
    mismatched index.
    """
    n = min(len(baseline.records), len(candidate.records))
    extra = (len(baseline.records) - n, len(candidate.records) - n)
    if n == 0:
        return DivergenceReport(
            identical=not any(extra),
            epochs_compared=0,
            extra_epochs=extra,
            first_divergent_epoch=None,
        )
    if baseline.records[n - 1].chain == candidate.records[n - 1].chain:
        return DivergenceReport(
            identical=not any(extra),
            epochs_compared=n,
            extra_epochs=extra,
            first_divergent_epoch=None,
        )
    # Binary search: find the smallest index whose chains differ.
    lo, hi = 0, n - 1  # invariant: chains differ at hi
    while lo < hi:
        mid = (lo + hi) // 2
        if baseline.records[mid].chain == candidate.records[mid].chain:
            lo = mid + 1
        else:
            hi = mid
    rec_a, rec_b = baseline.records[lo], candidate.records[lo]
    if rec_a.epoch != rec_b.epoch:
        return DivergenceReport(
            identical=False,
            epochs_compared=n,
            extra_epochs=extra,
            first_divergent_epoch=min(rec_a.epoch, rec_b.epoch),
            components=("epoch-numbering",),
        )
    components, streams = _diverged_detail(rec_a, rec_b)
    return DivergenceReport(
        identical=False,
        epochs_compared=n,
        extra_epochs=extra,
        first_divergent_epoch=rec_a.epoch,
        components=components,
        rng_streams=streams,
    )
