"""The versioned ``.sweep.json`` artifact: one merged sweep.

A :class:`SweepArtifact` is the on-disk product of one ``repro sweep``:
the manifest that defined the grid (plus its content hash), one record
per executed cell (status, fingerprint chain, metric summaries,
relative artifact paths, timing), the structured failure records for
every cell that did not finish cleanly, and per-group cross-seed
statistics keyed ``policy/scenario/scale/engine``.  Like every other
repro artifact it is deliberately plain JSON — ``jq``-able and
diffable in CI without this library.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from ..artifact import check_header, nan_to_null, null_to_nan, read_json, save_json
from ..errors import SweepError
from .manifest import SweepManifest

__all__ = ["SWEEP_FORMAT", "SWEEP_VERSION", "SweepArtifact"]

#: Magic format tag; a file without it is not a sweep artifact.
SWEEP_FORMAT = "repro-sweep"
#: Schema version; bumped on any incompatible layout change.
SWEEP_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SweepError(message)


@dataclass(frozen=True)
class SweepArtifact:
    """One merged sweep: manifest + cells + failures + group stats."""

    manifest: SweepManifest
    #: One record per cell, in manifest expansion order:
    #: ``{cell, cell_id, digest, status, fingerprint, summaries,
    #: artifacts, duration_s, worker, resumed}``.
    cells: list[dict] = field(default_factory=list)
    #: Structured records for every cell that did not finish cleanly:
    #: ``{cell_id, kind, error, traceback, worker, ...}``.
    failures: list[dict] = field(default_factory=list)
    #: ``group_key -> {metric -> summarize() stats}``.
    groups: dict[str, dict[str, dict]] = field(default_factory=dict)
    meta: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @property
    def num_ok(self) -> int:
        return sum(1 for cell in self.cells if cell.get("status") == "ok")

    @property
    def num_failed(self) -> int:
        return len(self.failures)

    def cell_record(self, cell_id: str) -> dict:
        for record in self.cells:
            if record.get("cell_id") == cell_id:
                return record
        raise SweepError(f"no cell {cell_id!r} in this sweep artifact")

    def fingerprints(self) -> dict[str, str]:
        """``cell_id -> final fingerprint chain`` for completed cells."""
        return {
            record["cell_id"]: record.get("fingerprint", "")
            for record in self.cells
            if record.get("status") == "ok"
        }

    def group_keys(self) -> tuple[str, ...]:
        return tuple(self.groups)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "format": SWEEP_FORMAT,
            "version": SWEEP_VERSION,
            "manifest": self.manifest.to_dict(),
            "manifest_hash": self.manifest.manifest_hash,
            "meta": dict(self.meta),
            "cells": nan_to_null(list(self.cells)),
            "failures": nan_to_null(list(self.failures)),
            "groups": nan_to_null(dict(self.groups)),
        }

    @classmethod
    def from_dict(cls, raw: object) -> "SweepArtifact":
        raw = check_header(raw, SWEEP_FORMAT, SWEEP_VERSION, SweepError)
        manifest = SweepManifest.from_dict(raw.get("manifest"))
        recorded_hash = raw.get("manifest_hash")
        if recorded_hash is not None and recorded_hash != manifest.manifest_hash:
            raise SweepError(
                f"manifest hash mismatch: artifact says {recorded_hash!r}, "
                f"manifest content hashes to {manifest.manifest_hash!r}"
            )
        cells = raw.get("cells", [])
        failures = raw.get("failures", [])
        groups = raw.get("groups", {})
        _require(isinstance(cells, list), "'cells' must be a list")
        _require(isinstance(failures, list), "'failures' must be a list")
        _require(isinstance(groups, dict), "'groups' must be an object")
        for record in cells:
            _require(isinstance(record, dict), f"malformed cell record: {record!r}")
            _require(
                "cell_id" in record and "status" in record,
                f"cell record missing cell_id/status: {record!r}",
            )
        for record in failures:
            _require(isinstance(record, dict), f"failure record is not a JSON object: {record!r}")
        for key, value in groups.items():
            _require(isinstance(value, dict), f"group {key!r} is not a JSON object: {value!r}")
        meta = raw.get("meta", {})
        return cls(
            manifest=manifest,
            cells=[null_to_nan(dict(r)) for r in cells],
            failures=[null_to_nan(dict(r)) for r in failures],
            groups={str(k): null_to_nan(dict(v)) for k, v in groups.items()},
            meta=dict(meta) if isinstance(meta, dict) else {},
        )

    def save(self, path: str | pathlib.Path) -> None:
        save_json(path, self.to_dict(), allow_nan=False)

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "SweepArtifact":
        return cls.from_dict(read_json(path, SweepError, "sweep artifact"))
