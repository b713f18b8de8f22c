"""The versioned ``.tsdb.json`` time-series artifact.

A :class:`TsdbArtifact` is the on-disk product of one recorded run: a
columnar frame of per-epoch samples (one shared epoch index, one float
column per signal), a list of event markers (membership/chaos events the
dashboard draws as vertical rules), and free-form run metadata (policy,
scenario, seed, ...).  The format is deliberately plain JSON so the
artifacts stay ``jq``-able and diffable in CI without this library.

Column naming convention (shared with the recorder, the diff engine and
the dashboard):

* engine metric series keep their collector name: ``utilization``;
* per-datacenter signals are ``traffic_dc/<dc>``;
* work counters are ``work/<name>`` and applied-action counts by policy
  reason are ``decision/<reason>``;
* phase timings are ``phase_s/<phase>`` (seconds per epoch).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

import numpy as np

from ...artifact import (
    JsonArray,
    JsonObject,
    atomic_write,
    check_header,
    nan_to_null,
    null_to_nan,
    read_json,
    write_json,
)
from ...errors import TsdbError

__all__ = ["TSDB_FORMAT", "TSDB_VERSION", "Marker", "TsdbArtifact"]

#: Magic format tag; a file without it is not a tsdb artifact.
TSDB_FORMAT = "repro-tsdb"
#: Schema version; bumped on any incompatible layout change.
TSDB_VERSION = 1


@dataclass(frozen=True)
class Marker:
    """One annotated event: a vertical rule on every dashboard panel.

    ``count`` folds repeats: thirty servers dying in one epoch is one
    marker with ``count == 30``, not thirty rules on top of each other.
    """

    epoch: int
    kind: str
    label: str = ""
    count: int = 1

    def to_dict(self) -> dict[str, object]:
        return {
            "epoch": self.epoch,
            "kind": self.kind,
            "label": self.label,
            "count": self.count,
        }

    @classmethod
    def from_dict(cls, raw: dict[str, object]) -> Marker:
        try:
            return cls(
                epoch=int(raw["epoch"]),
                kind=str(raw["kind"]),
                label=str(raw.get("label", "")),
                count=int(raw.get("count", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TsdbError(f"malformed marker record: {raw!r}") from exc


def _json_column(values: np.ndarray) -> object:
    return nan_to_null(np.asarray(values, dtype=np.float64).tolist())


@dataclass(frozen=True)
class TsdbArtifact:
    """One recorded run: columnar per-epoch samples + markers + metadata."""

    epochs: np.ndarray
    columns: dict[str, np.ndarray]
    markers: tuple[Marker, ...] = ()
    meta: dict[str, object] = field(default_factory=dict)
    #: Epochs between accepted samples (the recorder's configured gate).
    stride: int = 1
    #: Accepted samples averaged per stored point (power of two; grows
    #: when the point budget forces 2:1 downsampling).
    decimation: int = 1

    def __post_init__(self) -> None:
        n = len(self.epochs)
        for name, values in self.columns.items():
            if len(values) != n:
                raise TsdbError(
                    f"column {name!r} has {len(values)} points, "
                    f"epoch index has {n}"
                )

    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        return len(self.epochs)

    @property
    def effective_stride(self) -> int:
        """Epochs represented by one stored point."""
        return self.stride * self.decimation

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise TsdbError(
                f"no column {name!r}; have {sorted(self.columns)[:20]}..."
            ) from None

    def column_names(self) -> tuple[str, ...]:
        return tuple(sorted(self.columns))

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "format": TSDB_FORMAT,
            "version": TSDB_VERSION,
            "meta": dict(self.meta),
            "stride": self.stride,
            "decimation": self.decimation,
            "epochs": [int(e) for e in self.epochs],
            "columns": {name: _json_column(self.columns[name]) for name in sorted(self.columns)},
            "markers": [m.to_dict() for m in self.markers],
        }

    @classmethod
    def from_dict(cls, raw: object) -> TsdbArtifact:
        raw = check_header(raw, TSDB_FORMAT, TSDB_VERSION, TsdbError)
        try:
            columns = {
                str(name): np.array(
                    [float(v) for v in null_to_nan(values)], dtype=np.float64
                )
                for name, values in raw["columns"].items()
            }
            return cls(
                epochs=np.array([int(e) for e in raw["epochs"]], dtype=np.int64),
                columns=columns,
                markers=tuple(Marker.from_dict(m) for m in raw.get("markers", ())),
                meta=dict(raw.get("meta", {})),
                stride=int(raw.get("stride", 1)),
                decimation=int(raw.get("decimation", 1)),
            )
        except TsdbError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise TsdbError(f"malformed {TSDB_FORMAT} artifact: {exc}") from exc

    def save(self, path: str | pathlib.Path) -> None:
        """Write the artifact to ``path`` as pretty-printed JSON.

        Writes one column at a time and replaces ``path`` only once the
        file is complete.  The bytes equal ``json.dumps(self.to_dict(),
        indent=1, allow_nan=False) + "\\n"``.
        """
        document = JsonObject(
            (
                ("format", TSDB_FORMAT),
                ("version", TSDB_VERSION),
                ("meta", dict(self.meta)),
                ("stride", self.stride),
                ("decimation", self.decimation),
                ("epochs", [int(e) for e in self.epochs]),
                (
                    "columns",
                    JsonObject(
                        (name, _json_column(self.columns[name])) for name in sorted(self.columns)
                    ),
                ),
                ("markers", JsonArray(m.to_dict() for m in self.markers)),
            )
        )
        with atomic_write(path) as out:
            write_json(out, document, allow_nan=False)
            out.write("\n")

    @classmethod
    def load(cls, path: str | pathlib.Path) -> TsdbArtifact:
        """Read an artifact back; raises :class:`TsdbError` on any
        format problem (including a file that is not JSON at all)."""
        return cls.from_dict(read_json(path, TsdbError, "tsdb artifact"))
