"""The versioned ``repro-prov`` v1 columnar ``.prov.json`` artifact.

One :class:`ProvArtifact` is the on-disk product of a provenance-
recorded run: three columnar tables (decisions, predicates, candidates)
plus an interned string table, run metadata and the recorder's
compaction ledger.  The artifact holds the recorder's
:class:`~repro.obs.provenance.ledger.Ledger` columns, not a copy:
``records`` is a read view whose
:class:`~repro.obs.provenance.records.DecisionRecord` items are built on
demand, and :meth:`ProvArtifact.save` streams the columns to disk in
bounded chunks.  Like ``.tsdb.json``, the format is plain JSON
(``jq``-able without this library), NaN-safe (non-finite floats
serialize as ``null``) and validated on load — every malformed input
raises :class:`~repro.errors.ProvenanceError`.

Layout::

    {"format": "repro-prov", "version": 1,
     "meta": {...}, "budget": N, "noop_dropped": {"<epoch>": count},
     "strings": ["", "availability", ...],
     "decisions":  {column -> parallel array, strings by table index},
     "predicates": {"decision" -> row index into decisions, ...},
     "candidates": {"decision" -> row index into decisions, ...}}
"""

from __future__ import annotations

import json
import pathlib
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from typing import IO

import numpy as np

from ...artifact import atomic_write, check_header, read_json
from ...errors import ProvenanceError
from .ledger import CHUNK, TABLES, Ledger, LedgerView, StringTable
from .records import DecisionRecord

__all__ = ["PROV_FORMAT", "PROV_VERSION", "ProvArtifact"]

#: Magic format tag; a file without it is not a provenance artifact.
PROV_FORMAT = "repro-prov"
#: Schema version; bumped on any incompatible layout change.
PROV_VERSION = 1

_INT32 = np.iinfo(np.int32)


def _dumps(value: object) -> str:
    return json.dumps(value, separators=(",", ":"), allow_nan=False)


def _write_list(out: IO[str], chunks: Iterable[list]) -> None:
    """Write one JSON array from its chunks, as ``json.dumps`` would."""
    out.write("[")
    sep = ""
    for chunk in chunks:
        if chunk:
            out.write(sep)
            out.write(_dumps(chunk)[1:-1])
            sep = ","
    out.write("]")


def _column(raw: object, where: str, kind: str, canon: np.ndarray) -> np.ndarray:
    """One validated file column; string ids mapped through ``canon``."""
    values = np.asarray(raw, dtype=np.float64 if kind == "float" else np.int64)
    if values.ndim != 1:
        raise ProvenanceError(f"{where} is not a flat array")
    if kind == "str":
        bad = np.flatnonzero((values < 0) | (values >= len(canon)))
        if bad.size:
            raise ProvenanceError(
                f"{where}: string index {values[bad[0]]} outside table of {len(canon)}"
            )
        return canon[values]
    if kind == "flag":
        return values != 0
    if kind != "float" and values.size and (
        values.min() < _INT32.min or values.max() > _INT32.max
    ):
        raise ProvenanceError(f"{where}: value outside the int32 range")
    return values


@dataclass(frozen=True)
class ProvArtifact:
    """One recorded run's decision ledger + metadata.

    ``records`` is a read view over the ledger columns; its
    :class:`DecisionRecord` items are built when read.  A plain sequence
    of records is accepted too and is converted to columns.
    """

    records: Sequence[DecisionRecord]
    meta: dict[str, object] = field(default_factory=dict)
    #: Decision budget the recorder ran with.
    budget: int = 0
    #: ``{epoch: count}`` of no-op decisions compacted away.
    noop_dropped: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.records, LedgerView):
            object.__setattr__(
                self, "records", LedgerView(Ledger.from_records(self.records))
            )

    @property
    def _view(self) -> LedgerView:
        return self.records  # type: ignore[return-value]

    # ------------------------------------------------------------------
    @property
    def num_decisions(self) -> int:
        return len(self.records)

    @property
    def num_actions(self) -> int:
        return self._view.num_actions()

    @property
    def noop_dropped_total(self) -> int:
        return sum(self.noop_dropped.values())

    def partitions(self) -> tuple[int, ...]:
        return self._view.partitions()

    def for_partition(
        self, partition: int, epoch: int | None = None
    ) -> tuple[DecisionRecord, ...]:
        """This partition's records in epoch order (optionally one epoch)."""
        return self._view.for_partition(partition, epoch)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def _header(self) -> dict[str, object]:
        return {
            "format": PROV_FORMAT,
            "version": PROV_VERSION,
            "meta": dict(self.meta),
            "budget": int(self.budget),
            "noop_dropped": {
                str(epoch): int(count)
                for epoch, count in sorted(self.noop_dropped.items())
            },
        }

    def to_dict(self) -> dict[str, object]:
        """The v1 document as plain Python objects (what :meth:`save` writes)."""
        strings, remap = self._view.file_strings()
        doc = self._header()
        doc["strings"] = strings
        for table, columns in self._view.file_tables(remap):
            doc[table] = {
                name: [value for chunk in chunks for value in chunk]
                for name, chunks in columns
            }
        return doc

    @classmethod
    def from_dict(cls, raw: object) -> ProvArtifact:
        raw = check_header(raw, PROV_FORMAT, PROV_VERSION, ProvenanceError)
        try:
            # File ids -> ids of a fresh table (duplicates merge, "" is 0).
            strings = StringTable()
            canon = np.array(
                [strings.intern(str(s)) for s in raw["strings"]], dtype=np.int64
            )
            tables: dict[str, dict[str, np.ndarray]] = {}
            for table, spec in TABLES.items():
                raw_table = raw[table]
                columns = {
                    name: _column(raw_table[name], f"{table}.{name}", kind, canon)
                    for name, kind in spec
                }
                key = "epoch" if table == "decisions" else "decision"
                rows = len(columns[key])
                for name, values in columns.items():
                    if len(values) != rows:
                        raise ProvenanceError(
                            f"{table}.{name} has {len(values)} rows, "
                            f"{key} column has {rows}"
                        )
                tables[table] = columns
            n = len(tables["decisions"]["epoch"])
            for table in ("predicates", "candidates"):
                decision = tables[table]["decision"]
                bad = np.flatnonzero((decision < 0) | (decision >= n))
                if bad.size:
                    raise ProvenanceError(
                        f"{table}: decision index {decision[bad[0]]} outside "
                        f"the {n}-row decision table"
                    )
            return cls(
                records=LedgerView(Ledger.from_arrays(strings, tables)),
                meta=dict(raw.get("meta", {})),
                budget=int(raw.get("budget", 0)),
                noop_dropped={
                    int(epoch): int(count)
                    for epoch, count in raw.get("noop_dropped", {}).items()
                },
            )
        except ProvenanceError:
            raise
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ProvenanceError(f"malformed {PROV_FORMAT} artifact: {exc}") from exc

    def save(self, path: str | pathlib.Path) -> None:
        """Write the artifact as compact JSON (still ``jq``-able).

        Streams the document: the header, then every column in chunks of
        :data:`~repro.obs.provenance.ledger.CHUNK` values, and replaces
        ``path`` only once the file is complete.  The bytes equal
        ``json.dumps(self.to_dict(), separators=(",", ":"),
        allow_nan=False) + "\\n"``.
        """
        head = _dumps(self._header())[:-1]
        strings, remap = self._view.file_strings()
        with atomic_write(path) as out:
            out.write(head + ',"strings":')
            _write_list(
                out, (strings[i : i + CHUNK] for i in range(0, len(strings), CHUNK))
            )
            for table, columns in self._view.file_tables(remap):
                out.write(f",{_dumps(table)}:{{")
                for i, (name, chunks) in enumerate(columns):
                    out.write(f"{',' if i else ''}{_dumps(name)}:")
                    _write_list(out, chunks)
                out.write("}")
            out.write("}\n")

    @classmethod
    def load(cls, path: str | pathlib.Path) -> ProvArtifact:
        """Read an artifact back; raises :class:`ProvenanceError` on any
        format problem (including a file that is not JSON at all)."""
        return cls.from_dict(read_json(path, ProvenanceError, "provenance artifact"))
