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
raises :class:`~repro.errors.ProvenanceError`.  :meth:`ProvArtifact.load`
parses the file one member at a time and turns each table column into
its compact numpy form as soon as it is parsed, so a load holds the
file's text and one column's Python values beside the converted columns.

Layout::

    {"format": "repro-prov", "version": 1,
     "meta": {...}, "budget": N, "noop_dropped": {"<epoch>": count},
     "strings": ["", "availability", ...],
     "decisions":  {column -> parallel array, strings by table index},
     "predicates": {"decision" -> row index into decisions, ...},
     "candidates": {"decision" -> row index into decisions, ...}}
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import re
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from json.decoder import scanstring
from typing import IO

import numpy as np

from ...artifact import atomic_write, check_header, reading
from ...errors import ProvenanceError
from .ledger import CHUNK, TABLES, Ledger, LedgerView, StringTable, narrow
from .records import DecisionRecord

__all__ = ["PROV_FORMAT", "PROV_VERSION", "ProvArtifact"]

#: Magic format tag; a file without it is not a provenance artifact.
PROV_FORMAT = "repro-prov"
#: Schema version; bumped on any incompatible layout change.
PROV_VERSION = 1

_INT32 = np.iinfo(np.int32)

#: What ``json`` skips between tokens.
_SPACE = re.compile(r"[ \t\n\r]*")
_DECODER = json.JSONDecoder()

#: Converted columns (see :func:`_column`) by table, then by column name.
Tables = dict[str, dict[str, np.ndarray]]


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


def _column(raw: object, where: str, kind: str) -> np.ndarray:
    """One file column as a flat numpy array, ints narrowed; string ids
    are checked against the string table later, in :func:`_string_ids`."""
    values = np.asarray(raw, dtype=np.float64 if kind == "float" else np.int64)
    if values.ndim != 1:
        raise ProvenanceError(f"{where} is not a flat array")
    if kind == "float":
        return values
    if kind == "flag":
        return values != 0
    if kind != "str" and values.size and (
        values.min() < _INT32.min or values.max() > _INT32.max
    ):
        raise ProvenanceError(f"{where}: value outside the int32 range")
    return narrow(values)


def _table(raw: object, table: str) -> dict[str, np.ndarray]:
    return {name: _column(raw[name], f"{table}.{name}", kind) for name, kind in TABLES[table]}


def _string_ids(values: np.ndarray, where: str, canon: np.ndarray) -> np.ndarray:
    """File string ids mapped through ``canon``."""
    bad = np.flatnonzero((values < 0) | (values >= len(canon)))
    if bad.size:
        raise ProvenanceError(
            f"{where}: string index {values[bad[0]]} outside table of {len(canon)}"
        )
    return canon[values]


@contextlib.contextmanager
def _malformed() -> Iterator[None]:
    """Report a document of the wrong shape as :class:`ProvenanceError`."""
    try:
        yield
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ProvenanceError(f"malformed {PROV_FORMAT} artifact: {exc}") from exc


def _walk(text: str, pos: int, member: Callable[[str, int], int]) -> int:
    """Parse the JSON object that opens at ``text[pos]`` as ``json`` does.

    ``member(key, start)`` parses each member's value from ``start`` and
    returns where it ends.  Returns where the object ends.
    """
    pos = _SPACE.match(text, pos + 1).end()
    if text.startswith("}", pos):
        return pos + 1
    while True:
        if not text.startswith('"', pos):
            raise json.JSONDecodeError(
                "Expecting property name enclosed in double quotes", text, pos
            )
        key, pos = scanstring(text, pos + 1)
        pos = _SPACE.match(text, pos).end()
        if not text.startswith(":", pos):
            raise json.JSONDecodeError("Expecting ':' delimiter", text, pos)
        pos = _SPACE.match(text, member(key, _SPACE.match(text, pos + 1).end())).end()
        if text.startswith("}", pos):
            return pos + 1
        if not text.startswith(",", pos):
            raise json.JSONDecodeError("Expecting ',' delimiter", text, pos)
        pos = _SPACE.match(text, pos + 1).end()


def _parse(path: str | pathlib.Path) -> tuple[object, Tables]:
    """The document in the file at ``path``, as ``json.load`` reads it,
    except that each table whose value is an object comes back
    separately, as columns converted by :func:`_column`."""
    with reading(path, ProvenanceError, "provenance artifact"):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        pos = _SPACE.match(text).end()
        if not text.startswith("{", pos):
            return json.loads(text), {}
        raw: dict[str, object] = {}
        tables: Tables = {}

        def member(key: str, pos: int) -> int:
            if key in TABLES and text.startswith("{", pos):
                raw.pop(key, None)
                columns: dict[str, np.ndarray] = {}
                tables[key] = columns
                kinds = dict(TABLES[key])

                def column(name: str, pos: int) -> int:
                    value, end = _DECODER.raw_decode(text, pos)
                    if name in kinds:
                        columns[name] = _column(value, f"{key}.{name}", kinds[name])
                    return end

                return _walk(text, pos, column)
            tables.pop(key, None)
            raw[key], end = _DECODER.raw_decode(text, pos)
            return end

        end = _SPACE.match(text, _walk(text, pos, member)).end()
        if end != len(text):
            raise json.JSONDecodeError("Extra data", text, end)
        return raw, tables


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
        with _malformed():
            return cls._from_document(raw, {})

    @classmethod
    def _from_document(cls, raw: object, tables: Tables) -> ProvArtifact:
        """The artifact of a parsed document; ``tables`` holds the tables
        already converted to columns, and the rest are read from ``raw``."""
        raw = check_header(raw, PROV_FORMAT, PROV_VERSION, ProvenanceError)
        for table in TABLES:
            if table not in tables:
                tables[table] = _table(raw[table], table)
        # File ids -> ids of a fresh table (duplicates merge, "" is 0).
        strings = StringTable()
        canon = narrow(
            np.array([strings.intern(str(s)) for s in raw["strings"]], dtype=np.int64)
        )
        for table, spec in TABLES.items():
            columns = tables[table]
            key = "epoch" if table == "decisions" else "decision"
            rows = len(columns[key])
            for name, kind in spec:
                values = columns[name]
                if kind == "str":
                    values = columns[name] = _string_ids(values, f"{table}.{name}", canon)
                if len(values) != rows:
                    raise ProvenanceError(
                        f"{table}.{name} has {len(values)} rows, {key} column has {rows}"
                    )
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
                int(epoch): int(count) for epoch, count in raw.get("noop_dropped", {}).items()
            },
        )

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
        format problem (including a file that is not JSON at all).

        Parses the document one member at a time: each table column is
        converted to its compact numpy form as soon as it is parsed.
        """
        with _malformed():
            return cls._from_document(*_parse(path))
