"""The decision ledger: the ``repro-prov`` v1 tables as typed columns.

The recorder, the artifact and the ``.prov.json`` file share one
representation.  A :class:`Ledger` holds v1's decisions table (8 int,
5 string-id and 4 float columns), its predicates and candidates tables
(rows in decision order) and the string table the ids point into.
Every column is an ``array.array``: ints and string ids int16 until a
value does not fit, ``passed`` int8, floats float64.  A child table
stores no per-row ``decision`` column.  Instead the ledger keeps, per
child table, one int32 offset per decision row plus the end, so decision
row ``d``'s children are rows ``starts[d]:starts[d + 1]``.  Recording
appends rows and stamps fates in place; nothing is boxed per row.  The
first value an int16 column cannot hold (an ``OverflowError`` from an
append or a fate stamp) removes the partial row, turns every int16
column into int32 and repeats the write.  A
:class:`~repro.obs.provenance.records.DecisionRecord` is built only when
a reader asks a :class:`LedgerView` for one.

In memory, strings are numbered in recording order.  v1 numbers them by
first occurrence in record-major order: each row's five decision
strings, then its predicates' ``eq`` and ``subject``, then its
candidates' ``role``, ``verdict`` and ``cause``.
:meth:`LedgerView.file_strings` derives that order from the columns, and
:meth:`LedgerView.file_tables` yields every column in file order and in
bounded chunks, with ids remapped, non-finite floats as ``None`` and each
child table's ``decision`` column generated from its offsets.
"""

from __future__ import annotations

import bisect
from array import array
from collections.abc import Callable, Iterable, Iterator, Sequence
from typing import TypeVar

import numpy as np

from .records import CandidateEval, DecisionRecord, PredicateEval

__all__ = [
    "CHUNK",
    "DECISION_FLOATS",
    "DECISION_INTS",
    "DECISION_STRINGS",
    "TABLES",
    "Ledger",
    "LedgerView",
    "StringTable",
    "narrow",
]

DECISION_INTS = (
    "epoch",
    "partition",
    "target_sid",
    "target_dc",
    "source_sid",
    "replica_count",
    "rmin",
    "holder_dc",
)
DECISION_STRINGS = ("branch", "action", "reason", "fate", "fate_cause")
DECISION_FLOATS = ("avg_query", "holder_traffic", "unserved", "mean_traffic")

#: The v1 tables in file order, each a tuple of ``(column, kind)``.
#: Kinds: ``int``, ``float``, ``str`` (an id into the string table),
#: ``row`` (a decisions-table row) and ``flag`` (0 or 1).
TABLES: dict[str, tuple[tuple[str, str], ...]] = {
    "decisions": (
        *((name, "int") for name in DECISION_INTS),
        *((name, "str") for name in DECISION_STRINGS),
        *((name, "float") for name in DECISION_FLOATS),
    ),
    "predicates": (
        ("decision", "row"),
        ("eq", "str"),
        ("subject", "str"),
        ("lhs", "float"),
        ("threshold", "float"),
        ("passed", "flag"),
    ),
    "candidates": (
        ("decision", "row"),
        ("role", "str"),
        ("dc", "int"),
        ("sid", "int"),
        ("verdict", "str"),
        ("cause", "str"),
        ("value", "float"),
        ("threshold", "float"),
    ),
}

#: The tables whose rows belong to a decision row.
CHILD_TABLES = ("predicates", "candidates")

#: The columns a ledger stores: the file's, less the child ``decision``.
_STORED = {
    table: tuple((name, kind) for name, kind in spec if kind != "row")
    for table, spec in TABLES.items()
}

#: ``array`` typecode per column kind (ints and ids widen from ``h`` to
#: ``i``) and numpy dtype per typecode.
_TYPECODES = {"int": "h", "str": "h", "float": "d", "flag": "b"}
_DTYPES = {"h": np.int16, "i": np.int32, "d": np.float64, "b": np.int8}

#: Values per chunk when a column is streamed out; bounds what a save
#: holds at once to a few hundred kilobytes.
CHUNK = 4096

#: ``file_strings`` position of an id not used in the view.
_NEVER = np.iinfo(np.int64).max

Columns = dict[str, array]
_T = TypeVar("_T")


def _numpy(column: array, lo: int = 0, hi: int | None = None) -> np.ndarray:
    """``column[lo:hi]`` as numpy, over a copy so that no buffer export
    pins the growing ``array``."""
    return np.frombuffer(column[lo:hi], dtype=_DTYPES[column.typecode])


def _array(typecode: str, values: np.ndarray) -> array:
    return array(typecode, values.astype(_DTYPES[typecode], copy=False).tobytes())


def narrow(values: np.ndarray) -> np.ndarray:
    """Integer ``values`` as int16, or as int32 if int16 cannot hold
    them; unchanged if neither can."""
    for dtype in (np.int16, np.int32):
        info = np.iinfo(dtype)
        if not values.size or (info.min <= values.min() and values.max() <= info.max):
            return values.astype(dtype, copy=False)
    return values


class StringTable:
    """Append-only interned strings; ``""`` is always id 0."""

    __slots__ = ("strings", "_ids")

    def __init__(self) -> None:
        self.strings: list[str] = [""]
        self._ids: dict[str, int] = {"": 0}

    def intern(self, value: str) -> int:
        idx = self._ids.get(value)
        if idx is None:
            idx = self._ids[value] = len(self.strings)
            self.strings.append(value)
        return idx


class Ledger:
    """The three v1 tables as growable typed columns over one string table.

    ``starts[table]`` holds, for each child table, the first child row of
    every decision row and then the child row count.
    """

    def __init__(
        self,
        strings: StringTable | None = None,
        tables: dict[str, Columns] | None = None,
        starts: dict[str, array] | None = None,
    ) -> None:
        self.strings = StringTable() if strings is None else strings
        if tables is None:
            tables = {
                table: {name: array(_TYPECODES[kind]) for name, kind in spec}
                for table, spec in _STORED.items()
            }
        if starts is None:
            starts = {table: array("i", [0]) for table in CHILD_TABLES}
        self.tables = tables
        self.starts = starts
        self._bind()
        self.none_id = self.strings.intern("none")

    def _bind(self) -> None:
        """Cache the column tuples :meth:`append` writes to."""
        decisions = tuple(self.tables["decisions"].values())
        self._ints = decisions[: len(DECISION_INTS)]
        self._strs = decisions[len(DECISION_INTS) : -len(DECISION_FLOATS)]
        self._floats = decisions[-len(DECISION_FLOATS) :]
        self._predicates = tuple(self.tables["predicates"].values())
        self._candidates = tuple(self.tables["candidates"].values())

    def __len__(self) -> int:
        return len(self.starts["predicates"]) - 1

    def counts(self) -> dict[str, int]:
        """Rows per table."""
        starts = self.starts
        return {
            "decisions": len(self),
            "predicates": starts["predicates"][-1],
            "candidates": starts["candidates"][-1],
        }

    def column(self, table: str, name: str, n: int | None = None) -> np.ndarray:
        """A copy of a stored column's first ``n`` values (all by default)."""
        return _numpy(self.tables[table][name], 0, n)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def append(
        self,
        ints: Sequence[int],
        strings: Sequence[str],
        floats: Sequence[float],
        predicates: Sequence[tuple[str, str, float, float, bool]] = (),
        candidates: Sequence[tuple[str, int, int, str, str, float, float]] = (),
    ) -> int:
        """Append one decision row and its predicate and candidate rows.

        ``ints``/``strings``/``floats`` follow :data:`DECISION_INTS`,
        :data:`DECISION_STRINGS` and :data:`DECISION_FLOATS`; predicate
        and candidate tuples follow their table's columns after
        ``decision``.  Returns the new decision row.  The arguments are
        sequences because a write repeated after widening reads them
        again.
        """
        return self._widening(self._append, ints, strings, floats, predicates, candidates)

    def _append(self, ints, strings, floats, predicates, candidates) -> int:
        row = len(self)
        intern = self.strings.intern
        for column, value in zip(self._ints, ints):
            column.append(value)
        for column, text in zip(self._strs, strings):
            column.append(intern(text))
        for column, value in zip(self._floats, floats):
            column.append(value)
        eq, subject, lhs, threshold, passed = self._predicates
        for p_eq, p_subject, p_lhs, p_threshold, p_passed in predicates:
            eq.append(intern(p_eq))
            subject.append(intern(p_subject))
            lhs.append(p_lhs)
            threshold.append(p_threshold)
            passed.append(p_passed)
        role, dc, sid, verdict, cause, value, threshold = self._candidates
        for c_role, c_dc, c_sid, c_verdict, c_cause, c_value, c_threshold in candidates:
            role.append(intern(c_role))
            dc.append(c_dc)
            sid.append(c_sid)
            verdict.append(intern(c_verdict))
            cause.append(intern(c_cause))
            value.append(c_value)
            threshold.append(c_threshold)
        # The row counts only once its offsets are in.
        self.starts["predicates"].append(len(eq))
        self.starts["candidates"].append(len(role))
        return row

    def stamp_fate(self, row: int, fate: str, cause: str, target_dc: int) -> None:
        """Set a decision row's fate in place (and its target dc if known)."""
        self._widening(self._stamp_fate, row, fate, cause, target_dc)

    def _stamp_fate(self, row: int, fate: str, cause: str, target_dc: int) -> None:
        decisions = self.tables["decisions"]
        decisions["fate"][row] = self.strings.intern(fate)
        decisions["fate_cause"][row] = self.strings.intern(cause)
        if target_dc >= 0:
            decisions["target_dc"][row] = target_dc

    def _widening(self, write: Callable[..., _T], *args: object) -> _T:
        """``write(*args)``.  On the first value an int16 column cannot
        hold, cut every column back to the last whole decision row, turn
        every int16 column into int32 and write again."""
        while True:
            try:
                return write(*args)
            except OverflowError:
                n = len(self)
                widened = False
                for table, columns in self.tables.items():
                    end = n if table == "decisions" else self.starts[table][n]
                    for name, column in columns.items():
                        del column[end:]
                        if column.typecode == "h":
                            columns[name] = array("i", column)
                            widened = True
                if not widened:
                    raise
                self._bind()

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------
    def noop_rows(self) -> np.ndarray:
        """Rows with no action and no fate, oldest first."""
        action = self.column("decisions", "action")
        fate = self.column("decisions", "fate")
        return np.flatnonzero((action == self.none_id) & (fate == self.none_id))

    def dropping(self, rows: np.ndarray) -> tuple[Ledger, np.ndarray]:
        """A new ledger without decision ``rows`` and their child rows.

        Builds new columns and leaves this ledger untouched, so views
        taken earlier keep reading it.  Also returns each old row's new
        row number (meaningless for dropped rows).
        """
        keep = np.ones(len(self), dtype=bool)
        keep[rows] = False
        new_row = np.cumsum(keep) - 1
        tables = {"decisions": self._take("decisions", keep)}
        starts = {}
        for table in CHILD_TABLES:
            sizes = np.diff(_numpy(self.starts[table]))
            tables[table] = self._take(table, np.repeat(keep, sizes))
            starts[table] = _array("i", np.concatenate(([0], np.cumsum(sizes[keep]))))
        return Ledger(self.strings, tables, starts), new_row

    def _take(self, table: str, mask: np.ndarray) -> Columns:
        return {
            name: _array(column.typecode, _numpy(column)[mask])
            for name, column in self.tables[table].items()
        }

    # ------------------------------------------------------------------
    # Construction from other representations
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Iterable[DecisionRecord]) -> Ledger:
        ledger = cls()
        for rec in records:
            ledger.append(
                [int(getattr(rec, name)) for name in DECISION_INTS],
                [str(getattr(rec, name)) for name in DECISION_STRINGS],
                [float(getattr(rec, name)) for name in DECISION_FLOATS],
                [
                    (p.eq, p.subject, float(p.lhs), float(p.threshold), bool(p.passed))
                    for p in rec.predicates
                ],
                [
                    (
                        c.role,
                        int(c.dc),
                        int(c.sid),
                        c.verdict,
                        c.cause,
                        float(c.value),
                        float(c.threshold),
                    )
                    for c in rec.candidates
                ],
            )
        return ledger

    @classmethod
    def from_arrays(
        cls, strings: StringTable, tables: dict[str, dict[str, np.ndarray]]
    ) -> Ledger:
        """Fill the columns from validated numpy arrays in the file's
        layout (ids already in ``strings``, child rows keyed by a
        ``decision`` column).  Child rows are put in decision order,
        stably, and their ``decision`` columns become offsets.  Each int
        and id column is int16 if its range fits, else int32."""
        n = len(tables["decisions"]["epoch"])
        columns = {"decisions": _typed(tables["decisions"], _STORED["decisions"])}
        starts = {}
        for table in CHILD_TABLES:
            values = tables[table]
            decision = values["decision"]
            if np.any(decision[1:] < decision[:-1]):
                order = np.argsort(decision, kind="stable")
                values = {name: column[order] for name, column in values.items()}
                decision = values["decision"]
            columns[table] = _typed(values, _STORED[table])
            starts[table] = _array("i", np.searchsorted(decision, np.arange(n + 1)))
        return cls(strings, columns, starts)


def _typed(values: dict[str, np.ndarray], spec: tuple[tuple[str, str], ...]) -> Columns:
    columns = {}
    for name, kind in spec:
        column, typecode = values[name], _TYPECODES[kind]
        if typecode == "h":
            column = narrow(column)
            typecode = "h" if column.dtype == np.int16 else "i"
        columns[name] = _array(typecode, column)
    return columns


class LedgerView(Sequence[DecisionRecord]):
    """A ledger's first rows, read as records built on demand.

    The view fixes its row counts when taken: rows the recorder appends
    later are not part of it, and a compaction builds a new ledger, so
    the view keeps reading the columns it was taken over.
    """

    __slots__ = ("ledger", "counts")

    def __init__(self, ledger: Ledger) -> None:
        self.ledger = ledger
        self.counts = ledger.counts()

    def __len__(self) -> int:
        return self.counts["decisions"]

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return tuple(self[i] for i in range(*index.indices(len(self))))
        n = len(self)
        row = index + n if index < 0 else index
        if not 0 <= row < n:
            raise IndexError("ledger view index out of range")
        return self._record(row)

    def _record(self, row: int) -> DecisionRecord:
        text = self.ledger.strings.strings
        d = self.ledger.tables["decisions"]
        eq, subject, lhs, threshold, passed = self.ledger.tables["predicates"].values()
        role, dc, sid, verdict, cause, value, c_threshold = self.ledger.tables[
            "candidates"
        ].values()
        p_starts = self.ledger.starts["predicates"]
        c_starts = self.ledger.starts["candidates"]
        return DecisionRecord(
            epoch=d["epoch"][row],
            partition=d["partition"][row],
            branch=text[d["branch"][row]],
            action=text[d["action"][row]],
            reason=text[d["reason"][row]],
            target_sid=d["target_sid"][row],
            target_dc=d["target_dc"][row],
            source_sid=d["source_sid"][row],
            fate=text[d["fate"][row]],
            fate_cause=text[d["fate_cause"][row]],
            avg_query=d["avg_query"][row],
            holder_traffic=d["holder_traffic"][row],
            unserved=d["unserved"][row],
            mean_traffic=d["mean_traffic"][row],
            replica_count=d["replica_count"][row],
            rmin=d["rmin"][row],
            holder_dc=d["holder_dc"][row],
            predicates=tuple(
                PredicateEval(
                    text[eq[j]], text[subject[j]], lhs[j], threshold[j], bool(passed[j])
                )
                for j in range(p_starts[row], p_starts[row + 1])
            ),
            candidates=tuple(
                CandidateEval(
                    text[role[j]],
                    dc[j],
                    sid[j],
                    text[verdict[j]],
                    text[cause[j]],
                    value[j],
                    c_threshold[j],
                )
                for j in range(c_starts[row], c_starts[row + 1])
            ),
        )

    # ------------------------------------------------------------------
    # Column queries
    # ------------------------------------------------------------------
    def column(self, table: str, name: str) -> np.ndarray:
        return self.ledger.column(table, name, self.counts[table])

    def offsets(self, table: str) -> np.ndarray:
        """A child table's offsets over the view's decision rows."""
        return _numpy(self.ledger.starts[table], 0, len(self) + 1)

    def num_actions(self) -> int:
        return int(np.count_nonzero(self.column("decisions", "action") != self.ledger.none_id))

    def partitions(self) -> tuple[int, ...]:
        return tuple(np.unique(self.column("decisions", "partition")).tolist())

    def for_partition(self, partition: int, epoch: int | None = None) -> tuple[DecisionRecord, ...]:
        """This partition's records in epoch order (optionally one epoch)."""
        rows = np.flatnonzero(self.column("decisions", "partition") == partition)
        epochs = self.column("decisions", "epoch")[rows]
        if epoch is not None:
            rows, epochs = rows[epochs == epoch], epochs[epochs == epoch]
        rows = rows[np.argsort(epochs, kind="stable")]
        return tuple(self._record(row) for row in rows.tolist())

    # ------------------------------------------------------------------
    # File order
    # ------------------------------------------------------------------
    def file_strings(self) -> tuple[list[str], np.ndarray]:
        """The v1 string table and the id remap into it.

        v1 numbers strings by first occurrence in record-major order.
        Each string column of the view is scanned in :data:`CHUNK`-row
        slices; a slice's first use of each id maps to its record-major
        position, and the earliest position over all slices orders the
        id.  Only one slice is copied at a time.  ``""`` stays id 0.
        """
        text = self.ledger.strings.strings
        tables = self.ledger.tables
        n = len(self)
        p_starts = self.ledger.starts["predicates"]
        c_starts = self.ledger.starts["candidates"]

        def owner(starts: array, row: int) -> int:
            # The decision row whose children include child row ``row``.
            return bisect.bisect_right(starts, row, 0, n + 1) - 1

        # Record-major position of each row's first string.  Decision row
        # d starts at base(d) = 5d + 2P(d) + 3C(d), P and C counting the
        # predicate and candidate rows before d (its offsets).  Predicate
        # row i of d follows d's five strings and every predicate row
        # before i: 5(d+1) + 2i + 3C(d).  Candidate row i of d follows all
        # of d's predicates and every candidate row before i:
        # 5(d+1) + 2P(d+1) + 3i.
        def decision_start(row: int) -> int:
            return 5 * row + 2 * p_starts[row] + 3 * c_starts[row]

        def predicate_start(row: int) -> int:
            d = owner(p_starts, row)
            return 5 * (d + 1) + 2 * row + 3 * c_starts[d]

        def candidate_start(row: int) -> int:
            d = owner(c_starts, row)
            return 5 * (d + 1) + 2 * p_starts[d + 1] + 3 * row

        first = np.full(len(text), _NEVER, dtype=np.int64)
        for table, names, start in (
            ("decisions", DECISION_STRINGS, decision_start),
            ("predicates", ("eq", "subject"), predicate_start),
            ("candidates", ("role", "verdict", "cause"), candidate_start),
        ):
            rows = self.counts[table]
            for j, name in enumerate(names):
                column = tables[table][name]
                for lo in range(0, rows, CHUNK):
                    ids = _numpy(column, lo, min(rows, lo + CHUNK))
                    used, at = np.unique(ids, return_index=True)
                    position = np.array([start(lo + i) + j for i in at.tolist()], dtype=np.int64)
                    first[used] = np.minimum(first[used], position)
        first[0] = -1
        used = np.flatnonzero(first < _NEVER)
        order = used[np.argsort(first[used], kind="stable")]
        remap = np.zeros(len(text), dtype=np.int64)
        remap[order] = np.arange(len(order))
        return [text[i] for i in order.tolist()], remap

    def file_tables(
        self, remap: np.ndarray
    ) -> Iterator[tuple[str, Iterator[tuple[str, Iterator[list]]]]]:
        """``(table, columns)`` in file order; each column is
        ``(name, chunks)``, each chunk a list of up to :data:`CHUNK`
        JSON-ready values."""
        for table in TABLES:
            yield table, self._file_columns(table, remap)

    def _file_columns(
        self, table: str, remap: np.ndarray
    ) -> Iterator[tuple[str, Iterator[list]]]:
        n = self.counts[table]
        for name, kind in TABLES[table]:
            if kind == "row":
                yield name, _decision_chunks(self.offsets(table), n)
            else:
                yield name, _chunks(self.ledger.tables[table][name], kind, n, remap)


def _decision_chunks(starts: np.ndarray, n: int) -> Iterator[list]:
    """The decision row of each of a child table's ``n`` rows."""
    for lo in range(0, n, CHUNK):
        rows = np.arange(lo, min(n, lo + CHUNK), dtype=starts.dtype)
        yield (np.searchsorted(starts, rows, side="right") - 1).tolist()


def _chunks(column: array, kind: str, n: int, remap: np.ndarray) -> Iterator[list]:
    for lo in range(0, n, CHUNK):
        part = column[lo : min(n, lo + CHUNK)]
        if kind == "str":
            yield remap[_numpy(part)].tolist()
        elif kind == "float":
            values = part.tolist()
            for i in np.flatnonzero(~np.isfinite(_numpy(part))).tolist():
                values[i] = None
            yield values
        else:
            yield part.tolist()
