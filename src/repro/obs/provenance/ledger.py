"""The decision ledger: the ``repro-prov`` v1 tables as typed columns.

The recorder, the artifact and the ``.prov.json`` file share one
representation.  A :class:`Ledger` holds v1's decisions table (8 int,
5 string-id and 4 float columns), its predicates and candidates tables
(each row keyed by its decision row, rows in decision order) and the
string table the ids point into.  Every column is an ``array.array`` of
the narrowest type that fits: ids and ints int32, ``passed`` int8,
floats float64.  Recording appends rows and stamps fates in place;
nothing is boxed per row.  A
:class:`~repro.obs.provenance.records.DecisionRecord` is built only when
a reader asks a :class:`LedgerView` for one.

In memory, strings are numbered in recording order.  v1 numbers them by
first occurrence in record-major order: each row's five decision
strings, then its predicates' ``eq`` and ``subject``, then its
candidates' ``role``, ``verdict`` and ``cause``.
:meth:`LedgerView.file_strings` derives that order from the columns, and
:meth:`LedgerView.file_tables` yields every column in file order and in
bounded chunks, with ids remapped and non-finite floats as ``None``.
"""

from __future__ import annotations

import bisect
from array import array
from collections.abc import Iterable, Iterator, Sequence

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

#: ``array`` typecode and numpy dtype per column kind.
_TYPECODES = {"int": "i", "str": "i", "row": "i", "float": "d", "flag": "b"}
_DTYPES = {"i": np.int32, "d": np.float64, "b": np.int8}

#: Values per chunk when a column is streamed out; bounds what a save
#: holds at once to a few hundred kilobytes.
CHUNK = 4096

#: ``file_strings`` position of an id not used in the view.
_NEVER = np.iinfo(np.int64).max

Columns = dict[str, array]


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
    """The three v1 tables as growable typed columns over one string table."""

    def __init__(
        self,
        strings: StringTable | None = None,
        tables: dict[str, Columns] | None = None,
    ) -> None:
        self.strings = StringTable() if strings is None else strings
        if tables is None:
            tables = {
                table: {name: array(_TYPECODES[kind]) for name, kind in spec}
                for table, spec in TABLES.items()
            }
        self.tables = tables
        decisions = tuple(tables["decisions"].values())
        self._ints = decisions[: len(DECISION_INTS)]
        self._strs = decisions[len(DECISION_INTS) : -len(DECISION_FLOATS)]
        self._floats = decisions[-len(DECISION_FLOATS) :]
        self._predicates = tuple(tables["predicates"].values())
        self._candidates = tuple(tables["candidates"].values())
        self.none_id = self.strings.intern("none")

    def __len__(self) -> int:
        return len(self._ints[0])

    def counts(self) -> dict[str, int]:
        """Rows per table."""
        return {table: len(next(iter(cols.values()))) for table, cols in self.tables.items()}

    def column(self, table: str, name: str, n: int | None = None) -> np.ndarray:
        """A copy of a column's first ``n`` values (all by default) as numpy.

        A copy, so no buffer export pins the growing ``array``.
        """
        column = self.tables[table][name]
        return np.frombuffer(column[:n], dtype=_DTYPES[column.typecode])

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def append(
        self,
        ints: Iterable[int],
        strings: Iterable[str],
        floats: Iterable[float],
        predicates: Iterable[tuple[str, str, float, float, bool]] = (),
        candidates: Iterable[tuple[str, int, int, str, str, float, float]] = (),
    ) -> int:
        """Append one decision row and its predicate and candidate rows.

        ``ints``/``strings``/``floats`` follow :data:`DECISION_INTS`,
        :data:`DECISION_STRINGS` and :data:`DECISION_FLOATS`; predicate
        and candidate tuples follow their table's columns after
        ``decision``.  Returns the new decision row.
        """
        row = len(self)
        intern = self.strings.intern
        for column, value in zip(self._ints, ints):
            column.append(value)
        for column, text in zip(self._strs, strings):
            column.append(intern(text))
        for column, value in zip(self._floats, floats):
            column.append(value)
        decision, eq, subject, lhs, threshold, passed = self._predicates
        for p_eq, p_subject, p_lhs, p_threshold, p_passed in predicates:
            decision.append(row)
            eq.append(intern(p_eq))
            subject.append(intern(p_subject))
            lhs.append(p_lhs)
            threshold.append(p_threshold)
            passed.append(p_passed)
        decision, role, dc, sid, verdict, cause, value, threshold = self._candidates
        for c_role, c_dc, c_sid, c_verdict, c_cause, c_value, c_threshold in candidates:
            decision.append(row)
            role.append(intern(c_role))
            dc.append(c_dc)
            sid.append(c_sid)
            verdict.append(intern(c_verdict))
            cause.append(intern(c_cause))
            value.append(c_value)
            threshold.append(c_threshold)
        return row

    def stamp_fate(self, row: int, fate: str, cause: str, target_dc: int) -> None:
        """Set a decision row's fate in place (and its target dc if known)."""
        decisions = self.tables["decisions"]
        decisions["fate"][row] = self.strings.intern(fate)
        decisions["fate_cause"][row] = self.strings.intern(cause)
        if target_dc >= 0:
            decisions["target_dc"][row] = target_dc

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
        for table in ("predicates", "candidates"):
            decision = self.column(table, "decision")
            kept = keep[decision]
            tables[table] = self._take(table, kept)
            tables[table]["decision"] = array(
                "i", new_row[decision[kept]].astype(np.int32).tobytes()
            )
        return Ledger(self.strings, tables), new_row

    def _take(self, table: str, mask: np.ndarray) -> Columns:
        return {
            name: array(column.typecode, self.column(table, name)[mask].tobytes())
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
        """Fill the columns from validated numpy arrays (ids already in
        ``strings``); child rows are put in decision order, stably."""
        columns: dict[str, Columns] = {}
        for table, spec in TABLES.items():
            values = tables[table]
            if table != "decisions":
                decision = values["decision"]
                if np.any(decision[1:] < decision[:-1]):
                    order = np.argsort(decision, kind="stable")
                    values = {name: column[order] for name, column in values.items()}
            columns[table] = {}
            for name, kind in spec:
                typecode = _TYPECODES[kind]
                data = values[name].astype(_DTYPES[typecode]).tobytes()
                columns[table][name] = array(typecode, data)
        return cls(strings, columns)


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
        pred, eq, subject, lhs, threshold, passed = self.ledger.tables["predicates"].values()
        cand, role, dc, sid, verdict, cause, value, c_threshold = self.ledger.tables[
            "candidates"
        ].values()
        # Child rows are in decision order: each row's are one contiguous run.
        p_lo = bisect.bisect_left(pred, row, 0, self.counts["predicates"])
        p_hi = bisect.bisect_left(pred, row + 1, p_lo, self.counts["predicates"])
        c_lo = bisect.bisect_left(cand, row, 0, self.counts["candidates"])
        c_hi = bisect.bisect_left(cand, row + 1, c_lo, self.counts["candidates"])
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
                for j in range(p_lo, p_hi)
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
                for j in range(c_lo, c_hi)
            ),
        )

    # ------------------------------------------------------------------
    # Column queries
    # ------------------------------------------------------------------
    def column(self, table: str, name: str) -> np.ndarray:
        return self.ledger.column(table, name, self.counts[table])

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
        n_pred, n_cand = self.counts["predicates"], self.counts["candidates"]
        pred, cand = tables["predicates"]["decision"], tables["candidates"]["decision"]

        def before(column: array, n: int, row: int) -> int:
            # Child rows of the decisions before ``row`` (children are
            # in decision order).
            return bisect.bisect_left(column, row, 0, n)

        # Record-major position of each row's first string.  Decision row
        # d starts at base(d) = 5d + 2P(d) + 3C(d), P and C counting the
        # predicate and candidate rows before d.  Predicate row i of d
        # follows d's five strings and every predicate row before i:
        # 5(d+1) + 2i + 3C(d).  Candidate row i of d follows all of d's
        # predicates and every candidate row before i: 5(d+1) + 2P(d+1) + 3i.
        def decision_start(row: int) -> int:
            return 5 * row + 2 * before(pred, n_pred, row) + 3 * before(cand, n_cand, row)

        def predicate_start(row: int) -> int:
            d = pred[row]
            return 5 * (d + 1) + 2 * row + 3 * before(cand, n_cand, d)

        def candidate_start(row: int) -> int:
            d = cand[row]
            return 5 * (d + 1) + 2 * before(pred, n_pred, d + 1) + 3 * row

        first = np.full(len(text), _NEVER, dtype=np.int64)
        for table, names, start in (
            ("decisions", DECISION_STRINGS, decision_start),
            ("predicates", ("eq", "subject"), predicate_start),
            ("candidates", ("role", "verdict", "cause"), candidate_start),
        ):
            n = self.counts[table]
            for j, name in enumerate(names):
                column = tables[table][name]
                for lo in range(0, n, CHUNK):
                    ids = np.frombuffer(column[lo : min(n, lo + CHUNK)], dtype=np.int32)
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
        for table, spec in TABLES.items():
            yield table, _columns(self.ledger.tables[table], spec, self.counts[table], remap)


def _columns(
    columns: Columns, spec: tuple[tuple[str, str], ...], n: int, remap: np.ndarray
) -> Iterator[tuple[str, Iterator[list]]]:
    for name, kind in spec:
        yield name, _chunks(columns[name], kind, n, remap)


def _chunks(column: array, kind: str, n: int, remap: np.ndarray) -> Iterator[list]:
    for lo in range(0, n, CHUNK):
        part = column[lo : min(n, lo + CHUNK)]
        if kind == "str":
            yield remap[np.frombuffer(part, dtype=np.int32)].tolist()
        elif kind == "float":
            values = part.tolist()
            for i in np.flatnonzero(~np.isfinite(np.frombuffer(part, dtype=np.float64))).tolist():
                values[i] = None
            yield values
        else:
            yield part.tolist()
