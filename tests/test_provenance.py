"""The decision-provenance ledger: recorder capture, the ``.prov.json``
artifact, trace cross-check and the shared artifact-path helpers
(``repro.obs.provenance`` / ``repro.obs.paths``)."""

import dataclasses
import gc
import json
import math
import random
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.config import SimulationConfig
from repro.errors import ProvenanceError
from repro.experiments.comparison import POLICIES, compare_policies
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import (
    chaos_schedule,
    failure_recovery_scenario,
    random_query_scenario,
)
from repro.obs.paths import derived_path, split_suffix, tagged_path
from repro.obs.provenance import (
    DEFAULT_BUDGET,
    CandidateEval,
    DecisionDraft,
    DecisionRecord,
    PredicateEval,
    ProvArtifact,
    ProvenanceRecorder,
    crosscheck_trace,
    diff_provenance,
)
from repro.obs.provenance.ledger import CHUNK, TABLES, Ledger, LedgerView, StringTable
from repro.obs.provenance.recorder import _action_fields
from repro.obs.provenance.records import CANDIDATE_ROLES, EQ_TAGS
from repro.obs.trace import RingBufferTracer
from repro.sim import reasons
from repro.sim.actions import Replicate, Suicide


def _config(partitions=16):
    config = SimulationConfig()
    return dataclasses.replace(
        config,
        workload=dataclasses.replace(config.workload, num_partitions=partitions),
    )


def _scenario(epochs=12, partitions=16):
    return random_query_scenario(_config(partitions), epochs=epochs)


def _chaos_scenario(epochs=40, partitions=16):
    """Server failures plus a WAN partition: skipped fates, restores."""
    scenario = failure_recovery_scenario(_config(partitions), epochs=epochs)
    return dataclasses.replace(scenario, chaos=chaos_schedule("wan-partition", epochs))


# ----------------------------------------------------------------------
# Reference implementations: the record-based recorder and writer that
# the columnar ledger replaced.  The ledger must match them exactly.
# ----------------------------------------------------------------------
class _ReferenceRecorder:
    """One DecisionRecord per decision in a list; once over budget,
    every append rescans and rebuilds the whole list."""

    def __init__(self, budget=DEFAULT_BUDGET):
        self.budget = budget
        self.meta = {}
        self.records = []
        self.noop_dropped = {}
        self._pending = {}
        self._pending_epoch = -1

    def open(self, *, epoch, partition, avg_query, holder_traffic, unserved,
             mean_traffic, replica_count, rmin, holder_dc):
        self._roll_epoch(epoch)
        return DecisionDraft(
            epoch=int(epoch), partition=int(partition), avg_query=float(avg_query),
            holder_traffic=float(holder_traffic), unserved=float(unserved),
            mean_traffic=float(mean_traffic), replica_count=int(replica_count),
            rmin=int(rmin), holder_dc=int(holder_dc),
        )

    def close(self, draft, actions, *, dc_of=None):
        record = DecisionRecord(
            epoch=draft.epoch, partition=draft.partition, branch=draft.branch,
            avg_query=draft.avg_query, holder_traffic=draft.holder_traffic,
            unserved=draft.unserved, mean_traffic=draft.mean_traffic,
            replica_count=draft.replica_count, rmin=draft.rmin,
            holder_dc=draft.holder_dc,
            predicates=tuple(PredicateEval(*row) for row in draft.predicates),
            candidates=tuple(CandidateEval(*row) for row in draft.candidates),
        )
        index = len(self.records)
        for action in actions:
            kind, reason, target_sid, source_sid = _action_fields(action)
            record.action, record.reason = kind, reason
            record.target_sid, record.source_sid = target_sid, source_sid
            if dc_of is not None and target_sid >= 0:
                record.target_dc = int(dc_of(target_sid))
            self._pending.setdefault((record.partition, kind), []).append(index)
            break
        self.records.append(record)
        self._compact()

    def note_fate(self, epoch, kind, action, fate, cause="", target_dc=-1):
        self._roll_epoch(epoch)
        partition = int(getattr(action, "partition", -1))
        queue = self._pending.get((partition, kind))
        if queue:
            record = self.records[queue.pop(0)]
            if not queue:
                del self._pending[(partition, kind)]
            record.fate, record.fate_cause = fate, cause
            if target_dc >= 0:
                record.target_dc = int(target_dc)
            return
        kind2, reason, target_sid, source_sid = _action_fields(action)
        self.records.append(
            DecisionRecord(
                epoch=int(epoch), partition=partition, branch="", action=kind2,
                reason=reason, target_sid=target_sid, target_dc=int(target_dc),
                source_sid=source_sid, fate=fate, fate_cause=cause,
            )
        )
        self._compact()

    def _roll_epoch(self, epoch):
        if epoch != self._pending_epoch:
            self._pending.clear()
            self._pending_epoch = epoch

    def _compact(self):
        overage = len(self.records) - self.budget
        if overage <= 0:
            return
        kept = []
        for rec in self.records:
            if overage > 0 and rec.is_noop:
                self.noop_dropped[rec.epoch] = self.noop_dropped.get(rec.epoch, 0) + 1
                overage -= 1
            else:
                kept.append(rec)
        position = {id(rec): i for i, rec in enumerate(kept)}
        for key, queue in list(self._pending.items()):
            remapped = [
                position[id(self.records[i])]
                for i in queue
                if id(self.records[i]) in position
            ]
            if remapped:
                self._pending[key] = remapped
            else:
                del self._pending[key]
        self.records = kept

    def document(self):
        """The v1 document, flattened record by record."""
        strings, index = [""], {"": 0}

        def intern(value):
            if value not in index:
                index[value] = len(strings)
                strings.append(value)
            return index[value]

        def clean(value):
            return float(value) if math.isfinite(value) else None

        ints = ("epoch", "partition", "target_sid", "target_dc", "source_sid",
                "replica_count", "rmin", "holder_dc")
        texts = ("branch", "action", "reason", "fate", "fate_cause")
        floats = ("avg_query", "holder_traffic", "unserved", "mean_traffic")
        decisions = {name: [] for name in ints + texts + floats}
        predicates = {name: [] for name in
                      ("decision", "eq", "subject", "lhs", "threshold", "passed")}
        candidates = {name: [] for name in ("decision", "role", "dc", "sid",
                                            "verdict", "cause", "value", "threshold")}
        for row, rec in enumerate(self.records):
            for name in ints:
                decisions[name].append(int(getattr(rec, name)))
            for name in texts:
                decisions[name].append(intern(str(getattr(rec, name))))
            for name in floats:
                decisions[name].append(clean(getattr(rec, name)))
            for pred in rec.predicates:
                predicates["decision"].append(row)
                predicates["eq"].append(intern(pred.eq))
                predicates["subject"].append(intern(pred.subject))
                predicates["lhs"].append(clean(pred.lhs))
                predicates["threshold"].append(clean(pred.threshold))
                predicates["passed"].append(1 if pred.passed else 0)
            for cand in rec.candidates:
                candidates["decision"].append(row)
                candidates["role"].append(intern(cand.role))
                candidates["dc"].append(int(cand.dc))
                candidates["sid"].append(int(cand.sid))
                candidates["verdict"].append(intern(cand.verdict))
                candidates["cause"].append(intern(cand.cause))
                candidates["value"].append(clean(cand.value))
                candidates["threshold"].append(clean(cand.threshold))
        return {
            "format": "repro-prov",
            "version": 1,
            "meta": dict(self.meta),
            "budget": int(self.budget),
            "noop_dropped": {
                str(epoch): int(count)
                for epoch, count in sorted(self.noop_dropped.items())
            },
            "strings": strings,
            "decisions": decisions,
            "predicates": predicates,
            "candidates": candidates,
        }

    def file_bytes(self):
        payload = json.dumps(self.document(), separators=(",", ":"), allow_nan=False)
        return (payload + "\n").encode()


def _paired_run(policy="rfh", scenario=None, engine="scalar", budget=DEFAULT_BUDGET):
    """The same run recorded by the columnar ledger and by the reference."""
    recorders = ProvenanceRecorder(budget=budget), _ReferenceRecorder(budget=budget)
    for recorder in recorders:
        run_experiment(
            policy, scenario or _scenario(), provenance=recorder, engine=engine
        )
    return recorders


def _saved_bytes(recorder, tmp_path):
    path = tmp_path / "ledger.prov.json"
    recorder.artifact().save(path)
    return path.read_bytes()


def _context(**overrides):
    context = dict(
        avg_query=1.0, holder_traffic=2.0, unserved=0.0, mean_traffic=1.0,
        replica_count=2, rmin=2, holder_dc=0,
    )
    context.update(overrides)
    return context


def _recorded_run(epochs=12, policy="rfh", tracer=None, budget=None):
    recorder = (
        ProvenanceRecorder(budget=budget) if budget else ProvenanceRecorder()
    )
    result = run_experiment(
        policy, _scenario(epochs=epochs), provenance=recorder, tracer=tracer
    )
    return recorder, result


# ----------------------------------------------------------------------
# Recorder unit behaviour
# ----------------------------------------------------------------------
class TestRecorder:
    def test_close_seals_one_action_grow_xor_shrink(self):
        rec = ProvenanceRecorder()
        draft = rec.open(
            epoch=0, partition=3, avg_query=1.0, holder_traffic=2.0,
            unserved=0.0, mean_traffic=1.0, replica_count=1, rmin=2, holder_dc=0,
        )
        draft.branch = "availability"
        actions = [
            Replicate(3, 0, 5, reason=reasons.AVAILABILITY),
            Replicate(3, 0, 9, reason=reasons.TRAFFIC_HUB),
        ]
        rec.close(draft, actions, dc_of=lambda sid: sid // 10)
        (record,) = rec.records
        assert record.action == "replicate"
        assert record.reason == reasons.AVAILABILITY
        assert record.target_sid == 5
        assert record.target_dc == 0

    def test_note_fate_stamps_pending_record(self):
        rec = ProvenanceRecorder()
        draft = rec.open(
            epoch=0, partition=1, avg_query=1.0, holder_traffic=2.0,
            unserved=0.0, mean_traffic=1.0, replica_count=1, rmin=2, holder_dc=0,
        )
        action = Replicate(1, 0, 5, reason=reasons.AVAILABILITY)
        rec.close(draft, [action])
        rec.note_fate(0, "replicate", action, "applied", target_dc=4)
        (record,) = rec.records
        assert record.fate == "applied"
        assert record.target_dc == 4

    def test_note_fate_synthesizes_for_draftless_policy(self):
        rec = ProvenanceRecorder()
        action = Suicide(7, 42, reason=reasons.COLD_REPLICA)
        rec.note_fate(3, "suicide", action, "skipped", cause=reasons.SKIP_LAST_COPY)
        (record,) = rec.records
        assert record.partition == 7
        assert record.branch == ""
        assert record.action == "suicide"
        assert record.target_sid == 42
        assert record.fate == "skipped"
        assert record.fate_cause == reasons.SKIP_LAST_COPY

    def test_pending_does_not_leak_across_epochs(self):
        rec = ProvenanceRecorder()
        draft = rec.open(
            epoch=0, partition=1, avg_query=1.0, holder_traffic=2.0,
            unserved=0.0, mean_traffic=1.0, replica_count=1, rmin=2, holder_dc=0,
        )
        action = Replicate(1, 0, 5, reason=reasons.AVAILABILITY)
        rec.close(draft, [action])
        # A fate arriving in a later epoch must not match epoch 0's
        # pending decision; it synthesizes its own record instead.
        rec.note_fate(1, "replicate", action, "applied")
        assert len(rec.records) == 2
        assert rec.records[0].fate == "none"
        assert rec.records[1].fate == "applied"

    def test_budget_compaction_drops_oldest_noops_keeps_actions(self):
        rec = ProvenanceRecorder(budget=4)
        for epoch in range(3):
            for partition in range(3):
                draft = rec.open(
                    epoch=epoch, partition=partition, avg_query=1.0,
                    holder_traffic=2.0, unserved=0.0, mean_traffic=1.0,
                    replica_count=2, rmin=2, holder_dc=0,
                )
                actions = (
                    [Replicate(partition, 0, 5, reason=reasons.AVAILABILITY)]
                    if partition == 0
                    else []
                )
                rec.close(draft, actions)
        assert len(rec.records) <= 4
        # Every action-bearing record survived compaction.
        kept_actions = [r for r in rec.records if r.action != "none"]
        assert len(kept_actions) == 3
        assert sum(rec.noop_dropped.values()) == 9 - len(rec.records)
        # Drops are accounted to the epochs whose no-ops were evicted.
        assert min(rec.noop_dropped) == 0

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            ProvenanceRecorder(budget=0)


# ----------------------------------------------------------------------
# Artifact round trip
# ----------------------------------------------------------------------
class TestArtifact:
    def test_round_trip_is_exact(self, tmp_path):
        recorder, _ = _recorded_run(epochs=8)
        artifact = recorder.artifact()
        path = tmp_path / "run.prov.json"
        artifact.save(path)
        loaded = ProvArtifact.load(path)
        assert loaded.meta == artifact.meta
        assert loaded.budget == artifact.budget
        assert len(loaded.records) == len(artifact.records)
        # Field-exact equality via the NaN-aware differ (NaN context
        # terms make plain dataclass equality always-false).
        assert diff_provenance(artifact, loaded).exit_code == 0
        # And a second save is byte-identical (deterministic encoder).
        path2 = tmp_path / "again.prov.json"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    def test_nan_context_terms_survive_json(self, tmp_path):
        rec = ProvenanceRecorder()
        action = Suicide(1, 9, reason=reasons.COLD_REPLICA)
        rec.note_fate(0, "suicide", action, "applied")
        path = tmp_path / "nan.prov.json"
        rec.artifact().save(path)
        # The file itself must be strict JSON (no bare NaN tokens).
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro-prov"
        (record,) = ProvArtifact.load(path).records
        assert math.isnan(record.avg_query)

    def test_load_rejects_wrong_format_and_version(self, tmp_path):
        recorder, _ = _recorded_run(epochs=4)
        payload = recorder.artifact().to_dict()
        bad_format = dict(payload, format="not-prov")
        p1 = tmp_path / "bad1.prov.json"
        p1.write_text(json.dumps(bad_format))
        with pytest.raises(ProvenanceError):
            ProvArtifact.load(p1)
        bad_version = dict(payload, version=99)
        p2 = tmp_path / "bad2.prov.json"
        p2.write_text(json.dumps(bad_version))
        with pytest.raises(ProvenanceError):
            ProvArtifact.load(p2)

    def test_load_rejects_out_of_range_intern_index(self, tmp_path):
        recorder, _ = _recorded_run(epochs=4)
        payload = recorder.artifact().to_dict()
        payload["decisions"]["branch"][0] = 10_000
        path = tmp_path / "bad3.prov.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ProvenanceError):
            ProvArtifact.load(path)

    @pytest.mark.parametrize(
        "table,column,corrupt",
        [
            ("decisions", "reason", lambda col, n: col[:-1]),
            ("predicates", "decision", lambda col, n: [n] + col[1:]),
            ("candidates", "sid", lambda col, n: ["x"] + col[1:]),
            ("candidates", "dc", lambda col, n: [2**40] + col[1:]),
            ("predicates", "lhs", lambda col, n: [[1.0]] * len(col)),
            ("candidates", "role", lambda col, n: None),
        ],
    )
    def test_load_rejects_malformed_columns(self, table, column, corrupt):
        recorder, _ = _recorded_run(epochs=4)
        payload = recorder.artifact().to_dict()
        n = len(payload["decisions"]["epoch"])
        payload[table][column] = corrupt(payload[table][column], n)
        with pytest.raises(ProvenanceError):
            ProvArtifact.from_dict(json.loads(json.dumps(payload)))

    def test_load_accepts_child_rows_out_of_decision_order(self):
        # Reverse the predicate blocks, keeping each decision's own order;
        # loading puts them back, so a save reproduces the original.
        recorder, _ = _recorded_run(epochs=4)
        payload = recorder.artifact().to_dict()
        table = payload["predicates"]
        order = sorted(range(len(table["decision"])), key=lambda i: -table["decision"][i])
        shuffled = dict(payload, predicates={k: [v[i] for i in order] for k, v in table.items()})
        assert ProvArtifact.from_dict(shuffled).to_dict() == payload

    def test_missing_file_raises_provenance_error(self, tmp_path):
        with pytest.raises(ProvenanceError):
            ProvArtifact.load(tmp_path / "nope.prov.json")

    def test_partition_accessors(self):
        recorder, _ = _recorded_run(epochs=6)
        artifact = recorder.artifact()
        partitions = artifact.partitions()
        assert partitions
        some = partitions[0]
        rows = artifact.for_partition(some)
        assert rows and all(r.partition == some for r in rows)
        one_epoch = artifact.for_partition(some, epoch=rows[0].epoch)
        assert one_epoch and all(r.epoch == rows[0].epoch for r in one_epoch)


# ----------------------------------------------------------------------
# Streamed save: byte-identical to the record-based writer
# ----------------------------------------------------------------------
class TestStreamedSave:
    @pytest.mark.parametrize(
        "policy,scenario,engine,budget",
        [
            pytest.param("rfh", None, "scalar", DEFAULT_BUDGET, id="rfh-scalar"),
            pytest.param("rfh", None, "columnar", DEFAULT_BUDGET, id="rfh-columnar"),
            pytest.param("rfh", _chaos_scenario(), "scalar", DEFAULT_BUDGET, id="chaos"),
            pytest.param("random", None, "scalar", DEFAULT_BUDGET, id="baseline"),
            pytest.param("rfh", None, "scalar", 50, id="compacted"),
        ],
    )
    def test_save_matches_record_based_writer(
        self, tmp_path, policy, scenario, engine, budget
    ):
        recorder, reference = _paired_run(policy, scenario, engine, budget)
        assert recorder.artifact().num_decisions == len(reference.records)
        assert _saved_bytes(recorder, tmp_path) == reference.file_bytes()
        assert recorder.artifact().to_dict() == reference.document()
        if budget < DEFAULT_BUDGET:
            assert recorder.noop_dropped == reference.noop_dropped != {}

    def test_nan_and_infinite_terms_save_as_null(self, tmp_path):
        inf, nan = float("inf"), float("nan")
        recorders = ProvenanceRecorder(), _ReferenceRecorder()
        for rec in recorders:
            draft = rec.open(
                epoch=0, partition=1,
                **_context(avg_query=nan, holder_traffic=inf, unserved=-inf),
            )
            draft.predicate("eq12", "server:3", nan, inf, False)
            draft.candidate("hub", 2, value=-inf, threshold=0.5)
            rec.close(draft, [])
            rec.note_fate(0, "suicide", Suicide(4, 9, reason=reasons.COLD_REPLICA), "applied")
        recorder, reference = recorders
        saved = _saved_bytes(recorder, tmp_path)
        assert saved == reference.file_bytes()
        assert json.loads(saved)["decisions"]["holder_traffic"] == [None, None]

    def test_late_fate_string_is_numbered_before_a_later_rows_subject(self, tmp_path):
        # Row 0 decides, row 1 introduces the subject "server:77", and only
        # then does row 0's fate arrive with two new strings.  v1 numbers
        # strings by first use record by record, so the fate strings (row
        # 0) come before the subject (row 1), though recorded after it.
        action = Replicate(0, 1, 5, reason=reasons.AVAILABILITY)
        recorders = ProvenanceRecorder(), _ReferenceRecorder()
        for rec in recorders:
            first = rec.open(epoch=0, partition=0, **_context())
            first.predicate("eq14", "partition:0", 1, 2, False)
            rec.close(first, [action])
            second = rec.open(epoch=0, partition=1, **_context())
            second.predicate("eq12", "server:77", 3.0, 2.0, True)
            rec.close(second, [])
            rec.note_fate(0, "replicate", action, "skipped", cause=reasons.SKIP_BANDWIDTH)
        recorder, reference = recorders
        saved = _saved_bytes(recorder, tmp_path)
        assert saved == reference.file_bytes()
        strings = json.loads(saved)["strings"]
        assert strings.index("skipped") < strings.index("server:77")
        assert strings.index(reasons.SKIP_BANDWIDTH) < strings.index("server:77")


# ----------------------------------------------------------------------
# Bounded string numbering: ledgers of several CHUNK-row slices
# ----------------------------------------------------------------------
def _synthetic_run(recorder, seed, growth, fan_out, child_rows):
    """Record epochs of 16 decisions until both child tables pass
    ``child_rows`` rows; the same arguments drive the same calls.

    Subjects, candidate causes and some branches come from one pool of
    strings that grows by one every ``growth`` decisions, so new strings
    keep first appearing in later slices of every column, many of them
    in a child table before any decision uses them.  Each epoch's fates
    come after all its decisions, and each carries a new cause.
    """
    rng = random.Random(seed)
    decisions = predicates = candidates = epoch = 0
    while min(predicates, candidates) <= child_rows:
        acting = []
        for partition in range(16):
            pool = 1 + decisions // growth
            draft = recorder.open(epoch=epoch, partition=partition, **_context())
            if rng.random() < 0.2:
                draft.branch = f"s{rng.randrange(pool)}"
            for _ in range(rng.randint(1, fan_out)):
                draft.predicate(
                    rng.choice(EQ_TAGS), f"s{rng.randrange(pool)}", rng.random(), 0.5,
                    rng.random() < 0.5,
                )
                predicates += 1
            for _ in range(rng.randint(1, fan_out)):
                draft.candidate(
                    rng.choice(CANDIDATE_ROLES), rng.randrange(10),
                    verdict=rng.choice(("accepted", "rejected")),
                    cause=f"s{rng.randrange(pool)}", value=rng.random(),
                )
                candidates += 1
            kind = rng.choice((None, None, "replicate", "suicide"))
            recorder.close(draft, [_action_for(kind, partition)] if kind else [])
            if kind:
                acting.append((partition, kind))
            decisions += 1
        for i, (partition, kind) in enumerate(acting):
            recorder.note_fate(
                epoch, kind, _action_for(kind, partition),
                rng.choice(("applied", "skipped")), cause=f"fate-{epoch}-{i}",
            )
        epoch += 1


def _synthetic_pair(tmp_path, seed, growth, fan_out, budget=DEFAULT_BUDGET,
                    child_rows=2 * CHUNK):
    recorder, reference = ProvenanceRecorder(budget), _ReferenceRecorder(budget)
    for rec in (recorder, reference):
        _synthetic_run(rec, seed, growth, fan_out, child_rows)
    saved = _saved_bytes(recorder, tmp_path)
    assert saved == reference.file_bytes()
    return recorder, json.loads(saved)


class TestBoundedFileStrings:
    @given(
        seed=st.integers(0, 2**32 - 1),
        growth=st.integers(4, 400),
        fan_out=st.integers(6, 12),
    )
    @settings(max_examples=6, deadline=None)
    def test_sliced_numbering_matches_record_based_writer(
        self, tmp_path_factory, seed, growth, fan_out
    ):
        _, doc = _synthetic_pair(tmp_path_factory.mktemp("prov"), seed, growth, fan_out)
        for table in ("predicates", "candidates"):
            assert len(doc[table]["decision"]) > 2 * CHUNK
        # Some strings are first used in a later slice of a child table.
        for table, name in (("predicates", "subject"), ("candidates", "cause")):
            first_row = {}
            for row, value in enumerate(doc[table][name]):
                first_row.setdefault(value, row)
            assert max(first_row.values()) >= CHUNK

    def test_compacted_ledger_matches_record_based_writer(self, tmp_path):
        recorder, doc = _synthetic_pair(
            tmp_path, seed=11, growth=40, fan_out=12, budget=1600, child_rows=4 * CHUNK
        )
        assert recorder.noop_dropped
        for table in ("predicates", "candidates"):
            assert len(doc[table]["decision"]) > 2 * CHUNK

    def test_file_strings_holds_one_slice_at_a_time(self):
        # A ledger of chaos-observed size: 32,000 decisions, 368,000 child rows.
        rng = np.random.default_rng(5)
        strings = StringTable()
        names = [f"s{i}" for i in range(300)]
        ids = np.array([strings.intern(name) for name in names])
        rows = {"decisions": 32_000, "predicates": 213_000, "candidates": 155_000}

        def column(table, kind):
            n = rows[table]
            if kind == "row":
                return np.sort(rng.integers(0, rows["decisions"], n))
            if kind == "str":
                return rng.choice(ids, n)
            return rng.random(n) if kind == "float" else rng.integers(0, 2, n)

        tables = {
            table: {name: column(table, kind) for name, kind in spec}
            for table, spec in TABLES.items()
        }
        view = LedgerView(Ledger.from_arrays(strings, tables))
        del tables
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            file_strings, _ = view.file_strings()
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert sorted(file_strings) == sorted(["", *names])
        assert peak <= 1_000_000, f"file_strings() peaked {peak / 1e6:.2f} MB above its start"


# ----------------------------------------------------------------------
# Batched budget compaction: the same rows as compacting per append
# ----------------------------------------------------------------------
def _action_for(kind, partition):
    if kind == "replicate":
        return Replicate(partition, 0, 5, reason=reasons.AVAILABILITY)
    return Suicide(partition, 7, reason=reasons.COLD_REPLICA)


def _apply(recorder, step, epoch):
    if step[0] == "seal":
        _, partition, kind, n_pred, n_cand = step
        draft = recorder.open(epoch=epoch, partition=partition, **_context())
        for i in range(n_pred):
            draft.predicate("eq12", f"server:{partition + i}", i, 1.0, i > 0)
        for i in range(n_cand):
            draft.candidate("hub", i, cause=f"c{partition}", value=float(i))
        recorder.close(draft, [_action_for(kind, partition)] if kind else [])
    else:
        _, partition, kind, fate = step
        cause = reasons.SKIP_STORAGE_GATE if fate == "skipped" else ""
        recorder.note_fate(epoch, kind, _action_for(kind, partition), fate, cause=cause)


def _assert_matches(recorder, reference):
    assert recorder.artifact().to_dict() == reference.document()
    assert recorder.noop_dropped == reference.noop_dropped


_STEPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("seal"),
            st.integers(0, 3),
            st.sampled_from((None, None, "replicate", "suicide")),
            st.integers(0, 2),
            st.integers(0, 2),
        ),
        st.tuples(
            st.just("fate"),
            st.integers(0, 3),
            st.sampled_from(("replicate", "suicide")),
            st.sampled_from(("applied", "skipped")),
        ),
        st.tuples(st.just("roll")),
        st.tuples(st.just("read")),
    ),
    max_size=120,
)


def _replay(budget, steps, eager):
    """Drive a reference, a recorder read after every step (if
    ``eager``) and one read only at ``read`` steps and the end."""
    reference = _ReferenceRecorder(budget)
    lazy = ProvenanceRecorder(budget)
    recorders = (lazy, ProvenanceRecorder(budget)) if eager else (lazy,)
    epoch = 0
    for step in steps:
        if step[0] == "roll":
            epoch += 1
        elif step[0] == "read":
            _assert_matches(lazy, reference)
        else:
            for rec in (reference, *recorders):
                _apply(rec, step, epoch)
        if eager:
            _assert_matches(recorders[1], reference)
    _assert_matches(lazy, reference)


class TestBatchedCompaction:
    @given(budget=st.integers(1, 20), steps=_STEPS)
    @settings(max_examples=60, deadline=None)
    def test_matches_per_append_compaction(self, budget, steps):
        _replay(budget, steps, eager=True)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_long_run_over_a_larger_budget(self, seed):
        # Budget 48 compacts in batches of 6: exercises pending-row
        # renumbering across several batches within one epoch.
        rng = random.Random(seed)
        steps = []
        for _ in range(900):
            roll = rng.random()
            if roll < 0.6:
                kind = rng.choice((None, None, None, "replicate", "suicide"))
                steps.append(("seal", rng.randrange(6), kind, rng.randrange(3), rng.randrange(3)))
            elif roll < 0.85:
                kind = rng.choice(("replicate", "suicide"))
                steps.append(("fate", rng.randrange(6), kind, rng.choice(("applied", "skipped"))))
            elif roll < 0.95:
                steps.append(("roll",))
            else:
                steps.append(("read",))
        _replay(48, steps, eager=False)


# ----------------------------------------------------------------------
# Snapshots and the memory budget
# ----------------------------------------------------------------------
class TestSnapshotAndMemory:
    def test_artifact_keeps_its_view_across_later_epochs_and_compaction(self, tmp_path):
        recorder = ProvenanceRecorder(budget=16)

        def record_epoch(epoch):
            for partition in range(12):
                draft = recorder.open(epoch=epoch, partition=partition, **_context())
                draft.predicate("eq14", f"partition:{partition}", 2, 2, True)
                hot = partition % 4 == 0
                recorder.close(draft, [_action_for("replicate", partition)] if hot else [])
            for partition in range(0, 12, 4):
                recorder.note_fate(
                    epoch, "replicate", _action_for("replicate", partition),
                    "applied", target_dc=epoch,
                )

        record_epoch(0)
        artifact = recorder.artifact()
        before = _saved_bytes(recorder, tmp_path)
        assert artifact.num_decisions == 12
        record_epoch(1)
        assert recorder.noop_dropped  # the second epoch compacted
        assert max(rec.epoch for rec in recorder.records) == 1
        assert artifact.num_decisions == 12
        path = tmp_path / "snapshot.prov.json"
        artifact.save(path)
        assert path.read_bytes() == before

    def test_ledger_and_save_stay_within_the_memory_budget(self, tmp_path):
        # 16 partitions x 100 epochs of failures and a WAN partition; the
        # columnar engine keeps the traced runs short.
        scenario = _chaos_scenario(epochs=100)
        run_experiment(
            "rfh", _chaos_scenario(epochs=5), provenance=ProvenanceRecorder(),
            engine="columnar",
        )
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            run_experiment("rfh", scenario, engine="columnar")
            gc.collect()
            bare = tracemalloc.get_traced_memory()[0] - start
            recorder = ProvenanceRecorder()
            start = tracemalloc.get_traced_memory()[0]
            run_experiment("rfh", scenario, provenance=recorder, engine="columnar")
            gc.collect()
            recorded = tracemalloc.get_traced_memory()[0] - start
            path = tmp_path / "chaos.prov.json"
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            recorder.artifact().save(path)
            save_peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        decisions = ProvArtifact.load(path).num_decisions
        assert decisions >= 1500
        per_decision = (recorded - bare) / decisions
        assert per_decision <= 1000, f"{per_decision:.0f} B retained per decision"
        size = path.stat().st_size
        assert save_peak <= 1.5 * size, f"save peaked at {save_peak / size:.2f}x the file"


# ----------------------------------------------------------------------
# Engine integration & lineage guarantee
# ----------------------------------------------------------------------
class TestEngineIntegration:
    def test_every_trace_action_has_a_provenance_record(self):
        tracer = RingBufferTracer()
        recorder, _ = _recorded_run(epochs=15, tracer=tracer)
        artifact = recorder.artifact()
        assert artifact.num_actions > 0
        assert crosscheck_trace(artifact, tracer.events()) == []

    @pytest.mark.parametrize("policy", [p for p in POLICIES if p != "rfh"])
    def test_baseline_policies_get_synthesized_lineage(self, policy):
        tracer = RingBufferTracer()
        recorder, _ = _recorded_run(epochs=10, policy=policy, tracer=tracer)
        assert crosscheck_trace(recorder.artifact(), tracer.events()) == []

    def test_recorder_attachment_does_not_change_decisions(self):
        scenario = _scenario(epochs=12)
        bare = run_experiment("rfh", scenario)
        recorded = run_experiment("rfh", scenario, provenance=ProvenanceRecorder())
        for name in ("total_replicas", "migration_count", "unserved"):
            assert list(bare.series(name)) == list(recorded.series(name))

    def test_runner_stamps_identity_meta(self):
        recorder, _ = _recorded_run(epochs=4)
        meta = recorder.artifact().meta
        assert meta["policy"] == "rfh"
        assert meta["scenario"] == "random-query"
        assert meta["epochs"] == 12 or "seed" in meta

    def test_compare_provenance_factory_one_ledger_per_policy(self):
        recorders = {}

        def factory(policy):
            recorders[policy] = ProvenanceRecorder()
            return recorders[policy]

        compare_policies(
            _scenario(epochs=6),
            ("rfh", "random"),
            observers=lambda policy: {"provenance": factory(policy)},
        )
        assert set(recorders) == {"rfh", "random"}
        assert all(r.records for r in recorders.values())

    def test_decision_reason_columns_in_timeseries(self):
        from repro.obs.timeseries import TimeseriesRecorder

        ts = TimeseriesRecorder()
        run_experiment("rfh", _scenario(epochs=15), timeseries=ts)
        art = ts.artifact()
        decision_cols = [
            c for c in art.column_names() if c.startswith("decision/")
        ]
        assert f"decision/{reasons.AVAILABILITY}" in decision_cols
        total = sum(float(art.column(c).sum()) for c in decision_cols)
        assert total > 0

    def test_decision_columns_are_polarity_neutral_in_diff(self):
        from repro.obs.timeseries import polarity_of, tolerance_of

        assert polarity_of(f"decision/{reasons.TRAFFIC_HUB}") == 0
        tol = tolerance_of(f"decision/{reasons.TRAFFIC_HUB}")
        assert tol.rel == 0.25 and tol.abs == 5.0

    def test_dashboard_grows_decision_panel(self):
        from repro.obs.timeseries import TimeseriesRecorder, render_dashboard

        ts = TimeseriesRecorder()
        run_experiment("rfh", _scenario(epochs=10), timeseries=ts)
        html = render_dashboard(ts.artifact())
        assert "Decisions per epoch by reason" in html


# ----------------------------------------------------------------------
# Shared artifact-path helpers
# ----------------------------------------------------------------------
class TestPaths:
    @pytest.mark.parametrize(
        "path,expected",
        [
            ("out.tsdb.json", ("out", ".tsdb.json")),
            ("out.prov.json", ("out", ".prov.json")),
            ("dir/run.prof.json", ("dir/run", ".prof.json")),
            ("plain.json", ("plain", ".json")),
            ("noext", ("noext", "")),
            (".json", (".json", "")),
        ],
    )
    def test_split_suffix(self, path, expected):
        assert split_suffix(path) == expected

    def test_tagged_path_inserts_before_compound_suffix(self):
        assert tagged_path("out.tsdb.json", "rfh") == "out.rfh.tsdb.json"
        assert tagged_path("a/b/out.prov.json", "owner") == "a/b/out.owner.prov.json"
        assert tagged_path("noext", "rfh") == "noext.rfh"

    def test_derived_path_swaps_suffix(self):
        assert derived_path("run.prof.json", ".flame.html") == "run.flame.html"
        assert (
            derived_path("run.prof.json", ".speedscope.json")
            == "run.speedscope.json"
        )


# ----------------------------------------------------------------------
# The shared reason vocabulary
# ----------------------------------------------------------------------
class TestReasons:
    def test_action_reasons_are_closed_and_unique(self):
        assert len(set(reasons.ACTION_REASONS)) == len(reasons.ACTION_REASONS)
        assert reasons.TRAFFIC_HUB in reasons.ACTION_REASONS
        assert reasons.MEMBERSHIP_REBALANCE in reasons.ACTION_REASONS

    def test_rootcause_weights_use_shared_constants(self):
        from repro.obs.analysis.rootcause import CAUSE_WEIGHTS

        assert set(CAUSE_WEIGHTS) <= set(reasons.ATTRIBUTION_CAUSES)

    def test_policies_emit_only_known_reasons(self):
        """Every action reason and skip cause that any policy's run
        emits, on both engines and under failures plus a WAN partition,
        comes from the shared vocabulary."""
        tracer = RingBufferTracer()
        for engine in ("scalar", "columnar"):
            for scenario in (_scenario(epochs=8), _chaos_scenario()):
                for policy in POLICIES:
                    run_experiment(policy, scenario, tracer=tracer, engine=engine)
        assert tracer.dropped == 0
        events = tracer.events()
        seen = {
            e.reason
            for e in events
            if e.kind in ("replicate", "migrate", "suicide")
        }
        assert seen <= set(reasons.ACTION_REASONS) | {""}
        causes = [e.extra["cause"] for e in events if e.kind == "action_skipped"]
        assert causes, "the chaos scenario refused no action"
        assert set(causes) <= set(reasons.SKIP_CAUSES)
