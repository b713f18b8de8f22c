"""Every JSON artifact loader rejects unreadable, non-JSON, truncated or
wrongly shaped input with its typed error."""

from __future__ import annotations

import copy
import json
import pathlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ProvenanceError, SimulationError, SweepError, TsdbError
from repro.metrics.collector import MetricsCollector
from repro.metrics.export import from_json, to_json
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.provenance.artifact import ProvArtifact
from repro.obs.timeseries.artifact import Marker, TsdbArtifact
from repro.sim import reasons
from repro.sim.actions import Suicide
from repro.staticcheck.baseline import Baseline, BaselineError
from repro.staticcheck.sanitizer import EpochFingerprint, FingerprintError, FingerprintTrail
from repro.sweep.artifact import SweepArtifact
from repro.sweep.manifest import SweepManifest
from repro.sweep.merger import merge
from repro.sweep.worker import CELL_ARTIFACTS, load_cell_record

LOADERS = [
    pytest.param(FingerprintTrail.load, FingerprintError, id="fingerprint"),
    pytest.param(TsdbArtifact.load, TsdbError, id="tsdb"),
    pytest.param(SweepArtifact.load, SweepError, id="sweep"),
    pytest.param(ProvArtifact.load, ProvenanceError, id="prov"),
    pytest.param(Baseline.load, BaselineError, id="lint-baseline"),
    pytest.param(SweepManifest.load, SweepError, id="sweep-manifest"),
    pytest.param(from_json, SimulationError, id="metrics-json"),
]


@pytest.mark.parametrize("load, error", LOADERS)
@pytest.mark.parametrize(
    "content",
    [b"\xff\xfe\x00", b'{"format": "\xe9"}'],
    ids=["bom-like", "latin-1-in-json"],
)
def test_non_utf8_file_raises_typed_error_naming_the_path(
    load, error, content: bytes, tmp_path
) -> None:
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(error, match="bad.json"):
        load(path)


@pytest.mark.parametrize("load, error", LOADERS)
@pytest.mark.parametrize(
    "content", [b"", b"{not json", b"[1, 2"], ids=["empty", "not-json", "unclosed"]
)
def test_non_json_file_raises_typed_error_naming_the_path(
    load, error, content: bytes, tmp_path
) -> None:
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    with pytest.raises(error, match="bad.json"):
        load(path)


@pytest.mark.parametrize("load, error", LOADERS)
def test_missing_file_raises_typed_error_naming_the_path(load, error, tmp_path) -> None:
    with pytest.raises(error, match="absent.json"):
        load(tmp_path / "absent.json")


@pytest.mark.parametrize(
    "payload",
    [[1], 7, {"epochs": "many", "series": {}}, {"epochs": 1, "series": {"a": None}},
     {"epochs": 1, "series": {"a": ["x"]}}, {"epochs": 1, "series": ["a"]}],
    ids=["list", "number", "bad-epochs", "null-series", "string-sample", "series-list"],
)
def test_malformed_metrics_json_raises_simulation_error(payload, tmp_path) -> None:
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(SimulationError):
        from_json(path)


# ----------------------------------------------------------------------
# Truncated files: every cut of a saved artifact raises the typed error
# ----------------------------------------------------------------------
def _saved_provenance(path: pathlib.Path) -> None:
    recorder = ProvenanceRecorder()
    for epoch in range(2):
        draft = recorder.open(
            epoch=epoch, partition=epoch, avg_query=1.0, holder_traffic=float("nan"),
            unserved=0.0, mean_traffic=1.0, replica_count=2, rmin=2, holder_dc=0,
        )
        draft.predicate("eq12", "server:3", 1.0, 2.0, False)
        draft.candidate("hub", 2, cause="server:3", value=0.5)
        recorder.close(draft, [])
    recorder.note_fate(1, "suicide", Suicide(4, 9, reason=reasons.COLD_REPLICA), "applied")
    recorder.meta["policy"] = "rfh"
    recorder.artifact().save(path)


def _saved_timeseries(path: pathlib.Path) -> None:
    TsdbArtifact(
        epochs=np.arange(3),
        columns={"utilization": np.array([0.5, np.nan, 0.25]), "traffic_dc/0": np.ones(3)},
        markers=(Marker(1, "failure", "dc-0", 2),),
        meta={"policy": "rfh", "seed": 7},
    ).save(path)


def _saved_trail(path: pathlib.Path) -> None:
    FingerprintTrail(
        meta={"policy": "rfh"},
        records=[
            EpochFingerprint(epoch, {"replicas": "0" * 16}, {"workload": "1" * 16}, f"{epoch:016x}")
            for epoch in range(2)
        ],
    ).save(path)


def _manifest() -> SweepManifest:
    return SweepManifest(policies=("rfh", "random"), seeds=(1, 2), epochs=6)


def _saved_sweep(path: pathlib.Path) -> None:
    SweepArtifact(
        manifest=_manifest(),
        cells=[{"cell_id": "rfh-1", "status": "ok", "summaries": {"unserved": float("nan")}}],
        groups={"rfh/random/paper/scalar": {"unserved": {"mean": 1.5, "lo": float("nan")}}},
        meta={"wall_s": 0.5},
    ).save(path)


def _saved_baseline(path: pathlib.Path) -> None:
    Baseline(
        [{"path": "m.py", "rule": "REP001", "line": 2, "snippet": "x", "fingerprint": "ab"}]
    ).save(path)


SAVED = {
    "prov": (_saved_provenance, ProvArtifact.load, ProvenanceError),
    "tsdb": (_saved_timeseries, TsdbArtifact.load, TsdbError),
    "fingerprint": (_saved_trail, FingerprintTrail.load, FingerprintError),
    "sweep": (_saved_sweep, SweepArtifact.load, SweepError),
    "sweep-manifest": (lambda path: _manifest().save(path), SweepManifest.load, SweepError),
    "lint-baseline": (_saved_baseline, Baseline.load, BaselineError),
}


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory) -> dict[str, tuple[pathlib.Path, bytes]]:
    directory = tmp_path_factory.mktemp("saved")
    files = {}
    for kind, (save, load, _error) in SAVED.items():
        path = directory / f"whole.{kind}.json"
        save(path)
        load(path)  # the whole file loads
        files[kind] = (directory / f"cut.{kind}.json", path.read_bytes())
    return files


@pytest.mark.parametrize("kind", sorted(SAVED))
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_truncated_file_raises_only_the_typed_error(kind, saved_files, data) -> None:
    cut_path, payload = saved_files[kind]
    assert payload.endswith(b"\n")
    cut = data.draw(st.integers(0, len(payload) - 2), label="cut")
    cut_path.write_bytes(payload[:cut])
    _save, load, error = SAVED[kind]
    with pytest.raises(error):
        load(cut_path)


# ----------------------------------------------------------------------
# Parseable JSON of the wrong shape: only the typed error escapes
# ----------------------------------------------------------------------
#: Any JSON value: wrong types for every member a loader reads.
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-(2**64), 2**64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=5,
)


def _saved_metrics(path: pathlib.Path) -> None:
    collector = MetricsCollector()
    for epoch in range(2):
        collector.record_epoch({"utilization": 0.5 * epoch, "served": 3.0})
    to_json(collector, path)


SHAPED = {**SAVED, "metrics-json": (_saved_metrics, from_json, SimulationError)}


def _members(doc: object, path: tuple = ()) -> list[tuple]:
    """The path of every value inside a parsed JSON document, the root first."""
    paths = [path]
    if isinstance(doc, dict):
        for key, value in doc.items():
            paths += _members(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            paths += _members(value, path + (i,))
    return paths


def _reshaped(doc: object, path: tuple, data) -> object:
    """A copy of ``doc`` with the value at ``path`` removed or replaced."""
    if not path:
        return data.draw(JSON_VALUES, label="root")
    doc = copy.deepcopy(doc)
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if data.draw(st.booleans(), label="remove"):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(JSON_VALUES, label="value")
    return doc


class _Documents(dict):
    """Saved documents by kind, with a short repr for Hypothesis reports."""

    def __repr__(self) -> str:
        return f"<saved {', '.join(sorted(self))}>"


@pytest.fixture(scope="module")
def parsed_documents(tmp_path_factory) -> dict[str, tuple[pathlib.Path, object, list]]:
    directory = tmp_path_factory.mktemp("shaped")
    docs = _Documents()
    for kind, (save, _load, _error) in SHAPED.items():
        path = directory / f"whole.{kind}.json"
        save(path)
        doc = json.loads(path.read_text())
        docs[kind] = (directory / f"shaped.{kind}.json", doc, _members(doc))
    return docs


@pytest.mark.parametrize("kind", sorted(SHAPED))
@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_wrong_shape_raises_only_the_typed_error(kind, parsed_documents, data) -> None:
    """A saved artifact with any one value removed or replaced by any
    JSON value loads or raises the loader's typed error, nothing else."""
    path, doc, members = parsed_documents[kind]
    member = data.draw(st.sampled_from(members), label="member")
    path.write_text(json.dumps(_reshaped(doc, member, data)))
    _save, load, error = SHAPED[kind]
    try:
        load(path)
    except error:
        pass


@pytest.mark.parametrize(
    "member, value",
    [("groups", {"g": 5}), ("failures", [5]), ("cells", [{"cell_id": "c", "status": "ok"}, 5])],
    ids=["group-not-object", "failure-not-object", "cell-not-object"],
)
def test_sweep_members_that_are_not_objects_raise_sweep_error(
    member: str, value: object, tmp_path
) -> None:
    path = tmp_path / "s.sweep.json"
    _saved_sweep(path)
    raw = json.loads(path.read_text())
    raw[member] = value
    path.write_text(json.dumps(raw))
    with pytest.raises(SweepError, match="not a JSON object|malformed"):
        SweepArtifact.load(path)


@pytest.fixture(scope="module")
def cell_dir(tmp_path_factory) -> pathlib.Path:
    directory = tmp_path_factory.mktemp("cell")
    for artifact in CELL_ARTIFACTS.values():
        (directory / artifact).write_text("{}")
    return directory


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_wrong_shape_cell_record_is_not_resumed_or_raises_nothing(data, cell_dir) -> None:
    """The sweep's ``cell.json`` reader reports "re-run the cell" (None)
    for a record it cannot resume and never raises; a record it resumes
    merges into the sweep artifact."""
    manifest = _manifest()
    cell = manifest.cells()[0]
    record = {
        "cell_id": cell.cell_id,
        "digest": cell.digest,
        "group": cell.group_key,
        "manifest_hash": manifest.manifest_hash,
        "status": "ok",
        "fingerprint": "0" * 16,
        "summaries": {"unserved": {"steady": 1.5, "total": 30.0, "final": None}},
        "duration_s": 0.5,
    }
    member = data.draw(st.sampled_from(_members(record)), label="member")
    (cell_dir / CELL_ARTIFACTS["record"]).write_text(
        json.dumps(_reshaped(record, member, data))
    )
    loaded = load_cell_record(cell, cell_dir, manifest.manifest_hash)
    if loaded is not None:
        assert loaded["status"] == "ok"
        merge(manifest, [loaded], [])


def test_cell_record_with_unmergeable_summaries_is_rerun(cell_dir) -> None:
    manifest = _manifest()
    cell = manifest.cells()[0]
    record = {
        "digest": cell.digest,
        "group": cell.group_key,
        "manifest_hash": manifest.manifest_hash,
        "status": "ok",
        "summaries": {"unserved": {"steady": 1.5}},
    }
    path = cell_dir / CELL_ARTIFACTS["record"]
    path.write_text(json.dumps(record))
    assert load_cell_record(cell, cell_dir, manifest.manifest_hash) is not None
    record["summaries"] = 5
    path.write_text(json.dumps(record))
    assert load_cell_record(cell, cell_dir, manifest.manifest_hash) is None
