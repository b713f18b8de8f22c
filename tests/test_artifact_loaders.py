"""Every JSON artifact loader rejects unreadable or truncated bytes with its typed error."""

from __future__ import annotations

import pathlib

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.errors import ProvenanceError, SweepError, TsdbError
from repro.obs.perf.artifact import PerfProfile, ProfileError
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.provenance.artifact import ProvArtifact
from repro.obs.timeseries.artifact import Marker, TsdbArtifact
from repro.sim import reasons
from repro.sim.actions import Suicide
from repro.staticcheck.baseline import Baseline, BaselineError
from repro.staticcheck.sanitizer import EpochFingerprint, FingerprintError, FingerprintTrail
from repro.sweep.artifact import SweepArtifact

LOADERS = [
    pytest.param(FingerprintTrail.load, FingerprintError, id="fingerprint"),
    pytest.param(TsdbArtifact.load, TsdbError, id="tsdb"),
    pytest.param(PerfProfile.load, ProfileError, id="prof"),
    pytest.param(SweepArtifact.load, SweepError, id="sweep"),
    pytest.param(ProvArtifact.load, ProvenanceError, id="prov"),
    pytest.param(Baseline.load, BaselineError, id="lint-baseline"),
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


@pytest.mark.parametrize("section", ["phases", "meta", "counters", "allocations"])
def test_profile_object_section_must_be_an_object(section: str) -> None:
    payload = {"format": "repro-prof", "version": 1, section: [1]}
    with pytest.raises(ProfileError, match=section):
        PerfProfile.from_dict(payload)


def test_profile_nodes_must_be_an_array() -> None:
    payload = {"format": "repro-prof", "version": 1, "nodes": {"a": 1}}
    with pytest.raises(ProfileError, match="nodes"):
        PerfProfile.from_dict(payload)


def test_profile_empty_sections_still_read_as_empty() -> None:
    payload = {"format": "repro-prof", "version": 1, "meta": [], "nodes": None}
    profile = PerfProfile.from_dict(payload)
    assert profile.meta == {} and profile.nodes == []


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


SAVED = {
    "prov": (_saved_provenance, ProvArtifact.load, ProvenanceError),
    "tsdb": (_saved_timeseries, TsdbArtifact.load, TsdbError),
    "fingerprint": (_saved_trail, FingerprintTrail.load, FingerprintError),
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
