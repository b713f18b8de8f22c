"""Every JSON artifact loader rejects unreadable bytes with its typed error."""

from __future__ import annotations

import pytest

from repro.errors import ProvenanceError, SweepError, TsdbError
from repro.obs.perf.artifact import PerfProfile, ProfileError
from repro.obs.provenance.artifact import ProvArtifact
from repro.obs.timeseries.artifact import TsdbArtifact
from repro.staticcheck.baseline import Baseline, BaselineError
from repro.staticcheck.sanitizer import FingerprintError, FingerprintTrail
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
