"""Streamed, atomically replaced artifact saves (``repro.artifact``).

``.tsdb.json`` and ``.fp.json`` saves write one column or one epoch
record at a time and must produce exactly ``json.dumps(to_dict(),
indent=1)``; every artifact save and every CLI report or HTML output
replaces its target only once complete.
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.artifact import atomic_write
from repro.cli import main
from repro.metrics.collector import MetricsCollector
from repro.metrics.export import to_json
from repro.obs.provenance import ProvenanceRecorder
from repro.obs.provenance import ledger as ledger_module
from repro.obs.timeseries.artifact import Marker, TsdbArtifact
from repro.obs.trace import JsonlTracer, TraceEvent
from repro.sim import reasons
from repro.sim.actions import Suicide
from repro.staticcheck.baseline import Baseline
from repro.staticcheck.sanitizer import COMPONENTS, EpochFingerprint, FingerprintTrail
from repro.sweep import SweepArtifact, SweepManifest, SweepScale
from repro.sweep.manifest import SweepCell
from repro.sweep.worker import CELL_ARTIFACTS, run_cell

GOLDEN = pathlib.Path(__file__).parent / "golden"

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(2**40), 2**40)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
#: Nested run metadata with non-ASCII keys and text.
_META = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        _SCALARS,
        lambda inner: (
            st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
        ),
        max_leaves=8,
    ),
    max_size=4,
)
_VALUES = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def _tsdb_artifacts(draw) -> TsdbArtifact:
    points = draw(st.integers(0, 5))
    names = draw(st.lists(st.text(max_size=6), max_size=4, unique=True))
    epochs = draw(st.lists(st.integers(0, 10**6), min_size=points, max_size=points))
    markers = st.builds(
        Marker, st.integers(0, 999), st.text(max_size=6), st.text(max_size=6), st.integers(1, 40)
    )
    return TsdbArtifact(
        epochs=np.array(epochs, dtype=np.int64),
        columns={
            name: np.array(draw(st.lists(_VALUES, min_size=points, max_size=points)))
            for name in names
        },
        markers=tuple(draw(st.lists(markers, max_size=3))),
        meta=draw(_META),
        stride=draw(st.integers(1, 8)),
        decimation=draw(st.sampled_from((1, 2, 4))),
    )


_DIGEST = st.text("0123456789abcdef", min_size=16, max_size=16)


@st.composite
def _trails(draw) -> FingerprintTrail:
    records = draw(
        st.lists(
            st.builds(
                EpochFingerprint,
                st.integers(0, 10**6),
                st.dictionaries(st.sampled_from(COMPONENTS), _DIGEST),
                st.dictionaries(st.text(max_size=6), _DIGEST, max_size=3),
                _DIGEST,
            ),
            max_size=4,
        )
    )
    # The trail's encoder allows NaN: its meta may hold any float.
    meta = draw(st.dictionaries(st.text(max_size=6), _SCALARS | _VALUES, max_size=4) | _META)
    return FingerprintTrail(meta=meta, records=records)


def _saved(artifact, directory: pathlib.Path) -> bytes:
    path = directory / "artifact.json"
    artifact.save(path)
    return path.read_bytes()


def _traced_peak(fn) -> int:
    """Bytes the traced peak rises above what is held when ``fn`` starts."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


# ----------------------------------------------------------------------
# The streamed writer reproduces json.dumps(indent=1)
# ----------------------------------------------------------------------
class TestStreamedWriter:
    @given(_tsdb_artifacts())
    @settings(max_examples=80, deadline=None)
    def test_tsdb_save_equals_json_dumps(self, artifact):
        expected = json.dumps(artifact.to_dict(), indent=1, allow_nan=False) + "\n"
        with tempfile.TemporaryDirectory() as directory:
            assert _saved(artifact, pathlib.Path(directory)) == expected.encode()

    @given(_trails())
    @settings(max_examples=80, deadline=None)
    def test_fingerprint_save_equals_json_dumps(self, trail):
        expected = json.dumps(trail.to_dict(), indent=1) + "\n"
        with tempfile.TemporaryDirectory() as directory:
            assert _saved(trail, pathlib.Path(directory)) == expected.encode()

    def test_non_finite_samples_are_written_as_null(self, tmp_path):
        values = np.array([np.nan, np.inf, -np.inf, 1.5])
        artifact = TsdbArtifact(epochs=np.arange(4), columns={"x": values})
        saved = json.loads(_saved(artifact, tmp_path))
        assert saved["columns"]["x"] == [None, None, None, 1.5]

    def test_empty_containers_stay_on_one_line(self, tmp_path):
        saved = _saved(TsdbArtifact(epochs=np.arange(0), columns={}), tmp_path).decode()
        assert '"columns": {}' in saved and '"markers": []' in saved
        assert '"epochs": []' in _saved(FingerprintTrail(), tmp_path).decode()

    @pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.fp.json")), ids=lambda p: p.name)
    def test_golden_trails_round_trip_byte_for_byte(self, path, tmp_path):
        assert _saved(FingerprintTrail.load(path), tmp_path) == path.read_bytes()


class TestSaveMemory:
    def test_tsdb_save_holds_one_column_at_a_time(self, tmp_path):
        rng = np.random.default_rng(3)
        artifact = TsdbArtifact(
            epochs=np.arange(4096),
            columns={f"signal/{i:02d}": rng.random(4096) for i in range(64)},
            markers=tuple(Marker(epoch, "failure", "dc-3", 2) for epoch in range(0, 4096, 64)),
            meta={"policy": "rfh", "seed": 3},
        )
        peak = _traced_peak(lambda: artifact.save(tmp_path / "big.tsdb.json"))
        assert peak <= 1_000_000, f"64 x 4096 save peaked {peak / 1e6:.2f} MB above its start"

    def test_fingerprint_save_holds_one_record_at_a_time(self, tmp_path):
        def digest(value: int) -> str:
            return f"{value:016x}"

        trail = FingerprintTrail(
            meta={"policy": "rfh", "seed": 3},
            records=[
                EpochFingerprint(
                    epoch,
                    {name: digest(epoch + k) for k, name in enumerate(COMPONENTS)},
                    {f"stream-{k}": digest(epoch * 7 + k) for k in range(6)},
                    digest(epoch * 31),
                )
                for epoch in range(4000)
            ],
        )
        peak = _traced_peak(lambda: trail.save(tmp_path / "big.fp.json"))
        assert peak <= 500_000, f"4,000-record save peaked {peak / 1e6:.2f} MB above its start"


# ----------------------------------------------------------------------
# Atomic replacement
# ----------------------------------------------------------------------
def _provenance_artifact():
    recorder = ProvenanceRecorder()
    for epoch in range(3):
        draft = recorder.open(
            epoch=epoch, partition=1, avg_query=1.0, holder_traffic=2.0, unserved=0.0,
            mean_traffic=1.0, replica_count=2, rmin=2, holder_dc=0,
        )
        draft.predicate("eq12", "server:3", 1.0, 2.0, False)
        recorder.close(draft, [])
        recorder.note_fate(epoch, "suicide", Suicide(4, 9, reason=reasons.COLD_REPLICA), "applied")
    return recorder.artifact()


def _collector() -> MetricsCollector:
    metrics = MetricsCollector()
    metrics.record_epoch({"utilization": 0.5})
    return metrics


#: Every artifact writer, each given only its target path.
_WRITERS = {
    "tsdb": lambda path: TsdbArtifact(epochs=np.arange(2), columns={"x": np.ones(2)}).save(path),
    "prov": lambda path: _provenance_artifact().save(path),
    "fp": lambda path: FingerprintTrail(meta={"seed": 1}).save(path),
    "sweep": lambda path: SweepArtifact(manifest=SweepManifest(seeds=(1,))).save(path),
    "sweep-manifest": lambda path: SweepManifest(seeds=(1,)).save(path),
    "lint-baseline": lambda path: Baseline().save(path),
    "metrics-json": lambda path: to_json(_collector(), path),
}


def _trace(inputs: pathlib.Path) -> str:
    path = inputs / "t.jsonl"
    with JsonlTracer(path) as tracer:
        tracer.emit(TraceEvent(epoch=0, kind="replicate", server=1, partition=0, policy="rfh"))
    return str(path)


def _tsdb(inputs: pathlib.Path) -> str:
    path = inputs / "run.tsdb.json"
    TsdbArtifact(epochs=np.arange(3), columns={"utilization": np.ones(3)}).save(path)
    return str(path)


def _prov(inputs: pathlib.Path) -> str:
    path = inputs / "run.prov.json"
    _provenance_artifact().save(path)
    return str(path)


_TINY = ["--epochs", "3", "--partitions", "8", "--rate", "30"]

#: Every CLI command that writes a report or HTML file, given its input
#: directory and target path.
_CLI_OUTPUTS = {
    "analyze": lambda inputs, target: ["analyze", _trace(inputs), "--out", target],
    "diff": lambda inputs, target: ["diff", _tsdb(inputs), _tsdb(inputs), "--out", target],
    "dashboard": lambda inputs, target: ["dashboard", _tsdb(inputs), "--out", target],
    "explain": lambda inputs, target: [
        "explain", _prov(inputs), "--partition", "1", "--out", target
    ],
    "sweep-report": lambda inputs, target: [
        "sweep", "--policies", "rfh", "--seeds", "1", *_TINY, "--out", str(inputs / "sweep"),
        "--report", target,
    ],
    "sweep-dashboard": lambda inputs, target: [
        "sweep", "--policies", "rfh", "--seeds", "1", *_TINY, "--out", str(inputs / "sweep"),
        "--dashboard", target,
    ],
}


class TestAtomicReplace:
    def _assert_untouched(self, directory: pathlib.Path, target: pathlib.Path) -> None:
        assert target.read_bytes() == b"previous artifact\n"
        assert sorted(p.name for p in directory.iterdir()) == [target.name]

    def test_tsdb_save_failing_on_nan_meta_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "run.tsdb.json"
        target.write_bytes(b"previous artifact\n")
        artifact = TsdbArtifact(
            epochs=np.arange(3), columns={"x": np.ones(3)}, meta={"alpha": float("nan")}
        )
        with pytest.raises(ValueError, match="JSON compliant"):
            artifact.save(target)
        self._assert_untouched(tmp_path, target)

    def test_prov_save_interrupted_after_the_first_chunk_keeps_the_old_file(
        self, tmp_path, monkeypatch
    ):
        target = tmp_path / "run.prov.json"
        target.write_bytes(b"previous artifact\n")
        real_chunks = ledger_module._chunks
        written = []

        def chunks(*args):
            for chunk in real_chunks(*args):
                if written:
                    raise KeyboardInterrupt
                written.append(chunk)
                yield chunk

        monkeypatch.setattr(ledger_module, "_chunks", chunks)
        with pytest.raises(KeyboardInterrupt):
            _provenance_artifact().save(target)
        assert written
        self._assert_untouched(tmp_path, target)

    def test_fingerprint_save_failing_mid_trail_keeps_the_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "run.fp.json"
        target.write_bytes(b"previous artifact\n")
        trail = FingerprintTrail(
            records=[EpochFingerprint(epoch, {}, {}, f"{epoch:016x}") for epoch in range(3)]
        )
        real_to_dict = EpochFingerprint.to_dict

        def to_dict(record):
            if record.epoch == 2:
                raise OSError("disk full")
            return real_to_dict(record)

        monkeypatch.setattr(EpochFingerprint, "to_dict", to_dict)
        with pytest.raises(OSError, match="disk full"):
            trail.save(target)
        self._assert_untouched(tmp_path, target)

    @pytest.mark.parametrize("kind", sorted(_WRITERS))
    def test_successful_save_replaces_the_target_and_leaves_nothing_else(self, kind, tmp_path):
        target = tmp_path / f"run.{kind}.json"
        target.write_bytes(b"previous artifact\n")
        replaced = target.stat().st_ino
        _WRITERS[kind](target)
        assert sorted(p.name for p in tmp_path.iterdir()) == [target.name]
        assert target.stat().st_ino != replaced, "written in place, not replaced"
        assert json.loads(target.read_text())

    def test_cell_record_replaces_the_old_one(self, tmp_path):
        cell = SweepCell("rfh", "random", 1, SweepScale("tiny", 8, 30.0), "scalar", epochs=3)
        record = tmp_path / CELL_ARTIFACTS["record"]
        record.write_bytes(b"previous artifact\n")
        replaced = record.stat().st_ino
        run_cell(cell, tmp_path, manifest_hash="0" * 12)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(CELL_ARTIFACTS.values())
        assert record.stat().st_ino != replaced
        assert json.loads(record.read_text())["status"] == "ok"

    @pytest.mark.parametrize("command", sorted(_CLI_OUTPUTS))
    def test_cli_output_replaces_the_target_and_leaves_nothing_else(
        self, command, tmp_path, capsys
    ):
        inputs, out = tmp_path / "in", tmp_path / "out"
        inputs.mkdir()
        out.mkdir()
        target = out / "report"
        target.write_bytes(b"previous artifact\n")
        replaced = target.stat().st_ino
        main(_CLI_OUTPUTS[command](inputs, str(target)))
        assert f"wrote {target}" in capsys.readouterr().out
        assert sorted(p.name for p in out.iterdir()) == [target.name]
        assert target.stat().st_ino != replaced, "written in place, not replaced"
        assert target.read_bytes() not in (b"", b"previous artifact\n")

    def test_a_symlinked_target_is_replaced_behind_its_link(self, tmp_path):
        (tmp_path / "store").mkdir()
        real = tmp_path / "store" / "run.fp.json"
        real.write_bytes(b"previous artifact\n")
        link = tmp_path / "run.fp.json"
        link.symlink_to(real)
        FingerprintTrail(meta={"seed": 1}).save(link)
        assert link.is_symlink()
        assert json.loads(real.read_text())["meta"] == {"seed": 1}
        assert sorted(p.name for p in real.parent.iterdir()) == [real.name]

    def test_a_pipe_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "run.tsdb.json"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_bytes()), daemon=True
        )
        reader.start()
        artifact = TsdbArtifact(epochs=np.arange(2), columns={"x": np.ones(2)})
        artifact.save(fifo)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert received == [(json.dumps(artifact.to_dict(), indent=1) + "\n").encode()]
        assert stat.S_ISFIFO(fifo.stat().st_mode)
        assert sorted(p.name for p in tmp_path.iterdir()) == [fifo.name]

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_descriptor_path_to_a_pipe_is_written_in_place(self):
        # ``--out /dev/stdout`` with stdout on a pipe: the link resolves
        # to a ``pipe:[...]`` name that has no directory to write beside.
        read_fd, write_fd = os.pipe()
        try:
            with atomic_write(f"/dev/fd/{write_fd}") as out:
                out.write("through the pipe\n")
        finally:
            os.close(write_fd)
        with os.fdopen(read_fd, "rb") as received:
            assert received.read() == b"through the pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    @pytest.mark.parametrize("redirect", [">", ">>", "|"])
    def test_out_to_stdout_follows_what_was_printed(self, redirect, tmp_path):
        """``--out /dev/stdout`` writes through standard output, wherever
        it goes: a truncating or appending redirect keeps the file (and
        what it held), and the ``wrote`` line follows the report."""
        trace = _trace(tmp_path)
        main(["analyze", trace, "--out", str(tmp_path / "report")])
        report = (tmp_path / "report").read_bytes()
        command = [sys.executable, "-m", "repro", "analyze", trace, "--out", "/dev/stdout"]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        sink = tmp_path / "stdout"
        earlier = b"earlier output\n" if redirect == ">>" else b""
        sink.write_bytes(earlier)
        if redirect == "|":
            got = subprocess.run(command, env=env, capture_output=True, check=True).stdout
        else:
            with open(sink, "ab" if redirect == ">>" else "wb") as out:
                subprocess.run(command, env=env, stdout=out, check=True)
            got = sink.read_bytes()
        assert got == earlier + report + b"wrote /dev/stdout\n"

    def test_atomic_write_creates_new_files_like_open(self, tmp_path):
        with open(tmp_path / "plain", "w") as out:
            out.write("x")
        with atomic_write(tmp_path / "atomic") as out:
            out.write("x")
        modes = {p.name: p.stat().st_mode for p in tmp_path.iterdir()}
        assert modes["atomic"] == modes["plain"]
