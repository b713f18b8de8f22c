"""Sweep workers: execute cells, emit events, leave artifacts behind.

:func:`run_cell` is the unit of sweep work — it runs one
:class:`~repro.sweep.manifest.SweepCell` through the exact same
:func:`~repro.experiments.runner.run_experiment` path a single
``repro run`` uses, writes the standard artifacts (metrics CSV,
``.tsdb.json`` time series, ``.fp.json`` fingerprint trail) plus a
``cell.json`` completion record into the cell's content-addressed
directory, and returns the record.  Because the scenario is rebuilt
from the cell configuration alone, a sweep cell and a sequential
single-run invocation of the same knobs are bit-identical.

:func:`worker_main` is the :mod:`multiprocessing` entry point: it
drains cell indices from a task queue (pre-filled before workers start,
so ``Empty`` means done — no sentinels that a crashed sibling could
strand), posts the :mod:`repro.obs.fleet.events` vocabulary to the
event queue, runs a heartbeat daemon thread, and converts per-cell
exceptions into structured failure records instead of dying.
"""

from __future__ import annotations

import os
import pathlib
import queue
import threading
import traceback

from ..artifact import nan_to_null, read_json, save_json
from ..errors import ReproError, SweepError
from ..experiments.runner import run_experiment
from ..metrics.export import to_csv
from ..obs.fleet.events import (
    cell_failed,
    cell_finished,
    cell_started,
    heartbeat,
    wall_clock_now,
    worker_exited,
    worker_started,
)
from ..obs.timeseries import TimeseriesRecorder
from ..staticcheck.sanitizer import DeterminismSanitizer
from .manifest import SweepCell, build_cell_scenario

__all__ = [
    "CELL_ARTIFACTS",
    "SUMMARY_METRICS",
    "CellDivergenceError",
    "execute_cell",
    "failure_record",
    "load_cell_record",
    "run_cell",
    "worker_main",
]

#: Metrics summarized per cell (steady tail mean, run total, final value)
#: when present in the run's collector — the CLI headline set plus the
#: cost counters the paper's Table I compares.
SUMMARY_METRICS = (
    "utilization",
    "total_replicas",
    "path_length",
    "load_imbalance",
    "unserved",
    "sla_attainment",
    "replication_cost",
    "migration_count",
)

#: Relative artifact paths every completed cell directory holds.
CELL_ARTIFACTS = {
    "record": "cell.json",
    "metrics": "metrics.csv",
    "timeseries": "run.tsdb.json",
    "fingerprint": "run.fp.json",
}

#: Seconds between worker heartbeat events.
HEARTBEAT_INTERVAL_S = 2.0


class CellDivergenceError(ReproError):
    """A cell re-run in-process produced a different fingerprint chain.

    This is the sweep's determinism guard tripping: the engine contract
    says identical configuration must yield identical chains, so a
    divergence means hidden state leaked between runs (or a genuine
    nondeterminism bug) and the cell's results cannot be trusted.
    """


def _run_once(cell: SweepCell, *, stride: int, with_timeseries: bool):
    """One fresh experiment for ``cell``; returns (result, recorder, trail)."""
    recorder = TimeseriesRecorder(stride=stride) if with_timeseries else None
    sanitizer = DeterminismSanitizer()
    scenario = build_cell_scenario(cell)
    result = run_experiment(
        cell.policy,
        scenario,
        timeseries=recorder,
        sanitizer=sanitizer,
        engine=cell.engine,
    )
    return result, recorder, sanitizer.trail()


def run_cell(
    cell: SweepCell,
    cell_dir: str | pathlib.Path,
    *,
    manifest_hash: str,
    stride: int = 1,
    verify: bool = False,
    worker: int = 0,
) -> dict:
    """Execute one cell, write its artifacts, return the cell record.

    With ``verify=True`` the cell is run a second time in-process from
    a fresh scenario and sanitizer; if the two fingerprint chains
    differ, :class:`CellDivergenceError` names the cell and both chains
    and no ``cell.json`` is written (so resume will re-run it).
    """
    cell_dir = pathlib.Path(cell_dir)
    cell_dir.mkdir(parents=True, exist_ok=True)
    started = wall_clock_now()

    result, recorder, trail = _run_once(cell, stride=stride, with_timeseries=True)
    fingerprint = trail.final_chain

    if verify:
        _, _, retrail = _run_once(cell, stride=stride, with_timeseries=False)
        if retrail.final_chain != fingerprint:
            raise CellDivergenceError(
                f"cell {cell.cell_id}: in-process re-run diverged "
                f"(first chain {fingerprint}, re-run {retrail.final_chain}); "
                "the determinism contract is broken for this configuration"
            )

    to_csv(result.metrics, cell_dir / CELL_ARTIFACTS["metrics"])
    assert recorder is not None
    recorder.artifact().save(cell_dir / CELL_ARTIFACTS["timeseries"])
    trail.save(cell_dir / CELL_ARTIFACTS["fingerprint"])

    summaries: dict[str, dict[str, float]] = {}
    for metric in SUMMARY_METRICS:
        if metric in result.metrics:
            summaries[metric] = {
                "steady": float(result.steady(metric)),
                "total": float(result.series(metric).sum()),
                "final": float(result.final(metric)),
            }

    record = {
        "cell": cell.to_dict(),
        "cell_id": cell.cell_id,
        "digest": cell.digest,
        "group": cell.group_key,
        "manifest_hash": manifest_hash,
        "status": "ok",
        "fingerprint": fingerprint,
        "epochs_chained": len(trail),
        "summaries": summaries,
        "artifacts": dict(CELL_ARTIFACTS),
        "duration_s": wall_clock_now() - started,
        "worker": int(worker),
        "resumed": False,
        "verified": bool(verify),
    }
    save_json(cell_dir / CELL_ARTIFACTS["record"], nan_to_null(record), allow_nan=False)
    return record


def load_cell_record(
    cell: SweepCell, cell_dir: str | pathlib.Path, manifest_hash: str
) -> dict | None:
    """The prior completion record for ``cell`` if it is resumable.

    Returns ``None`` — meaning "re-run the cell" — unless ``cell.json``
    exists, parses, reports ``status == "ok"``, matches both the cell
    digest and the sweep's manifest hash, and has the group and the
    ``metric -> {field: number or null}`` summaries the merge reads.
    """
    record_path = pathlib.Path(cell_dir) / CELL_ARTIFACTS["record"]
    try:
        raw = read_json(record_path, SweepError, "cell record")
    except SweepError:
        return None
    if not isinstance(raw, dict) or raw.get("status") != "ok":
        return None
    if raw.get("digest") != cell.digest or raw.get("manifest_hash") != manifest_hash:
        return None
    summaries = raw.get("summaries")
    if not isinstance(raw.get("group"), str) or not isinstance(summaries, dict):
        return None
    for fields in summaries.values():
        if not isinstance(fields, dict) or not all(
            value is None or type(value) in (int, float) for value in fields.values()
        ):
            return None
    for artifact in CELL_ARTIFACTS.values():
        if not (pathlib.Path(cell_dir) / artifact).exists():
            return None
    raw["resumed"] = True
    return raw


def failure_record(
    cell: SweepCell, kind: str, error: str, *, worker: int, tb: str | None = None
) -> dict:
    """A structured failure: the traceback becomes data in the sweep
    artifact instead of scrolling off a worker's stderr."""
    return {
        "cell_id": cell.cell_id,
        "digest": cell.digest,
        "group": cell.group_key,
        "kind": kind,
        "error": error,
        "traceback": tb,
        "worker": int(worker),
    }


def _maybe_inject_crash(cell: SweepCell, options: dict) -> None:
    """Testing aid: fault injection for the CI smoke sweep and tests.

    ``inject_crash`` is a substring matched against the cell id;
    ``inject_mode`` is ``"raise"`` (a structured worker-error failure)
    or ``"exit"`` (hard ``os._exit`` so the orchestrator's watchdog
    path is exercised).
    """
    needle = options.get("inject_crash")
    if not needle or needle not in cell.cell_id:
        return
    if options.get("inject_mode", "raise") == "exit":
        # A hard exit that skips the worker's own finallys is the whole
        # point: it simulates a SIGKILL'd worker for the watchdog.
        os._exit(3)
    raise RuntimeError(f"injected crash in cell {cell.cell_id}")


def execute_cell(
    cell: SweepCell, sweep_dir: str | pathlib.Path, options: dict, worker: int
) -> dict:
    """Injection check + :func:`run_cell` with the sweep's options.

    Shared by the inline (``--max-workers 1``) path and
    :func:`worker_main`, so both produce identical records and honour
    the same fault injection.
    """
    _maybe_inject_crash(cell, options)
    return run_cell(
        cell,
        pathlib.Path(sweep_dir) / "cells" / cell.dirname,
        manifest_hash=str(options["manifest_hash"]),
        stride=int(options.get("stride", 1)),
        verify=bool(options.get("verify", False)),
        worker=worker,
    )


def classify_failure(exc: Exception) -> str:
    if isinstance(exc, CellDivergenceError):
        return "determinism-divergence"
    return "worker-error"


def worker_main(
    worker_id: int,
    task_q,
    events,
    sweep_dir: str,
    cells: tuple[SweepCell, ...],
    options: dict,
) -> None:
    """Worker process entry point: drain the task queue until empty.

    The task queue holds cell indices and is fully populated before any
    worker starts, so an ``Empty`` timeout is an unambiguous "no work
    left" signal — robust even when sibling workers crash, unlike
    sentinel schemes where a dead worker's sentinel can strand cells.

    ``events`` is the send end of this worker's own pipe to the
    orchestrator.  Each event is sent synchronously under a lock private
    to this process, so a worker that dies mid-send cuts only its own
    pipe short; a queue shared by all workers would keep its cross-process
    write lock held by the dead worker and silence every other worker.
    """
    state = {"cell_id": None, "started": wall_clock_now(), "cells_run": 0}
    stop = threading.Event()
    send_lock = threading.Lock()

    def emit(event: dict) -> None:
        with send_lock:
            events.send(event)

    def _beat() -> None:
        interval = float(options.get("heartbeat_s", HEARTBEAT_INTERVAL_S))
        while not stop.wait(interval):
            try:
                emit(
                    heartbeat(
                        worker_id,
                        state["cell_id"],
                        wall_clock_now() - state["started"],
                        state["cells_run"],
                    )
                )
            except (OSError, ValueError):  # pipe torn down mid-beat
                return

    emit(worker_started(worker_id))
    beat = threading.Thread(target=_beat, daemon=True)
    beat.start()
    try:
        while True:
            try:
                index = task_q.get(timeout=0.5)
            except queue.Empty:
                break
            cell = cells[index]
            state["cell_id"] = cell.cell_id
            state["started"] = wall_clock_now()
            emit(cell_started(worker_id, index, cell.cell_id))
            try:
                record = execute_cell(cell, sweep_dir, options, worker_id)
            except Exception as exc:
                emit(
                    cell_failed(
                        worker_id,
                        index,
                        cell.cell_id,
                        failure_record(
                            cell,
                            classify_failure(exc),
                            f"{type(exc).__name__}: {exc}",
                            worker=worker_id,
                            tb=traceback.format_exc(),
                        ),
                    )
                )
            else:
                emit(cell_finished(worker_id, index, cell.cell_id, record))
            state["cell_id"] = None
            state["cells_run"] += 1
    finally:
        stop.set()
        # Bounded join: the beat loop wakes from stop.wait() within one
        # interval; the timeout guards against a beat blocked on a full
        # pipe so worker exit can never hang on its own heartbeat.
        beat.join(timeout=2.0)
        emit(worker_exited(worker_id, state["cells_run"]))
