"""The sweep orchestrator: expand, fan out, watch, merge.

:func:`run_sweep` turns a :class:`~repro.sweep.manifest.SweepManifest`
into a merged :class:`~repro.sweep.artifact.SweepArtifact` on disk:

1. **Expand** the manifest into its deterministic cell list and lay out
   the content-addressed sweep directory (``manifest.json``,
   ``cells/<cell_id>-<digest>/``).
2. **Resume** (optional): cells whose directories already hold a valid
   ``cell.json`` matching this manifest's hash and the cell digest are
   adopted instead of re-run.
3. **Fan out** pending cells across ``multiprocessing`` workers (or run
   them inline when one worker suffices), streaming fleet events to a
   :class:`~repro.obs.fleet.progress.FleetProgress` renderer.  A
   watchdog notices hard-crashed workers (no clean exit event), books
   the in-flight cell as a structured ``worker-crash`` failure, and
   respawns replacement workers up to a cap.
4. **Merge** the records into the versioned ``.sweep.json`` with
   cross-seed group statistics.

Every failure mode — a cell raising, the determinism guard tripping, a
worker dying outright — becomes a structured failure record in the
artifact; the sweep itself always completes.
"""

from __future__ import annotations

import multiprocessing
import pathlib
import traceback
from multiprocessing.connection import Connection, wait

from ..obs.fleet.events import (
    CELL_FAILED,
    CELL_FINISHED,
    CELL_STARTED,
    WORKER_EXITED,
    cell_failed,
    cell_finished,
    cell_started,
    wall_clock_now,
)
from ..obs.fleet.progress import FleetProgress
from .artifact import SweepArtifact
from .manifest import SweepCell, SweepManifest
from .merger import merge
from .worker import (
    classify_failure,
    execute_cell,
    failure_record,
    load_cell_record,
    worker_main,
)

__all__ = ["SWEEP_ARTIFACT_NAME", "run_sweep"]

#: File name of the merged artifact inside the sweep directory.
SWEEP_ARTIFACT_NAME = "sweep.sweep.json"

#: Replacement workers spawned after hard crashes, per sweep, beyond the
#: initial pool — a cap so a crash-looping cell cannot fork forever.
MAX_RESPAWNS = 4


def _mp_context():
    """Fork where available (cheap on Linux); spawn otherwise."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context("spawn")


def _run_inline(
    cells: tuple[SweepCell, ...],
    pending: list[int],
    sweep_dir: pathlib.Path,
    options: dict,
    progress: FleetProgress,
    records: dict[int, dict],
    failures: list[dict],
) -> None:
    """Single-lane execution in this process (``--max-workers 1``).

    Emits the same event vocabulary through the progress renderer so
    inline and parallel sweeps look identical to the operator."""
    for index in pending:
        cell = cells[index]
        progress.handle(cell_started(0, index, cell.cell_id))
        try:
            record = execute_cell(cell, sweep_dir, options, 0)
        except Exception as exc:
            failure = failure_record(
                cell,
                classify_failure(exc),
                f"{type(exc).__name__}: {exc}",
                worker=0,
                tb=traceback.format_exc(),
            )
            failures.append(failure)
            progress.handle(cell_failed(0, index, cell.cell_id, failure))
        else:
            records[index] = record
            progress.handle(cell_finished(0, index, cell.cell_id, record))


def _run_parallel(
    cells: tuple[SweepCell, ...],
    pending: list[int],
    sweep_dir: pathlib.Path,
    options: dict,
    progress: FleetProgress,
    records: dict[int, dict],
    failures: list[dict],
    max_workers: int,
) -> None:
    """Fan pending cells across worker processes with a crash watchdog.

    Each worker sends its events down its own pipe (see
    :func:`~repro.sweep.worker.worker_main`), so a worker that dies
    mid-send cannot silence the others; its pipe simply reads as closed.
    """
    ctx = _mp_context()
    task_q = ctx.Queue()
    lanes = min(max_workers, len(pending))
    procs: dict[int, object] = {}
    readers: dict[Connection, int] = {}  # open event pipe -> worker id
    clean_exit: set[int] = set()
    in_flight: dict[int, int] = {}  # worker id -> cell index
    next_worker = 0
    respawns_left = MAX_RESPAWNS

    def _spawn() -> None:
        nonlocal next_worker
        worker_id = next_worker
        next_worker += 1
        reader, writer = ctx.Pipe(duplex=False)
        proc = ctx.Process(
            target=worker_main,
            args=(worker_id, task_q, writer, str(sweep_dir), cells, options),
            daemon=True,
        )
        proc.start()
        # The worker now holds the only send end, so its exit reads as EOF.
        writer.close()
        procs[worker_id] = proc
        readers[reader] = worker_id

    # Teardown lives in the finally so an exception mid-orchestration
    # (progress callback, corrupt event) still reaps every worker and
    # the task queue's feeder thread instead of hanging interpreter exit.
    try:
        for index in pending:
            task_q.put(index)
        for _ in range(lanes):
            _spawn()

        done = 0
        target = len(pending)
        while done < target:
            events = []
            for reader in wait(list(readers), timeout=0.5):
                assert isinstance(reader, Connection)
                try:
                    events.append(reader.recv())
                except (EOFError, OSError):  # worker gone, maybe mid-send
                    del readers[reader]
                    reader.close()
            for event in events:
                kind = event.get("kind")
                worker = int(event.get("worker", -1))
                if kind == CELL_STARTED:
                    in_flight[worker] = int(event["index"])
                elif kind == CELL_FINISHED:
                    records[int(event["index"])] = event["record"]
                    in_flight.pop(worker, None)
                    done += 1
                elif kind == CELL_FAILED:
                    failures.append(event["failure"])
                    in_flight.pop(worker, None)
                    done += 1
                elif kind == WORKER_EXITED:
                    clean_exit.add(worker)
                progress.handle(event)
            if events:
                continue

            # No events: watchdog pass over the pool.
            crashed = [
                worker_id
                for worker_id, proc in procs.items()
                if worker_id not in clean_exit and not proc.is_alive()  # type: ignore[attr-defined]
            ]
            for worker_id in crashed:
                clean_exit.add(worker_id)  # book once
                exitcode = getattr(procs[worker_id], "exitcode", None)
                index = in_flight.pop(worker_id, None)
                if index is not None:
                    cell = cells[index]
                    failure = failure_record(
                        cell,
                        "worker-crash",
                        f"worker {worker_id} died (exit code {exitcode}) "
                        f"while running {cell.cell_id}",
                        worker=worker_id,
                    )
                    failures.append(failure)
                    progress.handle(
                        cell_failed(worker_id, index, cell.cell_id, failure)
                    )
                    done += 1
                if done < target and respawns_left > 0:
                    respawns_left -= 1
                    _spawn()
            if crashed:
                continue
            # No events, no crashes: if every worker is gone and every
            # pipe is read to its end, the remaining cells can never
            # complete — book them as lost and stop waiting.
            if not readers and all(
                worker_id in clean_exit or not proc.is_alive()  # type: ignore[attr-defined]
                for worker_id, proc in procs.items()
            ):
                failed_ids = {f.get("cell_id") for f in failures}
                for index in pending:
                    if index in records:
                        continue
                    cell = cells[index]
                    if cell.cell_id in failed_ids:
                        continue
                    failure = failure_record(
                        cell,
                        "worker-crash",
                        f"cell {cell.cell_id} lost: no live workers remain",
                        worker=-1,
                    )
                    failures.append(failure)
                    progress.handle(cell_failed(-1, index, cell.cell_id, failure))
                    done += 1
    finally:
        for proc in procs.values():
            proc.join(timeout=5.0)  # type: ignore[attr-defined]
            if proc.is_alive():  # type: ignore[attr-defined]
                proc.terminate()  # type: ignore[attr-defined]
                proc.join(timeout=1.0)  # type: ignore[attr-defined]
        for reader in readers:
            reader.close()
        task_q.close()


def run_sweep(
    manifest: SweepManifest,
    out_dir: str | pathlib.Path,
    *,
    max_workers: int = 1,
    resume: bool = False,
    verify: bool = False,
    progress: FleetProgress | None = None,
    inject_crash: str | None = None,
    inject_mode: str = "raise",
) -> SweepArtifact:
    """Execute the manifest's grid and write the merged sweep artifact.

    Returns the merged :class:`SweepArtifact` (also saved to
    ``<out_dir>/sweep.sweep.json``).  ``inject_crash``/``inject_mode``
    are testing aids that fault-inject matching cells — see
    :func:`repro.sweep.worker._maybe_inject_crash`.
    """
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "cells").mkdir(exist_ok=True)
    manifest.save(out / "manifest.json")

    cells = manifest.cells()
    started = wall_clock_now()
    if progress is None:
        progress = FleetProgress(len(cells))
    options: dict[str, object] = {
        "manifest_hash": manifest.manifest_hash,
        "stride": manifest.timeseries_stride,
        "verify": verify,
        "inject_crash": inject_crash,
        "inject_mode": inject_mode,
    }

    records: dict[int, dict] = {}
    failures: list[dict] = []
    resumed = 0
    if resume:
        for index, cell in enumerate(cells):
            prior = load_cell_record(
                cell, out / "cells" / cell.dirname, manifest.manifest_hash
            )
            if prior is not None:
                records[index] = prior
                resumed += 1
                progress.note_resumed(cell.cell_id)

    pending = [index for index in range(len(cells)) if index not in records]
    if pending:
        if max_workers <= 1 or len(pending) == 1:
            _run_inline(cells, pending, out, options, progress, records, failures)
        else:
            _run_parallel(
                cells, pending, out, options, progress, records, failures,
                max_workers,
            )

    wall_s = wall_clock_now() - started
    progress.finish(wall_s)

    ordered = [records[index] for index in sorted(records)]
    artifact = merge(
        manifest,
        ordered,
        failures,
        meta={
            "wall_s": wall_s,
            "max_workers": int(max_workers),
            "resumed_cells": resumed,
            "verified_cells": bool(verify),
        },
    )
    artifact.save(out / SWEEP_ARTIFACT_NAME)
    return artifact
