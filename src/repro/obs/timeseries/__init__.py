"""Per-epoch time-series telemetry: record, diff, dashboard.

The trace (PR 1) answers *what happened*; the analysis layer (PR 2)
answers *why*; this subpackage answers *how trajectories compare* —
the paper's whole argument is plotted over time, and so is every
performance claim a later PR will make.

* :class:`TimeseriesRecorder` — the engine drives it once per epoch;
  columnar frames, configurable stride, automatic 2:1 downsampling
  above a point budget (`recorder.py`).
* :class:`TsdbArtifact` — the versioned ``.tsdb.json`` on-disk format
  (`artifact.py`).
* :func:`diff_artifacts` — cross-run regression diffing with
  per-metric tolerances and polarity-aware classification; backs the
  ``repro diff`` CI gate (`diff.py`).
* :func:`render_dashboard` — a zero-dependency offline HTML dashboard
  with inline-SVG panels; backs ``repro dashboard`` (`dashboard.py`).
"""

import importlib
from typing import Any

from .artifact import TSDB_FORMAT, TSDB_VERSION, Marker, TsdbArtifact
from .recorder import TimeseriesRecorder

# Diffing and the HTML dashboard read saved artifacts; recording never needs them.
_DEFERRED = {
    "render_dashboard": "dashboard",
    "ColumnDiff": "diff",
    "DiffReport": "diff",
    "Tolerance": "diff",
    "diff_artifacts": "diff",
    "polarity_of": "diff",
    "render_diff_json": "diff",
    "render_diff_markdown": "diff",
    "render_diff_text": "diff",
    "tolerance_of": "diff",
}

__all__ = [
    "TSDB_FORMAT",
    "TSDB_VERSION",
    "ColumnDiff",
    "DiffReport",
    "Marker",
    "TimeseriesRecorder",
    "Tolerance",
    "TsdbArtifact",
    "diff_artifacts",
    "polarity_of",
    "render_dashboard",
    "render_diff_json",
    "render_diff_markdown",
    "render_diff_text",
    "tolerance_of",
]


def __getattr__(name: str) -> Any:
    try:
        submodule = _DEFERRED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
