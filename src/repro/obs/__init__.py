"""Structured observability for the simulation engine.

Three engine observers, all optional and all off by default so the
reproduction's hot path is untouched unless a user asks to look inside,
plus the counters rebuilt from the trace:

* :mod:`repro.obs.trace` — typed, timestamped event records emitted at
  every membership change, lost-partition restore, policy action
  (capturing each action's ``reason``), gated/skipped action and SLA
  violation.  Ring-buffer mode bounds memory on long runs; the JSONL
  sink streams to disk for archival analysis (``jq``-able).
* :mod:`repro.obs.profiler` — per-epoch wall-clock timing of the six
  engine phases (membership → workload → serve → observe → apply →
  record), summarised as mean/p50/p95/total per phase.
* :mod:`repro.obs.timeseries` — per-epoch columnar recording of every
  metric, work, decision and phase signal into a versioned ``.tsdb.json``
  artifact, plus cross-run regression diffing (``repro diff``) and a
  self-contained offline HTML dashboard (``repro dashboard``).
* :mod:`repro.obs.registry` — labelled counters and histograms (e.g.
  ``actions_total{kind=migrate, policy=rfh}``), rebuilt from a trace by
  :func:`repro.obs.analysis.registry_from_events`; the trace is the one
  event stream they count.

Wire the observers through :class:`repro.sim.engine.Simulation`::

    tracer = RingBufferTracer(10_000)
    sim = Simulation(config, tracer=tracer, profiler=PhaseProfiler(),
                     timeseries=TimeseriesRecorder())
    sim.run(100)
    counters = registry_from_events(tracer.events())

or from the command line::

    python -m repro run --policy rfh --trace-out trace.jsonl --profile \\
        --timeseries-out run.tsdb.json
    python -m repro analyze trace.jsonl --format prometheus
"""

from .profiler import ENGINE_PHASES, NullProfiler, PhaseProfiler, PhaseStats
from .registry import Counter, Histogram, InstrumentRegistry
from .timeseries import TimeseriesRecorder, TsdbArtifact
from .trace import (
    JsonlTracer,
    NullTracer,
    RingBufferTracer,
    TraceEvent,
    Tracer,
    TraceReadWarning,
    read_jsonl,
)

__all__ = [
    "ENGINE_PHASES",
    "Counter",
    "Histogram",
    "InstrumentRegistry",
    "JsonlTracer",
    "NullProfiler",
    "NullTracer",
    "PhaseProfiler",
    "PhaseStats",
    "RingBufferTracer",
    "TimeseriesRecorder",
    "TraceEvent",
    "TraceReadWarning",
    "Tracer",
    "TsdbArtifact",
    "read_jsonl",
]
