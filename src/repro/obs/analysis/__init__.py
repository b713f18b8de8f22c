"""Post-hoc trace analytics over the observability layer's artifacts.

Four pieces, surfaced through ``repro analyze TRACE.jsonl`` and the
``--analyze`` flag of ``run`` / ``compare``:

* :mod:`~repro.obs.analysis.lineage` — per-partition replica lifecycles
  (create → migrations → failure/suicide) rebuilt from the event
  stream, with lifetime / migration-count / inter-dc-hop distributions;
* :mod:`~repro.obs.analysis.rootcause` — every SLA violation walked
  backwards within an epoch window and attributed to its nearest
  correlated cause with a confidence score;
* :mod:`~repro.obs.analysis.anomalies` — migration ping-pong,
  replication storms (rolling z-score) and per-datacenter churn
  hotspots;
* :mod:`~repro.obs.analysis.exporters` — Chrome trace-event JSON
  (Perfetto / ``chrome://tracing``) and Prometheus text exposition.

Everything operates on plain :class:`~repro.obs.trace.TraceEvent`
streams: a file written by ``--trace-out``, a ``RingBufferTracer``'s
buffer, or any list built in tests.
"""

from .anomalies import (
    Anomaly,
    detect_anomalies,
    detect_churn_hotspots,
    detect_pingpong,
    detect_replication_storms,
)
from .exporters import (
    chrome_trace_from_events,
    registry_from_events,
    to_chrome_trace,
    to_prometheus,
)
from .lineage import Lineage, ReplicaLifecycle, ReplicaStay, build_lineage, distribution
from .pipeline import (
    AnalysisOptions,
    PolicyAnalysis,
    TraceAnalysis,
    analyze_events,
    analyze_trace,
    render_markdown,
    render_text,
)
from .rootcause import (
    Attribution,
    CauseSummary,
    attribute_violations,
    top_causes,
)

__all__ = [
    "AnalysisOptions",
    "Anomaly",
    "Attribution",
    "CauseSummary",
    "Lineage",
    "PolicyAnalysis",
    "ReplicaLifecycle",
    "ReplicaStay",
    "TraceAnalysis",
    "analyze_events",
    "analyze_trace",
    "attribute_violations",
    "build_lineage",
    "chrome_trace_from_events",
    "detect_anomalies",
    "detect_churn_hotspots",
    "detect_pingpong",
    "detect_replication_storms",
    "distribution",
    "registry_from_events",
    "render_markdown",
    "render_text",
    "to_chrome_trace",
    "to_prometheus",
    "top_causes",
]
