"""Decision provenance: record *why* every RFH action happened.

The ledger captures each partition's Fig. 2 evaluation per epoch —
every threshold predicate with its intermediate terms, every candidate
with its verdict, the chosen action and its engine fate — persists it
as a ``repro-prov`` v1 ``.prov.json`` artifact, and answers questions
about it (``repro explain``, ``repro provdiff``).
"""

import importlib
from typing import Any

from .artifact import PROV_FORMAT, PROV_VERSION, ProvArtifact
from .recorder import DEFAULT_BUDGET, ProvenanceRecorder
from .records import (
    CandidateEval,
    DecisionDraft,
    DecisionRecord,
    PredicateEval,
)

# Query tools over saved ledgers; recording a run never needs them.
_DEFERRED = {
    "crosscheck_trace": "crosscheck",
    "render_explanation": "explain",
    "Divergence": "provdiff",
    "ProvDiffReport": "provdiff",
    "diff_provenance": "provdiff",
}

__all__ = [
    "PROV_FORMAT",
    "PROV_VERSION",
    "ProvArtifact",
    "crosscheck_trace",
    "render_explanation",
    "Divergence",
    "ProvDiffReport",
    "diff_provenance",
    "DEFAULT_BUDGET",
    "ProvenanceRecorder",
    "CandidateEval",
    "DecisionDraft",
    "DecisionRecord",
    "PredicateEval",
]


def __getattr__(name: str) -> Any:
    try:
        submodule = _DEFERRED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
