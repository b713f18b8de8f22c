"""Static analysis and runtime determinism checking (``repro.staticcheck``).

A multi-family analysis platform plus a runtime sanitizer, all
defending one guarantee — that a seeded run is bit-reproducible:

* **REP0xx determinism** (:mod:`.rules`) — nondeterminism sources:
  unseeded RNGs, wall-clock reads, set-order iteration, float
  equality, mutable defaults, non-literal RNG stream names;
* **REP1xx numeric-kernel purity** (:mod:`.rules_numeric`) — implicit
  dtype promotion, unordered reductions, hidden copies and
  interpreter loops inside kernel directories;
* **REP2xx concurrency & lifecycle** (:mod:`.rules_concurrency`) —
  unjoined processes/queues, blocking gets, ``os._exit`` placement,
  fork-unsafe module state, daemon threads without shutdown;
* **AUD cross-module auditors** (:mod:`.project`) — engine parity,
  reason vocabulary, artifact version-rejection coverage;
* the **determinism sanitizer** (:mod:`.sanitizer`) fingerprints live
  engine state per epoch so a same-seed re-run can be diffed and the
  first divergent epoch — and the component that diverged — named.

CLI entry points: ``repro lint`` (``--select REP1,REP2,AUD``) and
``repro sanitize`` (plus ``--sanitize`` on ``run``/``compare``).  See
DESIGN.md §9.
"""

import importlib
from typing import Any

from .sanitizer import (
    COMPONENTS,
    DeterminismSanitizer,
    DivergenceReport,
    EpochFingerprint,
    FingerprintError,
    FingerprintTrail,
    bisect_divergence,
)

# The lint platform serves only `repro lint`; runs need just the sanitizer.
_DEFERRED = {
    "AUDIT_RULE_IDS": "analyzers",
    "FILE_ANALYZERS": "analyzers",
    "FileAnalyzer": "analyzers",
    "expand_select": "analyzers",
    "DEFAULT_BASELINE_NAME": "baseline",
    "Baseline": "baseline",
    "BaselineError": "baseline",
    "LintError": "engine",
    "LintResult": "engine",
    "changed_python_files": "engine",
    "lint_paths": "engine",
    "lint_source": "engine",
    "ALL_RULE_IDS": "findings",
    "DEFAULT_RULE_IDS": "findings",
    "FAMILIES": "findings",
    "RULES": "findings",
    "Finding": "findings",
    "Rule": "findings",
    "rule_family": "findings",
    "ProjectLayout": "project",
    "find_project_root": "project",
    "run_project_audit": "project",
    "RENDERERS": "reporting",
    "render_github": "reporting",
    "render_json": "reporting",
    "render_text": "reporting",
}

__all__ = [
    "ALL_RULE_IDS",
    "AUDIT_RULE_IDS",
    "Baseline",
    "BaselineError",
    "COMPONENTS",
    "DEFAULT_BASELINE_NAME",
    "DEFAULT_RULE_IDS",
    "DeterminismSanitizer",
    "DivergenceReport",
    "EpochFingerprint",
    "FAMILIES",
    "FILE_ANALYZERS",
    "FileAnalyzer",
    "Finding",
    "FingerprintError",
    "FingerprintTrail",
    "LintError",
    "LintResult",
    "ProjectLayout",
    "RENDERERS",
    "RULES",
    "Rule",
    "bisect_divergence",
    "changed_python_files",
    "expand_select",
    "find_project_root",
    "lint_paths",
    "lint_source",
    "render_github",
    "render_json",
    "render_text",
    "rule_family",
]


def __getattr__(name: str) -> Any:
    try:
        submodule = _DEFERRED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
