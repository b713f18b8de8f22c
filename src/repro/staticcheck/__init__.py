"""Static analysis and runtime determinism checking (``repro.staticcheck``).

Six lint rules plus a runtime sanitizer, all defending one guarantee —
that a seeded run is bit-reproducible:

* **REP0xx determinism** (:mod:`.rules`) — nondeterminism sources:
  unseeded RNGs, wall-clock reads, set-order iteration, non-literal
  RNG stream names;
* **REP1xx numeric-kernel purity** (:mod:`.rules_numeric`) — implicit
  dtype promotion and unordered reductions inside kernel directories;
* the **determinism sanitizer** (:mod:`.sanitizer`) fingerprints live
  engine state per epoch so a same-seed re-run can be diffed and the
  first divergent epoch — and the component that diverged — named.

CLI entry points: ``repro lint`` (``--select REP0,REP1`` or rule ids)
and ``repro sanitize`` (plus ``--sanitize`` on ``run``/``compare``).
See DESIGN.md §9.
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
    "RULES": "findings",
    "Finding": "findings",
    "Rule": "findings",
    "render_github": "reporting",
    "render_json": "reporting",
    "render_text": "reporting",
}

__all__ = [
    "ALL_RULE_IDS",
    "Baseline",
    "BaselineError",
    "COMPONENTS",
    "DEFAULT_BASELINE_NAME",
    "DeterminismSanitizer",
    "DivergenceReport",
    "EpochFingerprint",
    "Finding",
    "FingerprintError",
    "FingerprintTrail",
    "LintError",
    "LintResult",
    "RULES",
    "Rule",
    "bisect_divergence",
    "changed_python_files",
    "expand_select",
    "lint_paths",
    "lint_source",
    "render_github",
    "render_json",
    "render_text",
]


def __getattr__(name: str) -> Any:
    try:
        submodule = _DEFERRED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
