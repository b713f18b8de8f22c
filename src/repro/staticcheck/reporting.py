"""Render a :class:`~repro.staticcheck.engine.LintResult` three ways.

* ``text`` — ``path:line:col: REPxxx message`` plus a summary block,
  for humans at a terminal;
* ``json`` — the full structured result, for tooling;
* ``github`` — GitHub Actions workflow commands (``::error file=...``),
  so CI findings annotate the offending line in the PR diff.
"""

from __future__ import annotations

import json

from .engine import LintResult
from .findings import RULES

__all__ = ["render_text", "render_json", "render_github"]


def render_text(result: LintResult, *, verbose: bool = False) -> str:
    """The default human report; ``verbose`` lists suppressed/baselined
    findings too (marked, not counted against the gate)."""
    lines: list[str] = []
    for finding in result.findings:
        if finding.active:
            lines.append(
                f"{finding.location()}: {finding.rule_id} {finding.message}"
            )
        elif verbose:
            tag = "noqa" if finding.suppressed else "baseline"
            lines.append(
                f"{finding.location()}: {finding.rule_id} [{tag}] {finding.message}"
            )
    for error in result.errors:
        lines.append(f"{error.path}: ERROR {error.message}")
    for warning in result.warnings:
        lines.append(f"warning: {warning}")
    counts = result.counts_by_rule()
    if counts:
        lines.append("")
        for rule_id, count in counts.items():
            summary = RULES[rule_id].summary if rule_id in RULES else ""
            lines.append(f"  {rule_id}  {count:>4}  {summary}")
    lines.append("")
    lines.append(
        f"{len(result.active)} finding(s) in {result.files_checked} file(s)"
        f" ({len(result.suppressed)} suppressed, "
        f"{len(result.baselined)} baselined"
        + (f", {len(result.errors)} file error(s)" if result.errors else "")
        + ")"
    )
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    payload = {
        "files_checked": result.files_checked,
        "counts_by_rule": result.counts_by_rule(),
        "active": len(result.active),
        "suppressed": len(result.suppressed),
        "baselined": len(result.baselined),
        "findings": [f.to_dict() for f in result.findings],
        "errors": [
            {"path": e.path, "message": e.message} for e in result.errors
        ],
        "warnings": list(result.warnings),
    }
    return json.dumps(payload, indent=1)


def _escape_property(value: str) -> str:
    """GitHub workflow-command property escaping."""
    return (
        value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        .replace(":", "%3A").replace(",", "%2C")
    )


def _escape_data(value: str) -> str:
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def render_github(result: LintResult) -> str:
    """One ``::error`` annotation per active finding (plus file errors)."""
    lines = [
        f"::error file={_escape_property(f.path)},line={f.line},"
        f"col={f.col},title={f.rule_id}"
        f"::{_escape_data(f.rule_id + ' ' + f.message)}"
        for f in result.active
    ]
    lines.extend(
        f"::error file={_escape_property(e.path)},title=lint"
        f"::{_escape_data(e.message)}"
        for e in result.errors
    )
    lines.extend(
        f"::warning title=lint::{_escape_data(w)}" for w in result.warnings
    )
    lines.append(
        f"{len(result.active)} finding(s) in {result.files_checked} file(s)"
    )
    return "\n".join(lines)
