"""Analyzer registry and ``--select`` expansion.

Each rule family is one AST pass per file
(:func:`repro.staticcheck.rules.check_module` for REP0xx,
:func:`repro.staticcheck.rules_numeric.check_numeric` for REP1xx).  The
driver parses each file once and hands the tree to every family whose
rules are selected.

``--select`` accepts exact rule ids and family prefixes, comma-separated
and repeatable: ``--select REP1`` expands to every rule in that family.
A token that is neither raises, and so does a selection that expands to
no rule, so neither a typo nor an empty ``--select`` can silently lint
nothing.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from .findings import ALL_RULE_IDS, Finding
from .rules import check_module
from .rules_numeric import check_numeric

__all__ = ["expand_select", "run_file_analyzers"]


def _family_ids(prefix: str) -> frozenset[str]:
    return frozenset(r for r in ALL_RULE_IDS if r.startswith(prefix))


#: Each family's per-file AST pass, keyed by its id prefix.
_FILE_ANALYZERS = {"REP0": check_module, "REP1": check_numeric}

_FAMILY_PREFIXES = (*_FILE_ANALYZERS, "REP")


def expand_select(select: Iterable[str] | None) -> frozenset[str]:
    """Expand rule ids and family prefixes into a concrete rule-id set.

    ``None`` selects every rule.  Tokens may be comma-separated.  Raises
    :class:`ValueError` on anything that is neither a rule id nor a
    family prefix, and when the tokens expand to no rule at all.
    """
    if select is None:
        return frozenset(ALL_RULE_IDS)
    out: set[str] = set()
    unknown: list[str] = []
    for raw in select:
        for token in raw.split(","):
            token = token.strip()
            if not token:
                continue
            if token in ALL_RULE_IDS:
                out.add(token)
            elif token in _FAMILY_PREFIXES:
                out.update(_family_ids(token))
            else:
                unknown.append(token)
    if unknown or not out:
        problem = (
            f"unknown rule ids or families: {sorted(set(unknown))}"
            if unknown
            else "the selection names no rule"
        )
        raise ValueError(
            f"{problem}; rules: {list(ALL_RULE_IDS)}; "
            f"families: {list(_FAMILY_PREFIXES)}"
        )
    return frozenset(out)


def run_file_analyzers(
    path: str, source: str, select: frozenset[str]
) -> list[Finding]:
    """Run every selected file analyzer over one file, parsing once.

    Returns raw findings in (line, col, rule) order; raises SyntaxError
    on a parse failure.
    """
    checks = [
        check
        for prefix, check in _FILE_ANALYZERS.items()
        if any(rule_id.startswith(prefix) for rule_id in select)
    ]
    if not checks:
        return []
    tree = ast.parse(source, filename=path)
    findings: list[Finding] = []
    for check in checks:
        findings.extend(check(path, source, tree))
    findings.sort(key=lambda f: (f.line, f.col, f.rule_id))
    return findings
