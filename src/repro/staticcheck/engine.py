"""The lint driver: discovery, dispatch, noqa and baseline.

Separated from the rule modules so the AST logic stays testable on
source snippets while this module owns everything filesystem-shaped.
The driver is itself deterministic: files are visited in sorted path
order and findings are reported in (path, line, col, rule) order, so
two runs over the same tree produce byte-identical reports.
"""

from __future__ import annotations

import re
import subprocess
from dataclasses import dataclass, field, replace
from pathlib import Path

from .analyzers import expand_select, run_file_analyzers
from .baseline import Baseline
from .findings import RULES, Finding

__all__ = [
    "LintError",
    "LintResult",
    "changed_python_files",
    "expand_select",
    "lint_paths",
    "lint_source",
]

#: ``# repro: noqa`` (all rules) or ``# repro: noqa[REP001,REP003]``.
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\s*\[\s*(?P<rules>[A-Za-z0-9_,\s]+?)\s*\])?",
)


@dataclass(frozen=True)
class LintError:
    """A file the linter could not check (syntax or I/O failure)."""

    path: str
    message: str


@dataclass
class LintResult:
    """Everything one lint invocation produced."""

    findings: list[Finding] = field(default_factory=list)
    errors: list[LintError] = field(default_factory=list)
    files_checked: int = 0
    #: Non-gating diagnostics (e.g. stale baseline entries).
    warnings: list[str] = field(default_factory=list)

    @property
    def active(self) -> list[Finding]:
        """Findings that gate (not noqa'd, not baselined)."""
        return [f for f in self.findings if f.active]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def baselined(self) -> list[Finding]:
        return [f for f in self.findings if f.baselined]

    @property
    def exit_code(self) -> int:
        return 1 if (self.active or self.errors) else 0

    def counts_by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for finding in self.active:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return dict(sorted(counts.items()))


def _noqa_rules_by_line(source: str) -> dict[int, frozenset[str] | None]:
    """Map 1-based line numbers to suppressed rule ids (None = all)."""
    out: dict[int, frozenset[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        spec = match.group("rules")
        if spec is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                part.strip() for part in spec.split(",") if part.strip()
            )
    return out


def _rule_exempt(rule_id: str, posix_path: str) -> bool:
    rule = RULES.get(rule_id)
    if rule is None:
        return False
    if any(posix_path.endswith(suffix) for suffix in rule.exempt_paths):
        return True
    # scoped rules only fire under their scope fragments
    if rule.scope_paths and not any(
        fragment in posix_path for fragment in rule.scope_paths
    ):
        return True
    return False


def _apply_flags(
    findings: list[Finding],
    noqa: dict[int, frozenset[str] | None],
    baseline: Baseline | None,
) -> list[Finding]:
    """Apply noqa suppression and baseline matching to raw findings."""
    out: list[Finding] = []
    for finding in findings:
        suppressed_rules = noqa.get(finding.line, ())
        suppressed = suppressed_rules is None or finding.rule_id in suppressed_rules
        baselined = (
            not suppressed
            and baseline is not None
            and baseline.covers(finding)
        )
        if suppressed or baselined:
            finding = replace(finding, suppressed=suppressed, baselined=baselined)
        out.append(finding)
    return out


def lint_source(
    path: str,
    source: str,
    *,
    select: frozenset[str] | None = None,
    baseline: Baseline | None = None,
) -> list[Finding]:
    """Lint one in-memory source blob with every selected file analyzer;
    returns findings with suppression/baseline flags applied.  Raises
    SyntaxError on a parse failure (callers decide how to report it).

    ``select`` takes concrete rule ids (already expanded); ``None``
    means every rule.
    """
    selected = select if select is not None else expand_select(None)
    raw = run_file_analyzers(path, source, selected)
    raw = [
        f for f in raw
        if f.rule_id in selected and not _rule_exempt(f.rule_id, f.path)
    ]
    return _apply_flags(raw, _noqa_rules_by_line(source), baseline)


def _discover(paths: list[str | Path]) -> list[Path]:
    """Python files under the given paths, sorted, ``__pycache__`` skipped."""
    files: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.update(
                p for p in path.rglob("*.py") if "__pycache__" not in p.parts
            )
        else:
            files.add(path)
    return sorted(files)


def _display_path(path: Path) -> str:
    """Posix path relative to the CWD when possible (stable baselines)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _lint_file(
    display: str, path: Path, selected: frozenset[str], baseline: Baseline | None
) -> list[Finding] | LintError:
    """Lint one file; a read or parse failure comes back as its error."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return LintError(display, f"cannot read: {exc}")
    try:
        return lint_source(display, source, select=selected, baseline=baseline)
    except SyntaxError as exc:
        return LintError(display, f"syntax error at line {exc.lineno}: {exc.msg}")


def lint_paths(
    paths: list[str | Path],
    *,
    select: list[str] | None = None,
    baseline: Baseline | None = None,
) -> LintResult:
    """Lint files and directories; the package's main entry point.

    ``select`` takes rule ids and family prefixes (``REP0``, ``REP1``,
    comma-separable); the default is every rule.  ``baseline`` marks
    grandfathered findings so they do not gate.
    """
    selected = expand_select(select)
    result = LintResult()
    for path in _discover(paths):
        outcome = _lint_file(_display_path(path), path, selected, baseline)
        if isinstance(outcome, LintError):
            result.errors.append(outcome)
            continue
        result.findings.extend(outcome)
        result.files_checked += 1
    if baseline is not None:
        for entry in baseline.entries:
            entry_path = str(entry.get("path", ""))
            if entry_path and not Path(entry_path).exists():
                result.warnings.append(
                    f"stale baseline entry: {entry_path} "
                    f"({entry.get('rule', '?')}) no longer exists; "
                    "regenerate with --write-baseline"
                )
    return result


def changed_python_files(
    paths: list[str | Path], *, cwd: str | Path | None = None
) -> list[Path]:
    """Python files under ``paths`` that differ from git HEAD (modified,
    staged or untracked).  Raises :class:`RuntimeError` when git is
    unavailable or the CWD is not a repository."""
    base = Path(cwd) if cwd is not None else Path.cwd()

    def _git(*args: str) -> str:
        proc = subprocess.run(
            ["git", *args], cwd=base, capture_output=True, text=True
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"git {' '.join(args)} failed: {proc.stderr.strip()}"
            )
        return proc.stdout

    toplevel = Path(_git("rev-parse", "--show-toplevel").strip())
    names: set[str] = set()
    for args in (
        ("diff", "--name-only", "HEAD"),
        ("ls-files", "--others", "--exclude-standard"),
    ):
        names.update(
            line.strip() for line in _git(*args).splitlines() if line.strip()
        )
    scopes = [Path(p).resolve() for p in paths]
    out: list[Path] = []
    for name in sorted(names):
        if not name.endswith(".py"):
            continue
        candidate = (toplevel / name).resolve()
        if not candidate.is_file():
            continue  # deleted in the working tree
        if any(
            candidate == scope or candidate.is_relative_to(scope)
            for scope in scopes
        ):
            out.append(candidate)
    return out
