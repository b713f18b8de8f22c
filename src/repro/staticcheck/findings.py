"""Finding records and the analysis rule registry.

Every rule this package enforces exists because one class of bug would
silently corrupt the reproduction's bit-identical guarantee (golden
chaos traces, ``repro diff`` gating, the paper's same-trace policy
comparisons).  The registry below is the single source of truth: the
linter, the reports, the baseline format and the docs all read it.

Rules are grouped into families by id prefix:

* ``REP0xx`` — determinism (per-file AST);
* ``REP1xx`` — numeric-kernel purity (per-file AST, scoped to kernel
  directories via :attr:`Rule.scope_paths`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

__all__ = ["ALL_RULE_IDS", "Finding", "RULES", "Rule"]


@dataclass(frozen=True)
class Rule:
    """One analysis rule: stable id, summary and rationale."""

    rule_id: str
    summary: str
    rationale: str
    #: Path suffixes (posix) where the rule does not apply — the one
    #: module that legitimately owns the flagged construct.
    exempt_paths: tuple[str, ...] = ()
    #: Posix path fragments the rule is *scoped to*: when non-empty the
    #: rule only fires on files whose path contains one of them.  Used
    #: by the REP1xx kernel-purity family, which would drown
    #: general-purpose code in noise.
    scope_paths: tuple[str, ...] = ()
    #: One-line autofix hint appended to every message for this rule.
    hint: str = ""


#: Directories holding numeric kernels — the REP1xx family only fires
#: under these fragments.  Future kernel packages (mean-field backend,
#: hierarchy-aware placement) add their directory here.
_KERNEL_SCOPE: tuple[str, ...] = ("sim/columnar/",)

#: The project's analysis rules, keyed by stable id.  Ids are append
#: only: a retired rule keeps its number so old ``noqa`` comments and
#: baselines never silently change meaning.  Retired, never to be
#: reused: REP004 (float equality), REP005 (mutable default; ruff
#: B006), REP103 (hidden array copy), REP104 (loop over an ndarray),
#: REP201–REP205 (process, queue and thread lifecycle) and
#: AUD001–AUD003 (engine parity, reason vocabulary, artifact
#: versioning).
RULES: dict[str, Rule] = {
    rule.rule_id: rule
    for rule in (
        Rule(
            "REP001",
            "unseeded or global RNG use",
            "Draws from `random.*` or `numpy.random.*` module state (or an "
            "unseeded `Random()`/`default_rng()`) bypass the per-run "
            "`RngTree`; one stray draw perturbs every stream that shares "
            "the global state and breaks same-seed reproducibility.  Draw "
            "from a named `rng_tree.stream(...)` instead.",
            exempt_paths=("sim/rng.py",),
        ),
        Rule(
            "REP002",
            "wall-clock read",
            "`time.time()`, `perf_counter()` and `datetime.now()` differ "
            "between runs by construction; any value derived from them "
            "that reaches simulation state or output breaks bit-identical "
            "replay.  Timing belongs in `obs/profiler.py` and "
            "`obs/perf/profiler.py`, which are measurement-only by "
            "contract.",
            exempt_paths=("obs/profiler.py", "obs/perf/profiler.py"),
        ),
        Rule(
            "REP003",
            "order-sensitive iteration over a set",
            "Iterating a `set`/`frozenset` (or set algebra over dict "
            "views) feeds hash order into an ordering-sensitive sink — "
            "list building, first-match selection, RNG draws, float "
            "accumulation.  Hash order is not part of the language "
            "contract (string hashes are salted per process); wrap the "
            "iterable in `sorted(...)` or use an order-insensitive "
            "reduction.",
        ),
        Rule(
            "REP006",
            "non-literal RNG stream name",
            "`rng_tree.stream(name)` with a computed name makes the "
            "stream registry impossible to audit statically: `repro lint` "
            "and reviewers can no longer enumerate every stream a run "
            "draws from.  Pass a string literal at the call site.",
        ),
        # --- Family REP1xx: numeric-kernel purity (kernel dirs only) ---
        Rule(
            "REP101",
            "implicit dtype promotion in a kernel",
            "Mixing int64 and float64 arrays (or true-dividing an int64 "
            "array) relies on numpy's implicit promotion rules; the "
            "columnar engine's bit-identical contract requires every "
            "dtype transition to be explicit so scalar and vector paths "
            "round identically.  Summing a bool array upcasts twice "
            "(bool→int64→float64) behind the caller's back.",
            scope_paths=_KERNEL_SCOPE,
            hint="cast at the boundary with .astype(np.float64) (or use "
            "np.count_nonzero / an explicit dtype= for bool reductions)",
        ),
        Rule(
            "REP102",
            "order-sensitive reduction over unordered input",
            "Float accumulation is not associative: reducing a set (or a "
            "generator over one) feeds hash order into the rounding "
            "sequence, so the same values can sum to different bits on "
            "different runs.  Kernel reductions must consume a "
            "deterministically ordered sequence.",
            scope_paths=_KERNEL_SCOPE,
            hint="sort first — np.add.reduce(np.sort(...)) or "
            "sum(sorted(...))",
        ),
    )
}

ALL_RULE_IDS: tuple[str, ...] = tuple(sorted(RULES))


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a source line.

    ``path`` is stored posix-relative to the lint invocation's working
    directory when possible so baselines and CI annotations are
    machine-independent.
    """

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: The stripped source line, for reports and baseline fingerprints.
    snippet: str = ""
    #: 0-based index of this finding among same-(path, rule, snippet)
    #: findings in the file — keeps fingerprints stable when unrelated
    #: lines move, yet distinct for repeated identical lines.
    occurrence: int = 0
    #: Set when a `# repro: noqa[...]` comment on the line covers it.
    suppressed: bool = field(default=False, compare=False)
    #: Set when the committed baseline grandfathers it.
    baselined: bool = field(default=False, compare=False)

    @property
    def fingerprint(self) -> str:
        """Line-number-independent identity used by the baseline."""
        payload = f"{self.path}\0{self.rule_id}\0{self.snippet}\0{self.occurrence}"
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def active(self) -> bool:
        """Whether the finding should gate (not suppressed, not baselined)."""
        return not (self.suppressed or self.baselined)

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_dict(self) -> dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
            "snippet": self.snippet,
            "fingerprint": self.fingerprint,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }
