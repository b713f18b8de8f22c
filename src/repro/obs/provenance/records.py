"""The decision-provenance record vocabulary.

A :class:`DecisionRecord` describes one partition's Fig. 2 evaluation
for one epoch: the tree's threshold predicates (Eqs. 12/13/15/16 plus
the engine-specific gates) as :class:`PredicateEval` rows, the candidate
set (hub datacenters, suicide candidates, placement targets) as
:class:`CandidateEval` rows, the chosen action with its reason, and the
action's fate (applied or skipped, and by which gate), which the
engine's apply phase reports two phases later.

The ledger itself is columnar (:mod:`~repro.obs.provenance.ledger`):
records are read views, built on demand when a reader asks for them.
While recording, the decision tree writes plain tuples into a
:class:`DecisionDraft` and the recorder appends them to the columns.

``eq`` tags are a closed vocabulary (:data:`EQ_TAGS`); the explain
renderer maps them to the paper's notation (``tr_iit``, ``β·q̄``, ...).
``passed`` always means *the predicate's own comparison held*, exactly
as printed — e.g. ``eq14`` passed means the availability floor is met
(so the branch did **not** fire), while ``eq12`` passed means the
holder is overloaded (so the branch **did** fire).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "EQ_TAGS",
    "CANDIDATE_ROLES",
    "BRANCHES",
    "ACTION_KINDS",
    "FATES",
    "PredicateEval",
    "CandidateEval",
    "DecisionRecord",
    "DecisionDraft",
]

#: Closed vocabulary of predicate tags (see module docstring for the
#: ``passed`` convention of each).
EQ_TAGS: tuple[str, ...] = (
    "eq14",  # replica_count >= rmin (availability floor met)
    "eq14-next",  # replica_count - 1 >= rmin (floor met without one copy)
    "blocked",  # unserved > blocked_tolerance(q̄)
    "eq12",  # tr_iit >= β·q̄ (smoothed holder traffic)
    "eq12-raw",  # raw-epoch holder traffic >= β·q̄
    "eq16",  # tr_ij - tr_ik >= μ·t̄r_i (migration benefit)
    "maturity",  # replica age >= suicide warm-up epochs
    "headroom-blocked",  # unserved <= headroom · blocked tolerance
    "headroom-load",  # tr_iit >= headroom · β·q̄ (suicide hysteresis)
)

#: Candidate roles: what a (dc, sid) was considered *for*.
CANDIDATE_ROLES: tuple[str, ...] = (
    "hub",  # Eq. 13 forwarding-hub candidacy (load branch)
    "availability-target",  # Eq. 14 placement ordering
    "local-relief",  # same-DC replica when no hub qualified
    "migration-source",  # the cold replica Eq. 16 would move
    "suicide",  # Eq. 15 suicide candidacy
)

#: Which branch of the Fig. 2 tree the record's evaluation reached.
BRANCHES: tuple[str, ...] = ("availability", "load", "suicide", "none", "")

ACTION_KINDS: tuple[str, ...] = ("replicate", "migrate", "suicide", "none")

FATES: tuple[str, ...] = ("applied", "skipped", "none")


@dataclass(frozen=True, slots=True)
class PredicateEval:
    """One threshold comparison with both sides materialized.

    ``lhs`` and ``threshold`` carry the actual numbers (``tr_ikt`` vs
    ``γ·q̄`` and friends), so slack — how far the predicate was from
    flipping — is always ``lhs - threshold``.
    """

    eq: str
    subject: str
    lhs: float
    threshold: float
    passed: bool


@dataclass(frozen=True, slots=True)
class CandidateEval:
    """One considered alternative and why it was (not) chosen.

    ``dc`` is always set; ``sid`` is ``-1`` unless the candidate is a
    specific server (suicide / migration source).  ``value`` and
    ``threshold`` carry the score the role was judged on (traffic vs
    ``γ·q̄`` for hubs, served vs ``δ·q̄`` for suicide) when one applies.
    """

    role: str
    dc: int
    sid: int = -1
    verdict: str = "rejected"  # "chosen" | "rejected"
    cause: str = ""
    value: float = float("nan")
    threshold: float = float("nan")


@dataclass(slots=True)
class DecisionRecord:
    """One partition's Fig. 2 evaluation for one epoch.

    A read view: the ledger builds one from its columns when a reader
    asks, so changing it does not change the ledger.  The fate comes
    from the engine's apply phase (the decision happens in the observe
    phase, its fate two phases later).
    """

    epoch: int
    partition: int
    branch: str = "none"
    action: str = "none"
    reason: str = ""
    target_sid: int = -1
    target_dc: int = -1
    source_sid: int = -1
    fate: str = "none"
    fate_cause: str = ""
    # Context terms shared by every predicate of the decision.
    avg_query: float = float("nan")  # q̄_it (Eq. 10)
    holder_traffic: float = float("nan")  # tr_iit (Eq. 11, smoothed)
    unserved: float = float("nan")
    mean_traffic: float = float("nan")  # t̄r_i (Eq. 17)
    replica_count: int = -1
    rmin: int = -1
    holder_dc: int = -1
    predicates: tuple[PredicateEval, ...] = ()
    candidates: tuple[CandidateEval, ...] = ()

    @property
    def is_noop(self) -> bool:
        """True when nothing was decided and nothing was applied."""
        return self.action == "none" and self.fate == "none"


@dataclass(slots=True)
class DecisionDraft:
    """Mutable accumulator the decision tree writes into.

    Only exists while a recorder is attached; the recorder appends it
    to the ledger's columns at the end of ``decide_partition``.
    Predicates and candidates are kept as plain tuples in their ledger
    table's column order.
    """

    epoch: int
    partition: int
    avg_query: float
    holder_traffic: float
    unserved: float
    mean_traffic: float
    replica_count: int
    rmin: int
    holder_dc: int
    branch: str = "none"
    #: ``(eq, subject, lhs, threshold, passed)`` rows.
    predicates: list[tuple[str, str, float, float, bool]] = field(default_factory=list)
    #: ``(role, dc, sid, verdict, cause, value, threshold)`` rows.
    candidates: list[tuple[str, int, int, str, str, float, float]] = field(
        default_factory=list
    )

    def predicate(
        self, eq: str, subject: str, lhs: float, threshold: float, passed: bool
    ) -> None:
        self.predicates.append((eq, subject, float(lhs), float(threshold), bool(passed)))

    def candidate(
        self,
        role: str,
        dc: int,
        *,
        sid: int = -1,
        verdict: str = "rejected",
        cause: str = "",
        value: float = float("nan"),
        threshold: float = float("nan"),
    ) -> None:
        self.candidates.append(
            (role, int(dc), int(sid), verdict, cause, float(value), float(threshold))
        )

    def resolve_candidate(self, role: str, dc: int, verdict: str, cause: str) -> None:
        """Rewrite the verdict of an already-noted candidate.

        Used when a candidate's fate is only known after later
        alternatives were examined (e.g. the hub that finally accepted a
        replica).  A (role, dc) that was never noted is appended instead
        so the ledger never silently drops an outcome.
        """
        for i, (c_role, c_dc, sid, _, _, value, threshold) in enumerate(self.candidates):
            if c_role == role and c_dc == dc:
                self.candidates[i] = (role, c_dc, sid, verdict, cause, value, threshold)
                return
        self.candidate(role, dc, verdict=verdict, cause=cause)
