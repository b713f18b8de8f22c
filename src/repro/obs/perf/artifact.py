"""The versioned ``.prof.json`` profile artifact and its exporters.

One :class:`PerfProfile` bundles everything a profiling session
measured — per-phase wall-clock summaries, the kernel/function call
tree, the work-counter totals and the allocation accounting — into a
single versioned JSON document (``format: repro-prof``), mirroring the
``repro-tsdb`` artifact convention: a loader that validates format and
version, and renderers that never need the live run again.

Exporters:

* :meth:`PerfProfile.collapsed` — Brendan-Gregg collapsed-stack text
  (``a;b;c <self-microseconds>`` per line), pipeable into any external
  flamegraph tooling;
* :meth:`PerfProfile.speedscope` — a speedscope-compatible
  ``sampled``-type document (https://www.speedscope.app loads it
  directly);
* the self-contained flamegraph HTML lives in
  :mod:`repro.obs.perf.flamegraph` (zero external references, same
  contract as ``repro dashboard``).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any

from ...artifact import check_header, read_json, save_json, save_text
from ...errors import ReproError

__all__ = ["PerfProfile", "ProfileError", "PROF_FORMAT", "PROF_VERSION"]

PROF_FORMAT = "repro-prof"
PROF_VERSION = 1


class ProfileError(ReproError):
    """A profile artifact could not be read or is malformed."""


def _section(payload: dict[str, object], key: str, kind: type) -> Any:
    """A copy of one top-level section; absent or empty reads as empty."""
    value = payload.get(key) or kind()
    if not isinstance(value, kind):
        raise ProfileError(
            f"{PROF_FORMAT} field {key!r} must be a JSON "
            f"{'object' if kind is dict else 'array'}, got {type(value).__name__}"
        )
    return kind(value)


@dataclass
class PerfProfile:
    """One profiling session's complete, serialisable measurement.

    Attributes
    ----------
    meta:
        Run identity (policy, scenario, seed, epochs, profiler mode).
    phases:
        Per engine phase: ``{count, total, mean, p50, p95}`` seconds
        (the :class:`~repro.obs.profiler.PhaseStats` dict shape).
    nodes:
        The call tree: ``{stack: [...], count, total_s, self_s}`` per
        distinct stack path, sorted by path.
    counters:
        Work-counter totals (``partitions_scanned``,
        ``rng_draws/<stream>``, ...), hardware-independent.
    allocations:
        ``{"phase_bytes": {phase: net_bytes}, "top_sites": [...]}``
        from tracemalloc; empty dicts/lists when allocation accounting
        was off.
    """

    meta: dict[str, object] = field(default_factory=dict)
    phases: dict[str, dict[str, float]] = field(default_factory=dict)
    nodes: list[dict[str, object]] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    allocations: dict[str, object] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "format": PROF_FORMAT,
            "version": PROF_VERSION,
            "meta": self.meta,
            "phases": self.phases,
            "nodes": self.nodes,
            "counters": self.counters,
            "allocations": self.allocations,
        }

    def save(self, path: str | pathlib.Path) -> None:
        save_json(path, self.to_dict())

    @classmethod
    def from_dict(cls, payload: object) -> "PerfProfile":
        payload = check_header(payload, PROF_FORMAT, PROF_VERSION, ProfileError)
        return cls(
            meta=_section(payload, "meta", dict),
            phases=_section(payload, "phases", dict),
            nodes=_section(payload, "nodes", list),
            counters=_section(payload, "counters", dict),
            allocations=_section(payload, "allocations", dict),
        )

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "PerfProfile":
        return cls.from_dict(read_json(path, ProfileError, "profile"))

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------
    def total_seconds(self) -> float:
        """Wall-clock across the root stacks (depth-1 node totals)."""
        return sum(
            float(node["total_s"]) for node in self.nodes if len(node["stack"]) == 1
        )

    def stack_keys(self) -> list[str]:
        """Every stack path as a ``a;b;c`` string, sorted."""
        return sorted(";".join(node["stack"]) for node in self.nodes)

    def hottest(self, top_n: int = 10) -> list[dict[str, object]]:
        """Nodes ranked by self-time, hottest first."""
        ranked = sorted(self.nodes, key=lambda n: -float(n["self_s"]))
        return ranked[:top_n]

    # ------------------------------------------------------------------
    # Exporters
    # ------------------------------------------------------------------
    def collapsed(self) -> str:
        """Collapsed-stack text: one ``a;b;c <self-us>`` line per stack.

        Zero-weight stacks are kept — the *shape* of the tree (which
        stacks exist) is the deterministic part two same-seed runs must
        agree on, and dropping cold stacks would make that comparison
        depend on timer jitter.
        """
        lines = [
            f"{';'.join(node['stack'])} {max(0, round(float(node['self_s']) * 1e6))}"
            for node in self.nodes
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self) -> dict[str, object]:
        """A speedscope ``sampled`` profile document (JSON-ready)."""
        frame_index: dict[str, int] = {}
        frames: list[dict[str, str]] = []
        samples: list[list[int]] = []
        weights: list[float] = []
        for node in self.nodes:
            self_s = float(node["self_s"])
            stack_ids = []
            for label in node["stack"]:
                if label not in frame_index:
                    frame_index[label] = len(frames)
                    frames.append({"name": label})
                stack_ids.append(frame_index[label])
            if self_s > 0.0:
                samples.append(stack_ids)
                weights.append(self_s)
        total = sum(weights)
        name = str(self.meta.get("name") or self.meta.get("policy") or "repro")
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": f"repro profile: {name}",
                    "unit": "seconds",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "exporter": f"{PROF_FORMAT} v{PROF_VERSION}",
        }

    def save_speedscope(self, path: str | pathlib.Path) -> None:
        save_text(path, json.dumps(self.speedscope(), separators=(",", ":")) + "\n")
