"""Phase profiling: where does an epoch's wall-time go?

``Simulation.step`` has six phases (DESIGN.md Section 3): apply
membership events, generate the workload, serve it, observe/decide,
apply the actions, record metrics.  A benchmark that only times whole
runs can say *that* a change regressed but not *where*; this profiler
attributes every epoch's wall-clock to a phase so ``benchmarks/``
regressions point at the responsible loop.

Usage::

    profiler = PhaseProfiler()
    sim = Simulation(config, profiler=profiler)
    sim.run(200)
    print(profiler.render_table())

:class:`NullProfiler` (the engine default) hands out a shared no-op
context manager, so the un-profiled hot path pays six empty ``with``
blocks per epoch — nanoseconds against a multi-millisecond serve phase.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = ["ENGINE_PHASES", "PhaseStats", "PhaseProfiler", "NullProfiler"]

#: The engine's phases, in execution order.  Test-asserted stable: the
#: benchmark tooling keys its regression attribution on these names.
ENGINE_PHASES: tuple[str, ...] = (
    "membership",
    "workload",
    "serve",
    "observe",
    "apply",
    "record",
)


@dataclass(frozen=True)
class PhaseStats:
    """Summary of one phase's per-epoch wall-clock samples (seconds)."""

    phase: str
    count: int
    total: float
    mean: float
    p50: float
    p95: float


def _percentile(ordered: list[float], q: float) -> float:
    """Linearly-interpolated percentile of an already-sorted sample.

    Interpolation, not nearest-rank: ``round`` banker-rounds the
    two-sample median's rank ``0.5`` down to 0, reporting the *minimum*
    as p50 — exactly the sample size a 2-epoch smoke run produces.
    """
    if not ordered:
        return 0.0
    position = q * (len(ordered) - 1)
    lower = min(len(ordered) - 1, max(0, int(position)))
    upper = min(len(ordered) - 1, lower + 1)
    fraction = position - lower
    if fraction <= 0.0 or lower == upper:
        return ordered[lower]
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


class _PhaseTimer:
    """Reusable context manager timing one phase entry."""

    __slots__ = ("_profiler", "_phase", "_t0")

    def __init__(self, profiler: PhaseProfiler, phase: str) -> None:
        self._profiler = profiler
        self._phase = phase

    def __enter__(self) -> _PhaseTimer:
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self._profiler._samples[self._phase].append(time.perf_counter() - self._t0)


class _NullTimer:
    """No-op context manager shared by every :class:`NullProfiler`."""

    __slots__ = ()

    def __enter__(self) -> _NullTimer:
        return self

    def __exit__(self, *exc: object) -> None:
        pass


_NULL_TIMER = _NullTimer()


class PhaseProfiler:
    """Collect per-epoch wall-clock samples for each engine phase."""

    enabled: bool = True

    def __init__(self) -> None:
        self._samples: dict[str, list[float]] = {name: [] for name in ENGINE_PHASES}
        self._timers: dict[str, _PhaseTimer] = {
            name: _PhaseTimer(self, name) for name in ENGINE_PHASES
        }

    def phase(self, name: str) -> _PhaseTimer:
        """Context manager timing one entry of engine phase ``name``."""
        return self._timers[name]

    # ------------------------------------------------------------------
    def latest(self) -> dict[str, float]:
        """The most recent sample of every phase that has one.

        Sampled by the time-series recorder at the end of each epoch;
        note the ``record`` phase is still open at that point, so its
        entry lags one epoch behind the other five.
        """
        return {
            name: samples[-1]
            for name, samples in self._samples.items()
            if samples
        }

    def phase_timings(self) -> dict[str, PhaseStats]:
        """Per-phase summaries, engine phases first, in stable order."""
        out: dict[str, PhaseStats] = {}
        for name, samples in self._samples.items():
            ordered = sorted(samples)
            total = sum(samples)
            out[name] = PhaseStats(
                phase=name,
                count=len(samples),
                total=total,
                mean=total / len(samples) if samples else 0.0,
                p50=_percentile(ordered, 0.50),
                p95=_percentile(ordered, 0.95),
            )
        return out

    def reset(self) -> None:
        for samples in self._samples.values():
            samples.clear()

    def render_table(self) -> str:
        """Fixed-width per-phase table (milliseconds), for the CLI."""
        timings = self.phase_timings()
        grand_total = sum(stats.total for stats in timings.values()) or 1.0
        lines = [
            f"{'phase':>12} {'epochs':>7} {'total ms':>10} "
            f"{'mean ms':>9} {'p50 ms':>9} {'p95 ms':>9} {'share':>7}"
        ]
        for name, stats in timings.items():
            lines.append(
                f"{name:>12} {stats.count:>7d} {stats.total * 1e3:>10.2f} "
                f"{stats.mean * 1e3:>9.3f} {stats.p50 * 1e3:>9.3f} "
                f"{stats.p95 * 1e3:>9.3f} {stats.total / grand_total:>6.1%}"
            )
        return "\n".join(lines)


class NullProfiler:
    """Profiling off: every phase shares one stateless no-op timer."""

    enabled: bool = False

    def phase(self, name: str) -> _NullTimer:
        return _NULL_TIMER

    def latest(self) -> dict[str, float]:
        return {}

    def phase_timings(self) -> dict[str, PhaseStats]:
        return {}

    def reset(self) -> None:
        pass
