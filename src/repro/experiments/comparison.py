"""Run all four algorithms on one scenario (the paper's chart layout).

Every figure in Section III overlays the four algorithms on identical
workloads; :func:`compare_policies` reproduces that by replaying one
recorded trace through four fresh simulations.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .runner import ExperimentResult, run_experiment
from .scenarios import Scenario

__all__ = ["POLICIES", "ComparisonResult", "compare_policies"]

#: The paper's four algorithms, in its legend order.
POLICIES: tuple[str, ...] = ("request", "owner", "random", "rfh")


@dataclass(frozen=True)
class ComparisonResult:
    """All four policies' results on one scenario."""

    scenario: str
    results: dict[str, ExperimentResult]

    def __getitem__(self, policy: str) -> ExperimentResult:
        return self.results[policy]

    def policies(self) -> tuple[str, ...]:
        return tuple(self.results)

    def head(self, epochs: int) -> ComparisonResult:
        """Every run's metrics cut to their first ``epochs`` epochs
        (1..recorded); each ``simulation`` stays the full run."""
        return ComparisonResult(
            scenario=self.scenario,
            results={
                policy: replace(res, metrics=res.metrics.head(epochs))
                for policy, res in self.results.items()
            },
        )

    def series_table(self, name: str) -> dict[str, np.ndarray]:
        """One metric series for every policy."""
        return {policy: res.series(name) for policy, res in self.results.items()}

    def steady_table(self, name: str, tail: int = 30) -> dict[str, float]:
        """Steady-state value of one metric for every policy."""
        return {policy: res.steady(name, tail) for policy, res in self.results.items()}

    def ranking(self, name: str, tail: int = 30, descending: bool = True) -> list[str]:
        """Policies ordered by steady-state value of a metric."""
        table = self.steady_table(name, tail)
        return sorted(table, key=lambda p: table[p], reverse=descending)


def compare_policies(
    scenario: Scenario,
    policies: tuple[str, ...] = POLICIES,
    *,
    observers: Callable[[str], dict[str, object]] | None = None,
    engine: str = "scalar",
) -> ComparisonResult:
    """Run every policy on the scenario's shared trace.

    ``observers``, called with each policy name before its run, returns
    that run's observer keyword arguments for
    :func:`~repro.experiments.runner.run_experiment` (``tracer``,
    ``profiler``, ``invariants``, ``timeseries``, ``sanitizer``,
    ``provenance``).  A tracer may be shared by every run, since each
    record carries a ``policy`` field; profilers, recorders, sanitizers
    and ledgers must be fresh per policy, so that one algorithm's phase
    timings, trajectory, fingerprint chain or decisions never mix with
    another's.  They stay reachable through ``result[policy].simulation``.
    ``engine`` selects the epoch core for every run.
    """
    results = {}
    for policy in policies:
        kwargs = observers(policy) if observers is not None else {}
        results[policy] = run_experiment(policy, scenario, engine=engine, **kwargs)
    return ComparisonResult(scenario=scenario.name, results=results)
