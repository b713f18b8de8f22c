"""Shared benchmark fixtures.

The experiment benchmarks regenerate the paper's evaluation through
:mod:`repro.experiments` at full evaluation scale (Table I parameters,
paper epoch counts): every figure from one run per scenario
(``bench_figures.py``), the ablations, the SLA scoreboard and the surge
studies.  Each times its regeneration once (``benchmark.pedantic`` —
the workload is deterministic, repeated rounds would measure the same
thing), prints the values the paper reports, and asserts the paper's
qualitative shape checks.
"""

from __future__ import annotations

import pytest

from repro.config import SimulationConfig


@pytest.fixture(scope="session")
def paper_config() -> SimulationConfig:
    """Table I parameters with the benchmark seed."""
    return SimulationConfig(seed=7)


def run_once(benchmark, func, *args, **kwargs):
    """Time ``func`` exactly once and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
