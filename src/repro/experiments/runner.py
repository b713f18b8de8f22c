"""Run one policy on one scenario and package the result."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError
from ..metrics.collector import MetricsCollector
from ..sim.engine import Simulation
from .scenarios import Scenario

__all__ = ["ENGINES", "ExperimentResult", "run_experiment"]

#: Selectable epoch engines.  ``scalar`` is the reference
#: implementation; ``columnar`` is the vectorized engine of
#: :mod:`repro.sim.columnar`, bit-identical by contract.
ENGINES: tuple[str, ...] = ("scalar", "columnar")


def _engine_class(engine: str) -> type[Simulation]:
    if engine == "scalar":
        return Simulation
    if engine == "columnar":
        from ..sim.columnar import ColumnarSimulation

        return ColumnarSimulation
    raise ConfigurationError(f"unknown engine {engine!r}; choose from {ENGINES}")


@dataclass(frozen=True)
class ExperimentResult:
    """One (policy, scenario) run with convenience accessors."""

    policy: str
    scenario: str
    metrics: MetricsCollector
    simulation: Simulation
    engine: str = "scalar"

    def series(self, name: str) -> np.ndarray:
        """A metric series as an array."""
        return self.metrics.array(name)

    def cumulative(self, name: str) -> np.ndarray:
        """Running total of a per-epoch series (the paper's "total ..."
        panels are cumulative)."""
        return self.metrics.series(name).cumulative()

    def steady(self, name: str, tail: int = 30) -> float:
        """Steady-state estimate: mean over the last ``tail`` epochs."""
        return self.metrics.series(name).tail_mean(tail)

    def final(self, name: str) -> float:
        return self.metrics.series(name).last()


def run_experiment(
    policy: str,
    scenario: Scenario,
    *,
    tracer=None,
    profiler=None,
    invariants=None,
    timeseries=None,
    sanitizer=None,
    work=None,
    provenance=None,
    engine: str = "scalar",
) -> ExperimentResult:
    """Run ``policy`` over the scenario's recorded trace and events.

    ``engine`` selects the epoch core: ``"scalar"`` (the reference
    :class:`~repro.sim.engine.Simulation`) or ``"columnar"`` (the
    vectorized :class:`~repro.sim.columnar.ColumnarSimulation`, which
    produces bit-identical fingerprint chains by contract).  The engine
    name is stamped into every attached artifact's metadata so saved
    runs are attributable.

    Every run constructs a fresh :class:`Simulation` from the scenario's
    config, so repeated calls are bit-identical.  The optional
    ``tracer`` / ``profiler`` / ``timeseries`` / ``work`` /
    ``provenance`` hooks (see :mod:`repro.obs`) pass straight through
    to the simulation and stay reachable afterwards via
    ``result.simulation``; so do the scenario's chaos schedule and the
    ``invariants`` spec (see :class:`~repro.sim.engine.Simulation`).
    Counters over the run's events come from its trace
    (:func:`repro.obs.analysis.registry_from_events`).  A time-series
    recorder and a provenance recorder get the run-identity keys
    (policy, scenario, seed, epochs, engine, then chaos when a schedule
    is set) stamped into their artifact metadata unless the caller
    already set them; a
    :class:`~repro.staticcheck.sanitizer.DeterminismSanitizer` gets the
    same keys except chaos in its fingerprint trail metadata.
    """
    simulation_class = _engine_class(engine)
    identity = {
        "policy": policy,
        "scenario": scenario.name,
        "seed": scenario.config.seed,
        "epochs": scenario.epochs,
        "engine": engine,
    }
    chaos = {} if scenario.chaos is None else {"chaos": scenario.chaos.name}
    for meta, keys in (
        (None if sanitizer is None else sanitizer.trail().meta, identity),
        (None if timeseries is None else timeseries.meta, identity | chaos),
        (None if provenance is None else provenance.meta, identity | chaos),
    ):
        if meta is not None:
            for key, value in keys.items():
                meta.setdefault(key, value)
    sim = simulation_class(
        scenario.config,
        policy=policy,
        workload=scenario.trace,
        events=scenario.events,
        tracer=tracer,
        profiler=profiler,
        chaos=scenario.chaos,
        invariants=invariants,
        timeseries=timeseries,
        sanitizer=sanitizer,
        work=work,
        provenance=provenance,
    )
    metrics = sim.run(scenario.epochs)
    return ExperimentResult(
        policy=policy,
        scenario=scenario.name,
        metrics=metrics,
        simulation=sim,
        engine=engine,
    )
