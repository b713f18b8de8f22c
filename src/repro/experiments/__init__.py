"""Experiment harnesses: one entry per paper figure (Section III).

* :mod:`repro.experiments.scenarios` — named workload/event scenarios
  (random query, flash crowd, node failure & recovery);
* :mod:`repro.experiments.runner` — run one policy on one scenario;
* :mod:`repro.experiments.comparison` — run all four policies on the
  *identical* recorded trace;
* :mod:`repro.experiments.figures` — ``fig3`` .. ``fig10`` functions
  that regenerate each figure's series and check its qualitative shape;
* :mod:`repro.experiments.report` — markdown rendering for
  EXPERIMENTS.md.
"""

import importlib
from typing import Any

from .comparison import ComparisonResult, compare_policies
from .runner import ExperimentResult, run_experiment
from .scenarios import (
    Scenario,
    failure_recovery_scenario,
    flash_crowd_scenario,
    random_query_scenario,
)

# Multi-run figure and study harnesses, loaded only by the commands that run them.
_DEFERRED = {
    "FigureResult": "figures",
    "fig3_utilization": "figures",
    "fig4_replica_number": "figures",
    "fig5_replication_cost": "figures",
    "fig6_migration_times": "figures",
    "fig7_migration_cost": "figures",
    "fig8_load_imbalance": "figures",
    "fig9_path_length": "figures",
    "fig10_failure_recovery": "figures",
    "alpha_sweep": "ablations",
    "placement_ablation": "ablations",
    "threshold_sweep": "ablations",
    "SlaResult": "sla",
    "sla_comparison": "sla",
    "SurgeResult": "surges",
    "location_shift_surge": "surges",
    "popularity_shift_surge": "surges",
}

__all__ = [
    "Scenario",
    "random_query_scenario",
    "flash_crowd_scenario",
    "failure_recovery_scenario",
    "ExperimentResult",
    "run_experiment",
    "ComparisonResult",
    "compare_policies",
    "FigureResult",
    "fig3_utilization",
    "fig4_replica_number",
    "fig5_replication_cost",
    "fig6_migration_times",
    "fig7_migration_cost",
    "fig8_load_imbalance",
    "fig9_path_length",
    "fig10_failure_recovery",
    "SlaResult",
    "sla_comparison",
    "SurgeResult",
    "location_shift_surge",
    "popularity_shift_surge",
    "alpha_sweep",
    "threshold_sweep",
    "placement_ablation",
]


def __getattr__(name: str) -> Any:
    try:
        submodule = _DEFERRED[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{submodule}", __name__), name)
    globals()[name] = value
    return value
