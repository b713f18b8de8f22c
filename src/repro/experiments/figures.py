"""Figure regeneration harnesses (paper Section III, Figs. 3–10).

Each ``figN_*`` function is a pure function of the runs it is given:
it returns a :class:`FigureResult` holding the per-policy series for
every panel plus a dictionary of *shape checks* — the qualitative
claims the paper makes about that figure (who wins, what collapses
where, what recovers).  :func:`all_figures` runs each scenario once per
policy, as the paper compares the four algorithms on one recorded trace
per setting (§III), and hands every figure the runs it reads.
Benchmarks and EXPERIMENTS.md are generated from these results, and the
checks double as regression tests for the reproduction.

Absolute numbers are not compared against the paper (our WAN geometry
and capacity draws are synthetic, see DESIGN.md); the checks encode the
orderings and dynamics the paper reports.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from ..config import SimulationConfig
from ..sim.events import MassFailureEvent
from .comparison import ComparisonResult, compare_policies
from .runner import ExperimentResult, run_experiment
from .scenarios import (
    failure_recovery_scenario,
    flash_crowd_scenario,
    random_query_scenario,
)

__all__ = [
    "FIGURES",
    "FigureResult",
    "fig3_utilization",
    "fig4_replica_number",
    "fig5_replication_cost",
    "fig6_migration_times",
    "fig7_migration_cost",
    "fig8_load_imbalance",
    "fig9_path_length",
    "fig10_failure_recovery",
    "all_figures",
]


@dataclass(frozen=True)
class FigureResult:
    """Regenerated series + qualitative shape checks for one figure."""

    figure: str
    #: ``{panel: {policy: series}}`` — e.g. ``{"3a": {"rfh": [...]}}``.
    panels: dict[str, dict[str, np.ndarray]]
    #: ``{check name: passed}`` — the paper's qualitative claims.
    checks: dict[str, bool]
    #: Free-form context (steady-state numbers etc.) for reporting.
    notes: dict[str, float] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when every shape check holds."""
        return all(self.checks.values())

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks.items() if not ok)


def _steady(series: np.ndarray, tail: int = 30) -> float:
    return float(series[-tail:].mean())


def _stage_windows(epochs: int, stages: int = 4) -> list[tuple[int, int]]:
    """Last 40 % of each flash-crowd stage (past the adaptation front)."""
    length = epochs // stages
    out = []
    for k in range(stages):
        start = k * length
        out.append((start + int(0.6 * length), start + length))
    return out


# ----------------------------------------------------------------------
# Fig. 3 — replica utilization rate
# ----------------------------------------------------------------------
def fig3_utilization(random: ComparisonResult, flash: ComparisonResult) -> FigureResult:
    """Fig. 3(a)/(b): average replica utilization, both query settings.

    Paper claims checked: under random query RFH is highest and random
    lowest, with the full ordering rfh > request > owner > random; under
    flash crowd the request-oriented algorithm collapses after the first
    stage change while RFH dips once and recovers to roughly its
    pre-shift level.  The stage windows and the shift come from the
    flash run's length.
    """
    util_a = random.series_table("utilization")
    util_b = flash.series_table("utilization")
    steady_a = {p: _steady(s) for p, s in util_a.items()}

    epochs_flash = len(util_b["rfh"])
    windows = _stage_windows(epochs_flash)
    s1 = {p: float(s[windows[0][0] : windows[0][1]].mean()) for p, s in util_b.items()}
    s2 = {p: float(s[windows[1][0] : windows[1][1]].mean()) for p, s in util_b.items()}
    s4 = {p: float(s[windows[3][0] : windows[3][1]].mean()) for p, s in util_b.items()}
    shift = epochs_flash // 4
    rfh_flash = util_b["rfh"]
    dip = float(rfh_flash[shift : shift + 15].mean())

    checks = {
        "3a rfh highest utilization": steady_a["rfh"] == max(steady_a.values()),
        "3a random lowest utilization": steady_a["random"] == min(steady_a.values()),
        "3a full ordering rfh>request>owner>random": (
            steady_a["rfh"] > steady_a["request"] > steady_a["owner"] > steady_a["random"]
        ),
        "3b request collapses after stage change": s2["request"] < 0.8 * s1["request"],
        "3b rfh dips at the shift": dip < s1["rfh"],
        "3b rfh recovers close to initial": s4["rfh"] >= 0.85 * s1["rfh"],
        "3b rfh best after adaptation": s4["rfh"] == max(s4.values()),
    }
    notes = {f"3a steady {p}": v for p, v in steady_a.items()}
    notes.update({f"3b stage1 {p}": v for p, v in s1.items()})
    notes.update({f"3b stage4 {p}": v for p, v in s4.items()})
    notes["3b rfh dip"] = dip
    return FigureResult("fig3", {"3a": util_a, "3b": util_b}, checks, notes)


# ----------------------------------------------------------------------
# Fig. 4 — replica number
# ----------------------------------------------------------------------
def fig4_replica_number(random: ComparisonResult, flash: ComparisonResult) -> FigureResult:
    """Fig. 4(a-d): total and per-partition replica counts.

    Paper claims checked: random needs the most replicas and request the
    fewest, with owner in between and RFH close to request; under flash
    crowd RFH's count stays near its random-query level while the
    static algorithms inflate.
    """
    total_a = random.series_table("total_replicas")
    total_b = flash.series_table("total_replicas")
    avg_a = random.series_table("avg_replicas")
    avg_b = flash.series_table("avg_replicas")
    end_a = {p: float(s[-1]) for p, s in total_a.items()}
    end_b = {p: float(s[-1]) for p, s in total_b.items()}

    checks = {
        "4ab random needs the most replicas": end_a["random"] == max(end_a.values()),
        "4ab ordering random>owner>rfh": end_a["random"] > end_a["owner"] > end_a["rfh"],
        "4ab request fewest replicas": end_a["request"] == min(end_a.values()),
        "4ab rfh close to request (within 2x)": end_a["rfh"] <= 2.0 * end_a["request"],
        "4cd rfh flash count near random-query level": (
            abs(end_b["rfh"] - end_a["rfh"]) <= 0.35 * end_a["rfh"]
        ),
        "4cd random inflates under flash": end_b["random"] >= end_a["random"],
        "4cd rfh fewer than random and owner under flash": (
            end_b["rfh"] < end_b["random"] and end_b["rfh"] < end_b["owner"]
        ),
    }
    notes = {f"4a end {p}": v for p, v in end_a.items()}
    notes.update({f"4c end {p}": v for p, v in end_b.items()})
    return FigureResult(
        "fig4",
        {"4a": total_a, "4b": avg_a, "4c": total_b, "4d": avg_b},
        checks,
        notes,
    )


# ----------------------------------------------------------------------
# Fig. 5 — replication cost
# ----------------------------------------------------------------------
def fig5_replication_cost(random: ComparisonResult, flash: ComparisonResult) -> FigureResult:
    """Fig. 5(a-d): cumulative total and per-replica replication cost.

    Paper claims checked: the random algorithm pays by far the highest
    total and average cost in both settings; RFH pays less than random
    and less than request per unit under flash crowd (long-distance
    request replication).
    """
    def panels(cmp: ComparisonResult) -> tuple[dict, dict]:
        total = {
            p: cmp[p].metrics.series("replication_cost").cumulative() for p in cmp.policies()
        }
        average = {}
        for p in cmp.policies():
            cum_cost = cmp[p].metrics.series("replication_cost").cumulative()
            cum_events = np.maximum(
                cmp[p].metrics.series("replication_count").cumulative(), 1.0
            )
            average[p] = cum_cost / cum_events
        return total, average

    total_a, avg_a = panels(random)
    total_b, avg_b = panels(flash)
    end_total_a = {p: float(s[-1]) for p, s in total_a.items()}
    end_total_b = {p: float(s[-1]) for p, s in total_b.items()}
    end_avg_b = {p: float(s[-1]) for p, s in avg_b.items()}

    checks = {
        "5ab random highest total cost": end_total_a["random"] == max(end_total_a.values()),
        "5ab rfh cheaper than random": end_total_a["rfh"] < end_total_a["random"],
        "5cd random highest total cost under flash": (
            end_total_b["random"] == max(end_total_b.values())
        ),
        "5cd request average cost above rfh under flash": (
            end_avg_b["request"] > end_avg_b["rfh"]
        ),
        "5cd rfh total below random under flash": end_total_b["rfh"] < end_total_b["random"],
    }
    notes = {f"5a total {p}": v for p, v in end_total_a.items()}
    notes.update({f"5c total {p}": v for p, v in end_total_b.items()})
    notes.update({f"5d avg {p}": v for p, v in end_avg_b.items()})
    return FigureResult(
        "fig5",
        {"5a": total_a, "5b": avg_a, "5c": total_b, "5d": avg_b},
        checks,
        notes,
    )


# ----------------------------------------------------------------------
# Fig. 6 — migration times
# ----------------------------------------------------------------------
def fig6_migration_times(random: ComparisonResult, flash: ComparisonResult) -> FigureResult:
    """Fig. 6(a-d): cumulative migration counts.

    Paper claims checked: request migrates the most in both settings;
    random never migrates; owner's migrations are (near) zero absent
    membership changes; RFH migrates less than request; flash crowd
    forces more migrations than random query.
    """
    total_a = {
        p: random[p].metrics.series("migration_count").cumulative()
        for p in random.policies()
    }
    total_b = {
        p: flash[p].metrics.series("migration_count").cumulative()
        for p in flash.policies()
    }
    end_a = {p: float(s[-1]) for p, s in total_a.items()}
    end_b = {p: float(s[-1]) for p, s in total_b.items()}

    checks = {
        "6ab request migrates the most": end_a["request"] == max(end_a.values()),
        # Exact zero is the claim: counts are integral-valued floats.
        "6ab random never migrates": end_a["random"] == 0.0,
        "6ab owner migrations near zero": end_a["owner"] <= 5.0,
        "6ab rfh migrates less than request": end_a["rfh"] < end_a["request"],
        "6cd request migrates the most under flash": end_b["request"] == max(end_b.values()),
        "6cd flash forces more request migrations": end_b["request"] > end_a["request"],
        "6cd rfh migrates less than request under flash": end_b["rfh"] < end_b["request"],
    }
    notes = {f"6a total {p}": v for p, v in end_a.items()}
    notes.update({f"6c total {p}": v for p, v in end_b.items()})
    return FigureResult("fig6", {"6a": total_a, "6c": total_b}, checks, notes)


# ----------------------------------------------------------------------
# Fig. 7 — migration cost
# ----------------------------------------------------------------------
def fig7_migration_cost(random: ComparisonResult, flash: ComparisonResult) -> FigureResult:
    """Fig. 7(a-d): cumulative migration cost.

    Paper claims checked: request pays the highest migration cost;
    random and owner pay zero; RFH pays less than request; flash crowd
    costs more than random query for the migrating algorithms.
    """
    total_a = {
        p: random[p].metrics.series("migration_cost").cumulative()
        for p in random.policies()
    }
    total_b = {
        p: flash[p].metrics.series("migration_cost").cumulative()
        for p in flash.policies()
    }
    end_a = {p: float(s[-1]) for p, s in total_a.items()}
    end_b = {p: float(s[-1]) for p, s in total_b.items()}

    checks = {
        "7ab request pays the most": end_a["request"] == max(end_a.values()),
        # Exact zero is the claim: these policies never replicate.
        "7ab random pays zero": end_a["random"] == 0.0,
        "7ab owner pays zero": end_a["owner"] == 0.0,
        "7ab rfh pays less than request": end_a["rfh"] < end_a["request"],
        "7cd flash costlier than random query": end_b["request"] > end_a["request"],
        "7cd rfh below request under flash": end_b["rfh"] < end_b["request"],
    }
    notes = {f"7a total {p}": v for p, v in end_a.items()}
    notes.update({f"7c total {p}": v for p, v in end_b.items()})
    return FigureResult("fig7", {"7a": total_a, "7c": total_b}, checks, notes)


# ----------------------------------------------------------------------
# Fig. 8 — load imbalance
# ----------------------------------------------------------------------
def fig8_load_imbalance(random: ComparisonResult, flash: ComparisonResult) -> FigureResult:
    """Fig. 8(a/b): per-replica load imbalance (normalised Eq. 26).

    Paper claims checked: RFH's blocking-probability placement gives the
    best (lowest) load balance figure in both settings, and random — the
    fully blind placement — the worst.
    """
    imb_a = random.series_table("load_imbalance")
    imb_b = flash.series_table("load_imbalance")
    steady_a = {p: _steady(s) for p, s in imb_a.items()}
    steady_b = {p: _steady(s) for p, s in imb_b.items()}

    checks = {
        "8a rfh best balance": steady_a["rfh"] == min(steady_a.values()),
        "8a random worst balance": steady_a["random"] == max(steady_a.values()),
        "8b rfh best balance under flash": steady_b["rfh"] == min(steady_b.values()),
        "8b random worst balance under flash": steady_b["random"] == max(steady_b.values()),
    }
    notes = {f"8a steady {p}": v for p, v in steady_a.items()}
    notes.update({f"8b steady {p}": v for p, v in steady_b.items()})
    return FigureResult("fig8", {"8a": imb_a, "8b": imb_b}, checks, notes)


# ----------------------------------------------------------------------
# Fig. 9 — lookup path length
# ----------------------------------------------------------------------
def fig9_path_length(random: ComparisonResult, flash: ComparisonResult) -> FigureResult:
    """Fig. 9(a/b): mean lookup path length.

    Paper claims checked: every algorithm's path drops sharply from the
    replica-free start; owner-oriented stays the longest (replicas sit
    next to the holder, so queries travel nearly the whole route); RFH
    ends shorter than owner in both settings.
    """
    path_a = random.series_table("path_length")
    path_b = flash.series_table("path_length")
    steady_a = {p: _steady(s, tail=20) for p, s in path_a.items()}
    steady_b = {p: _steady(s, tail=40) for p, s in path_b.items()}
    initial = {p: float(s[:3].mean()) for p, s in path_a.items()}

    # The comparison's policy order: the mean's last bits depend on it.
    policies = random.policies()
    mean_drop = float(
        np.mean([1.0 - steady_a[p] / max(initial[p], 1e-9) for p in policies])
    )
    checks = {
        "9a paths shorten for every policy": all(
            initial[p] > steady_a[p] for p in policies
        ),
        "9a mean drop is sharp (>=30%)": mean_drop >= 0.30,
        "9a owner longest path": steady_a["owner"] == max(steady_a.values()),
        "9a rfh shorter than owner": steady_a["rfh"] < steady_a["owner"],
        "9b owner longest path under flash": steady_b["owner"] == max(steady_b.values()),
        "9b rfh shorter than owner under flash": steady_b["rfh"] < steady_b["owner"],
    }
    notes = {f"9a steady {p}": v for p, v in steady_a.items()}
    notes.update({f"9a initial {p}": v for p, v in initial.items()})
    notes.update({f"9b steady {p}": v for p, v in steady_b.items()})
    return FigureResult("fig9", {"9a": path_a, "9b": path_b}, checks, notes)


# ----------------------------------------------------------------------
# Fig. 10 — node failure and recovery
# ----------------------------------------------------------------------
def fig10_failure_recovery(run: ExperimentResult, failure: MassFailureEvent) -> FigureResult:
    """Fig. 10: RFH under a mass failure (``run``, whose scenario holds
    ``failure``).

    "The number of replicas is keep increasing to meet the need of query
    load at first.  Then when the replicas number becomes stable, 30
    servers are randomly removed at epoch 290, resulting in a sharp
    decrease of replicas number.  ...  The replica number increases as
    time passes by, and reaches the same level as initial."
    """
    replicas = run.series("total_replicas")
    alive = run.series("alive_servers")

    pre = float(replicas[failure.epoch - 30 : failure.epoch].mean())
    drop = float(replicas[failure.epoch])
    final = float(replicas[-30:].mean())
    start = float(replicas[0])

    checks = {
        "10 replica count grows initially": pre > 1.5 * start,
        "10 sharp drop at the failure epoch": drop < 0.85 * pre,
        # Server counts are exact integers stored as floats.
        "10 servers actually removed": float(alive[failure.epoch]) == float(
            alive[failure.epoch - 1]
        ) - failure.count,
        "10 recovery to near pre-failure level": final >= 0.85 * pre,
        "10 no partition stays lost": float(run.series("lost_partitions")[-1]) == 0.0,
    }
    notes = {
        "10 pre-failure replicas": pre,
        "10 at-failure replicas": drop,
        "10 final replicas": final,
    }
    return FigureResult(
        "fig10", {"10": {"rfh": replicas, "alive_servers": alive}}, checks, notes
    )


#: Figs. 3–9: each harness and the random-query epochs it reads, the
#: paper's run lengths (DESIGN.md §4).  All of them read the whole
#: flash-crowd run, whose four stages scale with its length.
_COMPARISON_FIGURES = {
    "fig3": (fig3_utilization, 250),
    "fig4": (fig4_replica_number, 250),
    "fig5": (fig5_replication_cost, 150),
    "fig6": (fig6_migration_times, 250),
    "fig7": (fig7_migration_cost, 150),
    "fig8": (fig8_load_imbalance, 300),
    "fig9": (fig9_path_length, 100),
}
_FLASH_EPOCHS: int = 400
_FAILURE_EPOCHS: int = 500

#: Every figure :func:`all_figures` can build, in the paper's order.
FIGURES: tuple[str, ...] = (*_COMPARISON_FIGURES, "fig10")


def all_figures(
    config: SimulationConfig, only: Iterable[str] | None = None
) -> dict[str, FigureResult]:
    """Regenerate the figures named in ``only`` (default: all of them).

    Builds only the runs the selected figures read, once each on the
    columnar engine (bit-identical to the scalar one).  A random-query
    run's first ``n`` epochs are exactly the ``n``-epoch run (same trace
    prefix, same seed), so one run as long as the longest selected
    figure needs serves every figure.
    """
    selected = FIGURES if only is None else tuple(only)
    unknown = [name for name in selected if name not in FIGURES]
    if unknown:
        raise ValueError(f"unknown figures: {unknown}")
    results: dict[str, FigureResult] = {}
    comparison = [name for name in _COMPARISON_FIGURES if name in selected]
    if comparison:
        longest = max(_COMPARISON_FIGURES[name][1] for name in comparison)
        random = compare_policies(random_query_scenario(config, longest), engine="columnar")
        flash = compare_policies(flash_crowd_scenario(config, _FLASH_EPOCHS), engine="columnar")
        for name in comparison:
            harness, epochs = _COMPARISON_FIGURES[name]
            results[name] = harness(random.head(epochs), flash)
    if "fig10" in selected:
        scenario = failure_recovery_scenario(config, _FAILURE_EPOCHS)
        (failure,) = scenario.events
        run = run_experiment("rfh", scenario, engine="columnar")
        results["fig10"] = fig10_failure_recovery(run, failure)
    return results
