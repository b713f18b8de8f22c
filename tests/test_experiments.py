"""Experiment harness: scenarios, runner, comparison, report rendering.

Full-scale figure regeneration lives in the benchmark suite; these tests
exercise the machinery at reduced scale so the unit suite stays fast.
"""

from unittest.mock import Mock

import numpy as np
import pytest

from repro.config import SimulationConfig, WorkloadParameters
from repro.errors import SimulationError
from repro.experiments import (
    compare_policies,
    failure_recovery_scenario,
    fig10_failure_recovery,
    flash_crowd_scenario,
    random_query_scenario,
    run_experiment,
)
from repro.experiments.figures import FigureResult
from repro.experiments.runner import ENGINES
from repro.experiments.report import render_figure, render_report


@pytest.fixture
def cfg() -> SimulationConfig:
    return SimulationConfig(
        seed=21,
        workload=WorkloadParameters(
            queries_per_epoch_mean=120.0, num_partitions=16, zipf_exponent=0.9
        ),
    )


class TestScenarios:
    def test_random_query_scenario(self, cfg):
        sc = random_query_scenario(cfg, epochs=30)
        assert sc.name == "random-query"
        assert len(sc.trace) == 30
        assert sc.events == ()

    def test_flash_crowd_scenario_origins_shift(self, cfg):
        sc = flash_crowd_scenario(cfg, epochs=80)
        early = sum(sc.trace.generate(e).per_origin() for e in range(10))
        late = sum(sc.trace.generate(e).per_origin() for e in range(25, 35))
        assert early[[7, 8, 9]].sum() > 0.6 * early.sum()  # H/I/J hot
        assert late[[0, 1, 2]].sum() > 0.6 * late.sum()  # A/B/C hot

    def test_failure_scenario_events(self, cfg):
        sc = failure_recovery_scenario(
            cfg, epochs=40, failure_epoch=20, failure_count=10, recovery_epoch=30
        )
        assert len(sc.events) == 2

    def test_recovery_must_follow_failure(self, cfg):
        with pytest.raises(ValueError):
            failure_recovery_scenario(
                cfg, epochs=40, failure_epoch=20, recovery_epoch=10
            )

    def test_scenario_epoch_bounds_checked(self, cfg):
        sc = random_query_scenario(cfg, epochs=30)
        from repro.experiments.scenarios import Scenario

        with pytest.raises(ValueError):
            Scenario("x", cfg, sc.trace, epochs=31)


class TestRunner:
    def test_run_experiment(self, cfg):
        sc = random_query_scenario(cfg, epochs=25)
        res = run_experiment("rfh", sc)
        assert res.policy == "rfh"
        assert len(res.series("utilization")) == 25
        assert res.final("total_replicas") >= 16
        assert res.cumulative("replication_count")[-1] >= 0

    def test_runs_are_reproducible(self, cfg):
        sc = random_query_scenario(cfg, epochs=25)
        a = run_experiment("rfh", sc)
        b = run_experiment("rfh", sc)
        assert list(a.series("served")) == list(b.series("served"))


class TestComparison:
    def test_compare_all_policies(self, cfg):
        sc = random_query_scenario(cfg, epochs=25)
        cmp = compare_policies(sc)
        assert set(cmp.policies()) == {"rfh", "random", "owner", "request"}
        table = cmp.steady_table("utilization", tail=5)
        assert all(0 <= v <= 1 for v in table.values())

    def test_identical_workload_across_policies(self, cfg):
        sc = random_query_scenario(cfg, epochs=25)
        cmp = compare_policies(sc, policies=("rfh", "random"))
        assert list(cmp["rfh"].series("queries")) == list(
            cmp["random"].series("queries")
        )

    def test_ranking(self, cfg):
        sc = random_query_scenario(cfg, epochs=30)
        cmp = compare_policies(sc, policies=("rfh", "random"))
        ranking = cmp.ranking("total_replicas")
        assert ranking[0] == "random"  # random always needs more replicas


def _as_dicts(cmp):
    return {policy: cmp[policy].metrics.as_dict() for policy in cmp.policies()}


class TestSharedRuns:
    """``all_figures`` hands Figs. 3–9 prefixes of one random-query run
    and all of one flash-crowd run; these pin why that is exact."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize(
        "scenario, is_prefix", [(random_query_scenario, True), (flash_crowd_scenario, False)]
    )
    def test_only_a_random_query_run_prefix_is_the_shorter_run(
        self, cfg, engine, scenario, is_prefix
    ):
        # Flash-crowd stages scale with the run length.
        longer = compare_policies(scenario(cfg, 60), engine=engine).head(40)
        shorter = compare_policies(scenario(cfg, 40), engine=engine)
        assert (_as_dicts(longer) == _as_dicts(shorter)) is is_prefix

    def test_head_keeps_the_full_run_and_rejects_epochs_outside_it(self, cfg):
        cmp = compare_policies(random_query_scenario(cfg, 10), policies=("rfh",))
        assert cmp.head(10)["rfh"].metrics.as_dict() == cmp["rfh"].metrics.as_dict()
        assert cmp.head(5)["rfh"].simulation is cmp["rfh"].simulation
        for epochs in (0, 11):
            with pytest.raises(SimulationError):
                cmp.head(epochs)


class TestFigureHarness:
    def test_fig10_small_scale(self, cfg):
        sc = failure_recovery_scenario(cfg, epochs=140, failure_epoch=80, failure_count=20)
        (failure,) = sc.events
        result = fig10_failure_recovery(run_experiment("rfh", sc), failure)
        assert result.figure == "fig10"
        assert "10" in result.panels
        assert result.checks["10 servers actually removed"]
        assert result.checks["10 sharp drop at the failure epoch"]

    def test_all_figures_builds_only_the_runs_it_reads(self, cfg, monkeypatch):
        import repro.experiments.figures as figures

        spy = Mock(wraps=compare_policies)
        monkeypatch.setattr(figures, "compare_policies", spy)
        results = figures.all_figures(cfg, only=["fig9", "fig5"])
        assert list(results) == ["fig5", "fig9"]
        built = [(call.args[0].name, call.args[0].epochs) for call in spy.call_args_list]
        assert built == [("random-query", 150), ("flash-crowd", 400)]
        assert len(results["fig9"].panels["9a"]["rfh"]) == 100
        with pytest.raises(ValueError, match="fig99"):
            figures.all_figures(cfg, only=["fig99"])

    def test_figure_result_api(self):
        result = FigureResult(
            "figX", {"p": {"rfh": np.zeros(3)}}, {"ok": True, "bad": False}
        )
        assert not result.passed
        assert result.failed_checks() == ("bad",)


class TestReport:
    def test_render_figure(self):
        result = FigureResult(
            "fig3", {"3a": {}}, {"claim holds": True}, notes={"steady": 0.5}
        )
        text = render_figure(result)
        assert "fig3" in text
        assert "claim holds" in text
        assert "0.500" in text

    def test_render_report_counts_checks(self):
        results = {
            "fig3": FigureResult("fig3", {}, {"a": True, "b": False}),
            "fig4": FigureResult("fig4", {}, {"c": True}),
        }
        text = render_report(results, header="# Title")
        assert "2/3" in text
        assert text.startswith("# Title")
        assert "**NO**" in text
