"""Figure harnesses at reduced scale (full scale runs in benchmarks/).

These confirm each figN function produces its panels, notes and checks
from small runs; the *shape assertions* at paper scale live in the
benchmark suite where the full epoch counts run.
"""

import pytest

from repro.config import SimulationConfig, WorkloadParameters
from repro.experiments import (
    compare_policies,
    fig3_utilization,
    fig4_replica_number,
    fig5_replication_cost,
    fig6_migration_times,
    fig7_migration_cost,
    fig8_load_imbalance,
    fig9_path_length,
    flash_crowd_scenario,
    random_query_scenario,
)


@pytest.fixture(scope="module")
def cfg() -> SimulationConfig:
    return SimulationConfig(
        seed=31,
        workload=WorkloadParameters(
            queries_per_epoch_mean=120.0, num_partitions=16, zipf_exponent=0.9
        ),
    )


@pytest.fixture(scope="module")
def random(cfg):
    return compare_policies(random_query_scenario(cfg, 80), engine="columnar")


@pytest.fixture(scope="module")
def flash(cfg):
    return compare_policies(flash_crowd_scenario(cfg, 120), engine="columnar")


class TestPanelsAndNotes:
    def test_fig3_panels(self, random, flash):
        result = fig3_utilization(random, flash)
        assert set(result.panels) == {"3a", "3b"}
        for panel in result.panels.values():
            assert set(panel) == {"rfh", "random", "owner", "request"}
        assert len(result.panels["3a"]["rfh"]) == 80
        assert len(result.panels["3b"]["rfh"]) == 120

    def test_fig4_panels(self, random, flash):
        result = fig4_replica_number(random, flash)
        assert set(result.panels) == {"4a", "4b", "4c", "4d"}
        # Average panel == total / partitions.
        total = result.panels["4a"]["rfh"]
        avg = result.panels["4b"]["rfh"]
        assert (total / 16 == avg).all()

    def test_fig5_cumulative_monotone(self, random, flash):
        result = fig5_replication_cost(random, flash)
        for policy, series in result.panels["5a"].items():
            assert (series[1:] >= series[:-1]).all(), policy

    def test_fig6_counts_cumulative(self, random, flash):
        result = fig6_migration_times(random, flash)
        assert (result.panels["6a"]["random"] == 0).all()

    def test_fig7_costs(self, random, flash):
        result = fig7_migration_cost(random, flash)
        assert (result.panels["7a"]["owner"] == 0).all()

    def test_fig8_series_nonnegative(self, random, flash):
        result = fig8_load_imbalance(random, flash)
        for panel in result.panels.values():
            for series in panel.values():
                assert (series >= 0).all()

    def test_fig9_notes_contain_steady_values(self, random, flash):
        result = fig9_path_length(random, flash)
        assert "9a steady owner" in result.notes
        assert "9b steady rfh" in result.notes
