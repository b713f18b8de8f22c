"""The RFH decision tree (Fig. 2), branch by branch."""

import numpy as np
import pytest

from repro.cluster import ReplicaMap
from repro.config import RFHParameters
from repro.core.decision import (
    SUICIDE_WARMUP_EPOCHS,
    RFHDecision,
    SUICIDE_IDLE_BAR,
)
from repro.core.traffic import CellMatrix, ServiceResult
from repro.sim.actions import Migrate, Replicate, Suicide
from repro.sim.observation import EpochObservation
from repro.workload import QueryBatch


@pytest.fixture
def params() -> RFHParameters:
    return RFHParameters()


@pytest.fixture
def world(cluster, router, params):
    """A one-partition world with holder on server 0 (DC A) and a
    helper to build observations with explicit signals."""
    replicas = ReplicaMap(cluster, num_partitions=1, partition_size_mb=0.5)
    replicas.bootstrap([0])

    def make_obs(
        *,
        traffic=None,
        holder_traffic=0.0,
        served=None,
        unserved=0.0,
        blocking=None,
        rmin=2,
        epoch=50,
    ) -> EpochObservation:
        queries = QueryBatch(epoch, np.zeros((1, 10), dtype=np.int64))
        result = ServiceResult(
            served_cells=CellMatrix.from_dense(
                served.reshape(1, -1)
                if served is not None
                else np.zeros((1, cluster.num_servers))
            ),
            traffic_cells=CellMatrix.from_dense(
                np.asarray(
                    [traffic if traffic is not None else np.zeros(10)],
                    dtype=np.float64,
                ).reshape(1, 10)
            ),
            unserved=np.array([unserved]),
            holder_traffic=np.array([holder_traffic]),
            hop_sum=0.0,
            distance_sum_km=0.0,
            sla_miss=0.0,
            query_count=0,
        )
        return EpochObservation(
            epoch=epoch,
            queries=queries,
            result=result,
            blocking_probability=(
                blocking if blocking is not None else np.zeros(cluster.num_servers)
            ),
            replicas=replicas,
            cluster=cluster,
            router=router,
            rmin=rmin,
            params=RFHParameters(),
            partition_size_mb=0.5,
        )

    return replicas, make_obs


def _decide(params, obs, *, avg_query=1.0, traffic=None, holder_traffic=0.0,
            served=None, unserved=0.0, age=None):
    decision = RFHDecision(params)
    return decision.decide_partition(
        0,
        obs,
        avg_query,
        np.asarray(traffic if traffic is not None else np.zeros(10)),
        holder_traffic,
        served if served is not None else np.zeros(obs.cluster.num_servers),
        unserved,
        replica_age=age,
    )


class TestAvailabilityBranch:
    def test_replicates_when_below_rmin(self, world, params):
        replicas, make_obs = world
        traffic = np.zeros(10)
        traffic[4] = 9.0  # E is the most-forwarding node
        obs = make_obs(traffic=traffic)
        actions = _decide(params, obs, traffic=traffic)
        assert len(actions) == 1
        action = actions[0]
        assert isinstance(action, Replicate)
        assert action.reason == "availability"
        assert obs.cluster.dc_of(action.target_sid) == 4  # placed at E
        assert action.source_sid == 0

    def test_availability_branch_fires_even_without_overload(self, world, params):
        _, make_obs = world
        obs = make_obs()
        actions = _decide(params, obs)  # zero traffic everywhere
        assert any(
            isinstance(a, Replicate) and a.reason == "availability" for a in actions
        )

    def test_no_availability_action_at_rmin(self, world, params):
        replicas, make_obs = world
        replicas.add(0, 15)  # second copy -> rmin satisfied
        obs = make_obs()
        assert _decide(params, obs) == []


class TestLoadBranch:
    def _saturate_floor(self, replicas):
        # Second copy in the holder's own DC: satisfies rmin without
        # creating an outside-the-hubs migration candidate.
        replicas.add(0, 5)

    def test_no_action_when_not_overloaded(self, world, params):
        replicas, make_obs = world
        self._saturate_floor(replicas)
        traffic = np.full(10, 5.0)
        obs = make_obs(traffic=traffic, holder_traffic=1.0)
        assert _decide(params, obs, traffic=traffic, holder_traffic=1.0) == []

    def test_overload_needs_raw_and_smoothed(self, world, params):
        """Smoothed-only overload (post-relief decay) must not replicate."""
        replicas, make_obs = world
        self._saturate_floor(replicas)
        traffic = np.full(10, 5.0)
        obs = make_obs(traffic=traffic, holder_traffic=0.1)  # raw low
        actions = _decide(
            params, obs, traffic=traffic, holder_traffic=10.0  # smoothed high
        )
        assert actions == []

    def test_overloaded_replicates_to_top_hub(self, world, params):
        replicas, make_obs = world
        self._saturate_floor(replicas)
        traffic = np.zeros(10)
        traffic[4] = 9.0  # E: hot hub, no replica yet
        traffic[0] = 8.0  # holder DC
        obs = make_obs(traffic=traffic, holder_traffic=5.0)
        actions = _decide(params, obs, traffic=traffic, holder_traffic=5.0)
        assert len(actions) == 1
        assert isinstance(actions[0], Replicate)
        assert actions[0].reason == "traffic-hub"
        assert obs.cluster.dc_of(actions[0].target_sid) == 4

    def test_blocked_queries_trigger_growth(self, world, params):
        """Persistent unserved queries count as overload even when the
        beta threshold is not crossed."""
        replicas, make_obs = world
        self._saturate_floor(replicas)
        traffic = np.zeros(10)
        traffic[4] = 9.0
        obs = make_obs(traffic=traffic, holder_traffic=0.0, unserved=3.0)
        actions = _decide(
            params, obs, traffic=traffic, holder_traffic=0.0, unserved=3.0
        )
        assert len(actions) == 1
        assert isinstance(actions[0], Replicate)

    def test_local_relief_when_no_hub_qualifies(self, world, params):
        replicas, make_obs = world
        self._saturate_floor(replicas)
        traffic = np.full(10, 0.1)  # nobody clears gamma
        obs = make_obs(traffic=traffic, holder_traffic=5.0)
        actions = _decide(params, obs, traffic=traffic, holder_traffic=5.0)
        assert len(actions) == 1
        action = actions[0]
        assert action.reason == "local-relief"
        assert obs.cluster.dc_of(action.target_sid) == 0  # holder's own DC

    def test_migrates_outside_replica_to_hub(self, world, params):
        replicas, make_obs = world
        self._saturate_floor(replicas)
        replicas.add(0, 95)  # a replica parked at J (dc 9), cold
        traffic = np.zeros(10)
        traffic[4] = 9.0
        traffic[5] = 8.0
        traffic[3] = 7.0  # top-3 hubs: E, F, D
        obs = make_obs(traffic=traffic, holder_traffic=5.0)
        age = {(0, 95): SUICIDE_WARMUP_EPOCHS}
        actions = _decide(
            params, obs, traffic=traffic, holder_traffic=5.0, age=age
        )
        assert len(actions) == 1
        action = actions[0]
        assert isinstance(action, Migrate)
        assert action.source_sid == 95
        assert obs.cluster.dc_of(action.target_sid) == 4

    def test_young_replica_not_migrated(self, world, params):
        replicas, make_obs = world
        self._saturate_floor(replicas)
        replicas.add(0, 95)
        traffic = np.zeros(10)
        traffic[4] = 9.0
        obs = make_obs(traffic=traffic, holder_traffic=5.0)
        age = {(0, 95): 1}  # newborn
        actions = _decide(params, obs, traffic=traffic, holder_traffic=5.0, age=age)
        assert all(not isinstance(a, Migrate) for a in actions)

    def test_falls_through_saturated_hub(self, world, params):
        """When every server of the chosen hub already holds a copy, the
        next top hub is used instead of giving up."""
        replicas, make_obs = world
        self._saturate_floor(replicas)
        for sid in range(40, 50):  # fill all of E
            replicas.add(0, sid)
        traffic = np.zeros(10)
        traffic[4] = 9.0  # E (saturated)
        traffic[5] = 8.0  # F
        obs = make_obs(traffic=traffic, holder_traffic=5.0)
        # Mark the parked copies as warm so no migration interferes.
        age = {(0, sid): 0 for sid in range(40, 50)}
        actions = _decide(params, obs, traffic=traffic, holder_traffic=5.0, age=age)
        grows = [a for a in actions if isinstance(a, Replicate)]
        assert grows and obs.cluster.dc_of(grows[0].target_sid) == 5


class TestSuicideBranch:
    def test_idle_old_replica_dies(self, world, params):
        replicas, make_obs = world
        replicas.add(0, 15)
        replicas.add(0, 95)  # three copies; 95 is idle
        served = np.zeros(100)
        served[0] = 2.0
        served[15] = 2.0
        obs = make_obs(served=served)
        age = {(0, 95): SUICIDE_WARMUP_EPOCHS}
        actions = _decide(params, obs, served=served, age=age)
        assert actions == [Suicide(0, 95, reason="cold-replica")]

    def test_newborn_exempt(self, world, params):
        replicas, make_obs = world
        replicas.add(0, 15)
        replicas.add(0, 95)
        served = np.zeros(100)
        obs = make_obs(served=served)
        age = {(0, 95): 2, (0, 15): 2}
        assert _decide(params, obs, served=served, age=age) == []

    def test_never_below_rmin(self, world, params):
        replicas, make_obs = world
        replicas.add(0, 95)  # exactly rmin copies
        served = np.zeros(100)
        obs = make_obs(served=served)
        age = {(0, 95): SUICIDE_WARMUP_EPOCHS}
        assert _decide(params, obs, served=served, age=age) == []

    def test_holder_never_suicides(self, world, params):
        replicas, make_obs = world
        replicas.add(0, 15)
        replicas.add(0, 95)
        served = np.zeros(100)
        served[15] = 2.0
        served[95] = 2.0  # only the holder is idle
        obs = make_obs(served=served)
        age = {(0, 15): 99, (0, 95): 99}
        actions = _decide(params, obs, served=served, age=age)
        assert all(not isinstance(a, Suicide) for a in actions)

    def test_no_suicide_while_blocked(self, world, params):
        replicas, make_obs = world
        replicas.add(0, 15)
        replicas.add(0, 95)
        served = np.zeros(100)
        obs = make_obs(served=served, unserved=5.0)
        age = {(0, 95): 99, (0, 15): 99}
        actions = _decide(
            params, obs, served=served, unserved=5.0, avg_query=0.0, age=age
        )
        assert all(not isinstance(a, Suicide) for a in actions)

    def test_busy_replica_survives(self, world, params):
        replicas, make_obs = world
        replicas.add(0, 15)
        replicas.add(0, 95)
        served = np.zeros(100)
        served[95] = max(1.0, 10 * SUICIDE_IDLE_BAR)
        served[15] = 2.0
        served[0] = 2.0
        obs = make_obs(served=served)
        age = {(0, 95): 99, (0, 15): 99}
        assert _decide(params, obs, served=served, avg_query=10.0, age=age) == []


class TestLostPartition:
    def test_no_actions_for_lost_partition(self, world, params, cluster):
        replicas, make_obs = world
        cluster.fail_server(0)
        replicas.drop_server(0)
        obs = make_obs()
        assert _decide(params, obs) == []
