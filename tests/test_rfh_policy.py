"""RFH policy end-to-end behaviour on the real engine."""

from repro.config import RFHParameters, SimulationConfig, WorkloadParameters
from repro.core import RFHPolicy
from repro.sim import MassFailureEvent, Simulation
from repro.sim.rng import RngTree
from repro.workload import HotspotPattern, QueryGenerator, WorkloadTrace


def make_sim(seed=5, pattern=None, epochs=None, **wl_over) -> Simulation:
    wl = dict(queries_per_epoch_mean=120.0, num_partitions=16, zipf_exponent=0.9)
    wl.update(wl_over)
    cfg = SimulationConfig(seed=seed, workload=WorkloadParameters(**wl))
    workload = None
    if pattern is not None:
        gen = QueryGenerator(cfg.workload, pattern, RngTree(seed).stream("t"))
        workload = WorkloadTrace.record(gen, epochs)
    return Simulation(cfg, policy="rfh", workload=workload)


class TestConvergence:
    def test_reaches_availability_floor_quickly(self):
        sim = make_sim()
        sim.run(10)
        counts = sim.replicas.per_partition_counts()
        assert all(c >= sim.rmin for c in counts)

    def test_settles_without_churn(self):
        sim = make_sim()
        m = sim.run(150)
        last = slice(-40, None)
        churn = (
            m.array("replication_count")[last].sum()
            + m.array("suicide_count")[last].sum()
            + m.array("migration_count")[last].sum()
        )
        # A small residual adaptation rate is expected; a runaway loop
        # would produce hundreds of actions in 40 epochs.
        assert churn < 40

    def test_unserved_fraction_is_small(self):
        sim = make_sim()
        m = sim.run(150)
        tail = slice(-30, None)
        frac = m.array("unserved")[tail].sum() / m.array("queries")[tail].sum()
        assert frac < 0.05

    def test_utilization_reasonable(self):
        sim = make_sim()
        m = sim.run(150)
        u = m.series("utilization").tail_mean(30)
        assert 0.2 < u < 1.0


class TestHubPlacement:
    def test_replicas_favour_traffic_carrying_dcs(self):
        """With queries concentrated near H/I/J, RFH's extra replicas
        should sit on the Asia->holder corridors, not at random."""
        pattern = HotspotPattern(16, 10, 0.9, hot_origins=(7, 8, 9))
        sim = make_sim(pattern=pattern, epochs=120)
        sim.run(120)
        extra_dcs = []
        for p in range(16):
            holder = sim.replicas.holder(p)
            for sid, count in sim.replicas.servers_with(p):
                if sid != holder:
                    extra_dcs.extend([sim.cluster.dc_of(sid)] * count)
        # Corridor + origin DCs: H, I, J themselves plus hubs E, D, F and
        # holder-co-located relief; blind DCs (B, G) should be rare.
        blind = sum(1 for dc in extra_dcs if dc in (1, 6))
        assert blind / len(extra_dcs) < 0.25


class TestFailureResilience:
    def test_rebuilds_after_mass_failure(self):
        sim = make_sim()
        sim.schedule_event(MassFailureEvent(epoch=60, count=30))
        m = sim.run(160)
        replicas = m.array("total_replicas")
        pre = replicas[50:60].mean()
        post_drop = replicas[60]
        final = replicas[-20:].mean()
        assert post_drop < pre
        assert final >= 0.8 * pre

    def test_no_partition_left_without_floor(self):
        sim = make_sim()
        sim.schedule_event(MassFailureEvent(epoch=30, count=40))
        sim.run(100)
        counts = sim.replicas.per_partition_counts()
        assert all(c >= sim.rmin for c in counts)


class TestPolicyUnit:
    def test_default_params(self):
        policy = RFHPolicy()
        assert policy.params.alpha == 0.2
        assert policy.name == "rfh"

    def test_custom_params_respected(self):
        policy = RFHPolicy(RFHParameters(beta=3.0))
        assert policy.params.beta == 3.0

    def test_actions_reference_valid_world_objects(self):
        sim = make_sim()
        policy = sim.policy
        seen = []
        orig = policy.decide

        def wrapped(obs):
            actions = orig(obs)
            seen.extend(actions)
            return actions

        sim.policy.decide = wrapped  # type: ignore[method-assign]
        sim.run(30)
        assert seen, "RFH produced no actions in 30 epochs"
        for action in seen:
            assert 0 <= action.partition < 16
