"""The invariant checker against deliberately corrupted world state.

Each test runs a healthy simulation a few epochs, then reaches into the
internals to break exactly one conservation rule and asserts the checker
pins the violation to the right invariant, epoch and offender.
"""

from __future__ import annotations

import pytest

from repro.chaos import INVARIANT_NAMES, InvariantChecker, InvariantViolation
from repro.config import SimulationConfig, WorkloadParameters
from repro.sim.engine import Simulation


def healthy_sim(epochs: int = 5) -> Simulation:
    config = SimulationConfig(
        seed=99,
        workload=WorkloadParameters(
            queries_per_epoch_mean=120.0, num_partitions=16, zipf_exponent=0.9
        ),
    )
    sim = Simulation(config, invariants=False)
    sim.run(epochs)
    return sim


class TestHealthyState:
    def test_clean_world_has_no_violations(self):
        sim = healthy_sim()
        checker = InvariantChecker()
        assert checker.collect(sim.clock.epoch, sim.cluster, sim.replicas) == []
        assert checker.violations_seen == 0

    def test_invariant_names_are_stable(self):
        assert INVARIANT_NAMES == (
            "no-copy-on-dead-server",
            "live-holder",
            "replica-matrix",
            "storage-accounting",
        )


class TestCorruptedReplicaMap:
    def test_copy_on_dead_server_detected(self):
        """Failing a server behind the replica map's back (no drop_server)
        leaves recorded copies on a dead machine."""
        sim = healthy_sim()
        partition = 0
        sid = sim.replicas.holder(partition)
        sim.cluster.fail_server(sid)  # replica map not told
        checker = InvariantChecker()
        violations = checker.collect(sim.clock.epoch, sim.cluster, sim.replicas)
        assert any(
            v.invariant == "no-copy-on-dead-server" and v.server == sid
            for v in violations
        )

    def test_violation_names_epoch_and_partition(self):
        """The acceptance check: a corrupted ReplicaMap raises an
        InvariantViolation whose message names epoch and partition."""
        sim = healthy_sim()
        partition = 3
        sid = sim.replicas.holder(partition)
        sim.cluster.fail_server(sid)
        checker = InvariantChecker(strict=True)
        with pytest.raises(InvariantViolation) as excinfo:
            checker.check(41, sim.cluster, sim.replicas)
        violation = excinfo.value
        assert violation.epoch == 41
        assert violation.partition is not None
        assert "epoch 41" in str(violation)
        assert f"partition {violation.partition}" in str(violation)

    def test_holder_without_copy_detected(self):
        sim = healthy_sim()
        partition = 1
        holder = sim.replicas.holder(partition)
        # Re-point the holder at an alive server that holds no copy.
        holding = {sid for sid, _ in sim.replicas.servers_with(partition)}
        stranger = next(
            s.sid
            for s in sim.cluster.alive_servers()
            if s.sid not in holding
        )
        sim.replicas._holder[partition] = stranger
        checker = InvariantChecker()
        violations = checker.collect(7, sim.cluster, sim.replicas)
        assert any(
            v.invariant == "live-holder"
            and v.partition == partition
            and v.server == stranger
            for v in violations
        )
        assert holder != stranger

    def test_phantom_count_detected(self):
        """A count entry nobody stored: replica matrix and storage split."""
        sim = healthy_sim()
        partition = 2
        stranger = next(
            s.sid
            for s in sim.cluster.alive_servers()
            if sim.replicas.count(partition, s.sid) == 0
        )
        sim.replicas._layout[partition] = tuple(  # no store_mb happened
            sorted(sim.replicas.servers_with(partition) + ((stranger, 1),))
        )
        checker = InvariantChecker()
        violations = checker.collect(9, sim.cluster, sim.replicas)
        assert any(
            v.invariant == "storage-accounting" and v.server == stranger
            for v in violations
        )


class TestCorruptedStorage:
    def test_storage_drift_detected(self):
        sim = healthy_sim()
        server = sim.cluster.alive_servers()[0]
        server._storage_used_mb += 1.0
        checker = InvariantChecker()
        violations = checker.collect(11, sim.cluster, sim.replicas)
        assert any(
            v.invariant == "storage-accounting" and v.server == server.sid
            for v in violations
        )

    def test_tolerance_absorbs_float_noise(self):
        sim = healthy_sim()
        server = sim.cluster.alive_servers()[0]
        server._storage_used_mb += 1e-9
        checker = InvariantChecker()
        assert checker.collect(12, sim.cluster, sim.replicas) == []


class TestEngineIntegration:
    def test_engine_traces_and_raises_in_strict_mode(self):
        """A corruption mid-run surfaces at the next epoch boundary with
        an invariant_violation trace record before the raise."""
        from repro.obs.trace import RingBufferTracer

        tracer = RingBufferTracer()
        config = SimulationConfig(
            seed=5,
            workload=WorkloadParameters(
                queries_per_epoch_mean=120.0, num_partitions=16, zipf_exponent=0.9
            ),
        )
        sim = Simulation(config, invariants=True, tracer=tracer)
        sim.run(3)
        # Storage drift is invisible to every engine path except the
        # invariant check, so the run only dies at the epoch boundary.
        server = sim.cluster.alive_servers()[0]
        server._storage_used_mb += 5.0
        with pytest.raises(InvariantViolation) as excinfo:
            sim.step()
        assert excinfo.value.invariant == "storage-accounting"
        records = tracer.events(kind="invariant_violation")
        assert records
        assert records[0].reason in INVARIANT_NAMES

    def test_engine_collect_mode_keeps_running(self):
        config = SimulationConfig(
            seed=5,
            workload=WorkloadParameters(
                queries_per_epoch_mean=120.0, num_partitions=16, zipf_exponent=0.9
            ),
        )
        checker = InvariantChecker(strict=False)
        sim = Simulation(config, invariants=checker)
        sim.run(3)
        server = sim.cluster.alive_servers()[0]
        server._storage_used_mb += 5.0
        sim.run(2)
        assert checker.violations_seen > 0

    def test_env_var_opt_in_is_active_in_tests(self, monkeypatch):
        """conftest sets REPRO_CHECK_INVARIANTS: the default (None) spec
        resolves to a strict checker for every test-suite simulation."""
        config = SimulationConfig(
            seed=5,
            workload=WorkloadParameters(
                queries_per_epoch_mean=120.0, num_partitions=16
            ),
        )
        sim = Simulation(config)
        assert sim.invariants is not None and sim.invariants.strict
        monkeypatch.setenv("REPRO_CHECK_INVARIANTS", "0")
        assert Simulation(config).invariants is None
