"""The runtime determinism sanitizer: fingerprints, bisection, CLI."""

import json
import random

import pytest

from repro.config import SimulationConfig, WorkloadParameters
from repro.experiments.runner import run_experiment
from repro.experiments.scenarios import random_query_scenario
from repro.sim.actions import Replicate
from repro.sim.engine import Simulation
from repro.staticcheck import (
    COMPONENTS,
    DeterminismSanitizer,
    FingerprintError,
    FingerprintTrail,
    bisect_divergence,
)


def small_config(seed: int = 7) -> SimulationConfig:
    return SimulationConfig(
        seed=seed,
        workload=WorkloadParameters(queries_per_epoch_mean=60.0, num_partitions=8),
    )


def sanitized_run(epochs: int = 20, seed: int = 7, *, burn_at: int | None = None):
    """One engine run with a sanitizer attached; optionally burn one
    extra draw from the ``failures`` stream at epoch ``burn_at``
    (injected nondeterminism)."""
    sanitizer = DeterminismSanitizer()
    sim = Simulation(small_config(seed), policy="rfh", sanitizer=sanitizer)
    for epoch in range(epochs):
        if burn_at is not None and epoch == burn_at:
            sim.rng_tree.stream("failures").random()
        sim.step()
    return sanitizer.trail()


class TestFingerprints:
    def test_same_seed_runs_are_chain_identical(self):
        a, b = sanitized_run(), sanitized_run()
        assert len(a) == len(b) == 20
        assert [r.chain for r in a.records] == [r.chain for r in b.records]
        assert a.final_chain == b.final_chain

    def test_different_seeds_diverge_immediately(self):
        a, b = sanitized_run(seed=7), sanitized_run(seed=8)
        report = bisect_divergence(a, b)
        assert not report.identical
        assert report.first_divergent_epoch == 0

    def test_every_component_is_fingerprinted(self):
        trail = sanitized_run(epochs=3)
        for record in trail.records:
            assert set(record.components) == set(COMPONENTS)
            assert record.rng_streams  # named streams exist

    def test_observe_returns_growing_chain(self):
        trail = sanitized_run(epochs=5)
        chains = [r.chain for r in trail.records]
        assert len(set(chains)) == len(chains)  # chain never repeats


class TestBisection:
    def test_burned_rng_draw_is_pinpointed(self):
        clean = sanitized_run()
        dirty = sanitized_run(burn_at=12)
        report = bisect_divergence(clean, dirty)
        assert not report.identical
        assert report.first_divergent_epoch == 12
        assert report.components == ("rng",)
        assert report.rng_streams == ("failures",)
        assert report.exit_code == 1
        assert "epoch 12" in report.describe()

    def test_identical_trails(self):
        a = sanitized_run(epochs=6)
        report = bisect_divergence(a, sanitized_run(epochs=6))
        assert report.identical and report.exit_code == 0
        assert report.first_divergent_epoch is None

    def test_length_mismatch_on_identical_prefix(self):
        a = sanitized_run(epochs=6)
        b = sanitized_run(epochs=9)
        report = bisect_divergence(a, b)
        assert not report.identical  # trailing epochs unverified
        assert report.first_divergent_epoch is None
        assert report.extra_epochs == (0, 3)

    def test_empty_trails(self):
        report = bisect_divergence(FingerprintTrail(), FingerprintTrail())
        assert report.identical and report.epochs_compared == 0


class TestUnseededPolicyDetection:
    """The ISSUE's acceptance test: a policy whose tie-breaking shuffle
    is effectively unseeded (different per process/run) must be caught,
    with the report naming the injection epoch and a state component."""

    class ShufflingPolicy:
        name = "shuffler"

        def __init__(self, salt: int, at_epoch: int) -> None:
            # Models `random.shuffle` in a fresh process: each run's
            # shuffle order differs because the seed is unpredictable.
            self._rng = random.Random(salt)
            self._at_epoch = at_epoch

        def decide(self, obs):
            if obs.epoch < self._at_epoch:
                return []
            partition = 0
            holder = obs.replicas.holder(partition)
            candidates = [
                s.sid
                for s in obs.cluster.alive_servers()
                if s.sid != holder and obs.replicas.count(partition, s.sid) == 0
            ]
            self._rng.shuffle(candidates)
            return [
                Replicate(
                    partition=partition,
                    source_sid=holder,
                    target_sid=candidates[0],
                    reason="shuffled",
                )
            ]

    def run_with(self, salt: int):
        sanitizer = DeterminismSanitizer()
        sim = Simulation(
            small_config(),
            policy=self.ShufflingPolicy(salt, at_epoch=10),
            sanitizer=sanitizer,
        )
        sim.run(16)
        return sanitizer.trail()

    def test_report_names_first_divergent_epoch_and_component(self):
        report = bisect_divergence(self.run_with(0), self.run_with(1))
        assert not report.identical
        assert report.first_divergent_epoch == 10
        assert "replicas" in report.components
        text = report.describe()
        assert "epoch 10" in text and "replicas" in text

    def test_same_salt_stays_identical(self):
        report = bisect_divergence(self.run_with(0), self.run_with(0))
        assert report.identical


class TestArtifact:
    def test_save_load_round_trip(self, tmp_path):
        trail = sanitized_run(epochs=4)
        trail.meta["policy"] = "rfh"
        path = tmp_path / "run.fp.json"
        trail.save(path)
        loaded = FingerprintTrail.load(path)
        assert loaded.meta["policy"] == "rfh"
        assert [r.chain for r in loaded.records] == [r.chain for r in trail.records]
        assert bisect_divergence(trail, loaded).identical

    def test_malformed_artifact_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(FingerprintError):
            FingerprintTrail.load(path)

    def test_bumped_version_is_rejected(self, tmp_path):
        trail = sanitized_run(epochs=2)
        payload = trail.to_dict()
        payload["version"] = int(payload["version"]) + 1
        with pytest.raises(FingerprintError, match="version"):
            FingerprintTrail.from_dict(payload)

    def test_runner_stamps_meta(self):
        scenario = random_query_scenario(small_config(), epochs=6)
        sanitizer = DeterminismSanitizer()
        run_experiment("rfh", scenario, sanitizer=sanitizer)
        meta = sanitizer.trail().meta
        assert meta["policy"] == "rfh"
        assert meta["scenario"] == "random-query"
        assert meta["seed"] == 7
        assert len(sanitizer.trail()) == 6


FAST = ["--epochs", "12", "--partitions", "8", "--rate", "60", "--seed", "3"]


class TestSanitizeCli:
    def test_double_run_is_identical(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "--policy", "rfh", *FAST]) == 0
        assert "fingerprint-identical" in capsys.readouterr().out

    def test_against_saved_artifact(self, tmp_path, capsys):
        from repro.cli import main

        fp = tmp_path / "run.fp.json"
        assert main(["run", "--policy", "rfh", *FAST, "--fingerprint-out", str(fp)]) == 0
        assert fp.exists()
        assert main(["sanitize", "--policy", "rfh", *FAST, "--against", str(fp)]) == 0
        out = capsys.readouterr().out
        assert "fingerprint-identical" in out

    def test_against_mismatched_seed_reports_divergence(self, tmp_path, capsys):
        from repro.cli import main

        fp = tmp_path / "run.fp.json"
        assert (
            main(["sanitize", "--policy", "rfh", *FAST, "--save", str(fp)]) == 0
        )
        other = [*FAST[:-1], "4"]  # different seed
        assert (
            main(["sanitize", "--policy", "rfh", *other, "--against", str(fp)]) == 1
        )
        out = capsys.readouterr().out
        assert "DIVERGENCE at epoch 0" in out

    def test_chaos_run_matches_across_engines(self, tmp_path, capsys):
        from repro.cli import main

        fp = tmp_path / "chaos.fp.json"
        chaos = ["--policy", "rfh", *FAST, "--chaos", "rolling-dc"]
        assert main(["run", *chaos, "--engine", "scalar", "--fingerprint-out", str(fp)]) == 0
        assert main(["sanitize", *chaos, "--engine", "columnar", "--against", str(fp)]) == 0
        assert "fingerprint-identical" in capsys.readouterr().out
        # Without the schedule the run differs: the option took effect.
        assert main(["sanitize", "--policy", "rfh", *FAST, "--against", str(fp)]) == 1

    def test_json_report(self, capsys):
        from repro.cli import main

        assert main(["sanitize", "--policy", "rfh", *FAST, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["identical"] is True
        assert payload["epochs_compared"] == 12

    def test_compare_writes_per_policy_fingerprints(self, tmp_path, capsys):
        from repro.cli import main

        fp = tmp_path / "cmp.fp.json"
        assert main(["compare", *FAST[:2], *FAST[2:], "--fingerprint-out", str(fp)]) == 0
        # The policy tag lands *before* the compound ``.fp.json`` suffix
        # (shared repro.obs.paths helper, same shape as ``.tsdb.json``).
        for policy in ("request", "owner", "random", "rfh"):
            assert (tmp_path / f"cmp.{policy}.fp.json").exists()
