"""Multi-seed replication: the headline orderings are not seed luck.

Each seed is one independent replication, run as one cell of a
``repro.sweep`` manifest, the same path the multi-seed Table I takes.
"""

import io

import pytest

from repro.errors import SweepError
from repro.obs.fleet import FleetProgress
from repro.sweep import SweepManifest, SweepScale, run_sweep

SEEDS = (1, 2, 3)
SCALE = SweepScale("tiny", partitions=16, rate=120.0)


def _manifest(**overrides) -> SweepManifest:
    fields = dict(
        name="headline",
        policies=("rfh", "random"),
        seeds=SEEDS,
        scales=(SCALE,),
        epochs=100,
    )
    fields.update(overrides)
    return SweepManifest(**fields)


@pytest.fixture(scope="module")
def steady(tmp_path_factory) -> dict[str, dict[str, list[float]]]:
    """``policy -> metric -> [steady-state value per seed]`` from one sweep."""
    manifest = _manifest()
    artifact = run_sweep(
        manifest,
        tmp_path_factory.mktemp("sweep"),
        max_workers=1,
        progress=FleetProgress(manifest.num_cells, stream=io.StringIO(), live=False),
    )
    assert artifact.num_failed == 0
    out: dict[str, dict[str, list[float]]] = {}
    for record in artifact.cells:
        per_metric = out.setdefault(record["cell"]["policy"], {})
        for metric, stats in record["summaries"].items():
            per_metric.setdefault(metric, []).append(stats["steady"])
    return out


class TestReplicate:
    def test_validation(self):
        with pytest.raises(SweepError):
            _manifest(seeds=())
        with pytest.raises(SweepError):
            _manifest(seeds=(1, 1))

    def test_seeds_actually_vary(self, steady):
        assert len(steady["rfh"]["total_replicas"]) == len(SEEDS)
        assert len(set(steady["rfh"]["total_replicas"])) > 1

    def test_headline_orderings_hold_across_seeds(self, steady):
        """Fig. 3/4's core claims, for every seed rather than one:
        RFH's utilization beats random's and its replica range sits
        entirely below random's."""
        rfh, random_ = steady["rfh"], steady["random"]
        assert min(rfh["utilization"]) > max(random_["utilization"])
        assert max(rfh["total_replicas"]) < min(random_["total_replicas"])
