"""Golden-artifact regression: both engines reproduce committed bytes.

``tests/golden/`` holds two scalar runs' fingerprint trails
(``.fp.json``) and metric CSVs (``.csv``):

* ``rfh-random-s1234`` — Table I's 10-site topology at 24 partitions,
  where every partition sees queries, so every EWMA row is active;
* ``rfh-ring100-p2000-s11`` — a 100-site ring at 2,000 partitions and
  Zipf 2.0, where most partitions never see a query.  Cross-engine
  checks cannot catch a change to code both engines share (the RFH
  policy and its smoothing); this file pins that code at scale.

Every engine must reproduce both files byte-for-byte from the same
config — catching any drift in the engines *or* in the artifact
serialization formats.  A third trail, ``rfh-sparse-p3000-s7.fp.json``
(``repro sanitize --engine scalar --policy rfh --partitions 3000 --rate
100 --epochs 40 --seed 7 --save …``), is checked by CI with ``repro
sanitize --against`` on both engines.

Regenerate after an intentional change to the trajectory (such as the
workload's RNG stream) or to a format with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_artifacts.py

which writes every golden from the scalar engine before any case
compares, so a newly added golden passes on its first run.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.config import ClusterParameters, SimulationConfig, WorkloadParameters
from repro.geo.hierarchy import build_synthetic_hierarchy
from repro.metrics.export import to_csv
from repro.net.builder import build_ring_wan
from repro.sim.columnar import ColumnarSimulation
from repro.sim.engine import Simulation
from repro.staticcheck.sanitizer import DeterminismSanitizer

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"
STEM = "rfh-random-s1234"
EPOCHS = 20
RING_STEM = "rfh-ring100-p2000-s11"
RING_EPOCHS = 15

_ENGINES = {"scalar": Simulation, "columnar": ColumnarSimulation}


def _golden_config() -> SimulationConfig:
    return SimulationConfig(
        seed=1234,
        workload=WorkloadParameters(queries_per_epoch_mean=120.0, num_partitions=24),
    )


def _ring_config() -> SimulationConfig:
    """``test_hundred_site_ring_matches``'s config: one server per site."""
    return SimulationConfig(
        seed=11,
        cluster=ClusterParameters(
            rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=1
        ),
        workload=WorkloadParameters(
            queries_per_epoch_mean=2000.0, num_partitions=2000, zipf_exponent=2.0
        ),
    )


def _produce(
    engine: str, tmp_path: pathlib.Path, ring: bool = False
) -> tuple[bytes, bytes]:
    """One run of a golden config; returns (fp.json bytes, csv bytes).

    The simulation is constructed directly (not via ``run_experiment``)
    so no engine-identity metadata lands in the trail — the bytes depend
    only on the simulated trajectory, which the equivalence contract
    pins across engines.  ``ring`` selects the 100-site ring golden.
    """
    sanitizer = DeterminismSanitizer()
    engine_cls = _ENGINES[engine]
    if ring:
        hierarchy = build_synthetic_hierarchy(100)
        sim = engine_cls(
            _ring_config(),
            policy="rfh",
            hierarchy=hierarchy,
            wan=build_ring_wan(hierarchy),
            sanitizer=sanitizer,
        )
        metrics = sim.run(RING_EPOCHS)
    else:
        sim = engine_cls(_golden_config(), policy="rfh", sanitizer=sanitizer)
        metrics = sim.run(EPOCHS)
    fp_path = tmp_path / f"{engine}.fp.json"
    csv_path = tmp_path / f"{engine}.csv"
    sanitizer.trail().save(fp_path)
    to_csv(metrics, csv_path)
    return fp_path.read_bytes(), csv_path.read_bytes()


@pytest.fixture(scope="module", autouse=True)
def _regenerate_goldens(tmp_path_factory: pytest.TempPathFactory) -> None:
    """With ``REPRO_REGEN_GOLDEN=1``, write the scalar goldens first."""
    if os.environ.get("REPRO_REGEN_GOLDEN") != "1":
        return
    GOLDEN_DIR.mkdir(exist_ok=True)
    for stem, ring in ((STEM, False), (RING_STEM, True)):
        fp_bytes, csv_bytes = _produce("scalar", tmp_path_factory.mktemp(stem), ring=ring)
        (GOLDEN_DIR / f"{stem}.fp.json").write_bytes(fp_bytes)
        (GOLDEN_DIR / f"{stem}.csv").write_bytes(csv_bytes)


@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_engine_reproduces_golden_artifacts(engine: str, tmp_path) -> None:
    _check_golden(engine, STEM, *_produce(engine, tmp_path))


@pytest.mark.parametrize("engine", sorted(_ENGINES))
def test_engine_reproduces_ring_golden_artifacts(engine: str, tmp_path) -> None:
    """2,000 partitions on the 100-site ring, most of them never queried."""
    _check_golden(engine, RING_STEM, *_produce(engine, tmp_path, ring=True))


def _check_golden(engine: str, stem: str, fp_bytes: bytes, csv_bytes: bytes) -> None:
    fp_golden = GOLDEN_DIR / f"{stem}.fp.json"
    csv_golden = GOLDEN_DIR / f"{stem}.csv"
    assert fp_bytes == fp_golden.read_bytes(), (
        f"{engine} engine diverged from golden fingerprint trail "
        f"{fp_golden}; if the change is intentional, regenerate with "
        "REPRO_REGEN_GOLDEN=1"
    )
    assert csv_bytes == csv_golden.read_bytes(), (
        f"{engine} engine diverged from golden metric CSV {csv_golden}; "
        "if the change is intentional, regenerate with REPRO_REGEN_GOLDEN=1"
    )
