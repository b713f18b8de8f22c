"""SLA-attainment experiment (the paper's introductory motivation).

Section I motivates adaptive replication with Amazon's SLA — "a response
within 300 ms for 99.9 % of its requests" — and with the observation
that a system "should provide all customers with a good experience,
rather than just the majority".  This experiment scores the four
algorithms on exactly that currency: the fraction of queries answered
within the bound (blocked queries are misses), against the resources
each algorithm consumed to get there.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SimulationConfig
from .comparison import compare_policies
from .scenarios import random_query_scenario

__all__ = ["SlaResult", "sla_comparison"]


@dataclass(frozen=True)
class SlaResult:
    """SLA attainment versus resource footprint, per policy."""

    #: steady-state SLA attainment in [0, 1]
    attainment: dict[str, float]
    #: steady-state mean response latency (ms)
    latency_ms: dict[str, float]
    #: replica footprint at the end of the run
    replicas: dict[str, float]
    #: shape checks (see :func:`sla_comparison`)
    checks: dict[str, bool]

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.checks.items() if not ok)


def sla_comparison(
    config: SimulationConfig,
    epochs: int = 250,
    full_service_floor: float = 0.97,
) -> SlaResult:
    """Run the random-query comparison and score SLA attainment.

    Shape checks encoded (the introduction's argument, quantified):

    * the algorithms that relieve the holder (rfh / owner / random) all
      clear a high attainment floor;
    * request-oriented — which only serves its top requesters — falls
      visibly below them ("just the majority");
    * among the full-service algorithms, RFH gets there with the
      smallest replica footprint (that is the "high-efficient" claim).
    """
    cmp = compare_policies(random_query_scenario(config, epochs))
    attainment = cmp.steady_table("sla_attainment")
    latency = cmp.steady_table("mean_latency_ms")
    replicas = {p: cmp[p].final("total_replicas") for p in cmp.policies()}

    full_service = ("rfh", "owner", "random")
    checks = {
        "full-service algorithms clear the attainment floor": all(
            attainment[p] >= full_service_floor for p in full_service
        ),
        "request serves only the majority": attainment["request"] < min(
            attainment[p] for p in full_service
        ),
        "rfh cheapest full-service footprint": replicas["rfh"] == min(
            replicas[p] for p in full_service
        ),
    }
    return SlaResult(
        attainment=attainment, latency_ms=latency, replicas=replicas, checks=checks
    )
