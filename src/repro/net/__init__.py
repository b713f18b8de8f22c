"""Inter-datacenter WAN substrate (paper Fig. 1).

The traffic-hub concept at the heart of RFH only exists because queries
from requester datacenters to a partition holder *transit* intermediate
datacenters ("conjunction nodes of many necessary routing paths").  This
package builds the sparse WAN graph those paths live on:

* :mod:`repro.net.coordinates` — great-circle distances between sites;
* :mod:`repro.net.graph` — a validated, immutable weighted graph kept
  as a plain per-node adjacency list;
* :mod:`repro.net.builder` — the default 13-link topology matching the
  Fig. 1 narrative (Asia reaches ``A`` via hubs ``D``/``E``/``F``);
* :mod:`repro.net.routing` — deterministic shortest-path routing (a heap
  Dijkstra per source) with an all-pairs cache and transit-frequency
  analysis.
"""

from .builder import build_default_wan, build_ring_wan, build_wan
from .coordinates import great_circle_km
from .graph import WanGraph
from .routing import Router

__all__ = [
    "great_circle_km",
    "WanGraph",
    "build_wan",
    "build_default_wan",
    "build_ring_wan",
    "Router",
]
