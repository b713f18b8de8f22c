"""Deterministic shortest-path routing over the WAN graph.

The traffic-determination model (paper Eqs. 2–8) is defined over "the
routing path from requester j to the holder of partition B_i"; the set of
nodes on that path is ``A_ij``.  :class:`Router` precomputes all-pairs
shortest paths (distance-weighted, deterministic tie-break by node index)
once per topology — the WAN never changes during a run — and exposes:

* :meth:`Router.path` — the ordered datacenter path ``j → holder``;
* :meth:`Router.distance_km` — path distance, feeding Eq. 1's ``d``;
* :meth:`Router.transit_counts` — how many source–destination pairs each
  node forwards for, i.e. which nodes are structural "conjunction nodes
  of many necessary routing paths".
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from ..errors import TopologyError
from .graph import WanGraph

__all__ = ["Router"]


class Router:
    """All-pairs deterministic shortest paths over a :class:`WanGraph`.

    Uses Dijkstra with a lexicographic tie-break: among equal-distance
    paths the one whose predecessor has the smaller index wins, so every
    run of the simulation sees identical routes.
    """

    def __init__(self, wan: WanGraph) -> None:
        self._wan = wan
        n = wan.num_nodes
        self._dist = np.full((n, n), np.inf, dtype=np.float64)
        # _next_hop[s, d] = first hop on the path s -> d (or -1 on s == d).
        self._next_hop = np.full((n, n), -1, dtype=np.int64)
        self._paths: dict[tuple[int, int], tuple[int, ...]] = {}
        adjacency = [
            [(v, wan.edge_distance_km(u, v)) for v in wan.neighbors(u)] for u in range(n)
        ]
        for source in range(n):
            self._run_dijkstra(source, adjacency)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _run_dijkstra(self, source: int, adjacency: list[list[tuple[int, float]]]) -> None:
        n = len(adjacency)
        dist = [math.inf] * n
        prev = [-1] * n
        visited = [False] * n
        settled: list[int] = []
        dist[source] = 0.0
        # Deterministic extraction: smallest distance, then smallest id.
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if visited[u] or d != dist[u]:
                continue  # stale entry: u was settled or re-labelled since
            visited[u] = True
            settled.append(u)
            for v, weight in adjacency[u]:
                if visited[v]:
                    continue
                cand = d + weight
                # Strict improvement, or equal distance with a smaller
                # predecessor index: both keep routing deterministic.
                if cand < dist[v] - 1e-12 or (
                    abs(cand - dist[v]) <= 1e-12 and prev[v] > u
                ):
                    dist[v] = cand
                    prev[v] = u
                    heapq.heappush(heap, (cand, v))
        self._dist[source, :] = dist
        # A node settles after its predecessor, so each path extends one
        # already built.
        paths = self._paths
        paths[(source, source)] = (source,)
        next_hop = self._next_hop[source]
        for dest in settled[1:]:
            path = paths[(source, prev[dest])] + (dest,)
            paths[(source, dest)] = path
            next_hop[dest] = path[1]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self._wan.num_nodes

    def path(self, source: int, dest: int) -> tuple[int, ...]:
        """Ordered datacenter path from ``source`` to ``dest``, inclusive.

        ``path(j, j) == (j,)`` — a query raised inside the holder's own
        datacenter has a zero-hop path.
        """
        try:
            return self._paths[(source, dest)]
        except KeyError:
            raise TopologyError(f"invalid route endpoints ({source}, {dest})") from None

    def hop_count(self, source: int, dest: int) -> int:
        """Number of WAN hops (edges) on the route."""
        return len(self.path(source, dest)) - 1

    def distance_km(self, source: int, dest: int) -> float:
        """Shortest-path distance in kilometres (0.0 for source == dest).

        ``inf`` when the pair is unreachable (a router over a degraded,
        partitioned WAN graph — see :meth:`reachable`).
        """
        if not (0 <= source < self.num_nodes and 0 <= dest < self.num_nodes):
            raise TopologyError(f"invalid route endpoints ({source}, {dest})")
        return float(self._dist[source, dest])

    def reachable(self, source: int, dest: int) -> bool:
        """Whether any path connects the pair.

        Always True on a connected topology; routers built over a
        partitioned graph (chaos ``LinkFailureEvent``) report False for
        pairs the cut separates.
        """
        if not (0 <= source < self.num_nodes and 0 <= dest < self.num_nodes):
            raise TopologyError(f"invalid route endpoints ({source}, {dest})")
        return bool(np.isfinite(self._dist[source, dest]))

    def next_hop(self, source: int, dest: int) -> int:
        """First hop on the route, or ``source`` itself when already there."""
        if source == dest:
            return source
        hop = int(self._next_hop[source, dest])
        if hop < 0:
            raise TopologyError(f"invalid route endpoints ({source}, {dest})")
        return hop

    def wan_neighbors(self, node: int) -> tuple[int, ...]:
        """Direct WAN neighbours of a datacenter (sorted)."""
        return self._wan.neighbors(node)

    def transit_counts(self) -> np.ndarray:
        """How many ordered (s, d) pairs each node *forwards* for.

        A node forwards for a pair when it lies strictly inside the path
        (neither endpoint).  High counts identify the structural traffic
        hubs of the topology; tests assert D/E/F dominate the default WAN.
        """
        counts = np.zeros(self.num_nodes, dtype=np.int64)
        for (source, dest), path in self._paths.items():
            if source == dest:
                continue
            for node in path[1:-1]:
                counts[node] += 1
        return counts

    def distance_matrix_km(self) -> np.ndarray:
        """Copy of the all-pairs shortest distance matrix."""
        return self._dist.copy()
