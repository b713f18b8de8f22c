"""Deterministic shortest-path routing over the WAN graph.

The traffic-determination model (paper Eqs. 2–8) is defined over "the
routing path from requester j to the holder of partition B_i"; the set of
nodes on that path is ``A_ij``.  :class:`Router` precomputes all-pairs
shortest distances and predecessors (distance-weighted, deterministic
tie-break by node index) once per topology — the WAN never changes during
a run — and exposes:

* :meth:`Router.path` — the ordered datacenter path ``j → holder``, built
  on first use;
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

    Each source's Dijkstra predecessors are one row of a ``(D, D)``
    array; a route is walked back from its destination through its own
    source's row.  :meth:`path` builds a pair's tuple on its first call
    and keeps it, and :meth:`walk_back` walks every route at once without
    building any tuple.
    """

    def __init__(self, wan: WanGraph) -> None:
        self._wan = wan
        n = wan.num_nodes
        self._dist = np.full((n, n), np.inf, dtype=np.float64)
        # _prev[s, d] = node before d on the route s -> d (-1 when d == s
        # or d is unreachable from s).
        self._prev = np.full((n, n), -1, dtype=np.int64)
        # (source, dest) -> route tuple, built by path() on first use.
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
        dist[source] = 0.0
        # Deterministic extraction: smallest distance, then smallest id.
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if visited[u] or d != dist[u]:
                continue  # stale entry: u was settled or re-labelled since
            visited[u] = True
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
        self._prev[source, :] = prev

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
        route = self._paths.get((source, dest))
        if route is None:
            if not self.reachable(source, dest):
                raise TopologyError(f"invalid route endpoints ({source}, {dest})")
            prev = self._prev[source]
            nodes = [int(dest)]
            while nodes[-1] != source:
                nodes.append(int(prev[nodes[-1]]))
            nodes.reverse()
            route = self._paths[(source, dest)] = tuple(nodes)
        return route

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
        return self.path(source, dest)[1]

    def wan_neighbors(self, node: int) -> tuple[int, ...]:
        """Direct WAN neighbours of a datacenter (sorted)."""
        return self._wan.neighbors(node)

    def walk_back(self) -> list[np.ndarray]:
        """Every route at once, walked from its destination to its source.

        Entry ``k`` is a ``(D, D)`` int64 array whose ``[s, d]`` is the
        node ``k`` steps before ``d`` on the route ``s → d``, read from
        ``s``'s own predecessor row (entry 0 is ``d``).  A walk stays at
        ``s`` once it arrives, and an unreachable pair starts there.  The
        list ends at the first entry where every walk has arrived, so its
        length is the node count of the longest route.
        """
        n = self.num_nodes
        origin = np.arange(n)[:, None]
        node = np.where(np.isfinite(self._dist), np.arange(n), origin)
        steps = [node]
        moving = node != origin
        while moving.any():
            node = np.where(moving, self._prev[origin, node], node)
            steps.append(node)
            moving = node != origin
        return steps

    def transit_counts(self) -> np.ndarray:
        """How many ordered (s, d) pairs each node *forwards* for.

        A node forwards for a pair when it lies strictly inside the path
        (neither endpoint).  High counts identify the structural traffic
        hubs of the topology; tests assert D/E/F dominate the default WAN.
        """
        n = self.num_nodes
        origin = np.arange(n)[:, None]
        counts = np.zeros(n, dtype=np.int64)
        # Entry 0 is each destination; every later entry short of the
        # source lies strictly inside its route.
        for step in self.walk_back()[1:]:
            counts += np.bincount(step[step != origin], minlength=n)
        return counts

    def distance_matrix_km(self) -> np.ndarray:
        """Copy of the all-pairs shortest distance matrix."""
        return self._dist.copy()
