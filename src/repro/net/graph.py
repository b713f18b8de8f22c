"""Validated, immutable WAN graph over datacenter indices.

A per-node adjacency list (``{neighbour: distance_km}``, sorted by
neighbour) that enforces the invariants routing relies on:

* nodes are exactly ``0..n-1`` (datacenter indices);
* every edge carries a strictly positive ``distance_km`` weight;
* the graph is connected (every requester can reach every holder).

The graph is immutable after construction — topology changes in the
paper happen at the *server* level (join/failure/recovery), never at the
WAN level, so a frozen graph lets the router cache all-pairs paths once.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..errors import TopologyError

__all__ = ["WanGraph"]


def _components(adj: list[dict[int, float]]) -> list[list[int]]:
    """Connected components, each sorted, ordered by their smallest node."""
    seen = [False] * len(adj)
    components: list[list[int]] = []
    for root in range(len(adj)):
        if seen[root]:
            continue
        seen[root] = True
        stack = [root]
        members: list[int] = []
        while stack:
            node = stack.pop()
            members.append(node)
            for nbr in adj[node]:
                if not seen[nbr]:
                    seen[nbr] = True
                    stack.append(nbr)
        components.append(sorted(members))
    return components


class WanGraph:
    """An immutable weighted graph over datacenter indices.

    Parameters
    ----------
    num_nodes:
        Number of datacenters; node ids are ``0..num_nodes-1``.
    edges:
        Iterable of ``(u, v, distance_km)`` triples.
    allow_disconnected:
        Skip the connectivity check.  Only degraded views built by
        :meth:`without_links` (chaos WAN partitions) may be
        disconnected; a *physical* topology must stay connected.
    """

    def __init__(
        self,
        num_nodes: int,
        edges: Iterable[tuple[int, int, float]],
        *,
        allow_disconnected: bool = False,
    ) -> None:
        if num_nodes < 1:
            raise TopologyError(f"num_nodes must be >= 1, got {num_nodes}")
        adj: list[dict[int, float]] = [{} for _ in range(num_nodes)]
        for u, v, dist in edges:
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise TopologyError(f"edge ({u}, {v}) references an unknown node")
            if u == v:
                raise TopologyError(f"self-loop on node {u} is not allowed")
            if dist <= 0:
                raise TopologyError(f"edge ({u}, {v}) must have positive distance, got {dist}")
            if v in adj[u]:
                raise TopologyError(f"duplicate edge ({u}, {v})")
            adj[u][v] = adj[v][u] = float(dist)
        if num_nodes > 1 and not allow_disconnected:
            components = _components(adj)
            if len(components) > 1:
                raise TopologyError(f"WAN graph is disconnected: components {components}")
        self._adj = [dict(sorted(nbrs.items())) for nbrs in adj]
        self._num_nodes = num_nodes

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of datacenters."""
        return self._num_nodes

    @property
    def num_edges(self) -> int:
        """Number of WAN links."""
        return sum(map(len, self._adj)) // 2

    def neighbors(self, node: int) -> tuple[int, ...]:
        """Sorted neighbour datacenters of ``node``."""
        self._check_node(node)
        return tuple(self._adj[node])

    def has_edge(self, u: int, v: int) -> bool:
        """True when a direct WAN link connects ``u`` and ``v``."""
        return 0 <= u < self._num_nodes and v in self._adj[u]

    def edge_distance_km(self, u: int, v: int) -> float:
        """Distance of the direct link ``u``–``v``.

        Raises :class:`TopologyError` when no such link exists.
        """
        if not self.has_edge(u, v):
            raise TopologyError(f"no WAN link between {u} and {v}")
        return self._adj[u][v]

    def edges(self) -> tuple[tuple[int, int, float], ...]:
        """All edges as sorted ``(u, v, distance_km)`` triples with u < v."""
        return tuple(
            (u, v, dist)
            for u, nbrs in enumerate(self._adj)
            for v, dist in nbrs.items()
            if u < v
        )

    def without_links(self, links: Iterable[tuple[int, int]]) -> "WanGraph":
        """A degraded copy with the given links removed.

        The result may be disconnected — that is the point: a WAN
        partition isolates datacenters without touching their servers.
        Raises :class:`TopologyError` when a named link does not exist
        in *this* graph (cut sets are always expressed against the
        physical topology).
        """
        cut = set()
        for u, v in links:
            a, b = (u, v) if u < v else (v, u)
            if not self.has_edge(a, b):
                raise TopologyError(f"cannot cut non-existent WAN link ({u}, {v})")
            cut.add((a, b))
        kept = [e for e in self.edges() if (e[0], e[1]) not in cut]
        return WanGraph(self._num_nodes, kept, allow_disconnected=True)

    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not 0 <= node < self._num_nodes:
            raise TopologyError(f"datacenter index out of range: {node}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WanGraph(nodes={self._num_nodes}, edges={self.num_edges})"
