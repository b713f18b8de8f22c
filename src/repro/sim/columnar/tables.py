"""Static per-topology lookup tables for the columnar serve kernel.

The WAN never changes during a run (chaos link cuts swap in a *different*
router, on which the columnar engine falls back to the scalar path), so
every routing quantity the overflow walk needs is a pure function of the
``(origin, holder_dc)`` pair and the path level.  :class:`RouterTables`
materialises them once per router:

* ``path[o, h, l]`` — datacenter at level ``l`` of the route ``o → h``;
* ``plen[o, h]`` — node count of the route (``hops + 1``);
* ``km[o, h, l]`` — ``router.distance_km(o, path[o, h, l])``;
* ``miss[o, h, l]`` — whether a query absorbed there violates the SLA.

Levels at or past ``plen`` are padding: ``path`` and ``km`` hold zero
there and ``miss`` holds False.  ``path`` and ``plen`` are filled from
:meth:`Router.walk_back`, every route walked back through its source's
predecessor row at once, so no per-route tuple is built.  ``km`` is
gathered from the router's distance matrix, so it holds the very floats
``distance_km`` returns.  ``miss`` evaluates
:meth:`LatencyModel.response_ms` elementwise with the same float
operations in the same order, so every flag equals the scalar
comparison — table lookups cannot introduce rounding differences.

The kernel's Python tail walk reads routes as lists; :meth:`route_row`
builds that list form per route on first use, since a run walks only a
fraction of the D² routes (about a fifth at 100 sites), and takes its km
floats from one distance list per origin.
"""

from __future__ import annotations

import numpy as np

from ...errors import TopologyError
from ...metrics.latency import FIBRE_KM_PER_MS, LatencyModel
from ...net.routing import Router

__all__ = ["RouterTables"]


class RouterTables:
    """Dense route/distance/SLA tables for one (router, latency model).

    ``path`` and ``plen`` come from the router's predecessor walk, so
    building them creates no route tuple; :meth:`route_row`'s km lists
    reuse one list of distance floats per origin.  A router with an
    unreachable pair raises :class:`TopologyError` for the first such
    pair in row-major order, as :meth:`Router.path` does for it.
    """

    __slots__ = (
        "path",
        "plen",
        "km",
        "miss",
        "num_dcs",
        "max_len",
        "origin_start",
        "level0_stats_free",
        "_dist",
        "_origin_km",
        "_route_rows",
    )

    def __init__(self, router: Router, latency: LatencyModel) -> None:
        num_dcs = router.num_nodes
        dist = router.distance_matrix_km()
        unreachable = np.argwhere(~np.isfinite(dist))
        if unreachable.size:
            origin, holder_dc = unreachable[0].tolist()
            raise TopologyError(f"invalid route endpoints ({origin}, {holder_dc})")
        # steps[k][o, h] is the node k steps before h on route o -> h, so
        # the route has hops[o, h] + 1 nodes and level l is steps[hops - l].
        steps = router.walk_back()
        max_len = len(steps)
        self.num_dcs = num_dcs
        self.max_len = max_len
        origin_col = np.arange(num_dcs)[:, None]
        hops = sum(step != origin_col for step in steps)
        path = np.zeros((num_dcs, num_dcs, max_len), dtype=np.int64)
        for back, step in enumerate(steps):
            rows, cols = np.nonzero(hops >= back)
            path[rows, cols, hops[rows, cols] - back] = step[rows, cols]
        self.path = path
        self.plen = hops + 1
        level = np.arange(max_len)
        on_route = level < self.plen[:, :, None]
        origin = np.arange(num_dcs)[:, None, None]
        self.km = np.where(on_route, dist[origin, self.path], 0.0)
        # LatencyModel.response_ms(km, level) > sla_ms, term for term.
        response = (
            2.0 * self.km / FIBRE_KM_PER_MS
            + level * latency.hop_overhead_ms
            + latency.service_ms
        )
        self.miss = on_route & (response > latency.sla_ms)
        for table in (self.path, self.plen, self.km, self.miss):
            table.setflags(write=False)
        # Kernel fast-path facts, proven against the built tables: every
        # route starts at its origin (level-0 group keys are therefore
        # unique per flow), and level-0 absorption charges zero distance
        # and no SLA miss (so those accumulator adds are exact no-ops).
        self.origin_start = bool(
            (self.path[:, :, 0] == np.arange(num_dcs)[:, None]).all()
        )
        self.level0_stats_free = bool(
            (self.km[:, :, 0] == 0.0).all()
        ) and not bool(self.miss[:, :, 0].any())
        # route_row() state, filled on demand: each origin's distances as
        # one list of Python floats, and (origin, holder_dc) -> rows.
        self._dist = dist
        self._origin_km: list[list[float] | None] = [None] * num_dcs
        self._route_rows: dict[
            tuple[int, int], tuple[list[int], list[float], list[bool]]
        ] = {}

    def route_row(
        self, origin: int, holder_dc: int
    ) -> tuple[list[int], list[float], list[bool]]:
        """The ``(path, km, miss)`` rows of route ``origin → holder_dc``
        as Python lists, built on the first call and cached.

        The lists hold the same int64/float64/bool values the arrays do,
        so the tail walk's reads are identical to array reads.  Since
        ``km[o, h, l]`` is ``dist[o, path[o, h, l]]``, a km row takes its
        floats from the origin's one distance list: the routes of an
        origin share them instead of boxing a float per level.
        """
        row = self._route_rows.get((origin, holder_dc))
        if row is None:
            km_of = self._origin_km[origin]
            if km_of is None:
                km_of = self._origin_km[origin] = self._dist[origin].tolist()
            path = self.path[origin, holder_dc].tolist()
            length = int(self.plen[origin, holder_dc])
            km = [km_of[dc] for dc in path[:length]]
            km += [0.0] * (self.max_len - length)
            row = (path, km, self.miss[origin, holder_dc].tolist())
            self._route_rows[(origin, holder_dc)] = row
        return row
