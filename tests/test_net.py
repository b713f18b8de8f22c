"""WAN substrate: distances, graph validation, routing, hub structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.geo import build_default_hierarchy, build_synthetic_hierarchy
from repro.metrics.latency import LatencyModel
from repro.net import (
    Router,
    WanGraph,
    build_default_wan,
    build_ring_wan,
    build_wan,
    great_circle_km,
)
from repro.net.builder import DEFAULT_LINKS
from repro.net.coordinates import INTRA_DATACENTER_KM, site_distance_km
from repro.sim.columnar.tables import RouterTables


class TestGreatCircle:
    def test_zero_for_same_point(self):
        assert great_circle_km(10.0, 20.0, 10.0, 20.0) == 0.0

    def test_symmetry(self):
        d1 = great_circle_km(39.0, -77.0, 35.7, 139.7)
        d2 = great_circle_km(35.7, 139.7, 39.0, -77.0)
        assert d1 == pytest.approx(d2)

    def test_known_distance_beijing_tokyo(self):
        # Beijing <-> Tokyo is roughly 2,100 km.
        d = great_circle_km(39.90, 116.40, 35.68, 139.69)
        assert 1900 < d < 2300

    def test_antipodal_is_half_circumference(self):
        d = great_circle_km(0.0, 0.0, 0.0, 180.0)
        assert d == pytest.approx(np.pi * 6371.0, rel=1e-6)

    def test_intra_datacenter_distance(self):
        h = build_default_hierarchy()
        assert site_distance_km(h.site(0), h.site(0)) == INTRA_DATACENTER_KM

    def test_site_distance_positive_across_sites(self):
        h = build_default_hierarchy()
        assert site_distance_km(h.site(0), h.site(9)) > 1000


class TestWanGraph:
    def test_default_wan_shape(self):
        _, wan = build_default_wan()
        assert wan.num_nodes == 10
        assert wan.num_edges == len(DEFAULT_LINKS)

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError):
            WanGraph(3, [(0, 0, 1.0)])

    def test_rejects_unknown_node(self):
        with pytest.raises(TopologyError):
            WanGraph(3, [(0, 5, 1.0)])

    def test_rejects_non_positive_distance(self):
        with pytest.raises(TopologyError):
            WanGraph(3, [(0, 1, 0.0), (1, 2, 1.0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(TopologyError):
            WanGraph(3, [(0, 1, 1.0), (1, 0, 2.0), (1, 2, 1.0)])

    def test_rejects_disconnected(self):
        with pytest.raises(TopologyError):
            WanGraph(4, [(0, 1, 1.0), (2, 3, 1.0)])

    def test_edge_distance_lookup(self):
        wan = WanGraph(3, [(0, 1, 5.0), (1, 2, 7.0)])
        assert wan.edge_distance_km(0, 1) == 5.0
        assert wan.edge_distance_km(1, 0) == 5.0
        with pytest.raises(TopologyError):
            wan.edge_distance_km(0, 2)

    def test_neighbors_sorted(self):
        wan = WanGraph(4, [(0, 3, 1.0), (0, 1, 1.0), (1, 2, 1.0)])
        assert wan.neighbors(0) == (1, 3)

    def test_edges_normalised(self):
        wan = WanGraph(3, [(2, 0, 4.0), (1, 0, 3.0)])
        assert wan.edges() == ((0, 1, 3.0), (0, 2, 4.0))

    def test_has_edge_false_for_out_of_range_nodes(self):
        wan = WanGraph(2, [(0, 1, 1.0)])
        assert wan.has_edge(0, 1) and wan.has_edge(1, 0)
        assert not wan.has_edge(0, 2)
        assert not wan.has_edge(2, 0)
        assert not wan.has_edge(-1, 1)

    def test_disconnected_error_names_components(self):
        with pytest.raises(TopologyError, match=r"components \[\[0, 3\], \[1, 2\], \[4\]\]"):
            WanGraph(5, [(2, 1, 1.0), (3, 0, 1.0)])


class TestRouter:
    def test_path_endpoints_inclusive(self, router):
        path = router.path(7, 0)
        assert path[0] == 7 and path[-1] == 0

    def test_self_path_is_singleton(self, router):
        assert router.path(3, 3) == (3,)
        assert router.hop_count(3, 3) == 0
        assert router.distance_km(3, 3) == 0.0

    def test_paths_are_shortest(self, router, wan):
        """Every reported distance equals the sum of edge weights along
        the reported path, and no single edge shortcut beats it."""
        for s in range(10):
            for d in range(10):
                path = router.path(s, d)
                total = sum(
                    wan.edge_distance_km(path[i], path[i + 1])
                    for i in range(len(path) - 1)
                )
                assert total == pytest.approx(router.distance_km(s, d))
                if wan.has_edge(s, d):
                    assert router.distance_km(s, d) <= wan.edge_distance_km(s, d) + 1e-9

    def test_next_hop_consistent_with_path(self, router):
        for s in range(10):
            for d in range(10):
                if s == d:
                    assert router.next_hop(s, d) == s
                else:
                    assert router.next_hop(s, d) == router.path(s, d)[1]

    def test_asia_to_a_transits_hubs(self, router, hierarchy):
        """The Fig. 1 situation: queries from H/I/J to A pass through the
        Canadian corridor (E, D) — the structural traffic hubs."""
        for origin_name in ("H", "I", "J"):
            origin = hierarchy.by_name(origin_name).index
            path = router.path(origin, hierarchy.by_name("A").index)
            names = {hierarchy.site(dc).name for dc in path[1:-1]}
            assert {"E", "D"} & names, f"{origin_name}->A transit was {names}"

    def test_transit_counts_identify_hubs(self, router, hierarchy):
        counts = router.transit_counts()
        by_name = {hierarchy.site(i).name: int(counts[i]) for i in range(10)}
        top3 = sorted(by_name, key=by_name.get, reverse=True)[:3]
        # D, E and F carry the bulk of trans-continental forwarding.
        assert set(top3) <= {"A", "D", "E", "F", "I"}
        assert by_name["E"] > 0 and by_name["D"] > 0 and by_name["F"] > 0
        # Leaf sites forward nothing.
        assert by_name["B"] == 0 and by_name["G"] == 0 and by_name["J"] == 0

    def test_wan_neighbors(self, router, hierarchy):
        a = hierarchy.by_name("A").index
        neigh = {hierarchy.site(i).name for i in router.wan_neighbors(a)}
        assert neigh == {"B", "C", "D", "F"}

    def test_distance_matrix_symmetric(self, router):
        m = router.distance_matrix_km()
        assert np.allclose(m, m.T)
        assert np.all(np.diag(m) == 0)

    def test_invalid_endpoints_raise(self, router):
        with pytest.raises(TopologyError):
            router.path(0, 10)
        with pytest.raises(TopologyError):
            router.distance_km(-1, 0)

    def test_routing_is_deterministic(self, hierarchy):
        wan = build_wan(hierarchy)
        r1, r2 = Router(wan), Router(wan)
        for s in range(10):
            for d in range(10):
                assert r1.path(s, d) == r2.path(s, d)


class TestBuilder:
    def test_link_to_unknown_site_rejected(self, hierarchy):
        with pytest.raises(TopologyError):
            build_wan(hierarchy, (("A", "Z"),))

    def test_self_link_rejected(self, hierarchy):
        with pytest.raises(TopologyError):
            build_wan(hierarchy, (("A", "A"),))

    def test_edge_weights_are_geo_distances(self, hierarchy):
        wan = build_wan(hierarchy)
        a, b = hierarchy.by_name("A"), hierarchy.by_name("B")
        assert wan.edge_distance_km(a.index, b.index) == pytest.approx(
            site_distance_km(a, b)
        )


def reference_routes(wan):
    """The original numpy-argmin Dijkstra, kept as the router's reference.

    Returns ``(dist, next_hop, paths)`` over every source, with the
    router's tie-breaks: extract by (distance, node id), relax with a
    1e-12 tolerance, and keep the smaller predecessor on a tie.
    """
    n = wan.num_nodes
    all_dist = np.full((n, n), np.inf, dtype=np.float64)
    all_next = np.full((n, n), -1, dtype=np.int64)
    paths = {}
    for source in range(n):
        dist = np.full(n, np.inf, dtype=np.float64)
        prev = np.full(n, -1, dtype=np.int64)
        visited = np.zeros(n, dtype=bool)
        dist[source] = 0.0
        for _ in range(n):
            pending = np.where(~visited)[0]
            if pending.size == 0:
                break
            u = int(pending[np.argmin(dist[pending])])
            if not np.isfinite(dist[u]):
                break
            visited[u] = True
            for v in wan.neighbors(u):
                if visited[v]:
                    continue
                cand = dist[u] + wan.edge_distance_km(u, v)
                if cand < dist[v] - 1e-12 or (
                    abs(cand - dist[v]) <= 1e-12 and prev[v] > u
                ):
                    dist[v] = cand
                    prev[v] = u
        all_dist[source, :] = dist
        for dest in range(n):
            if dest == source or not np.isfinite(dist[dest]):
                continue
            path = [dest]
            while path[-1] != source:
                path.append(int(prev[path[-1]]))
            path.reverse()
            paths[(source, dest)] = tuple(path)
            all_next[source, dest] = path[1]
        paths[(source, source)] = (source,)
    return all_dist, all_next, paths


def eager_routes(wan):
    """The router's former eager build, kept as the reference for its
    on-demand paths: each source's heap Dijkstra (1e-12 tie rule, smaller
    predecessor on a tie), then every path as its predecessor's path plus
    the destination, in settle order, with next hops and transit counts
    read from those paths."""
    import heapq
    import math

    n = wan.num_nodes
    adjacency = [
        [(v, wan.edge_distance_km(u, v)) for v in wan.neighbors(u)] for u in range(n)
    ]
    paths, next_hop = {}, {}
    for source in range(n):
        dist, prev, visited, settled = [math.inf] * n, [-1] * n, [False] * n, []
        dist[source] = 0.0
        heap = [(0.0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if visited[u] or d != dist[u]:
                continue
            visited[u] = True
            settled.append(u)
            for v, weight in adjacency[u]:
                if visited[v]:
                    continue
                cand = d + weight
                if cand < dist[v] - 1e-12 or (abs(cand - dist[v]) <= 1e-12 and prev[v] > u):
                    dist[v] = cand
                    prev[v] = u
                    heapq.heappush(heap, (cand, v))
        paths[(source, source)] = (source,)
        for dest in settled[1:]:
            paths[(source, dest)] = paths[(source, prev[dest])] + (dest,)
            next_hop[(source, dest)] = paths[(source, dest)][1]
    transit = np.zeros(n, dtype=np.int64)
    for (source, dest), path in paths.items():
        if source != dest:
            for node in path[1:-1]:
                transit[node] += 1
    return paths, next_hop, transit


def assert_router_matches_reference(wan):
    """The router's distances, paths, next hops, hop counts, transit
    counts and errors equal both references', and its paths are built
    on demand, each once."""
    ref_dist, ref_next, ref_paths = reference_routes(wan)
    paths, next_hop, transit = eager_routes(wan)
    assert paths == ref_paths
    router = Router(wan)
    dist = router.distance_matrix_km()
    assert dist.view(np.int64).tolist() == ref_dist.view(np.int64).tolist()
    # transit_counts walks the predecessor rows and builds no tuple.
    assert router.transit_counts().tolist() == transit.tolist()
    assert router._paths == {}

    def assert_rejected(s, d):
        for query in (router.path, router.next_hop, router.hop_count):
            with pytest.raises(TopologyError) as caught:
                query(s, d)
            assert str(caught.value) == f"invalid route endpoints ({s}, {d})"

    n = wan.num_nodes
    for s in range(n):
        for d in range(n):
            if (s, d) not in paths:
                assert not router.reachable(s, d)
                assert_rejected(s, d)
                continue
            route = router.path(s, d)
            assert route == paths[(s, d)]
            assert all(type(node) is int for node in route)
            assert router.path(s, d) is route
            assert router.hop_count(s, d) == len(route) - 1
            expected_hop = s if s == d else int(ref_next[s, d])
            assert router.next_hop(s, d) == expected_hop == next_hop.get((s, d), s)
    for s, d in ((-1, 0), (0, -1), (n, 0), (0, n)):
        assert_rejected(s, d)
    assert set(router._paths) == set(paths)


#: Weights chosen to tie: 0.1 + 0.2 and 0.3 differ by less than the
#: router's 1e-12 tolerance, and 1.0 + 1.0 == 2.0 exactly.
TIE_PRONE_WEIGHTS = (1.0, 2.0, 0.1 + 0.2, 0.3)


@st.composite
def tie_prone_wans(draw):
    """A connected graph (random spanning tree plus extra links)."""
    n = draw(st.integers(min_value=2, max_value=9))
    weight = st.sampled_from(TIE_PRONE_WEIGHTS)
    edges = {}
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges[(u, v)] = draw(weight)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if pairs:
        for pair in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)):
            edges[pair] = draw(weight)
    return WanGraph(n, [(u, v, w) for (u, v), w in edges.items()])


class TestRouterAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(wan=tie_prone_wans())
    def test_connected_graphs(self, wan):
        assert_router_matches_reference(wan)

    @settings(max_examples=60, deadline=None)
    @given(wan=tie_prone_wans(), data=st.data())
    def test_without_links_cuts(self, wan, data):
        links = [(u, v) for u, v, _ in wan.edges()]
        cut = data.draw(st.lists(st.sampled_from(links), unique=True, max_size=len(links)))
        assert_router_matches_reference(wan.without_links(cut))

    def test_default_and_ring_wans(self, wan):
        assert_router_matches_reference(wan)
        assert_router_matches_reference(build_ring_wan(build_synthetic_hierarchy(40)))


class TestWalkBack:
    def test_walk_back_reads_each_source_row(self):
        """Every walk entry is the predecessor of the one before it in
        the source's own row, and the list ends when all have arrived."""
        wan = build_ring_wan(build_synthetic_hierarchy(30))
        router = Router(wan)
        paths, _, _ = eager_routes(wan)
        steps = router.walk_back()
        assert len(steps) == max(len(path) for path in paths.values())
        for (s, d), path in paths.items():
            walk = [int(step[s, d]) for step in steps]
            assert walk == list(reversed(path)) + [s] * (len(steps) - len(path))


def reference_tables(router, latency, routes):
    """The original per-route build of :class:`RouterTables`' four tables,
    from ``routes`` (``(o, h) -> path``)."""
    n = router.num_nodes
    max_len = max(len(routes[(o, h)]) for o in range(n) for h in range(n))
    path = np.zeros((n, n, max_len), dtype=np.int64)
    plen = np.zeros((n, n), dtype=np.int64)
    km = np.zeros((n, n, max_len), dtype=np.float64)
    miss = np.zeros((n, n, max_len), dtype=bool)
    for o in range(n):
        for h in range(n):
            route = routes[(o, h)]
            plen[o, h] = len(route)
            for level, dc in enumerate(route):
                distance = router.distance_km(o, dc)
                path[o, h, level] = dc
                km[o, h, level] = distance
                miss[o, h, level] = latency.response_ms(distance, level) > latency.sla_ms
    return path, plen, km, miss


class TestRouterTablesAgainstReference:
    @pytest.mark.parametrize("topology", ["default", "ring-100", "chaos-cut"])
    @pytest.mark.parametrize("sla", ["default", "boundary"])
    def test_tables_bit_equal(self, topology, sla):
        hierarchy, wan = build_default_wan()
        if topology == "ring-100":
            wan = build_ring_wan(build_synthetic_hierarchy(100))
        elif topology == "chaos-cut":
            # The wan-partition scenario's Pacific link alone: Asia
            # stays reachable, rerouted through the Eurasian link.
            i, e = hierarchy.by_name("I").index, hierarchy.by_name("E").index
            wan = wan.without_links([(i, e)])
        router = Router(wan)
        latency = LatencyModel()
        # The reference reads the former eager build's paths.
        routes = eager_routes(wan)[0]
        if sla == "boundary":
            # The SLA equals the median route response exactly, so any
            # rounding difference at that entry flips its miss flag.
            _, _, km, _ = reference_tables(router, latency, routes)
            responses = sorted(
                latency.response_ms(km[o, h, level], level)
                for o in range(router.num_nodes)
                for h in range(router.num_nodes)
                for level in range(1, len(routes[(o, h)]))
            )
            latency = LatencyModel(sla_ms=responses[len(responses) // 2])
        tables = RouterTables(router, latency)
        # The tables come from the predecessor walk and build no route tuple.
        assert router._paths == {}
        path, plen, km, miss = reference_tables(router, latency, routes)
        assert tables.path.dtype == path.dtype and tables.path.tolist() == path.tolist()
        assert tables.plen.dtype == plen.dtype and tables.plen.tolist() == plen.tolist()
        assert tables.km.dtype == km.dtype
        assert tables.km.view(np.int64).tolist() == km.view(np.int64).tolist()
        assert tables.miss.dtype == miss.dtype and tables.miss.tolist() == miss.tolist()
        if sla == "boundary":
            # Both SLA outcomes occur, so the miss comparison is not vacuous.
            assert miss.any() and (~miss & (km > 0)).any()

    def test_route_rows_are_built_on_demand(self):
        """The tail walk's list rows equal the table rows, and only the
        routes asked for are materialised."""
        router = Router(build_ring_wan(build_synthetic_hierarchy(100)))
        tables = RouterTables(router, LatencyModel())
        n = router.num_nodes
        assert tables._route_rows == {}
        queried = {(o, h) for o in range(0, n, 7) for h in range(3, n, 11)}
        for o, h in sorted(queried):
            tables.route_row(o, h)
        assert set(tables._route_rows) == queried
        assert tables.route_row(7, 3) is tables.route_row(7, 3)
        for o in range(n):
            for h in range(n):
                path, km, miss = tables.route_row(o, h)
                assert path == tables.path[o, h].tolist()
                assert km == tables.km[o, h].tolist()
                assert np.array(km).view(np.int64).tolist() == (
                    tables.km[o, h].view(np.int64).tolist()
                )
                assert miss == tables.miss[o, h].tolist()
        assert len(tables._route_rows) == n * n
        # Each km float is the origin's distance-list entry itself.
        dist = router.distance_matrix_km()
        for o, h in sorted(queried):
            path, km, _ = tables.route_row(o, h)
            length = int(tables.plen[o, h])
            assert all(
                km[level] is tables._origin_km[o][path[level]] for level in range(length)
            )
            assert km[:length] == dist[o, path[:length]].tolist()

    def test_unreachable_pair_raises_the_router_error(self):
        """Tables over a cut that separates sites raise the router's
        error for the first unreachable pair, in row-major order."""
        hierarchy, wan = build_default_wan()
        cut = wan.without_links([(u, v) for u, v, _ in wan.edges() if 0 in (u, v)])
        router = Router(cut)
        with pytest.raises(TopologyError, match=r"^invalid route endpoints \(0, 1\)$"):
            RouterTables(router, LatencyModel())
        with pytest.raises(TopologyError, match=r"^invalid route endpoints \(0, 1\)$"):
            router.path(0, 1)
