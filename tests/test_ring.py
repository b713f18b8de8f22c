"""Consistent-hashing ring: tokens, ownership, fingers, disruption."""

import math

import pytest

from repro.errors import RingError
from repro.ring import (
    HASH_SPACE_SIZE,
    FingerTable,
    HashRing,
    PartitionMapper,
    ring_distance,
    stable_hash,
)
from repro.ring.hashspace import in_arc


class TestHashSpace:
    def test_stable_hash_in_range(self):
        for key in ("a", "partition:0", "server:99:token:7"):
            assert 0 <= stable_hash(key) < HASH_SPACE_SIZE

    def test_stable_hash_is_stable(self):
        assert stable_hash("partition:0") == stable_hash("partition:0")

    def test_different_keys_differ(self):
        assert stable_hash("a") != stable_hash("b")

    def test_ring_distance_basics(self):
        assert ring_distance(5, 5) == 0
        assert ring_distance(0, 10) == 10
        assert ring_distance(10, 0) == HASH_SPACE_SIZE - 10

    def test_ring_distance_complementarity(self):
        a, b = 123456, 987654
        assert ring_distance(a, b) + ring_distance(b, a) == HASH_SPACE_SIZE

    def test_in_arc(self):
        assert in_arc(5, 0, 10)
        assert not in_arc(0, 0, 10)  # half-open on the left
        assert in_arc(10, 0, 10)  # closed on the right
        assert in_arc(1, HASH_SPACE_SIZE - 5, 10)  # wraps


class TestHashRing:
    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(RingError):
            ring.owner(0)

    def test_tokens_per_server(self):
        ring = HashRing(tokens_per_server=4)
        ring.add_server(0)
        assert ring.num_tokens == 4
        assert ring.members == (0,)

    def test_duplicate_membership_rejected(self):
        ring = HashRing()
        ring.add_server(0)
        with pytest.raises(RingError):
            ring.add_server(0)

    def test_remove_unknown_rejected(self):
        ring = HashRing()
        with pytest.raises(RingError):
            ring.remove_server(0)

    def test_owner_is_clockwise_successor(self, ring):
        tokens = ring.tokens()
        for i, token in enumerate(tokens[:50]):
            assert ring.owner(token.position) == token.sid
            # Just past a token, ownership moves to the next token.
            nxt = tokens[(i + 1) % len(tokens)]
            assert ring.owner((token.position + 1) % HASH_SPACE_SIZE) == nxt.sid

    def test_successors_are_distinct_servers(self, ring):
        succ = ring.successors(12345, 5)
        assert len(succ) == 5
        assert len(set(succ)) == 5

    def test_successors_bounded_by_membership(self):
        ring = HashRing()
        ring.add_server(1)
        ring.add_server(2)
        assert len(ring.successors(0, 10)) == 2

    def test_join_disruption_is_local(self, cluster):
        """Adding a server only reassigns keys to the new server —
        nobody else gains ownership ("only impacts its immediate
        neighbors")."""
        ring = HashRing()
        for sid in range(50):
            ring.add_server(sid)
        keys = [stable_hash(f"key:{i}") for i in range(2000)]
        before = [ring.owner(k) for k in keys]
        ring.add_server(50)
        after = [ring.owner(k) for k in keys]
        changed = [(b, a) for b, a in zip(before, after) if b != a]
        assert all(a == 50 for _, a in changed)
        # And the disruption is a small fraction (~1/51 of keys).
        assert len(changed) < len(keys) * 0.15

    def test_leave_disruption_is_local(self):
        ring = HashRing()
        for sid in range(50):
            ring.add_server(sid)
        keys = [stable_hash(f"key:{i}") for i in range(2000)]
        before = [ring.owner(k) for k in keys]
        ring.remove_server(7)
        after = [ring.owner(k) for k in keys]
        for b, a in zip(before, after):
            if b != 7:
                assert a == b  # only the departed server's keys moved

    def test_ownership_fractions_sum_to_one(self, ring):
        fractions = ring.ownership_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(f >= 0 for f in fractions.values())

    def test_ownership_reasonably_balanced(self, ring):
        fractions = ring.ownership_fractions()
        # 8 tokens x 100 servers: no server should own > 6x its fair share.
        assert max(fractions.values()) < 6.0 / 100


class TestPartitionMapper:
    def test_holders_are_members(self, mapper, ring):
        members = set(ring.members)
        assert all(h in members for h in mapper.holders())

    def test_holder_matches_owner(self, mapper, ring):
        for p in range(mapper.num_partitions):
            assert mapper.holder(p) == ring.owner(mapper.key(p))

    def test_partition_spread(self, mapper):
        """64 partitions over 100 servers should touch many servers."""
        assert len(set(mapper.holders())) > 25

    def test_successor_sites_start_at_owner(self, mapper):
        for p in range(8):
            succ = mapper.successor_sites(p, 3)
            assert succ[0] == mapper.holder(p)
            assert len(set(succ)) == 3

    def test_partitions_held_by_roundtrip(self, mapper):
        holders = mapper.holders()
        for p in (0, 5, 63):
            assert p in mapper.partitions_held_by(holders[p])

    def test_unknown_partition_rejected(self, mapper):
        with pytest.raises(RingError):
            mapper.key(64)

    @pytest.mark.parametrize("members", [1, 3, 7, 100])
    def test_holders_match_the_per_key_owner(self, members):
        """The one-``searchsorted`` holder lookup equals the ring's
        per-key successor lookup, keys past the last token included."""
        ring = HashRing(tokens_per_server=1)
        for sid in range(members):
            ring.add_server(sid)
        mapper = PartitionMapper(500, ring)
        keys = [mapper.key(p) for p in range(500)]
        assert keys == [stable_hash(f"partition:{p}") for p in range(500)]
        assert all(type(key) is int for key in keys)
        assert max(keys) > ring.tokens()[-1].position  # the lookup wraps
        owners = [ring.owner(key) for key in keys]
        assert mapper.holders() == owners
        for sid in range(members):
            assert mapper.partitions_held_by(sid) == tuple(
                p for p, owner in enumerate(owners) if owner == sid
            )

    def test_holders_on_an_empty_ring_raise(self):
        ring = HashRing()
        ring.add_server(0)
        mapper = PartitionMapper(4, ring)
        ring.remove_server(0)
        for lookup in (mapper.holders, lambda: mapper.partitions_held_by(0)):
            with pytest.raises(RingError, match="^the ring is empty$"):
                lookup()


class TestFingerTable:
    def test_lookup_finds_owner(self, ring):
        ft = FingerTable(ring)
        for i in range(100):
            key = stable_hash(f"probe:{i}")
            owner_token, _hops = ft.lookup(key)
            assert owner_token.sid == ring.owner(key)

    def test_lookup_hops_are_logarithmic(self, ring):
        """The paper's 'cost of routing is O(log n)' claim."""
        ft = FingerTable(ring)
        bound = 2 * math.log2(ring.num_tokens) + 2
        worst = 0
        for i in range(200):
            key = stable_hash(f"probe:{i}")
            _, hops = ft.lookup(key, start_index=i % ring.num_tokens)
            worst = max(worst, hops)
        assert worst <= bound

    def test_lookup_from_server(self, ring):
        ft = FingerTable(ring)
        key = stable_hash("probe")
        sid, hops = ft.lookup_from_server(ring, key, start_sid=42)
        assert sid == ring.owner(key)
        assert hops >= 0

    def test_lookup_from_unknown_server_raises(self, ring):
        ft = FingerTable(ring)
        with pytest.raises(RingError):
            ft.lookup_from_server(ring, 0, start_sid=12345)

    def test_empty_ring_rejected(self):
        with pytest.raises(RingError):
            FingerTable(HashRing())

    def test_fingers_cover_doubling_distances(self, ring):
        ft = FingerTable(ring)
        fingers = ft.fingers_of(0)
        assert len(fingers) == 32  # one per bit of the id space


class TestOverlayAnalyzer:
    def _world(self, cluster, ring, mapper):
        from repro.cluster import ReplicaMap

        rm = ReplicaMap(cluster, 64, 0.5)
        rm.bootstrap(mapper.holders())
        return rm

    def test_owner_lookup_matches_finger_table(self, cluster, ring, mapper):
        from repro.ring import FingerTable, OverlayAnalyzer

        rm = self._world(cluster, ring, mapper)
        analyzer = OverlayAnalyzer(ring, mapper)
        ft = FingerTable(ring)
        start_index = next(
            i for i, t in enumerate(ring.tokens()) if t.sid == 0
        )  # same gateway token the analyzer uses for server 0
        for p in range(8):
            hops = analyzer.lookup_hops(p, start_sid=0, replicas=rm)
            full = len(ft.route(mapper.key(p), start_index)) - 1
            assert hops <= full  # a replica can only shorten the route

    def test_replication_shortens_lookups(self, cluster, ring, mapper):
        from repro.ring import OverlayAnalyzer

        rm = self._world(cluster, ring, mapper)
        analyzer = OverlayAnalyzer(ring, mapper)
        gateways = tuple(range(0, 100, 10))  # one per datacenter
        before = analyzer.survey(rm, gateways)
        # Blanket the system: every partition replicated on 20 servers.
        for p in range(64):
            holders = {sid for sid, _ in rm.servers_with(p)}
            for sid in range(0, 100, 5):
                if sid not in holders:
                    rm.add(p, sid)
        after = analyzer.survey(rm, gateways)
        assert after.mean_hops < before.mean_hops
        assert after.intercepted_fraction > before.intercepted_fraction

    def test_lookup_at_holder_gateway_is_zero(self, cluster, ring, mapper):
        from repro.ring import OverlayAnalyzer

        rm = self._world(cluster, ring, mapper)
        analyzer = OverlayAnalyzer(ring, mapper)
        holder = rm.holder(0)
        assert analyzer.lookup_hops(0, start_sid=holder, replicas=rm) == 0

    def test_logarithmic_bound_on_live_layout(self, cluster, ring, mapper):
        import math

        from repro.ring import OverlayAnalyzer

        rm = self._world(cluster, ring, mapper)
        analyzer = OverlayAnalyzer(ring, mapper)
        stats = analyzer.survey(rm, gateways=tuple(range(0, 100, 10)))
        assert stats.max_hops <= 2 * math.log2(ring.num_tokens) + 2
        assert stats.lookups == 64 * 10

    def test_unknown_gateway_raises(self, cluster, ring, mapper):
        from repro.errors import RingError
        from repro.ring import OverlayAnalyzer

        rm = self._world(cluster, ring, mapper)
        analyzer = OverlayAnalyzer(ring, mapper)
        with pytest.raises(RingError):
            analyzer.lookup_hops(0, start_sid=1234, replicas=rm)
        with pytest.raises(RingError):
            analyzer.survey(rm, gateways=())


class TestFingerRoute:
    def test_route_endpoints(self, ring):
        from repro.ring import FingerTable

        ft = FingerTable(ring)
        key = stable_hash("probe:route")
        route = ft.route(key, start_index=5)
        assert route[0] == ring.tokens()[5]
        assert route[-1].sid == ring.owner(key)

    def test_route_strictly_advances(self, ring):
        from repro.ring import FingerTable
        from repro.ring.hashspace import ring_distance

        ft = FingerTable(ring)
        key = stable_hash("probe:advance")
        route = ft.route(key, start_index=0)
        # Remaining clockwise distance to the key shrinks every hop —
        # except the final hop, which lands on the key's successor (its
        # position is just *past* the key, so its distance wraps).
        remaining = [ring_distance(t.position, key) for t in route[:-1]]
        assert all(b < a for a, b in zip(remaining, remaining[1:]))

    def test_lookup_consistent_with_route(self, ring):
        from repro.ring import FingerTable

        ft = FingerTable(ring)
        key = stable_hash("probe:consistency")
        owner, hops = ft.lookup(key, 3)
        route = ft.route(key, 3)
        assert owner == route[-1]
        assert hops == len(route) - 1
