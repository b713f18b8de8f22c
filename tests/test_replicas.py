"""Replica map: placement state, storage coupling, failure handling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ReplicaMap
from repro.config import ClusterParameters
from repro.errors import ActionError, ReproError, SimulationError
from repro.geo import build_default_hierarchy
from repro.sim.rng import RngTree


@pytest.fixture
def rm(cluster) -> ReplicaMap:
    rm = ReplicaMap(cluster, num_partitions=8, partition_size_mb=0.5)
    rm.bootstrap([0, 10, 20, 30, 40, 50, 60, 70])
    return rm


class TestBootstrap:
    def test_one_copy_per_partition(self, rm):
        assert rm.total_replicas() == 8
        assert rm.per_partition_counts() == [1] * 8
        assert rm.holder(0) == 0 and rm.holder(7) == 70

    def test_bootstrap_charges_storage(self, cluster, rm):
        assert cluster.server(0).storage_used_mb == pytest.approx(0.5)

    def test_double_bootstrap_rejected(self, rm):
        with pytest.raises(SimulationError):
            rm.bootstrap([0] * 8)

    def test_wrong_holder_count_rejected(self, cluster):
        rm = ReplicaMap(cluster, 4, 0.5)
        with pytest.raises(ActionError):
            rm.bootstrap([0, 1])


class TestAddRemove:
    def test_add_increments_and_stores(self, cluster, rm):
        rm.add(0, 5)
        assert rm.count(0, 5) == 1
        assert rm.replica_count(0) == 2
        assert cluster.server(5).storage_used_mb == pytest.approx(0.5)

    def test_multiplicity_allowed(self, rm):
        rm.add(0, 5)
        rm.add(0, 5)
        assert rm.count(0, 5) == 2
        assert rm.replica_count(0) == 3

    def test_remove_releases_storage(self, cluster, rm):
        rm.add(0, 5)
        rm.remove(0, 5)
        assert rm.count(0, 5) == 0
        assert cluster.server(5).storage_used_mb == 0.0

    def test_remove_last_copy_refused(self, rm):
        with pytest.raises(ActionError):
            rm.remove(0, 0)

    def test_remove_from_copyless_server_refused(self, rm):
        rm.add(0, 5)
        with pytest.raises(ActionError):
            rm.remove(0, 6)

    def test_add_to_dead_server_refused(self, cluster, rm):
        cluster.fail_server(5)
        with pytest.raises(ActionError):
            rm.add(0, 5)

    def test_unknown_partition_rejected(self, rm):
        with pytest.raises(ActionError):
            rm.add(99, 0)

    def test_holder_follows_when_holder_copy_removed(self, rm):
        rm.add(0, 5)
        rm.remove(0, 0)  # remove the original holder copy
        assert rm.holder(0) == 5


class TestMove:
    def test_move_transfers_one_copy(self, cluster, rm):
        rm.add(0, 5)
        rm.move(0, 5, 9)
        assert rm.count(0, 5) == 0
        assert rm.count(0, 9) == 1
        assert cluster.server(9).storage_used_mb == pytest.approx(0.5)
        assert cluster.server(5).storage_used_mb == 0.0

    def test_move_to_self_rejected(self, rm):
        rm.add(0, 5)
        with pytest.raises(ActionError):
            rm.move(0, 5, 5)

    def test_move_never_loses_last_copy(self, rm):
        # Moving the only copy is allowed because add happens first.
        rm.move(0, 0, 5)
        assert rm.replica_count(0) == 1
        assert rm.holder(0) == 5


class TestLayoutQueries:
    def test_replicas_by_dc_grouping(self, rm, cluster):
        rm.add(0, 5)  # dc 0
        rm.add(0, 15)  # dc 1
        layout = rm.replicas_by_dc(0)
        assert layout[0] == [(0, 1), (5, 1)]
        assert layout[1] == [(15, 1)]

    def test_layout_cache_invalidation(self, rm):
        layout1 = rm.replicas_by_dc(0)
        rm.add(0, 5)
        layout2 = rm.replicas_by_dc(0)
        assert layout1 != layout2

    def test_partitions_on(self, rm):
        rm.add(3, 5)
        assert rm.partitions_on(5) == (3,)
        assert rm.partitions_on(0) == (0,)

    def test_servers_with_sorted(self, rm):
        rm.add(0, 9)
        rm.add(0, 5)
        assert rm.servers_with(0) == ((0, 1), (5, 1), (9, 1))


class TestFailureHandling:
    def test_drop_server_erases_copies(self, cluster, rm):
        rm.add(0, 5)
        cluster.fail_server(5)
        affected = rm.drop_server(5)
        assert affected == (0,)
        assert rm.count(0, 5) == 0

    def test_holder_promotion_on_drop(self, cluster, rm):
        rm.add(0, 5)
        cluster.fail_server(0)
        rm.drop_server(0)
        assert rm.holder(0) == 5

    def test_total_loss_clears_holder(self, cluster, rm):
        cluster.fail_server(0)
        rm.drop_server(0)
        assert not rm.has_holder(0)
        with pytest.raises(SimulationError):
            rm.holder(0)

    def test_restore_recreates(self, cluster, rm):
        cluster.fail_server(0)
        rm.drop_server(0)
        rm.restore(0, 42)
        assert rm.holder(0) == 42
        assert rm.replica_count(0) == 1
        assert cluster.server(42).storage_used_mb == pytest.approx(0.5)

    def test_restore_with_holder_present_rejected(self, rm):
        with pytest.raises(SimulationError):
            rm.restore(0, 42)

    def test_set_holder_requires_copy(self, rm):
        rm.add(0, 5)
        rm.set_holder(0, 5)
        assert rm.holder(0) == 5
        with pytest.raises(ActionError):
            rm.set_holder(0, 6)


class TestStorageConsistency:
    def test_storage_tracks_total_copies(self, cluster, hierarchy):
        rm = ReplicaMap(cluster, 4, 0.5)
        rm.bootstrap([0, 1, 2, 3])
        for _ in range(10):
            rm.add(0, 50)
        total_mb = sum(s.storage_used_mb for s in cluster.servers)
        assert total_mb == pytest.approx(0.5 * rm.total_replicas())


# ----------------------------------------------------------------------
# Reference model: per-partition dicts, the storage ReplicaMap replaced
# ----------------------------------------------------------------------
class DictReplicaMap:
    """A ``{sid: count}`` dict per partition with the map's rules, errors
    and mirror callbacks; groupings are rebuilt from the sorted dict."""

    def __init__(self, cluster, num_partitions, size_mb, mirror):
        self._cluster = cluster
        self._size_mb = size_mb
        self._counts = [dict() for _ in range(num_partitions)]
        self._holder = [None] * num_partitions
        self._mirror = mirror

    def _check(self, partition):
        if not 0 <= partition < len(self._counts):
            raise ActionError(f"unknown partition: {partition}")

    def _add_count(self, partition, sid):
        counts = self._counts[partition]
        counts[sid] = counts.get(sid, 0) + 1
        self._mirror.on_count(partition, sid, counts[sid])

    def bootstrap(self, holders):
        if len(holders) != len(self._counts):
            raise ActionError(f"expected {len(self._counts)} holders, got {len(holders)}")
        for partition, sid in enumerate(holders):
            if self._holder[partition] is not None:
                raise SimulationError(f"partition {partition} already bootstrapped")
            self._holder[partition] = sid
            self._mirror.on_holder(partition, sid)
            self._cluster.server(sid).store(self._size_mb)
            self._add_count(partition, sid)

    def holder(self, partition):
        self._check(partition)
        if self._holder[partition] is None:
            raise SimulationError(f"partition {partition} currently has no holder")
        return self._holder[partition]

    def has_holder(self, partition):
        self._check(partition)
        return self._holder[partition] is not None

    def count(self, partition, sid):
        self._check(partition)
        return self._counts[partition].get(sid, 0)

    def replica_count(self, partition):
        self._check(partition)
        return sum(self._counts[partition].values())

    def servers_with(self, partition):
        self._check(partition)
        return tuple(sorted(self._counts[partition].items()))

    def replicas_by_dc(self, partition):
        self._check(partition)
        grouped = {}
        for sid, count in sorted(self._counts[partition].items()):
            grouped.setdefault(self._cluster.dc_of(sid), []).append((sid, count))
        return grouped

    def total_replicas(self):
        return sum(sum(c.values()) for c in self._counts)

    def per_partition_counts(self):
        return [sum(c.values()) for c in self._counts]

    def partitions_on(self, sid):
        return tuple(p for p, c in enumerate(self._counts) if c.get(sid, 0) > 0)

    def add(self, partition, sid):
        self._check(partition)
        server = self._cluster.server(sid)
        if not server.alive:
            raise ActionError(f"cannot place partition {partition} on down server {sid}")
        server.store(self._size_mb)
        self._add_count(partition, sid)

    def remove(self, partition, sid):
        self._check(partition)
        current = self._counts[partition].get(sid, 0)
        if current <= 0:
            raise ActionError(f"no copy of partition {partition} on server {sid}")
        if self.replica_count(partition) <= 1:
            raise ActionError(f"refusing to remove the last copy of partition {partition}")
        server = self._cluster.server(sid)
        if server.alive:
            server.release(self._size_mb)
        if current == 1:
            del self._counts[partition][sid]
        else:
            self._counts[partition][sid] = current - 1
        self._mirror.on_count(partition, sid, current - 1)
        if self._holder[partition] == sid and self._counts[partition].get(sid, 0) == 0:
            self._holder[partition] = min(self._counts[partition])
            self._mirror.on_holder(partition, self._holder[partition])

    def move(self, partition, src_sid, dst_sid):
        if src_sid == dst_sid:
            raise ActionError(f"migration source and destination are both {src_sid}")
        self.add(partition, dst_sid)
        self.remove(partition, src_sid)

    def set_holder(self, partition, sid):
        self._check(partition)
        if self._counts[partition].get(sid, 0) <= 0:
            raise ActionError(
                f"server {sid} holds no copy of partition {partition}; cannot be holder"
            )
        self._holder[partition] = sid
        self._mirror.on_holder(partition, sid)

    def drop_server(self, sid):
        affected = []
        for partition, counts in enumerate(self._counts):
            if counts.pop(sid, 0) > 0:
                affected.append(partition)
                self._mirror.on_count(partition, sid, 0)
                if self._holder[partition] == sid:
                    self._holder[partition] = min(counts) if counts else None
                    self._mirror.on_holder(partition, self._holder[partition])
        return tuple(affected)

    def restore(self, partition, sid):
        self._check(partition)
        if self._holder[partition] is not None:
            raise SimulationError(f"partition {partition} still has a holder")
        self._holder[partition] = sid
        self._mirror.on_holder(partition, sid)
        self._cluster.server(sid).store(self._size_mb)
        self._add_count(partition, sid)


class CallbackLog:
    """A mirror that records every callback in order."""

    def __init__(self):
        self.calls = []

    def on_count(self, partition, sid, count):
        self.calls.append(("count", partition, sid, count))

    def on_holder(self, partition, sid):
        self.calls.append(("holder", partition, sid))


MODEL_PARTITIONS = 3
MODEL_PARAMS = ClusterParameters(rooms_per_datacenter=1, racks_per_room=1, servers_per_rack=2)
#: Few ids, so random steps often hit the same copies: two servers of
#: datacenter 0, one each of datacenters 1 and 5, and one invalid id on
#: each side.
MODEL_SIDS = st.sampled_from([-1, 0, 1, 2, 10, 20])
MODEL_PARTS = st.sampled_from(range(-1, MODEL_PARTITIONS + 1))


def model_cluster():
    return Cluster(build_default_hierarchy(), MODEL_PARAMS, RngTree(5).stream("capacity"))


def outcome(call):
    """``(result, None)`` or ``(None, (error type, message))``."""
    try:
        return call(), None
    except ReproError as exc:
        return None, (type(exc), str(exc))


def assert_same_state(new, ref, new_cluster, ref_cluster):
    sids = range(-1, new_cluster.num_servers + 1)
    for partition in range(-1, MODEL_PARTITIONS + 1):
        for query in ("servers_with", "replica_count", "has_holder", "holder"):
            assert outcome(lambda: getattr(new, query)(partition)) == outcome(
                lambda: getattr(ref, query)(partition)
            ), (query, partition)
        # Datacenter order matters too: compare the items in order.
        assert outcome(lambda: list(new.replicas_by_dc(partition).items())) == outcome(
            lambda: list(ref.replicas_by_dc(partition).items())
        )
        for sid in sids:
            assert outcome(lambda: new.count(partition, sid)) == outcome(
                lambda: ref.count(partition, sid)
            )
    assert new.total_replicas() == ref.total_replicas()
    assert new.per_partition_counts() == ref.per_partition_counts()
    for sid in sids:
        assert new.partitions_on(sid) == ref.partitions_on(sid)
    assert new.holders_and_layouts() == (
        tuple(ref._holder),
        tuple(tuple(sorted(counts.items())) for counts in ref._counts),
    )
    for a, b in zip(new_cluster.servers, ref_cluster.servers):
        assert (a.alive, a.storage_used_mb) == (b.alive, b.storage_used_mb)


#: Step kinds; adds are drawn three times as often as the others, so
#: layouts reach the three copies a holder move needs to show its choice,
#: and two kinds take the holder's copy away.
OPS = (
    "add", "add", "add", "remove", "move", "set_holder", "drop_server",
    "recover", "restore", "bootstrap", "remove_holder", "drop_holder",
)


def draw_step(data, ref):
    """One step whose copy arguments are mostly servers the model says
    hold the partition now, so removals, moves and failures often hit."""
    op = data.draw(st.sampled_from(OPS))
    partition = data.draw(MODEL_PARTS)
    valid = 0 <= partition < MODEL_PARTITIONS
    held = ref._counts[partition] if valid else {}
    copy = st.sampled_from(sorted(held)) | MODEL_SIDS if held else MODEL_SIDS
    if op in ("remove_holder", "drop_holder"):
        holder = ref._holder[partition] if valid else None
        sid = -1 if holder is None else holder
        return ("remove", partition, sid) if op == "remove_holder" else ("drop_server", sid)
    if op in ("add", "restore"):
        return (op, partition, data.draw(MODEL_SIDS))
    if op in ("remove", "set_holder"):
        return (op, partition, data.draw(copy))
    if op == "move":
        return (op, partition, data.draw(copy), data.draw(MODEL_SIDS))
    if op == "drop_server":
        return (op, data.draw(copy))
    if op == "recover":
        return (op, data.draw(MODEL_SIDS))
    return (op, data.draw(st.lists(MODEL_SIDS, min_size=2, max_size=3)))


def apply_step(replicas, cluster, step):
    op, *args = step
    if op == "drop_server":
        (sid,) = args
        if 0 <= sid < cluster.num_servers and cluster.server(sid).alive:
            cluster.fail_server(sid)
        return replicas.drop_server(sid)
    if op == "recover":
        (sid,) = args
        if 0 <= sid < cluster.num_servers:
            cluster.recover_server(sid)
        return None
    return getattr(replicas, op)(*args)


class TestAgainstDictModel:
    """Each step goes to the layout map and to the dict model; after it,
    both give every answer, error, storage figure and mirror callback
    alike."""

    def setup_maps(self):
        self.clusters = model_cluster(), model_cluster()
        self.logs = CallbackLog(), CallbackLog()
        self.new = ReplicaMap(self.clusters[0], MODEL_PARTITIONS, 0.5)
        self.new.attach_mirror(self.logs[0])
        self.ref = DictReplicaMap(self.clusters[1], MODEL_PARTITIONS, 0.5, self.logs[1])

    def step(self, step):
        new_cluster, ref_cluster = self.clusters
        assert outcome(lambda: apply_step(self.new, new_cluster, step)) == outcome(
            lambda: apply_step(self.ref, ref_cluster, step)
        ), step
        assert self.logs[0].calls == self.logs[1].calls
        assert_same_state(self.new, self.ref, new_cluster, ref_cluster)

    @settings(max_examples=200, deadline=None)
    @given(
        holders=st.lists(
            st.sampled_from([0, 1, 2, 10]),
            min_size=MODEL_PARTITIONS,
            max_size=MODEL_PARTITIONS,
        ),
        data=st.data(),
    )
    def test_random_steps_match_the_model(self, holders, data):
        """Random bootstrap, add, remove, move, set_holder, drop_server,
        recover and restore sequences, invalid steps included."""
        self.setup_maps()
        self.step(("bootstrap", holders))
        for _ in range(data.draw(st.integers(min_value=10, max_value=40))):
            self.step(draw_step(data, self.ref))

    @pytest.mark.parametrize(
        "steps",
        [
            [("add", 0, 10), ("add", 0, 2), ("remove", 0, 0), ("move", 0, 2, 1)],
            [("add", 1, 10), ("add", 1, 1), ("drop_server", 2), ("restore", 1, 0)],
        ],
        ids=["remove", "failure"],
    )
    def test_holder_moves_to_the_lowest_surviving_sid(self, steps):
        """The holder's last copy goes while two others remain."""
        self.setup_maps()
        for step in [("bootstrap", [0, 2, 10]), *steps]:
            self.step(step)

    def test_single_copies_share_one_pair_per_server(self, cluster):
        rm = ReplicaMap(cluster, 3, 0.5)
        rm.bootstrap([4, 4, 9])
        rm.add(2, 4)
        assert rm.servers_with(0)[0] is rm.servers_with(1)[0] is rm.servers_with(2)[0]
        rm.add(0, 4)
        assert rm.servers_with(0) == ((4, 2),)
        rm.remove(0, 4)
        assert rm.servers_with(0)[0] is rm.servers_with(1)[0]

    def test_servers_with_returns_the_layout_itself(self, rm):
        rm.add(0, 9)
        assert rm.servers_with(0) is rm.servers_with(0)
