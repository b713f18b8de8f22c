"""The traffic-determination kernel (Eqs. 2–8)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.traffic import _SUM_BLOCK, CellMatrix, ServiceResult, serve_epoch
from repro.errors import SimulationError
from repro.net import Router, WanGraph
from repro.workload import QueryBatch


@pytest.fixture
def line_router() -> Router:
    """A 4-node line 0-1-2-3: unambiguous paths for hand-checks."""
    return Router(WanGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)]))


def _batch(counts) -> QueryBatch:
    return QueryBatch(0, np.asarray(counts, dtype=np.int64))


class TestOverflowRecursion:
    def test_eq5_traffic_at_origin_is_full_query(self, line_router):
        """tr_ijj = q_ij (Eq. 5)."""
        batch = _batch([[7, 0, 0, 0]])
        result = serve_epoch(batch, [3], [{}], line_router, num_servers=4)
        assert result.traffic_dc[0, 0] == 7.0

    def test_unreplicated_flow_reaches_holder_untouched(self, line_router):
        batch = _batch([[5, 0, 0, 0]])
        result = serve_epoch(batch, [3], [{3: [(3, 10.0)]}], line_router, 4)
        # Flow arrives at every DC on the path with full strength.
        assert list(result.traffic_dc[0]) == [5.0, 5.0, 5.0, 5.0]
        assert result.served_server[0, 3] == 5.0
        assert result.unserved[0] == 0.0

    def test_eq2_downstream_traffic_is_overflow(self, line_router):
        """A replica of capacity C at node k reduces the next node's
        traffic to max(0, q - C)."""
        batch = _batch([[5, 0, 0, 0]])
        layout = {1: [(1, 2.0)], 3: [(3, 10.0)]}
        result = serve_epoch(batch, [3], [layout], line_router, 4)
        assert list(result.traffic_dc[0]) == [5.0, 5.0, 3.0, 3.0]
        assert result.served_server[0, 1] == 2.0
        assert result.served_server[0, 3] == 3.0

    def test_full_absorption_zeroes_downstream(self, line_router):
        batch = _batch([[5, 0, 0, 0]])
        layout = {0: [(0, 10.0)], 3: [(3, 10.0)]}
        result = serve_epoch(batch, [3], [layout], line_router, 4)
        assert list(result.traffic_dc[0]) == [5.0, 0.0, 0.0, 0.0]
        assert result.served_server[0, 0] == 5.0
        assert result.mean_path_length == 0.0

    def test_blocked_queries_counted_unserved(self, line_router):
        batch = _batch([[5, 0, 0, 0]])
        layout = {3: [(3, 2.0)]}
        result = serve_epoch(batch, [3], [layout], line_router, 4)
        assert result.unserved[0] == 3.0
        assert result.total_served == 2.0

    def test_flows_merge_and_share_capacity(self, line_router):
        """Two flows crossing one replica site share its capacity —
        the DESIGN.md refinement of the per-path closed form."""
        batch = _batch([[3, 3, 0, 0]])
        layout = {2: [(2, 4.0)], 3: [(3, 100.0)]}
        result = serve_epoch(batch, [3], [layout], line_router, 4)
        assert result.served_server[0, 2] == 4.0  # shared, not 2x4
        assert result.served_server[0, 3] == 2.0

    def test_query_conservation(self, line_router):
        """served + unserved == total queries, always."""
        batch = _batch([[4, 1, 2, 3], [5, 0, 1, 0]])
        layouts = [{1: [(1, 2.0)], 3: [(3, 1.0)]}, {0: [(0, 3.0)]}]
        result = serve_epoch(batch, [3, 0], layouts, line_router, 4)
        assert result.total_served + result.unserved.sum() == pytest.approx(batch.total)

    def test_holder_traffic_is_post_colocated_interception(self, line_router):
        """Replicas co-located with the holder drain first (Eq. 12's
        holder-server feedback)."""
        batch = _batch([[6, 0, 0, 0]])
        # Holder is server 3; server 30 is another server in DC 3.
        layout = {3: [(3, 2.0), (30, 3.0)]}
        result = serve_epoch(batch, [3], [layout], line_router, 31, holder_sid=[3])
        assert result.served_server[0, 30] == 3.0  # co-located first
        assert result.served_server[0, 3] == 2.0  # holder last
        assert result.unserved[0] == 1.0
        assert result.holder_traffic[0] == 3.0  # 2 served + 1 blocked

    def test_holder_traffic_zero_without_holder_sid(self, line_router):
        batch = _batch([[6, 0, 0, 0]])
        result = serve_epoch(batch, [3], [{3: [(3, 10.0)]}], line_router, 4)
        assert result.holder_traffic[0] == 0.0

    def test_lost_partition_all_unserved(self, line_router):
        batch = _batch([[4, 0, 0, 1]])
        result = serve_epoch(batch, [None], [{}], line_router, 4)
        assert result.unserved[0] == 5.0
        assert result.traffic_dc[0, 0] == 4.0

    def test_path_length_accounting(self, line_router):
        """Hops are charged where queries are served; blocked queries pay
        the full path."""
        batch = _batch([[4, 0, 0, 0]])
        layout = {1: [(1, 1.0)], 3: [(3, 1.0)]}
        result = serve_epoch(batch, [3], [layout], line_router, 4)
        # 1 query served at hop 1, 1 at hop 3, 2 blocked at hop 3.
        assert result.hop_sum == pytest.approx(1 * 1 + 1 * 3 + 2 * 3)
        assert result.mean_path_length == pytest.approx(10 / 4)

    def test_deterministic_across_runs(self, line_router):
        batch = _batch([[4, 1, 2, 3], [5, 0, 1, 0]])
        layouts = [{1: [(1, 2.0)], 3: [(3, 1.0)]}, {0: [(0, 3.0)]}]
        r1 = serve_epoch(batch, [3, 0], layouts, line_router, 4)
        r2 = serve_epoch(batch, [3, 0], layouts, line_router, 4)
        assert np.array_equal(r1.served_server, r2.served_server)
        assert np.array_equal(r1.traffic_dc, r2.traffic_dc)


class TestValidation:
    def test_holder_list_length_checked(self, line_router):
        with pytest.raises(SimulationError):
            serve_epoch(_batch([[1, 0, 0, 0]]), [3, 3], [{}], line_router, 4)

    def test_layout_list_length_checked(self, line_router):
        with pytest.raises(SimulationError):
            serve_epoch(_batch([[1, 0, 0, 0]]), [3], [{}, {}], line_router, 4)

    def test_negative_capacity_rejected(self, line_router):
        with pytest.raises(SimulationError):
            serve_epoch(
                _batch([[1, 0, 0, 0]]), [3], [{3: [(3, -1.0)]}], line_router, 4
            )


class TestOnDefaultWan:
    def test_hub_replica_intercepts_asia_traffic(self, router):
        """A replica at E (the Pacific hub) intercepts flows from H/I/J
        heading for A — the Fig. 1 scenario."""
        counts = np.zeros((1, 10), dtype=np.int64)
        counts[0, 7] = counts[0, 8] = counts[0, 9] = 10  # H, I, J
        batch = QueryBatch(0, counts)
        layout = {4: [(40, 25.0)], 0: [(0, 100.0)]}  # E hub + holder A
        result = serve_epoch(batch, [0], [layout], router, 100, holder_sid=[0])
        assert result.served_server[0, 40] == 25.0
        assert result.holder_traffic[0] == pytest.approx(5.0)


def _sparse_matrix(seed: int, shape: tuple[int, int], density: float) -> np.ndarray:
    """Non-negative values over ~18 orders of magnitude (so the order of
    a sum shows in its bits), zero outside a random ``density`` share."""
    rng = np.random.default_rng(seed)
    values = rng.exponential(1.0, shape) * 10.0 ** rng.uniform(-9.0, 9.0, shape)
    return np.where(rng.random(shape) < density, values, 0.0)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.float64 and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


def _result(served: CellMatrix) -> ServiceResult:
    rows = served.shape[0]
    return ServiceResult(
        served_cells=served,
        traffic_cells=CellMatrix((rows, 1), np.zeros(0, dtype=np.int64), np.zeros(0)),
        unserved=np.zeros(rows),
        holder_traffic=np.zeros(rows),
        hop_sum=0.0,
        distance_sum_km=0.0,
        sla_miss=0.0,
        query_count=0,
    )


SHAPE = st.tuples(
    st.sampled_from((1, 2, 7, 64, 1025)), st.sampled_from((1, 2, 3, 10, 100))
)
DENSITY = st.sampled_from((0.0, 0.01, 0.3, 1.0))
SEED = st.integers(min_value=0, max_value=2**32 - 1)


class TestCellMatrix:
    """The served and traffic matrices kept as cells read back bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(shape=SHAPE, density=DENSITY, seed=SEED)
    def test_cells_round_trip_to_the_dense_matrix(self, shape, density, seed):
        dense = _sparse_matrix(seed, shape, density)
        cells = CellMatrix.from_dense(dense)
        assert cells.shape == shape
        assert np.array_equal(cells.index, np.flatnonzero(dense))
        assert np.all(cells.values != 0.0)
        assert _same_bits(cells.dense(), dense)
        for row in {0, shape[0] // 2, shape[0] - 1}:
            assert _same_bits(cells.row(row), dense[row])
        with pytest.raises(ValueError):
            cells.values[:1] = 1.0  # read-only, like the query batch

    @settings(max_examples=120, deadline=None)
    @given(shape=SHAPE, density=DENSITY, seed=SEED)
    def test_per_server_load_is_the_dense_column_sum(self, shape, density, seed):
        """Including S = 1, where numpy sums the column pairwise, and
        P = 1."""
        dense = _sparse_matrix(seed, shape, density)
        result = _result(CellMatrix.from_dense(dense))
        assert _same_bits(result.per_server_load, dense.sum(axis=0))
        assert _same_bits(result.served_server, dense)
        assert result.total_served == float(dense.sum())

    def test_scalar_walk_returns_its_cells(self, line_router):
        batch = _batch([[4, 1, 2, 3], [5, 0, 1, 0]])
        layouts = [{1: [(1, 2.0)], 3: [(3, 1.0)]}, {0: [(0, 3.0)]}]
        result = serve_epoch(batch, [3, 0], layouts, line_router, 4)
        assert result.served_cells.index.tolist() == [1, 3, 4]
        assert result.served_cells.values.tolist() == [2.0, 1.0, 3.0]
        assert result.traffic_cells.shape == (2, 4)
        assert np.all(result.traffic_cells.values > 0.0)
        assert _same_bits(result.traffic_cells.dense(), result.traffic_dc)


#: Flat lengths on each side of numpy's pairwise rules: the sequential
#: sum below 8 elements, the eight-lane leaf with a remainder, and the
#: block edges of ``CellMatrix.sum``.  At 2·block + 12 the walk splits
#: at ``n // 2`` rounded down to a multiple of 8 (the block) and not at
#: ``n // 2``; random lengths rarely show that rule.
SUM_SIZES = {
    "below-8": st.integers(min_value=1, max_value=7),
    "leaf": st.integers(min_value=8, max_value=128).filter(lambda n: n % 8 != 0),
    "block-edges": st.sampled_from(
        (_SUM_BLOCK - 8, _SUM_BLOCK, _SUM_BLOCK + 8, 2 * _SUM_BLOCK + 12)
    ),
}


def _bits(x: float) -> int:
    return int(np.float64(x).view(np.int64))


class TestCellSum:
    """``CellMatrix.sum`` adds the cells exactly as ``dense().sum()``."""

    @pytest.mark.parametrize("sizes", SUM_SIZES.values(), ids=SUM_SIZES.keys())
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        column=st.booleans(),
        density=DENSITY,
        clustered=st.booleans(),
        seed=SEED,
    )
    def test_sum_is_the_dense_pairwise_sum(
        self, sizes, data, column, density, clustered, seed
    ):
        """One row or one column (whose ``column_sums`` is the same
        pairwise sum); ``clustered`` keeps only the cells within 24 of
        numpy's top split point."""
        size = data.draw(sizes)
        shape = (size, 1) if column else (1, size)
        dense = _sparse_matrix(seed, shape, density)
        if clustered:
            half = size // 2 - (size // 2) % 8
            flat = dense.reshape(-1)
            flat[: max(0, half - 24)] = 0.0
            flat[half + 24 :] = 0.0
        cells = CellMatrix.from_dense(dense)
        assert _bits(cells.sum()) == _bits(dense.sum())
        if column:
            assert _same_bits(cells.column_sums(), dense.sum(axis=0))

    @settings(max_examples=8, deadline=None)
    @given(count=st.sampled_from((0, 1, 300, 2_000_000)), seed=SEED)
    def test_sum_at_20k_partitions_by_100_sites(self, count, seed):
        """(2×10⁴, 100): no cells, one, an epoch's few hundred, every cell."""
        shape = (20_000, 100)
        size = shape[0] * shape[1]
        rng = np.random.default_rng(seed)
        if count == size:
            index = np.arange(size)
        else:
            index = np.sort(rng.choice(size, size=count, replace=False))
        values = rng.exponential(1.0, count) * 10.0 ** rng.uniform(-9.0, 9.0, count)
        cells = CellMatrix(shape, index, values)
        assert _bits(cells.sum()) == _bits(cells.dense().sum())
