"""Workload substrate: batches, Zipf, patterns, generator, trace."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.config import WorkloadParameters
from repro.errors import WorkloadError
from repro.sim.rng import RngTree
from repro.workload import (
    FlashCrowdPattern,
    HotspotPattern,
    LocationShiftPattern,
    PopularityShiftPattern,
    QueryBatch,
    QueryGenerator,
    UniformPattern,
    WorkloadTrace,
    zipf_weights,
)
from repro.workload.zipf import rotate_ranks


class TestQueryBatch:
    def test_basic_accessors(self):
        batch = QueryBatch(0, np.array([[1, 2], [3, 4]]))
        assert batch.total == 10
        assert batch.num_partitions == 2
        assert batch.num_origins == 2
        assert list(batch.per_partition()) == [3, 7]
        assert list(batch.per_origin()) == [4, 6]

    def test_system_average_query_eq9(self):
        batch = QueryBatch(0, np.array([[2, 4], [0, 0]]))
        assert list(batch.system_average_query()) == [3.0, 0.0]

    def test_counts_are_read_only(self):
        batch = QueryBatch(0, np.array([[1]]))
        with pytest.raises(ValueError):
            batch.counts[0, 0] = 5

    def test_negative_counts_rejected(self):
        with pytest.raises(WorkloadError):
            QueryBatch(0, np.array([[-1]]))

    def test_fractional_counts_rejected(self):
        with pytest.raises(WorkloadError):
            QueryBatch(0, np.array([[1.5]]))

    @pytest.mark.parametrize(
        "counts",
        [
            np.array([[np.inf, 1.0]]),
            np.array([[1e30]]),
            np.array([[2**63]], dtype=np.uint64),
            np.array([[np.nan]]),
        ],
        ids=["inf", "1e30", "uint64-2**63", "nan"],
    )
    def test_counts_int64_cannot_hold_rejected(self, counts):
        """Huge, infinite or NaN counts must not wrap to negative ones."""
        with pytest.raises(WorkloadError):
            QueryBatch(0, counts)

    def test_largest_int64_count_accepted(self):
        limit = np.iinfo(np.int64).max
        batch = QueryBatch(0, np.array([[limit]], dtype=np.uint64))
        assert batch.total == limit

    def test_integral_floats_accepted(self):
        batch = QueryBatch(0, np.array([[2.0]]))
        assert batch.total == 2

    def test_negative_epoch_rejected(self):
        with pytest.raises(WorkloadError):
            QueryBatch(-1, np.array([[1]]))

    def test_value_equality(self):
        a = QueryBatch(0, np.array([[1, 2]]))
        b = QueryBatch(0, np.array([[1, 2]]))
        c = QueryBatch(1, np.array([[1, 2]]))
        assert a == b and hash(a) == hash(b)
        assert a != c


@st.composite
def count_matrices(draw):
    """Non-negative int64 matrices: all zeros, empty rows, 1x1, 1xD,
    Px1 and random density, with cells small enough that no sum wraps."""
    shape = draw(st.tuples(st.integers(1, 9), st.integers(1, 9)))
    top = draw(st.sampled_from([0, 1, 50, (2**63 - 1) // (shape[0] * shape[1])]))
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    values = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, top)))
    keep = draw(hnp.arrays(np.float64, shape, elements=st.floats(0.0, 1.0)))
    return np.where(keep < density, values, 0)


class TestCellBatchProperties:
    """A batch stored as its nonzero cells reads exactly like the dense
    matrix it was built from."""

    @given(counts=count_matrices())
    @settings(max_examples=150, deadline=None)
    def test_dense_round_trip_and_sums(self, counts):
        batch = QueryBatch(3, counts)
        dense = batch.counts
        assert dense.dtype == np.int64 and np.array_equal(dense, counts)
        assert not dense.flags.writeable
        with pytest.raises(ValueError):
            dense[0, 0] = 1
        assert batch.total == int(counts.sum())
        for got, want in (
            (batch.per_partition(), counts.sum(axis=1)),
            (batch.per_origin(), counts.sum(axis=0)),
        ):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)
        avg = batch.system_average_query()
        want_avg = counts.sum(axis=1) / counts.shape[1]
        assert avg.dtype == np.float64
        assert np.array_equal(avg.view(np.int64), want_avg.view(np.int64))

    @given(counts=count_matrices())
    @settings(max_examples=100, deadline=None)
    def test_cells_come_in_nonzero_order(self, counts):
        index, values = QueryBatch(0, counts).cells()
        assert not index.flags.writeable and not values.flags.writeable
        assert index.dtype == values.dtype == np.int64
        assert np.array_equal(index, np.flatnonzero(counts))
        rows, cols = np.nonzero(counts)
        assert np.array_equal(index // counts.shape[1], rows)
        assert np.array_equal(index % counts.shape[1], cols)
        assert np.array_equal(values, counts[rows, cols])

    @given(
        counts=count_matrices(),
        cell=st.tuples(st.integers(0, 8), st.integers(0, 8)),
        bump=st.integers(0, 2),
    )
    @settings(max_examples=100, deadline=None)
    def test_equality_and_hash_follow_the_dense_matrix(self, counts, cell, bump):
        other = counts.copy()
        i, j = cell[0] % counts.shape[0], cell[1] % counts.shape[1]
        other[i, j] = bump
        a, b = QueryBatch(0, counts), QueryBatch(0, other)
        assert (a == b) == np.array_equal(counts, other)
        if a == b:
            assert hash(a) == hash(b)
        same = QueryBatch(0, counts.astype(np.uint64))
        assert a == same and hash(a) == hash(same)
        assert a != QueryBatch(1, counts)
        # Shape takes part: an all-zero 2x3 batch is not an all-zero 3x2 one.
        assert (a == QueryBatch(0, counts.T)) == np.array_equal(counts, counts.T)

    @pytest.mark.parametrize(
        "pattern",
        [
            UniformPattern(40, 10, 0.9),
            HotspotPattern(40, 10, 2.0, hot_origins=(7, 8, 9)),
            FlashCrowdPattern(40, 10, 0.9, total_epochs=8),
        ],
        ids=["uniform", "hotspot", "flash-crowd"],
    )
    def test_generator_keeps_the_rng_stream(self, pattern):
        """Each generated batch equals the two-step draw of the same
        stream — Poisson total, partition totals, then one origin split
        per partition that drew queries, in row order — and the stream
        ends in the same state."""
        params = WorkloadParameters(queries_per_epoch_mean=60.0, num_partitions=40)
        stream = RngTree(7).stream("wl")
        gen = QueryGenerator(params, pattern, stream)
        rng = RngTree(7).stream("wl")
        for epoch in range(8):
            part_w = pattern.partition_weights(epoch)
            orig_w = pattern.origin_weights(epoch)
            total = int(rng.poisson(params.queries_per_epoch_mean))
            per_partition = rng.multinomial(total, part_w / part_w.sum())
            dense = np.zeros((40, 10), dtype=np.int64)
            for row in range(40):
                if per_partition[row]:
                    dense[row] = rng.multinomial(
                        per_partition[row], orig_w / orig_w.sum()
                    )
            assert gen.generate(epoch) == QueryBatch(epoch, dense)
        assert stream.bit_generator.state == rng.bit_generator.state


class TestZipf:
    def test_uniform_at_zero_exponent(self):
        w = zipf_weights(10, 0.0)
        assert np.allclose(w, 0.1)

    def test_normalised_and_decreasing(self):
        w = zipf_weights(64, 0.9)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_larger_exponent_concentrates(self):
        w1 = zipf_weights(64, 0.5)
        w2 = zipf_weights(64, 1.5)
        assert w2[0] > w1[0]

    def test_invalid_args(self):
        with pytest.raises(WorkloadError):
            zipf_weights(0, 1.0)
        with pytest.raises(WorkloadError):
            zipf_weights(10, -1.0)

    def test_rotate_ranks_moves_hot_item(self):
        w = zipf_weights(8, 1.0)
        r = rotate_ranks(w, 3)
        assert r[3] == pytest.approx(w[0])
        assert r.sum() == pytest.approx(1.0)


class TestPatterns:
    def test_uniform_origins(self):
        p = UniformPattern(16, 10, 0.9)
        assert np.allclose(p.origin_weights(0), 0.1)
        assert p.partition_weights(0).sum() == pytest.approx(1.0)

    def test_hotspot_shares(self):
        p = HotspotPattern(16, 10, 0.9, hot_origins=(7, 8, 9), hot_share=0.8)
        w = p.origin_weights(5)
        assert w[[7, 8, 9]].sum() == pytest.approx(0.8)
        assert w.sum() == pytest.approx(1.0)

    def test_flash_crowd_stage_schedule(self):
        p = FlashCrowdPattern(16, 10, 0.9, total_epochs=400)
        assert p.stage_boundaries() == (0, 100, 200, 300)
        assert p.stage_of(0) == 0
        assert p.stage_of(99) == 0
        assert p.stage_of(100) == 1
        assert p.stage_of(399) == 3
        assert p.stage_of(10_000) == 3  # clamped

    def test_flash_crowd_stage_origins(self):
        p = FlashCrowdPattern(16, 10, 0.9, total_epochs=400)
        w1 = p.origin_weights(50)
        assert w1[[7, 8, 9]].sum() == pytest.approx(0.8)  # H, I, J
        w2 = p.origin_weights(150)
        assert w2[[0, 1, 2]].sum() == pytest.approx(0.8)  # A, B, C
        w3 = p.origin_weights(250)
        assert w3[[4, 5, 6]].sum() == pytest.approx(0.8)  # E, F, G
        w4 = p.origin_weights(350)
        assert np.allclose(w4, 0.1)  # uniform last stage

    def test_flash_crowd_needs_enough_epochs(self):
        with pytest.raises(WorkloadError):
            FlashCrowdPattern(16, 10, 0.9, total_epochs=2)

    def test_location_shift_interpolates(self):
        p = LocationShiftPattern(
            16, 10, 0.9, from_origins=(8,), to_origins=(7,), shift_start=10, shift_end=20
        )
        assert p.origin_weights(5)[8] == pytest.approx(0.8)
        assert p.origin_weights(25)[7] == pytest.approx(0.8)
        mid = p.origin_weights(15)
        assert 0.3 < mid[8] < 0.5 and 0.3 < mid[7] < 0.5
        assert mid.sum() == pytest.approx(1.0)

    def test_popularity_shift_rotates_hot_partition(self):
        p = PopularityShiftPattern(16, 10, 1.0, shift_epochs=(50,), rotate_by=5)
        before = p.partition_weights(0)
        after = p.partition_weights(60)
        assert np.argmax(before) == 0
        assert np.argmax(after) == 5

    def test_negative_epoch_rejected(self):
        p = UniformPattern(4, 4, 0.0)
        with pytest.raises(WorkloadError):
            p.origin_weights(-1)
        with pytest.raises(WorkloadError):
            p.partition_weights(-1)


class _FixedWeights:
    """A minimal outside :class:`QueryPattern` returning given weights."""

    num_partitions = 3
    num_origins = 2

    def __init__(self, partition_weights, origin_weights):
        self._partition_weights = np.asarray(partition_weights, dtype=np.float64)
        self._origin_weights = np.asarray(origin_weights, dtype=np.float64)

    def partition_weights(self, epoch):
        return self._partition_weights

    def origin_weights(self, epoch):
        return self._origin_weights


class TestGenerator:
    def _gen(self, lam=300.0):
        params = WorkloadParameters(queries_per_epoch_mean=lam, num_partitions=16)
        pattern = UniformPattern(16, 10, 0.9)
        return QueryGenerator(params, pattern, RngTree(7).stream("wl"))

    @pytest.mark.parametrize("factor", ["partition", "origin"])
    @pytest.mark.parametrize(
        "spoil",
        [
            lambda w: np.where(np.arange(w.size) == 0, np.nan, w),
            lambda w: np.where(np.arange(w.size) == 0, np.inf, w),
            lambda w: np.where(np.arange(w.size) == 0, -np.inf, w),
            lambda w: np.where(np.arange(w.size) == 0, -0.5, w),
            np.zeros_like,
            lambda w: np.ones(w.size + 1),
            lambda w: np.ones((1, w.size)),
        ],
        ids=["nan", "inf", "-inf", "negative", "zero-sum", "too-long", "2-d"],
    )
    def test_malformed_weights_raise_before_any_draw(self, factor, spoil):
        weights = {"partition": np.array([1.0, 2.0, 1.0]), "origin": np.array([1.0, 3.0])}
        weights[factor] = spoil(weights[factor])
        params = WorkloadParameters(queries_per_epoch_mean=50.0, num_partitions=3)
        stream = RngTree(7).stream("wl")
        gen = QueryGenerator(
            params, _FixedWeights(weights["partition"], weights["origin"]), stream
        )
        state = stream.bit_generator.state
        with pytest.raises(WorkloadError, match=factor):
            gen.generate(0)
        assert stream.bit_generator.state == state

    def test_all_negative_factors_are_not_a_distribution(self):
        """Their outer product is positive, but neither factor is a
        probability vector."""
        params = WorkloadParameters(queries_per_epoch_mean=50.0, num_partitions=3)
        stream = RngTree(7).stream("wl")
        gen = QueryGenerator(params, _FixedWeights([-1, -2, -1], [-1, -3]), stream)
        state = stream.bit_generator.state
        with pytest.raises(WorkloadError, match="partition"):
            gen.generate(0)
        assert stream.bit_generator.state == state

    def test_empty_epoch_is_an_empty_batch_of_the_full_shape(self):
        gen = self._gen(lam=0.01)
        batches = [gen.generate(e) for e in range(20)]
        empty = [b for b in batches if b.total == 0]
        assert empty
        for batch in empty:
            index, values = batch.cells()
            assert index.shape == values.shape == (0,)
            assert index.dtype == values.dtype == np.int64
            assert batch.counts.shape == (16, 10) and not batch.counts.any()
            assert batch == QueryBatch(batch.epoch, np.zeros((16, 10), dtype=np.int64))

    def test_epochs_must_be_sequential(self):
        gen = self._gen()
        gen.generate(0)
        with pytest.raises(WorkloadError):
            gen.generate(2)
        with pytest.raises(WorkloadError):
            gen.generate(0)

    def test_shapes_and_determinism(self):
        a = self._gen().generate(0)
        b = self._gen().generate(0)
        assert a == b
        assert a.counts.shape == (16, 10)

    def test_poisson_mean_is_respected(self):
        gen = self._gen(lam=200.0)
        totals = [gen.generate(e).total for e in range(200)]
        assert abs(np.mean(totals) - 200.0) < 10.0

    def test_pattern_mismatch_rejected(self):
        params = WorkloadParameters(num_partitions=16)
        pattern = UniformPattern(8, 10, 0.9)
        with pytest.raises(WorkloadError):
            QueryGenerator(params, pattern, RngTree(7).stream("wl"))

    def test_marginals_follow_pattern(self):
        """Hotspot origins must receive ~80 % of queries on average."""
        params = WorkloadParameters(queries_per_epoch_mean=300.0, num_partitions=16)
        pattern = HotspotPattern(16, 10, 0.9, hot_origins=(7, 8, 9))
        gen = QueryGenerator(params, pattern, RngTree(7).stream("wl"))
        totals = np.zeros(10)
        for e in range(100):
            totals += gen.generate(e).per_origin()
        assert totals[[7, 8, 9]].sum() / totals.sum() == pytest.approx(0.8, abs=0.03)

    def test_cells_are_independent_poissons(self):
        """The closed form the sampler must reproduce: a Poisson(λ) total
        split by Multinomial(·, p⊗o) makes the cells independent, each
        Poisson(λ·p_i·o_j).  Every cell's mean and variance and every
        pairwise covariance is checked against it within 4.5 standard
        errors of its estimator over N epochs."""
        lam, epochs = 3.0, 20_000
        pattern = HotspotPattern(4, 3, 0.9, hot_origins=(2,), hot_share=0.6)
        params = WorkloadParameters(queries_per_epoch_mean=lam, num_partitions=4)
        gen = QueryGenerator(params, pattern, RngTree(2024).stream("wl"))
        draws = np.stack(
            [gen.generate(e).counts.ravel() for e in range(epochs)]
        ).astype(np.float64)
        joint = np.outer(pattern.partition_weights(0), pattern.origin_weights(0))
        mu = lam * (joint / joint.sum()).ravel()

        failures = []
        mean = draws.mean(axis=0)
        cov = np.cov(draws, rowvar=False)
        for a in range(mu.size):
            if abs(mean[a] - mu[a]) > 4.5 * np.sqrt(mu[a] / epochs):
                failures.append(f"mean of cell {a}: {mean[a]:.4f}, want {mu[a]:.4f}")
            spread = np.sqrt((mu[a] + 2 * mu[a] ** 2) / epochs)
            if abs(cov[a, a] - mu[a]) > 4.5 * spread:
                failures.append(f"variance of cell {a}: {cov[a, a]:.4f}, want {mu[a]:.4f}")
            for b in range(a + 1, mu.size):
                if abs(cov[a, b]) > 4.5 * np.sqrt(mu[a] * mu[b] / epochs):
                    failures.append(f"covariance of cells {a},{b}: {cov[a, b]:.4f}")
        assert failures == []


class TestTrace:
    def _trace(self, epochs=20):
        params = WorkloadParameters(num_partitions=16)
        pattern = UniformPattern(16, 10, 0.9)
        gen = QueryGenerator(params, pattern, RngTree(7).stream("wl"))
        return WorkloadTrace.record(gen, epochs)

    def test_replay_matches_recording(self):
        trace = self._trace()
        params = WorkloadParameters(num_partitions=16)
        pattern = UniformPattern(16, 10, 0.9)
        gen = QueryGenerator(params, pattern, RngTree(7).stream("wl"))
        for epoch in range(20):
            assert trace.generate(epoch) == gen.generate(epoch)

    def test_out_of_range_epoch_rejected(self):
        trace = self._trace()
        with pytest.raises(WorkloadError):
            trace.generate(20)

    def test_total_queries(self):
        trace = self._trace()
        assert trace.total_queries() == sum(b.total for b in trace.batches())

    def test_save_load_roundtrip(self, tmp_path):
        trace = self._trace()
        path = tmp_path / "trace.npz"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        assert len(loaded) == len(trace)
        for epoch in range(len(trace)):
            assert loaded.generate(epoch) == trace.generate(epoch)

    def test_load_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, foo=np.zeros(3))
        with pytest.raises(WorkloadError):
            WorkloadTrace.load(path)

    def test_load_reads_a_dense_counts_stack(self, tmp_path):
        """The file format is one dense (epochs, P, D) int64 array."""
        stacked = np.zeros((3, 16, 10), dtype=np.int64)
        stacked[0, 2, 5] = 4
        stacked[2, 15, 0] = 1
        path = tmp_path / "dense.npz"
        np.savez_compressed(path, counts=stacked)
        loaded = WorkloadTrace.load(path)
        assert [b.counts.tolist() for b in loaded.batches()] == stacked.tolist()

    def _truncated(self, path):
        self._trace().save(path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])

    def _npy(self, path):
        with path.open("wb") as fh:
            np.save(fh, np.ones((2, 4, 3), dtype=np.int64))

    @pytest.mark.parametrize(
        "write",
        [
            _truncated,
            lambda self, path: path.write_bytes(b"not a trace file"),
            lambda self, path: np.savez(
                path, counts=np.array([[[1, 2]]], dtype=object)
            ),
            lambda self, path: path.write_bytes(b""),
            lambda self, path: np.savez(path, counts=np.array([[[np.inf, 1.0]]])),
            lambda self, path: np.savez(path, counts=np.array([[["1", "2"]]])),
            _npy,
        ],
        ids=[
            "truncated",
            "not-a-zip",
            "object-array",
            "empty",
            "inf-count",
            "string-counts",
            "npy",
        ],
    )
    def test_load_raises_typed_error_naming_the_path(self, tmp_path, write):
        path = tmp_path / "bad.npz"
        write(self, path)
        with pytest.raises(WorkloadError, match="bad.npz"):
            WorkloadTrace.load(path)

    def test_misnumbered_batches_rejected(self):
        batch = QueryBatch(5, np.ones((2, 2), dtype=np.int64))
        with pytest.raises(WorkloadError):
            WorkloadTrace([batch])
