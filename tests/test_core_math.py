"""Core mathematical pieces: smoothing, thresholds, availability, Erlang-B."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RFHParameters
from repro.core import Ewma, RFHPolicy, erlang_b
from repro.core.availability import (
    availability_all_alive,
    availability_at_least_one,
    inclusion_exclusion_sum,
    min_replicas_for_availability,
)
from repro.core.blocking import offered_load, server_blocking_probabilities
from repro.core.smoothing import (
    EWMA_BLOCK_ROWS,
    ActiveRowEwma,
    ewma_update_cells,
    ewma_update_rows,
)
from repro.core.traffic import CellMatrix
from repro.core.thresholds import (
    blocked_tolerance,
    is_blocked,
    is_holder_overloaded,
    is_suicide_candidate,
    is_traffic_hub,
    migration_benefit_met,
)
from repro.errors import ConfigurationError


class TestEwma:
    def test_first_update_initialises(self):
        s = Ewma(0.2)
        assert s.update(10.0) == 10.0

    def test_alpha_weights_new_sample(self):
        s = Ewma(0.2)
        s.update(10.0)
        assert s.update(0.0) == pytest.approx(8.0)

    def test_array_stream(self):
        s = Ewma(0.5)
        s.update(np.array([2.0, 4.0]))
        out = s.update(np.array([0.0, 0.0]))
        assert list(out) == [1.0, 2.0]

    def test_converges_to_constant_input(self):
        s = Ewma(0.2)
        for _ in range(100):
            value = s.update(5.0)
        assert value == pytest.approx(5.0)

    def test_shape_change_rejected(self):
        s = Ewma(0.5)
        s.update(np.zeros(3))
        with pytest.raises(ValueError):
            s.update(np.zeros(4))

    def test_type_change_rejected(self):
        s = Ewma(0.5)
        s.update(1.0)
        with pytest.raises(ValueError):
            s.update(np.zeros(2))

    def test_value_before_update_raises(self):
        with pytest.raises(ValueError):
            Ewma(0.5).value

    def test_reset(self):
        s = Ewma(0.5)
        s.update(3.0)
        s.reset()
        assert not s.initialized

    def test_invalid_alpha(self):
        for alpha in (0.0, 1.0, -0.5):
            with pytest.raises(ConfigurationError):
                Ewma(alpha)

    def test_returned_array_is_a_copy(self):
        s = Ewma(0.5)
        out = s.update(np.array([1.0]))
        out[0] = 99.0
        assert float(np.asarray(s.value)[0]) == 1.0


B = EWMA_BLOCK_ROWS
#: Row counts around the block edges: one row, a block short of full,
#: exactly one block, one past it, and several blocks plus a remainder.
BLOCK_EDGE_ROWS = (1, B - 1, B, B + 1, 3 * B + 7)


def _unblocked_ewma(old: np.ndarray, raw: np.ndarray, alpha: float) -> np.ndarray:
    """The whole-array sequence: ``(1 − α)·old``, ``α·raw``, their sum."""
    return (1.0 - alpha) * old + alpha * raw


def _raw_matrix(rng: np.random.Generator, kind: str, shape: tuple[int, ...]) -> np.ndarray:
    if kind == "int64":
        return rng.integers(0, 10**6, shape)
    if kind == "strided":  # every other column of a wider buffer
        wide = rng.exponential(40.0, shape[:-1] + (2 * shape[-1],))
        return wide[..., ::2]
    return rng.exponential(40.0, shape)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype == np.float64 and np.array_equal(
        a.view(np.int64), b.view(np.int64)
    )


class TestBlockedEwma:
    """:func:`ewma_update_rows` is the unblocked arithmetic, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from(BLOCK_EDGE_ROWS),
        cols=st.integers(min_value=1, max_value=4),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        kind=st.sampled_from(("float64", "int64", "strided")),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_unblocked_update(self, rows, cols, alpha, kind, seed):
        rng = np.random.default_rng(seed)
        old = rng.exponential(40.0, (rows, cols))
        raw = _raw_matrix(rng, kind, (rows, cols))
        expected = _unblocked_ewma(old, raw, alpha)
        state = old.copy()
        assert ewma_update_rows(state, raw, alpha) is state
        assert _same_bits(state, expected)

    def test_vector_and_self_update(self):
        rng = np.random.default_rng(3)
        old = rng.exponential(40.0, B + 1)
        raw = rng.exponential(40.0, B + 1)
        state = old.copy()
        ewma_update_rows(state, raw, 0.2)
        assert _same_bits(state, _unblocked_ewma(old, raw, 0.2))
        # Passing the state as its own sample reads the pre-update values.
        expected = _unblocked_ewma(state, state, 0.3)
        assert _same_bits(ewma_update_rows(state, state, 0.3), expected)

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.sampled_from(BLOCK_EDGE_ROWS),
        grow=st.integers(min_value=1, max_value=3),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_policy_matrices_and_server_growth(self, rows, grow, alpha, seed):
        """RFHPolicy's traffic and served EWMAs, including the served
        update that pads a server axis grown by joins."""
        rng = np.random.default_rng(seed)
        policy = RFHPolicy(RFHParameters(alpha=alpha))
        traffic = [_raw_matrix(rng, "int64", (rows, 3)) for _ in range(2)]
        served = [rng.exponential(5.0, (rows, 3)), rng.exponential(5.0, (rows, 3 + grow))]
        policy._update_traffic(CellMatrix.from_dense(traffic[0]))
        policy._update_served(CellMatrix.from_dense(served[0]))
        out_traffic = policy._update_traffic(CellMatrix.from_dense(traffic[1])).dense()
        out_served = policy._update_served(CellMatrix.from_dense(served[1])).dense()
        expected = _unblocked_ewma(traffic[0].astype(np.float64), traffic[1], alpha)
        assert _same_bits(out_traffic, expected)
        padded = np.zeros((rows, 3 + grow))
        padded[:, :3] = served[0]
        assert _same_bits(out_served, _unblocked_ewma(padded, served[1], alpha))

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.sampled_from(BLOCK_EDGE_ROWS),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        kind=st.sampled_from(("float64", "int64", "strided")),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_ewma_array_stream(self, rows, alpha, kind, seed):
        rng = np.random.default_rng(seed)
        smoother = Ewma(alpha)
        expected = None
        for _ in range(3):
            raw = _raw_matrix(rng, kind, (rows, 2))
            out = smoother.update(raw)
            if expected is None:
                expected = raw.astype(np.float64)
            else:
                expected = _unblocked_ewma(expected, raw, alpha)
            assert _same_bits(out, expected)


def _cell_state(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """A smoothed state with exact zeros and subnormals among its values."""
    state = rng.exponential(40.0, shape)
    pick = rng.random(shape)
    state[pick < 0.2] = 0.0
    tiny = pick > 0.8
    state[tiny] = rng.integers(1, 2**20, int(tiny.sum())) * 5e-324
    return state


def _cell_raw(rng: np.random.Generator, shape: tuple[int, ...], density: float) -> np.ndarray:
    raw = rng.exponential(40.0, shape)
    return np.where(rng.random(shape) < density, raw, 0.0)


class TestCellEwma:
    """:func:`ewma_update_cells` is :func:`ewma_update_rows` on the dense
    raw sample, bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from(BLOCK_EDGE_ROWS),
        cols=st.integers(min_value=1, max_value=4),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        density=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_dense_update(self, rows, cols, alpha, density, seed):
        """Block-edge row counts, no cells to every cell, three updates
        in a row on a state holding zeros and subnormals."""
        rng = np.random.default_rng(seed)
        dense = _cell_state(rng, (rows, cols))
        cells = dense.copy()
        for _ in range(3):
            raw = _cell_raw(rng, (rows, cols), density)
            sample = CellMatrix.from_dense(raw)
            ewma_update_rows(dense, raw, alpha)
            assert ewma_update_cells(cells, sample.index, sample.values, alpha) is cells
            assert _same_bits(cells, dense)

    @settings(max_examples=15, deadline=None)
    @given(
        rows=st.sampled_from(BLOCK_EDGE_ROWS),
        grow=st.integers(min_value=1, max_value=3),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        density=st.sampled_from((0.0, 0.05, 1.0)),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_policy_served_state_through_server_growth(
        self, rows, grow, alpha, density, seed
    ):
        """RFHPolicy's served EWMA fed cells, against the dense update of
        the padded state, across a server axis grown by joins."""
        rng = np.random.default_rng(seed)
        policy = RFHPolicy(RFHParameters(alpha=alpha))
        first = _cell_raw(rng, (rows, 3), density)
        policy._update_served(CellMatrix.from_dense(first))
        expected = np.zeros((rows, 3 + grow))
        expected[:, :3] = first
        for _ in range(2):  # the first update grows the axis
            raw = _cell_raw(rng, (rows, 3 + grow), density)
            out = policy._update_served(CellMatrix.from_dense(raw)).dense()
            ewma_update_rows(expected, raw, alpha)
            assert _same_bits(out, expected)

    def test_rejects_a_strided_state(self):
        state = np.zeros((4, 6))[:, ::2]
        with pytest.raises(ValueError, match="C-contiguous"):
            ewma_update_cells(state, np.array([0]), np.array([1.0]), 0.2)


class TestActiveRowEwma:
    """:class:`ActiveRowEwma` is the dense :func:`ewma_update_rows` EWMA,
    bit for bit, while storing only the rows that ever held a nonzero
    value."""

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.sampled_from(BLOCK_EDGE_ROWS),
        cols=st.integers(min_value=1, max_value=4),
        grow=st.integers(min_value=0, max_value=3),
        alpha=st.floats(min_value=0.01, max_value=0.99),
        density=st.sampled_from((0.0, 0.05, 0.5, 1.0)),
        late=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_dense_update(self, rows, cols, grow, alpha, density, late, seed):
        """No cells to every cell, rows first touched late (the first
        sample reaches only the first third of the rows), block-edge row
        counts, three updates after the first sample, and a server axis
        widened by joins from the second update on."""
        rng = np.random.default_rng(seed)
        ewma = ActiveRowEwma(alpha)
        expected = None
        touched = np.zeros(rows, dtype=bool)
        for step in range(4):
            width = cols + (grow if step >= 2 else 0)
            raw = _cell_raw(rng, (rows, width), density)
            if late and step == 0:
                raw[max(1, rows // 3) :] = 0.0
            touched |= raw.any(axis=1)
            assert ewma.update(CellMatrix.from_dense(raw)) is ewma
            if expected is None:
                expected = raw.copy()
            else:
                expected = np.pad(expected, ((0, 0), (0, width - expected.shape[1])))
                ewma_update_rows(expected, raw, alpha)
            assert ewma.shape == expected.shape
            assert _same_bits(ewma.dense(), expected)
            assert ewma.active_rows == int(np.count_nonzero(touched))
        for i in np.flatnonzero(touched):
            assert _same_bits(ewma.row(i), expected[i])
        untouched = np.flatnonzero(~touched)
        if untouched.shape[0]:
            zero = ewma.row(untouched[0])
            assert _same_bits(zero, expected[untouched[0]]) and not zero.flags.writeable
            assert all(ewma.row(i) is zero for i in untouched)
        picked = rng.integers(0, rows, size=50), rng.integers(0, expected.shape[1], size=50)
        assert _same_bits(ewma.cells(*picked), expected[picked])

    def test_untouched_row_is_the_shared_read_only_zero_row(self):
        raw = np.zeros((5, 3))
        raw[1, 2] = 4.0
        raw[3, 0] = 1.0
        ewma = ActiveRowEwma(0.2).update(CellMatrix.from_dense(raw))
        zero = ewma.row(0)
        assert zero is ewma.row(2) is ewma.row(4)
        assert _same_bits(zero, np.zeros(3))
        with pytest.raises(ValueError):
            zero[0] = 1.0
        assert _same_bits(ewma.row(1), raw[1]) and ewma.row(1).flags.writeable
        assert ewma.active_rows == 2
        # The prefilter's per-cell gather mixes both kinds of row.
        rows, cols = np.repeat([0, 1, 3, 4], 3), np.tile([0, 1, 2], 4)
        assert _same_bits(ewma.cells(rows, cols), raw[rows, cols])
        grown = np.zeros((5, 4))  # a server joins: the zero row widens too
        ewma.update(CellMatrix.from_dense(grown))
        assert ewma.row(0).shape == (4,) and not ewma.row(0).flags.writeable

    def test_rejects_a_changed_row_count(self):
        ewma = ActiveRowEwma(0.2).update(CellMatrix.from_dense(np.ones((3, 2))))
        with pytest.raises(ValueError, match="rows changed"):
            ewma.update(CellMatrix.from_dense(np.ones((4, 2))))


class TestThresholds:
    def test_eq12_holder_overload_inclusive(self):
        assert is_holder_overloaded(2.0, 1.0, beta=2.0)  # equality counts
        assert not is_holder_overloaded(1.99, 1.0, beta=2.0)

    def test_eq13_traffic_hub_inclusive(self):
        assert is_traffic_hub(1.5, 1.0, gamma=1.5)
        assert not is_traffic_hub(1.49, 1.0, gamma=1.5)

    def test_eq15_suicide_inclusive(self):
        assert is_suicide_candidate(0.2, 1.0, delta=0.2)
        assert not is_suicide_candidate(0.21, 1.0, delta=0.2)

    def test_eq16_migration_benefit(self):
        # tr_j - tr_k >= mu * mean
        assert migration_benefit_met(5.0, 1.0, 4.0, mu=1.0)
        assert not migration_benefit_met(5.0, 2.0, 4.0, mu=1.0)

    def test_blocked_tolerance_scales_with_demand(self):
        assert blocked_tolerance(0.1) == 0.5  # floor
        assert blocked_tolerance(10.0) == 5.0  # 0.5 * avg query

    def test_is_blocked(self):
        assert is_blocked(0.6, 0.1)
        assert not is_blocked(0.4, 0.1)
        assert not is_blocked(4.0, 10.0)


class TestAvailability:
    def test_inclusion_exclusion_identity(self):
        """The literal Eq. 14 sum equals 1 - (1-f)^r for all small r."""
        for r in range(0, 8):
            for f in (0.05, 0.1, 0.5):
                assert inclusion_exclusion_sum(r, f) == pytest.approx(
                    1.0 - (1.0 - f) ** r
                )

    def test_all_alive_is_complement(self):
        assert availability_all_alive(3, 0.1) == pytest.approx(0.9**3)

    def test_at_least_one(self):
        assert availability_at_least_one(0, 0.1) == 0.0
        assert availability_at_least_one(1, 0.1) == pytest.approx(0.9)
        assert availability_at_least_one(3, 0.1) == pytest.approx(1 - 1e-3)

    def test_monotone_in_replicas(self):
        values = [availability_at_least_one(r, 0.2) for r in range(1, 10)]
        assert values == sorted(values)

    def test_paper_worked_example(self):
        """'if the system requires a minimum availability of 0.8 and the
        failure probability is 0.1, then the minimum replica number is 2'."""
        assert min_replicas_for_availability(0.8, 0.1) == 2

    def test_stricter_floors_need_more_replicas(self):
        assert min_replicas_for_availability(0.999, 0.1) == 3
        assert min_replicas_for_availability(0.9999, 0.1) == 4
        assert min_replicas_for_availability(0.99, 0.5) == 7

    def test_floor_is_two(self):
        # Even a trivially low requirement keeps two copies.
        assert min_replicas_for_availability(0.1, 0.1) == 2

    def test_result_always_satisfies_requirement(self):
        for a in (0.5, 0.8, 0.99, 0.9999):
            for f in (0.01, 0.1, 0.3, 0.7):
                r = min_replicas_for_availability(a, f)
                assert availability_at_least_one(r, f) >= a

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            min_replicas_for_availability(1.0, 0.1)
        with pytest.raises(ConfigurationError):
            min_replicas_for_availability(0.8, 0.0)
        with pytest.raises(ConfigurationError):
            availability_at_least_one(-1, 0.1)


class TestErlangB:
    def test_zero_load_never_blocks(self):
        assert erlang_b(0.0, 4) == 0.0

    def test_closed_form_small_cases(self):
        # B(a, 1) = a / (1 + a)
        for a in (0.1, 1.0, 5.0):
            assert erlang_b(a, 1) == pytest.approx(a / (1 + a))
        # B(a, 2) = a^2/2 / (1 + a + a^2/2)
        a = 2.0
        assert erlang_b(a, 2) == pytest.approx((a**2 / 2) / (1 + a + a**2 / 2))

    def test_matches_factorial_formula(self):
        """The recurrence equals Eq. 18's factorial form."""
        a, c = 3.7, 6
        denom = sum(a**k / math.factorial(k) for k in range(c + 1))
        expected = (a**c / math.factorial(c)) / denom
        assert erlang_b(a, c) == pytest.approx(expected)

    def test_monotone_in_load(self):
        values = [erlang_b(a, 4) for a in np.linspace(0.1, 20, 30)]
        assert values == sorted(values)

    def test_monotone_in_servers(self):
        values = [erlang_b(5.0, c) for c in range(1, 12)]
        assert values == sorted(values, reverse=True)

    def test_stable_for_huge_load(self):
        bp = erlang_b(1e6, 8)
        assert 0.99 < bp <= 1.0

    def test_probability_bounds(self):
        for a in (0.0, 0.5, 3.0, 50.0):
            for c in (1, 4, 16):
                assert 0.0 <= erlang_b(a, c) <= 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ConfigurationError):
            erlang_b(-1.0, 4)
        with pytest.raises(ConfigurationError):
            erlang_b(1.0, 0)

    def test_offered_load(self):
        assert offered_load(6.0, 2.0, 8) == 3.0
        with pytest.raises(ConfigurationError):
            offered_load(1.0, 0.0, 8)
        with pytest.raises(ConfigurationError):
            offered_load(-1.0, 1.0, 8)


class TestServerBlocking:
    def test_dead_servers_block_everything(self, cluster):
        cluster.fail_server(0)
        load = np.zeros(cluster.num_servers)
        bp = server_blocking_probabilities(cluster, load)
        assert bp[0] == 1.0
        assert np.all(bp[1:] == 0.0)

    def test_busier_server_blocks_more(self, cluster):
        load = np.zeros(cluster.num_servers)
        load[1] = 50.0
        bp = server_blocking_probabilities(cluster, load)
        assert bp[1] > bp[2]

    def test_shape_checked(self, cluster):
        with pytest.raises(ConfigurationError):
            server_blocking_probabilities(cluster, np.zeros(3))
