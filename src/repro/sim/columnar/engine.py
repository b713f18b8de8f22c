"""The columnar simulation engine.

:class:`ColumnarSimulation` subclasses the scalar
:class:`~repro.sim.engine.Simulation` and overrides only the hot-path
hooks — serve, blocking, metric-source accessors, lost-partition scan —
with array kernels over a :class:`SimState` mirror of the replica map.
Everything else (membership, workload, policy protocol, apply gates,
tracing, sanitizer) is inherited unchanged, which is what makes the
bit-identical contract tractable: the authoritative world objects are
the same, only the arithmetic routes through numpy.

Fallbacks: epochs with WAN links down (degraded router) or a holderless
partition delegate to the scalar serve path, so chaos scenarios remain
exactly reproducible without a second implementation of degraded
routing.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ...core.availability import availability_at_least_one
from ...core.traffic import CellMatrix
from ...errors import SimulationError
from ...metrics.availability_metric import AvailabilitySummary
from ...metrics.imbalance import server_load_imbalance
from ..engine import Simulation
from .kernels import SlotCSR, build_slot_csr, erlang_b_vector, serve_columnar
from .state import SimState
from .tables import RouterTables

if TYPE_CHECKING:
    from ...core.traffic import ServiceResult
    from ...workload.query import QueryBatch

__all__ = ["ColumnarSimulation"]


class ColumnarSimulation(Simulation):
    """Vectorized engine, bit-identical to the scalar reference.

    Accepts exactly the :class:`~repro.sim.engine.Simulation`
    constructor arguments; select it with ``repro run --engine
    columnar`` or :func:`repro.experiments.runner.run_experiment`.
    """

    engine_name = "columnar"

    def __init__(self, *args: object, **kwargs: object) -> None:
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self._state = SimState(self.replicas.num_partitions, self.cluster.num_servers)
        self._state.sync(self.replicas, self.cluster.num_servers)
        self.replicas.attach_mirror(self._state)
        # Static per-topology routing/latency tables (chaos link cuts
        # fall back to the scalar path, so the base router suffices).
        self._tables = RouterTables(self._base_router, self.latency)
        self._dc_of_array = np.array(
            [s.dc for s in self.cluster.servers], dtype=np.int64
        )
        self._capacity_cache = Simulation._server_capacity_array(self)
        # Slot CSR and holder→dc gather, rebuilt only when the layout
        # version moves (quiescent epochs reuse them).
        self._csr: SlotCSR | None = None
        self._csr_version = -1
        self._holder_dc_cache = np.zeros(0, dtype=np.int64)
        # Version-keyed record-phase caches (same pure functions of the
        # replica map the scalar engine calls every epoch).
        self._avail_version = -1
        self._avail_cache: AvailabilitySummary | None = None
        self._avail_table = np.zeros(1, dtype=np.float64)  # [r] = 1 - f^r
        self._total_version = -1
        self._total_cache = 0
        self._alive_epoch = -1
        self._alive_cache = np.zeros(0, dtype=bool)
        # Replica-cell cache for the metric kernels: the mirror's cells
        # (ascending row-major flat index) with their servers' capacities
        # and their counts as float64.
        self._mask_version = -1
        self._mask_shape = (0, 0)
        self._mask_index = np.zeros(0, dtype=np.int64)
        self._mask_cap = np.zeros(0, dtype=np.float64)
        self._mask_cnt_f = np.zeros(0, dtype=np.float64)
        self._mask_cap_ok = True
        # Policies that support it (RFH) get the cell mirror for their
        # vectorized decision prefilter; baselines simply lack the hook.
        attach = getattr(self.policy, "attach_columnar_state", None)
        if attach is not None:
            attach(self._state)

    # ------------------------------------------------------------------
    # Server-axis caches
    # ------------------------------------------------------------------
    def _refresh_server_arrays(self) -> None:
        """Grow per-server caches after joins (capacities never change)."""
        num_servers = self.cluster.num_servers
        if self._capacity_cache.shape[0] != num_servers:
            self._capacity_cache = Simulation._server_capacity_array(self)
            self._dc_of_array = np.array(
                [s.dc for s in self.cluster.servers], dtype=np.int64
            )
            self._state.ensure_servers(num_servers)
            self._csr_version = -1  # sentinel sid changed width

    def _server_capacity_array(self) -> np.ndarray:
        self._refresh_server_arrays()
        return self._capacity_cache

    # ------------------------------------------------------------------
    # Hot-path overrides
    # ------------------------------------------------------------------
    def _restore_lost_partitions(self, epoch: int) -> int:
        if not bool((self._state.holder < 0).any()):
            return 0
        return super()._restore_lost_partitions(epoch)

    def _serve_epoch(self, batch: "QueryBatch") -> "ServiceResult":
        self._refresh_server_arrays()
        if self._down_links:
            # Degraded WAN: unreachable origins take the scalar walk's
            # cut-side branch; delegate the whole epoch.
            return super()._serve_epoch(batch)
        state = self._state
        if state.version != self._csr_version:
            if bool((state.holder < 0).any()):  # pragma: no cover - restores
                return super()._serve_epoch(batch)  # precede serve in step()
            # Release the stale CSR first: its dense key tables are
            # O(P·D) each, and two sets must not be live at once.
            self._csr = None
            self._csr = build_slot_csr(
                *state.cells(),
                state.holder,
                self._dc_of_array,
                self._capacity_cache,
                self._tables.num_dcs,
                self.cluster.num_servers,
            )
            self._holder_dc_cache = self._dc_of_array[state.holder]
            self._csr_version = state.version
        assert self._csr is not None
        return serve_columnar(
            batch,
            self._holder_dc_cache,
            self._csr,
            self._tables,
            self.cluster.num_servers,
            work=self.work,
        )

    def _blocking_probabilities(self, load: np.ndarray) -> np.ndarray:
        self._refresh_server_arrays()
        return erlang_b_vector(
            load,
            self._capacity_cache,
            self.config.cluster.service_slots,
            self._alive_mask_array(),
        )

    # ------------------------------------------------------------------
    # Record-phase overrides
    # ------------------------------------------------------------------
    def _alive_mask_array(self) -> np.ndarray:
        # Liveness only changes in the membership phase, before any
        # reader runs, so one snapshot per epoch is exact.
        epoch = self.clock.epoch
        if (
            epoch != self._alive_epoch
            or self._alive_cache.shape[0] != self.cluster.num_servers
        ):
            self._alive_cache = super()._alive_mask_array()
            self._alive_epoch = epoch
        return self._alive_cache

    def _alive_server_count(self) -> int:
        return int(np.count_nonzero(self._alive_mask_array()))

    def _total_replicas(self) -> int:
        if self._state.version != self._total_version:
            self._total_cache = int(self._state.replica_counts().sum())
            self._total_version = self._state.version
        return self._total_cache

    def _ensure_mask_cache(self) -> None:
        """Refresh the replica-cell index cache when the layout moved."""
        state = self._state
        capacities = self._server_capacity_array()  # may widen the mirror first
        shape = (state.num_partitions, state.num_servers)
        if state.version == self._mask_version and shape == self._mask_shape:
            return
        index, count = state.cells()
        self._mask_index = index
        self._mask_cap = capacities[index % shape[1]]
        self._mask_cnt_f = count.astype(np.float64)
        self._mask_cap_ok = not bool((self._mask_cap <= 0).any())
        self._mask_version = state.version
        self._mask_shape = shape

    def _served_metrics(self, result: "ServiceResult") -> tuple[float, float, float]:
        """Served total, Eq. 21 utilization and normalised Eq. 26 load CV
        from the served cells, bit-identical to the dense formulas.

        The total is :meth:`CellMatrix.sum`, the dense matrix's own
        ``sum()``.  Apply runs between serve and record, so a served cell
        may sit where no copy is left: it counts in the total only.  The
        other cells are matched to the replica cells by flat index;
        utilization's divide and clamp run on exactly those (the same
        per-cell IEEE-754 ops as the dense formula), and every other
        cell of the dense fill matrix is an exact 0.0, so summing the
        matched cells in numpy's order reduces the same values.
        """
        served = result.served_cells
        total_served = served.sum()
        total = self._total_replicas()
        if total == 0:
            return total_served, 0.0, 0.0
        self._ensure_mask_cache()
        if not self._mask_cap_ok:
            raise SimulationError(
                "replica-holding servers must have positive capacity"
            )
        if served.shape != self._mask_shape:
            raise SimulationError(
                f"shape mismatch: served {served.shape} vs counts {self._mask_shape}"
            )
        mask = self._mask_index
        # A bare searchsorted would pin every stray cell to a neighbour's
        # slot; only an equal index is a copy.
        slot = np.searchsorted(mask, served.index)
        np.minimum(slot, mask.shape[0] - 1, out=slot)
        matched = mask[slot] == served.index
        slot = slot[matched]
        values = served.values[matched]
        fills = np.minimum(values / self._mask_cap[slot], self._mask_cnt_f[slot])
        utilization = CellMatrix(served.shape, served.index[matched], fills).sum() / total
        # Served queries of every replica cell (0.0 where none landed).
        at_copies = np.zeros(mask.shape[0], dtype=np.float64)
        at_copies[slot] = values
        # Divide by the float64 mirror of the counts: same IEEE-754
        # quotient bits (an int32 count converts to float64 exactly), but the
        # dtype transition is explicit instead of numpy's promotion.
        per_copy = at_copies / self._mask_cnt_f
        weights = self._mask_cnt_f
        mean = float((per_copy * weights).sum() / total)
        if mean <= 0.0:
            return total_served, utilization, 0.0
        var = float((weights * (per_copy - mean) ** 2).sum() / total)
        return total_served, utilization, float(np.sqrt(max(0.0, var)) / mean)

    def _server_imbalance_value(
        self, per_server_load: np.ndarray, alive_mask: np.ndarray
    ) -> float:
        # With every server alive the boolean mask copies the whole
        # array; ``std`` over the original buffer reduces the same
        # values in the same order.
        if self._alive_server_count() == self.cluster.num_servers:
            return float(per_server_load.std())
        return server_load_imbalance(per_server_load, alive_mask)

    def _availability_summary(self) -> AvailabilitySummary:
        """Table-driven Eq. 9 roll-up, bit-identical to the scalar one.

        Per-count availabilities come from a lookup table whose entries
        are computed by the *scalar* :func:`availability_at_least_one`,
        and the mean uses ``np.add.accumulate`` — the same left-to-right
        addition order as the scalar ``sum()`` (``0.0 + a0 == a0``
        exactly, so the missing leading zero cannot change a bit).
        """
        state = self._state
        if state.version == self._avail_version and self._avail_cache is not None:
            return self._avail_cache
        counts = state.replica_counts()
        cmax = int(counts.max(initial=0))
        table = self._avail_table
        if cmax >= table.shape[0]:
            failure_rate = self.config.rfh.failure_rate
            vals = table.tolist()
            for r in range(table.shape[0], cmax + 1):
                vals.append(availability_at_least_one(r, failure_rate))
            table = np.array(vals, dtype=np.float64)
            self._avail_table = table
        av = table[counts]
        num = counts.shape[0]
        self._avail_cache = AvailabilitySummary(
            fraction_meeting_floor=int(np.count_nonzero(counts >= self.rmin)) / num,
            mean_availability=float(np.add.accumulate(av)[-1]) / num,
            min_availability=float(av.min()),
            lost_partitions=int(np.count_nonzero(counts == 0)),
        )
        self._avail_version = state.version
        return self._avail_cache
