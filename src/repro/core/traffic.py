"""Traffic determination: the overflow recursion of Eqs. 2–8.

The model (Section II-C): a query for partition ``B_i`` raised near
datacenter ``j`` travels the routing path ``A_ij`` toward the partition
holder.  Every node on the path that hosts replicas of ``B_i`` absorbs
queries up to its processing capacity ``Σ_l C_ikl``; the remainder flows
on.  The *traffic* of node ``k`` is the flow arriving at it:

    tr_ijjt = q_ijt                                   (Eq. 5)
    tr_ijkt = max(0, tr_ijk't − Σ_l C_ik'l)            (Eqs. 2–4)

where ``k'`` is the node immediately before ``k``.  Eq. 8 sums over
requesters ``j`` with the path-membership indicator ``p_ijk``.

One refinement over the per-path closed form (documented in DESIGN.md):
capacity is a *shared* resource.  When flows from several requesters
cross one datacenter, Eq. 6 applied independently per path would let
each flow consume the same replicas.  We therefore process flows
level-synchronously (all first hops, then all second hops, ...) against
shared remaining capacities, in deterministic origin order — flows merge
at conjunction nodes exactly as physical queries would.

Everything the metrics need falls out of the same walk: per-server
served counts (utilization, Eq. 20; load imbalance, Eq. 24), per-DC
traffic (hub detection, Eqs. 12–13), unserved overflow, and lookup path
lengths (hops until a replica was hit).  A served query lands only on a
cell that holds a replica and traffic only on the datacenters of the
routing paths, so :class:`ServiceResult` keeps both matrices as their
nonzero cells (:class:`CellMatrix`); this walk fills dense matrices and
hands back their cells.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..errors import SimulationError
from ..net.routing import Router
from ..workload.query import QueryBatch

if TYPE_CHECKING:
    from ..obs.perf import WorkCounters

__all__ = ["CellMatrix", "ServiceResult", "serve_epoch", "upsert_cells"]

#: Per-partition replica layout: ``{dc: [(sid, capacity_queries_per_epoch)]}``.
ReplicaLayout = Mapping[int, Sequence[tuple[int, float]]]


#: Largest run :meth:`CellMatrix.sum` hands to numpy whole: 2¹⁶ float64
#: (512 KB) of scratch.  Smaller blocks walk more of the tree in Python.
_SUM_BLOCK = 1 << 16


def _pairwise_cells(
    index: np.ndarray,
    values: np.ndarray,
    start: int,
    size: int,
    scratch: np.ndarray,
) -> float:
    """numpy's pairwise sum of the flat run ``[start, start + size)``,
    whose cells are ``index`` / ``values`` (at least one); every other
    element is +0.0.

    Runs that fit ``scratch`` are scattered into it and reduced by
    numpy's own kernel, then re-zeroed.  A longer run splits where
    numpy's does, at ``size // 2`` rounded down to a multiple of 8, and
    a half without cells is skipped: it sums to +0.0, which changes no
    nonzero partial sum.  A module-level function, not a closure: a
    nested recursive function closes over itself, and that reference
    cycle would keep each call's scratch alive until the cyclic GC ran.
    """
    if size <= scratch.shape[0]:
        run = scratch[:size]
        offsets = index - start
        run[offsets] = values
        total = float(np.add.reduce(run))
        run[offsets] = 0.0
        return total
    half = size // 2
    half -= half % 8
    split = int(np.searchsorted(index, start + half))
    if split == index.shape[0]:
        return _pairwise_cells(index, values, start, half, scratch)
    if split == 0:
        return _pairwise_cells(index, values, start + half, size - half, scratch)
    return _pairwise_cells(
        index[:split], values[:split], start, half, scratch
    ) + _pairwise_cells(
        index[split:], values[split:], start + half, size - half, scratch
    )


@dataclass(frozen=True)
class CellMatrix:
    """A ``(rows, cols)`` float64 matrix kept as its nonzero cells.

    ``index`` holds the row-major flat indices ``i · cols + j`` of the
    nonzero cells in ascending order and ``values`` their float64 values;
    every other cell is +0.0.  An epoch's served and traffic matrices
    touch a few hundred to a few thousand of their ``P · S`` and ``P · D``
    cells, so this is ``O(cells)`` memory however large the matrix is.
    """

    shape: tuple[int, int]
    index: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        self.index.setflags(write=False)
        self.values.setflags(write=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CellMatrix":
        """The nonzero cells of a 2-D matrix (``np.flatnonzero`` order)."""
        flat = np.ascontiguousarray(dense, dtype=np.float64).reshape(-1)
        index = np.flatnonzero(flat)
        return cls((int(dense.shape[0]), int(dense.shape[1])), index, flat[index])

    def dense(self) -> np.ndarray:
        """The whole ``(rows, cols)`` matrix, built afresh on every call."""
        out = np.zeros(self.shape[0] * self.shape[1], dtype=np.float64)
        out[self.index] = self.values
        return out.reshape(self.shape)

    def row(self, i: int) -> np.ndarray:
        """Row ``i`` as a dense length-``cols`` vector."""
        cols = self.shape[1]
        lo, hi = np.searchsorted(self.index, (i * cols, (i + 1) * cols))
        out = np.zeros(cols, dtype=np.float64)
        out[self.index[lo:hi] - i * cols] = self.values[lo:hi]
        return out

    def sum(self) -> float:
        """``float(dense().sum())``, bit for bit, without the dense matrix.

        numpy sums a contiguous float64 vector of ``n`` elements as
        ``0.0 + pairwise(n)``: a run of at most 128 elements is added
        with eight accumulators, a longer one splits at ``n // 2``
        rounded down to a multiple of 8 and adds the two halves' sums.
        The split tree depends on ``n`` alone, so walking it over the
        sorted cell index and letting numpy reduce each block-sized run
        that holds cells (in a 2¹⁶-element scratch) reproduces its every
        addition; the runs without cells are +0.0.
        """
        size = self.shape[0] * self.shape[1]
        if self.index.shape[0] == 0:
            return 0.0
        scratch = np.zeros(min(size, _SUM_BLOCK), dtype=np.float64)
        return _pairwise_cells(self.index, self.values, 0, size, scratch)

    def column_sums(self) -> np.ndarray:
        """``dense().sum(axis=0)``, bit for bit.

        numpy sums the rows of a C-contiguous matrix one after another,
        so each column total is its cells added in row order; the cells
        left out are +0.0, whose addition to a non-negative partial sum
        changes no bit.  ``np.bincount`` adds the cells in exactly that
        order.  A single column is summed pairwise instead, as the flat
        vector :meth:`sum` reduces.
        """
        cols = self.shape[1]
        if cols == 1:
            return np.array([self.sum()], dtype=np.float64)
        sums = np.bincount(self.index % cols, weights=self.values, minlength=cols)
        return sums.astype(np.float64, copy=False)  # int64 when there are no cells


def upsert_cells(
    index: np.ndarray,
    values: np.ndarray,
    keys: np.ndarray,
    new: np.ndarray,
    live: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sorted cells ``(index, values)`` with the cells at ``keys`` rewritten.

    ``index`` ascends without repeats and ``values`` is aligned with it;
    ``keys`` has no repeats, in any order.  Afterwards ``keys[i]`` holds
    ``new[i]`` where ``live[i]`` (inserted if it was absent) and is gone
    otherwise; every other cell is kept.  Returns new arrays, in one
    sorted merge, and leaves the inputs unchanged.
    """
    order = np.argsort(keys)
    keys, new, live = keys[order], new[order], live[order]
    pos = np.searchsorted(index, keys)
    found = pos < index.shape[0]
    found[found] = index[pos[found]] == keys[found]
    kept = np.ones(index.shape[0], dtype=bool)
    kept[pos[found]] = False
    index, values = index[kept], values[kept]
    keys, new = keys[live], new[live]
    at = np.searchsorted(index, keys)
    return np.insert(index, at, keys), np.insert(values, at, new)


@dataclass(frozen=True)
class ServiceResult:
    """Outcome of routing one epoch's queries through the replica layout.

    Attributes
    ----------
    served_cells:
        ``(P, S)`` as cells: queries of partition ``i`` served by server
        ``sid``; nonzero only where ``sid`` holds a copy of ``i``.
    traffic_cells:
        ``(P, D)`` as cells: Eq. 8 traffic — the flow *arriving* at each
        datacenter for each partition (its own service not subtracted);
        nonzero only on the datacenters of the routing paths.
    unserved:
        Length ``P``: queries that overflowed every replica on their
        path, including the holder (blocked this epoch).
    holder_traffic:
        Length ``P``: the flow that reached the *holder server itself*
        (its served queries plus the unserved overflow).  This is the
        paper's ``tr_iit`` — traffic of the primary holder *node* — at
        server granularity: replicas co-located in the holder's
        datacenter intercept before the holder server, exactly like any
        other node earlier on the routing path, so placing copies near
        the holder genuinely relieves it (Eq. 12's feedback loop).
    hop_sum:
        Sum over all queries of the WAN hop count at which they were
        served (blocked queries are charged the full path length — they
        travelled it before being refused).
    distance_sum_km:
        Sum over all queries of the WAN distance (km) from their origin
        to the datacenter that served them (blocked queries are charged
        the full path distance).  Feeds the response-latency model in
        :mod:`repro.metrics.latency`.
    sla_miss:
        Queries that missed the SLA bound this epoch: every blocked
        query plus every served query whose modelled response time
        exceeded the bound.  0.0 when no latency model was supplied.
    query_count:
        Total queries routed (== ``queries.total``).
    """

    served_cells: CellMatrix
    traffic_cells: CellMatrix
    unserved: np.ndarray
    holder_traffic: np.ndarray
    hop_sum: float
    distance_sum_km: float
    sla_miss: float
    query_count: int

    @property
    def served_server(self) -> np.ndarray:
        """Dense ``(P, S)`` served matrix, rebuilt from the cells per access."""
        return self.served_cells.dense()

    @property
    def traffic_dc(self) -> np.ndarray:
        """Dense ``(P, D)`` Eq. 8 traffic matrix, rebuilt per access."""
        return self.traffic_cells.dense()

    @property
    def per_server_load(self) -> np.ndarray:
        """Total queries served per server across partitions (length S)."""
        return self.served_cells.column_sums()

    @property
    def mean_path_length(self) -> float:
        """Average WAN hops per query (0.0 when the epoch had no queries)."""
        if self.query_count == 0:
            return 0.0
        return self.hop_sum / self.query_count

    @property
    def total_served(self) -> float:
        """Total queries actually served this epoch (the dense sum)."""
        return self.served_cells.sum()


def serve_epoch(
    queries: QueryBatch,
    holder_dc: Sequence[int | None],
    layouts: Sequence[ReplicaLayout],
    router: Router,
    num_servers: int,
    holder_sid: Sequence[int | None] | None = None,
    latency=None,
    work: "WorkCounters | None" = None,
) -> ServiceResult:
    """Route one epoch's query matrix and return the full service outcome.

    Parameters
    ----------
    queries:
        The epoch's ``q_ijt`` matrix.
    holder_dc:
        Per-partition datacenter of the primary holder; ``None`` marks a
        partition whose every copy is lost (all its queries fail).
    layouts:
        Per-partition replica capacity layout
        ``{dc: [(sid, capacity), ...]}``; within a datacenter servers are
        drained in the given order (callers pass sid-sorted lists, which
        keeps the walk deterministic).
    router:
        WAN shortest-path oracle.
    num_servers:
        Width of the served matrix (server columns).
    holder_sid:
        Per-partition server id of the primary holder.  When given, the
        holder server is drained *last* among its datacenter's replicas
        (co-located copies intercept first) and
        :attr:`ServiceResult.holder_traffic` reports the flow reaching
        it.  When omitted (pure-kernel unit tests), servers drain in the
        given order and ``holder_traffic`` is all zeros.
    latency:
        Optional :class:`~repro.metrics.latency.LatencyModel`; when
        given, SLA misses are accumulated exactly per absorbed flow
        (blocked queries always miss).
    work:
        Optional :class:`~repro.obs.perf.WorkCounters`; counts
        partitions scanned (each partition with queries this epoch) and
        graph hops (path nodes visited while constructing flows).
    """
    num_partitions = queries.num_partitions
    num_dcs = queries.num_origins
    if len(holder_dc) != num_partitions:
        raise SimulationError(
            f"holder_dc has {len(holder_dc)} entries for {num_partitions} partitions"
        )
    if len(layouts) != num_partitions:
        raise SimulationError(
            f"layouts has {len(layouts)} entries for {num_partitions} partitions"
        )

    served = np.zeros((num_partitions, num_servers), dtype=np.float64)
    traffic = np.zeros((num_partitions, num_dcs), dtype=np.float64)
    unserved = np.zeros(num_partitions, dtype=np.float64)
    holder_flow = np.zeros(num_partitions, dtype=np.float64)

    # Per-flow reduction terms: one slot per nonzero (partition, origin)
    # query cell, appended in walk order.  Each flow accumulates its own
    # hop/distance/SLA contributions in (level, slot) order and the
    # totals are reduced with a single ``np.sum`` over the finished
    # arrays.  The columnar engine follows the same contract — same
    # per-flow slots, same internal accumulation order, same final
    # reduction — so the two engines produce bit-identical totals even
    # though the columnar walk is scheduled very differently.
    flow_hops: list[float] = []
    flow_kms: list[float] = []
    flow_miss: list[float] = []

    counts = queries.counts
    for partition in range(num_partitions):
        row = counts[partition]
        if not row.any():
            continue
        if work is not None:
            work.partitions_scanned += 1
        holder = holder_dc[partition]
        if holder is None:
            # Every copy lost: queries reach nothing and fail at distance 0.
            unserved[partition] = float(row.sum())
            for origin in np.nonzero(row)[0]:
                traffic[partition, origin] += float(row[origin])
                flow_hops.append(0.0)
                flow_kms.append(0.0)
                flow_miss.append(
                    float(row[origin]) if latency is not None else 0.0
                )
            continue
        sid = holder_sid[partition] if holder_sid is not None else None
        _serve_partition(
            row,
            int(holder),
            layouts[partition],
            router,
            served[partition],
            traffic[partition],
            partition,
            unserved,
            sid,
            latency,
            work,
            flow_hops,
            flow_kms,
            flow_miss,
        )
        if sid is not None:
            holder_flow[partition] = served[partition, sid] + unserved[partition]

    return ServiceResult(
        served_cells=CellMatrix.from_dense(served),
        traffic_cells=CellMatrix.from_dense(traffic),
        unserved=unserved,
        holder_traffic=holder_flow,
        hop_sum=float(np.sum(np.asarray(flow_hops, dtype=np.float64))),
        distance_sum_km=float(np.sum(np.asarray(flow_kms, dtype=np.float64))),
        sla_miss=float(np.sum(np.asarray(flow_miss, dtype=np.float64))),
        query_count=queries.total,
    )


def _serve_partition(
    row: np.ndarray,
    holder: int,
    layout: ReplicaLayout,
    router: Router,
    served_row: np.ndarray,
    traffic_row: np.ndarray,
    partition: int,
    unserved: np.ndarray,
    holder_sid: int | None,
    latency,
    work: "WorkCounters | None" = None,
    flow_hops: list[float] | None = None,
    flow_kms: list[float] | None = None,
    flow_miss: list[float] | None = None,
) -> None:
    """Walk one partition's flows level-synchronously.

    Appends one hop/distance/SLA reduction term per nonzero origin to
    ``flow_hops`` / ``flow_kms`` / ``flow_miss`` (see ``serve_epoch``).
    """
    if flow_hops is None:
        flow_hops = []
    if flow_kms is None:
        flow_kms = []
    if flow_miss is None:
        flow_miss = []
    # Shared remaining capacity per replica-holding server this epoch.
    remaining: dict[int, float] = {}
    dc_servers: dict[int, list[int]] = {}
    for dc, entries in layout.items():
        order: list[int] = []
        for sid, capacity in entries:
            if capacity < 0:
                raise SimulationError(
                    f"negative capacity {capacity} for server {sid}"
                )
            remaining[sid] = remaining.get(sid, 0.0) + float(capacity)
            order.append(sid)
        if holder_sid is not None and holder_sid in order:
            # The holder server is the path terminus: co-located replicas
            # intercept before it, so it drains last within its DC.
            order.remove(holder_sid)
            order.append(holder_sid)
        dc_servers[dc] = order

    # Flows: (origin, path, remaining_amount); origins in ascending order.
    flows: list[tuple[int, tuple[int, ...], float]] = []
    max_levels = 0
    for origin in np.nonzero(row)[0]:
        origin = int(origin)
        if not router.reachable(origin, holder):
            # A WAN partition separates the requester from the holder.
            # Replicas on the requester's side of the cut still serve
            # (nearest reachable replica datacenter first); the
            # remainder is blocked at the origin, at zero distance.
            amount = float(row[origin])
            hop_f = 0.0
            km_f = 0.0
            miss_f = 0.0
            traffic_row[origin] += amount
            for dc in sorted(
                dc_servers, key=lambda d: (router.distance_km(origin, d), d)
            ):
                if amount <= 0.0:
                    break
                if dc != origin and not router.reachable(origin, dc):
                    continue
                if dc != origin:
                    traffic_row[dc] += amount
                hops = router.hop_count(origin, dc)
                km = router.distance_km(origin, dc)
                for sid in dc_servers[dc]:
                    if amount <= 0.0:
                        break
                    cap = remaining.get(sid, 0.0)
                    if cap <= 0.0:
                        continue
                    take = min(cap, amount)
                    remaining[sid] = cap - take
                    served_row[sid] += take
                    amount -= take
                    hop_f += take * hops
                    km_f += take * km
                    if (
                        latency is not None
                        and latency.response_ms(km, hops) > latency.sla_ms
                    ):
                        miss_f += take
            if amount > 0.0:
                unserved[partition] += amount
                if latency is not None:
                    miss_f += amount  # blocked queries always miss
            flow_hops.append(hop_f)
            flow_kms.append(km_f)
            flow_miss.append(miss_f)
            continue
        path = router.path(origin, holder)
        if work is not None:
            work.graph_hops += len(path)
        flows.append((origin, path, float(row[origin])))
        max_levels = max(max_levels, len(path))
    amounts = [f[2] for f in flows]
    f_hops = [0.0] * len(flows)
    f_kms = [0.0] * len(flows)
    f_miss = [0.0] * len(flows)
    for level in range(max_levels):
        for idx, (origin, path, _) in enumerate(flows):
            amount = amounts[idx]
            if amount <= 0.0 or level >= len(path):
                continue
            dc = path[level]
            # Eq. 8's arriving-flow traffic, including the origin's own
            # full query load at level 0 (Eq. 5: tr_ijj = q_ij).
            traffic_row[dc] += amount
            entry = amount
            for sid in dc_servers.get(dc, ()):
                if amount <= 0.0:
                    break
                cap = remaining.get(sid, 0.0)
                if cap <= 0.0:
                    continue
                take = min(cap, amount)
                remaining[sid] = cap - take
                served_row[sid] += take
                amount -= take
            # One hop/distance/SLA term per (flow, level): everything
            # absorbed at this datacenter shares the same hop count
            # and origin distance, so the level's absorption is
            # charged with a single multiply-add (the columnar kernel
            # computes the identical ``entry - amount`` difference).
            absorbed = entry - amount
            f_hops[idx] += absorbed * level
            km = router.distance_km(origin, dc)
            f_kms[idx] += absorbed * km
            if (
                latency is not None
                and latency.response_ms(km, level) > latency.sla_ms
            ):
                f_miss[idx] += absorbed
            if amount > 0.0 and level == len(path) - 1:
                # Reached the holder and still overflowing: blocked.
                unserved[partition] += amount
                f_hops[idx] += amount * level
                f_kms[idx] += amount * km
                if latency is not None:
                    f_miss[idx] += amount  # blocked queries always miss
                amount = 0.0
            amounts[idx] = amount
    flow_hops.extend(f_hops)
    flow_kms.extend(f_kms)
    flow_miss.extend(f_miss)
