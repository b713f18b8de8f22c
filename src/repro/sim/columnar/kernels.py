"""Vectorized epoch kernels (Eqs. 2–8 overflow recursion, Eq. 18 Erlang-B).

Bit-exactness is the design constraint, not an aspiration.  Every kernel
here reproduces the scalar reference walk *operation for operation* on
the IEEE-754 level:

* **Slot drain.**  The scalar walk drains a flow through one
  datacenter's replica slots as ``take = min(cap, amount); amount -=
  take``.  ``np.subtract.accumulate`` over ``[amount, cap_0, cap_1,
  ...]`` produces exactly the same running values while the flow is
  positive (the identical subtractions in the identical order), and
  after exhaustion ``take = min(cap, max(running, 0.0))`` yields exact
  zeros — so served counts, remaining capacities and the post-drain
  amount are bit-identical, with the whole slot loop replaced by one
  vectorized accumulate.
* **Conjunction ordering.**  Flows that meet at one datacenter drain
  shared slots in origin order (the scalar walk's determinism rule).
  Each level is decomposed into *rank sets*: the k-th flow of every
  (partition, datacenter) group forms rank k; ranks run sequentially
  and within a rank all groups are memory-disjoint, so each rank is one
  batched 2-D drain.
* **Reduction contract.**  Hop/distance/SLA totals are accumulated per
  flow in (level, slot) order — the same per-flow ``absorbed = entry −
  amount`` terms the scalar walk now computes — and reduced with the
  same final ``np.sum`` over the same flow order.

Served queries are added per slot — one slot per (partition, server)
cell holding replicas — in the scalar walk's order, and handed back as
the nonzero cells of the ``(P, S)`` matrix; traffic is added per touched
(partition, datacenter) cell in the order the dense scatter-add used.
Padding never perturbs state: a dedicated sentinel slot with zero
capacity absorbs all padded lanes, whose writes are exact no-ops by
construction.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING

import numpy as np

from ...core.traffic import CellMatrix, ServiceResult
from .tables import RouterTables

if TYPE_CHECKING:
    from ...obs.perf import WorkCounters
    from ...workload.query import QueryBatch

__all__ = ["SlotCSR", "build_slot_csr", "serve_columnar", "erlang_b_vector"]

#: Below this many draining flows a level is walked in a plain Python
#: loop (the scalar reference sequence verbatim) — per-call numpy
#: overhead dwarfs the arithmetic at these sizes.  Both paths produce
#: bit-identical results, so the threshold is purely a speed knob.
_SMALL_DRAIN = 64

#: Flows that survive level 0 and still need the overflow walk.  At or
#: below this count the remaining levels run as one Python walk (the
#: scalar sequence verbatim, fed from the precomputed tables); above it
#: the vectorized per-level machinery takes over.  A speed knob only —
#: both tails are bit-identical.
_PY_TAIL = 512

#: Largest ``P * D`` key space for which the CSR keeps dense
#: key → (start, run) tables.  Dense tables cost O(P · D) memory and
#: build time per layout change — negligible at the paper's scale but
#: ruinous at 10⁵ partitions × 100 datacenters (10⁷-entry tables per
#: epoch); past the threshold lookups run through ``searchsorted`` on
#: the sorted key column instead.  Both modes address the identical
#: slot runs, so this is a speed knob only.
_DENSE_KEYS = 1 << 20


class SlotCSR:
    """Replica capacity slots in drain order, indexed by (partition, dc).

    Slots are sorted by ``(partition, datacenter, holder-last, sid)`` —
    the scalar walk's deterministic drain order — and addressed through
    ``searchsorted`` on the composite key ``partition * D + dc``.  Each
    slot is one (partition, server) cell holding replicas; ``cell_index``
    lists those cells' row-major flat indices ``p · S + sid`` in
    ascending order and ``cell_slot`` the slot of each, and
    ``holder_slot[p]`` is the slot of partition ``p``'s holder.  One
    extra sentinel slot (index ``n_slots``, capacity 0) gives padded
    drain lanes a harmless landing slot.
    """

    __slots__ = (
        "key",
        "cap",
        "n_slots",
        "cap_ext",
        "cell_index",
        "cell_slot",
        "holder_slot",
        "lo_dense",
        "run_dense",
        "lo_list",
        "run_list",
        "key_list",
    )

    def __init__(
        self,
        key: np.ndarray,
        cap: np.ndarray,
        cell_index: np.ndarray,
        cell_slot: np.ndarray,
        holder_slot: np.ndarray,
        num_keys: int,
    ) -> None:
        self.key = key
        self.cap = cap
        self.n_slots = int(key.shape[0])
        self.cell_index = cell_index
        self.cell_slot = cell_slot
        self.holder_slot = holder_slot
        # Per-epoch remaining-capacity template: the sentinel slot rides
        # at the end so ``slot_rem`` is a single copy, no concatenate.
        self.cap_ext = np.concatenate([cap, np.zeros(1, dtype=np.float64)])
        # Dense (partition * D + dc) → slot-run start/length tables; one
        # searchsorted at build time replaces two per level per epoch.
        # Past _DENSE_KEYS the tables would dwarf the slots themselves,
        # so lookups fall back to searchsorted on the key column.
        self.lo_dense: np.ndarray | None
        self.run_dense: np.ndarray | None
        if num_keys <= _DENSE_KEYS:
            bounds = np.searchsorted(key, np.arange(num_keys + 1))
            self.lo_dense = bounds[:-1]
            self.run_dense = np.diff(bounds)
        else:
            self.lo_dense = None
            self.run_dense = None
        # Python-list mirrors for the tail walk, built on first use.
        self.lo_list: list[int] | None = None
        self.run_list: list[int] | None = None
        self.key_list: list[int] | None = None

    def runs(self, group_key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slot-run (start, length) per key — dense gather or bisection.

        Both modes read the same sorted slot ranges, so drains are
        bit-identical either way.
        """
        if self.lo_dense is not None and self.run_dense is not None:
            return self.lo_dense[group_key], self.run_dense[group_key]
        lo = np.searchsorted(self.key, group_key)
        hi = np.searchsorted(self.key, group_key + 1)
        return lo, hi - lo


def build_slot_csr(
    cell_index: np.ndarray,
    cell_count: np.ndarray,
    holder: np.ndarray,
    dc_of: np.ndarray,
    capacities: np.ndarray,
    num_dcs: int,
    num_servers: int,
) -> SlotCSR:
    """Compile the replica layout into drain-ordered capacity slots.

    The layout is its replica cells: ascending row-major flat indices
    ``p · num_servers + sid`` and their copy counts, as
    :meth:`SimState.cells` gives them.  A copy implies the server is
    alive (copies are dropped with their server and never placed on
    dead ones), so no liveness mask is needed.  Capacity per slot is
    ``count * replica_capacity`` — the very multiply the scalar layout
    builder performs.
    """
    num_partitions = int(holder.shape[0])
    pp = cell_index // num_servers
    ss = cell_index % num_servers
    slot_dc = dc_of[ss]
    is_holder = ss == holder[pp]
    # Primary sort partition, then datacenter, holder server last within
    # its datacenter, then ascending sid: the scalar drain order.
    order = np.lexsort((ss, is_holder, slot_dc, pp))
    n_slots = int(order.shape[0])
    # The cells ascend in row-major order, so the inverse of the
    # drain-order permutation maps cell k to its slot.
    cell_slot = np.empty(n_slots, dtype=np.int64)
    cell_slot[order] = np.arange(n_slots)
    holder_slot = np.full(num_partitions, n_slots, dtype=np.int64)
    holder_slot[pp[is_holder]] = cell_slot[is_holder]
    ss = ss[order]
    cap = cell_count[order].astype(np.float64) * capacities[ss]
    key = pp[order] * num_dcs + slot_dc[order]
    return SlotCSR(
        key, cap, cell_index, cell_slot, holder_slot, num_partitions * num_dcs
    )


def _drain_batch(
    amounts: np.ndarray,
    lo: np.ndarray,
    run: np.ndarray,
    slot_rem: np.ndarray,
    slot_served: np.ndarray,
    sentinel: int,
) -> np.ndarray:
    """Drain a batch of memory-disjoint flows; returns post-drain amounts.

    Each row is one flow with a contiguous slot run ``[lo, lo + run)``;
    rows belong to distinct (partition, dc) groups, so their slots never
    collide.  Rows are padded to the widest run with the sentinel slot
    (capacity 0), whose takes are exact zeros.
    """
    width = int(run.max())
    col = np.arange(width)
    sidx = np.where(col[None, :] < run[:, None], lo[:, None] + col[None, :], sentinel)
    caps = slot_rem[sidx]
    seq = np.subtract.accumulate(
        np.concatenate([amounts[:, None], caps], axis=1), axis=1
    )
    take = np.minimum(caps, np.maximum(seq[:, :-1], 0.0))
    slot_rem[sidx] = caps - take
    # Real slots are unique within the batch; padded lanes add exact
    # zeros to the sentinel, so buffered fancy indexing is safe.
    slot_served[sidx] += take
    return np.maximum(seq[:, -1], 0.0)


def _drain_level(
    amounts: np.ndarray,
    group_key: np.ndarray,
    lo: np.ndarray,
    run: np.ndarray,
    has_slots: np.ndarray,
    slot_rem: np.ndarray,
    slot_served: np.ndarray,
    sentinel: int,
    unique_keys: bool = False,
) -> np.ndarray:
    """Drain every flow of one path level; returns the new amount vector.

    Flows sharing a (partition, dc) group are peeled into rank sets (the
    k-th flow of every group, in origin order) so shared slots drain in
    the scalar walk's deterministic order.  ``unique_keys`` asserts the
    caller knows no two flows share a group (level 0 of an origin-rooted
    route table), skipping the duplicate scan.
    """
    out = amounts.copy()
    n = int(np.count_nonzero(has_slots))
    if n <= _SMALL_DRAIN:
        # Scalar-sequence walk: flows in origin order, slots in drain
        # order — the exact reference arithmetic, no batching.
        idx = np.nonzero(has_slots)[0]
        a_list = out[idx].tolist()
        lo_list = lo[idx].tolist()
        run_list = run[idx].tolist()
        for i in range(n):
            a = a_list[i]
            base = lo_list[i]
            for s in range(base, base + run_list[i]):
                cap = slot_rem[s]
                if cap <= 0.0:
                    continue
                take = cap if cap < a else a
                slot_rem[s] = cap - take
                slot_served[s] += take
                a -= take
                if a <= 0.0:
                    break
            a_list[i] = a
        out[idx] = a_list
        return out
    am = amounts[has_slots]
    lom = lo[has_slots]
    runm = run[has_slots]
    if unique_keys:
        out[has_slots] = _drain_batch(am, lom, runm, slot_rem, slot_served, sentinel)
        return out
    gkm = group_key[has_slots]
    order = np.argsort(gkm, kind="stable")
    sorted_keys = gkm[order]
    if n > 1 and bool((sorted_keys[1:] == sorted_keys[:-1]).any()):
        # Conjunction groups: assign each flow its rank within its group.
        ridx = np.arange(n)
        new_group = np.empty(n, dtype=bool)
        new_group[0] = True
        np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_group[1:])
        start = np.maximum.accumulate(np.where(new_group, ridx, 0))
        rank = ridx - start
        result = np.empty(n, dtype=np.float64)
        for r in range(int(rank.max()) + 1):
            sel = order[rank == r]
            result[sel] = _drain_batch(
                am[sel], lom[sel], runm[sel], slot_rem, slot_served, sentinel
            )
    else:
        result = _drain_batch(am, lom, runm, slot_rem, slot_served, sentinel)
    out[has_slots] = result
    return out


def _walk_tail_python(
    cur: np.ndarray,
    amount: np.ndarray,
    plen_cur: np.ndarray,
    flow_p: np.ndarray,
    flow_o: np.ndarray,
    dest: np.ndarray,
    tables: RouterTables,
    csr: SlotCSR,
    slot_rem: np.ndarray,
    slot_served: np.ndarray,
    unserved: np.ndarray,
    f_hops: np.ndarray,
    f_kms: np.ndarray,
    f_miss: np.ndarray,
    num_dcs: int,
    traffic_p: list[np.ndarray],
    traffic_dc_l: list[np.ndarray],
    traffic_am: list[np.ndarray],
    start_level: int = 1,
) -> None:
    """Walk levels >= 1 for a small surviving flow set, in Python.

    This is the scalar reference sequence verbatim: level-synchronous,
    flows in origin order, slots in drain order, with every arithmetic
    step performed as the identical IEEE-754 double operation — Python
    floats and float64 lanes agree bit for bit.  Zero-valued stat
    charges (``absorbed == 0.0``) are skipped; adding literal ``+0.0``
    to the non-negative accumulators is an exact no-op.

    Array traffic is batched: per-flow hop/km/miss accumulators ride as
    Python floats (seeded from, and written back to, the ``f_*`` rows —
    each flow owns its slot, so the add order is unchanged), and the
    served/unserved scatter-adds are replayed by ``np.add.at`` in the
    exact order they were recorded (sequential, hence bit-identical).
    """
    if csr.lo_list is None and csr.key_list is None:
        if csr.lo_dense is not None and csr.run_dense is not None:
            csr.lo_list = csr.lo_dense.tolist()
            csr.run_list = csr.run_dense.tolist()
        else:
            csr.key_list = csr.key.tolist()
    dense = csr.lo_list is not None
    lo_l: list[int] = csr.lo_list if csr.lo_list is not None else []
    run_l: list[int] = csr.run_list if csr.run_list is not None else []
    key_l: list[int] = csr.key_list if csr.key_list is not None else []
    n_keys = len(key_l)
    route_row = tables.route_row
    rem = slot_rem.tolist()
    # Per-flow state in parallel lists indexed 0..n-1; ``alive`` holds
    # the indices still walking.  Accumulators start at the flows' f_*
    # entries — exact zeros when the table proves level 0 charged
    # nothing, so the reads are skipped then.
    n = cur.shape[0]
    am_l = amount.tolist()
    plen_l = plen_cur.tolist()
    p_l = flow_p[cur].tolist()
    rows_l = [route_row(o, h) for o, h in zip(flow_o[cur].tolist(), dest[cur].tolist())]
    if tables.level0_stats_free and start_level == 1:
        hh_l = [0.0] * n
        kk_l = [0.0] * n
        mm_l = [0.0] * n
    else:
        hh_l = f_hops[cur].tolist()
        kk_l = f_kms[cur].tolist()
        mm_l = f_miss[cur].tolist()
    alive = list(range(n))
    t_p: list[int] = []
    t_dc: list[int] = []
    t_am: list[float] = []
    t_p_append = t_p.append
    t_dc_append = t_dc.append
    t_am_append = t_am.append
    s_idx: list[int] = []
    s_take: list[float] = []
    s_idx_append = s_idx.append
    s_take_append = s_take.append
    u_p: list[int] = []
    u_a: list[float] = []
    level = start_level
    while alive:
        nxt: list[int] = []
        nxt_append = nxt.append
        for j in alive:
            a = am_l[j]
            p = p_l[j]
            pr, kr, mr = rows_l[j]
            dc = pr[level]
            t_p_append(p)
            t_dc_append(dc)
            t_am_append(a)
            k = p * num_dcs + dc
            if dense:
                base = lo_l[k]
                r = run_l[k]
            else:
                base = bisect_left(key_l, k)
                r = 0
                while base + r < n_keys and key_l[base + r] == k:
                    r += 1
            if r:
                entry = a
                for s in range(base, base + r):
                    cap = rem[s]
                    if cap <= 0.0:
                        continue
                    take = cap if cap < a else a
                    rem[s] = cap - take
                    s_idx_append(s)
                    s_take_append(take)
                    a -= take
                    if a <= 0.0:
                        break
                absorbed = entry - a
                if absorbed:
                    hh_l[j] += absorbed * level
                    kk_l[j] += absorbed * kr[level]
                    if mr[level]:
                        mm_l[j] += absorbed
            if plen_l[j] == level + 1:
                if a > 0.0:
                    # Blocked at the holder: full path charged, SLA miss.
                    u_p.append(p)
                    u_a.append(a)
                    hh_l[j] += a * level
                    kk_l[j] += a * kr[level]
                    mm_l[j] += a
            elif a > 0.0:
                am_l[j] = a
                nxt_append(j)
        alive = nxt
        level += 1
    f_hops[cur] = hh_l
    f_kms[cur] = kk_l
    f_miss[cur] = mm_l
    if s_idx:
        np.add.at(
            slot_served,
            np.asarray(s_idx, dtype=np.int64),
            np.asarray(s_take, dtype=np.float64),
        )
    if u_p:
        np.add.at(
            unserved,
            np.asarray(u_p, dtype=np.int64),
            np.asarray(u_a, dtype=np.float64),
        )
    if t_p:
        traffic_p.append(np.asarray(t_p, dtype=np.int64))
        traffic_dc_l.append(np.asarray(t_dc, dtype=np.int64))
        traffic_am.append(np.asarray(t_am, dtype=np.float64))


def serve_columnar(
    queries: "QueryBatch",
    holder_dc: np.ndarray,
    csr: SlotCSR,
    tables: RouterTables,
    num_servers: int,
    work: "WorkCounters | None" = None,
) -> ServiceResult:
    """Vectorized Eqs. 2–8 service walk over one epoch's query matrix.

    Preconditions (the engine guarantees them, falling back to the
    scalar path otherwise): every partition has a holder, the WAN is
    fully connected (no down links), and a latency model is attached.

    Level 0 (every flow active) is always vectorized; the overflow tail
    runs as a Python walk when few flows survive it and through the
    vectorized per-level machinery otherwise.
    """
    num_partitions = queries.num_partitions
    num_dcs = queries.num_origins
    served_shape = (num_partitions, num_servers)
    traffic_shape = (num_partitions, num_dcs)
    unserved = np.zeros(num_partitions, dtype=np.float64)
    holder_flow = np.zeros(num_partitions, dtype=np.float64)
    # One flow per nonzero (partition, origin) cell in row-major order —
    # the same flow slots, in the same order, as the scalar walk.
    cell_index, cell_counts = queries.cells()
    flow_p, flow_o = np.divmod(cell_index, num_dcs)
    # Partitions with queries, ascending: flow_p is sorted, so a row
    # starts wherever it changes (np.unique would also import numpy.ma).
    row_start = np.ones(flow_p.shape[0], dtype=bool)
    np.not_equal(flow_p[1:], flow_p[:-1], out=row_start[1:])
    active = flow_p[row_start]
    if work is not None:
        work.partitions_scanned += int(active.shape[0])
    if flow_p.shape[0] == 0:
        no_cells = np.zeros(0, dtype=np.int64)
        return ServiceResult(
            served_cells=CellMatrix(served_shape, no_cells, np.zeros(0)),
            traffic_cells=CellMatrix(traffic_shape, no_cells, np.zeros(0)),
            unserved=unserved,
            holder_traffic=holder_flow,
            hop_sum=0.0,
            distance_sum_km=0.0,
            sla_miss=0.0,
            query_count=queries.total,
        )
    dest = holder_dc[flow_p]
    plen_f = tables.plen[flow_o, dest]  # (F,) path node counts
    if work is not None:
        work.graph_hops += int(plen_f.sum())
    num_flows = int(flow_p.shape[0])
    fbuf = np.zeros((3, num_flows), dtype=np.float64)
    f_hops, f_kms, f_miss = fbuf

    slot_rem = csr.cap_ext.copy()
    # Served queries per slot, the sentinel last: each slot is one
    # (partition, server) cell, so a slot adds its takes in exactly the
    # order the scalar walk adds them to that cell.
    slot_served = np.zeros(csr.n_slots + 1, dtype=np.float64)
    sentinel = csr.n_slots
    amount = cell_counts.astype(np.float64)
    max_level = int(plen_f.max())
    # Traffic contributions are collected per level and added into
    # their cells at the end: level-major, flow-minor — exactly the
    # scalar walk's accumulation order within each partition row.
    # Origin-rooted tables make the level-0 gather free: path[o,h,0]==o.
    if tables.origin_start:
        dc0 = flow_o
    else:
        dc0 = tables.path[flow_o, dest, 0]
    traffic_p: list[np.ndarray] = [flow_p]
    traffic_dc_l: list[np.ndarray] = [dc0]
    traffic_am: list[np.ndarray] = [amount]

    # ---- Level 0: every flow is active, no compression needed. ----
    group_key = flow_p * num_dcs + dc0
    lo, run = csr.runs(group_key)
    has_slots = run > 0
    if bool(has_slots.any()):
        entry = amount
        amount = _drain_level(
            amount,
            group_key,
            lo,
            run,
            has_slots,
            slot_rem,
            slot_served,
            sentinel,
            unique_keys=tables.origin_start,
        )
        # One charge per (flow, level): everything absorbed here shares
        # the level's hop count, distance and SLA verdict.  When the
        # table proves level-0 charges are exact zeros (hop factor 0,
        # zero distance, no SLA miss), the adds are exact no-ops and
        # are skipped wholesale.
        if not tables.level0_stats_free:
            absorbed = entry - amount
            km0 = tables.km[flow_o, dest, 0]
            f_kms += absorbed * km0
            f_miss += np.where(tables.miss[flow_o, dest, 0], absorbed, 0.0)
    pos = amount > 0.0
    blocked = pos & (plen_f == 1)
    if bool(blocked.any()):
        # Single-node path and still overflowing: blocked at the holder.
        # ``amount`` is not zeroed: every continuation below masks on
        # ``plen_f > 1``, which excludes all single-node flows.
        idx = np.nonzero(blocked)[0]
        overflow = amount[idx]
        np.add.at(unserved, flow_p[idx], overflow)
        if not tables.level0_stats_free:
            f_kms[idx] += overflow * tables.km[flow_o[idx], dest[idx], 0]
        f_miss[idx] += overflow

    # ---- Levels >= 1: Python walk when few flows survive. ----
    if max_level > 1:
        keep = pos & (plen_f > 1)
        cur = np.nonzero(keep)[0]
        if cur.shape[0] and cur.shape[0] <= _PY_TAIL:
            _walk_tail_python(
                cur,
                amount[keep],
                plen_f[keep],
                flow_p,
                flow_o,
                dest,
                tables,
                csr,
                slot_rem,
                slot_served,
                unserved,
                f_hops,
                f_kms,
                f_miss,
                num_dcs,
                traffic_p,
                traffic_dc_l,
                traffic_am,
            )
        elif cur.shape[0]:
            paths_f = tables.path[flow_o, dest]  # (F, Lmax) dc per level
            km_f = tables.km[flow_o, dest]  # (F, Lmax) origin→level km
            miss_f = tables.miss[flow_o, dest]  # (F, Lmax) SLA-miss flags
            amount = amount[keep]
            plen_cur = plen_f[keep]
            for level in range(1, max_level):
                if level > 1:
                    keep = (amount > 0.0) & (plen_cur > level)
                    cur = cur[keep]
                    if cur.shape[0] == 0:
                        break
                    amount = amount[keep]
                    plen_cur = plen_cur[keep]
                    if cur.shape[0] <= _PY_TAIL:
                        # Few enough survivors now: finish in Python.
                        _walk_tail_python(
                            cur,
                            amount,
                            plen_cur,
                            flow_p,
                            flow_o,
                            dest,
                            tables,
                            csr,
                            slot_rem,
                            slot_served,
                            unserved,
                            f_hops,
                            f_kms,
                            f_miss,
                            num_dcs,
                            traffic_p,
                            traffic_dc_l,
                            traffic_am,
                            start_level=level,
                        )
                        break
                part = flow_p[cur]
                dc_level = paths_f[cur, level]
                traffic_p.append(part)
                traffic_dc_l.append(dc_level)
                traffic_am.append(amount)
                group_key = part * num_dcs + dc_level
                lo, run = csr.runs(group_key)
                has_slots = run > 0
                if bool(has_slots.any()):
                    entry = amount
                    amount = _drain_level(
                        amount,
                        group_key,
                        lo,
                        run,
                        has_slots,
                        slot_rem,
                        slot_served,
                        sentinel,
                    )
                    absorbed = entry - amount
                    f_hops[cur] += absorbed * float(level)
                    f_kms[cur] += absorbed * km_f[cur, level]
                    f_miss[cur] += np.where(miss_f[cur, level], absorbed, 0.0)
                blocked = (plen_cur == level + 1) & (amount > 0.0)
                if bool(blocked.any()):
                    idx = cur[blocked]
                    overflow = amount[blocked]
                    np.add.at(unserved, flow_p[idx], overflow)
                    f_hops[idx] += overflow * float(level)
                    f_kms[idx] += overflow * km_f[idx, level]
                    f_miss[idx] += overflow
                    amount = np.where(blocked, 0.0, amount)
    holder_flow[active] = slot_served[csr.holder_slot[active]] + unserved[active]
    cell_served = slot_served[csr.cell_slot]
    served_nz = np.flatnonzero(cell_served)
    return ServiceResult(
        served_cells=CellMatrix(
            served_shape, csr.cell_index[served_nz], cell_served[served_nz]
        ),
        traffic_cells=_traffic_cells(
            traffic_shape,
            np.concatenate(traffic_p) * num_dcs + np.concatenate(traffic_dc_l),
            np.concatenate(traffic_am),
        ),
        unserved=unserved,
        holder_traffic=holder_flow,
        hop_sum=float(np.sum(f_hops)),
        distance_sum_km=float(np.sum(f_kms)),
        sla_miss=float(np.sum(f_miss)),
        query_count=queries.total,
    )


def _traffic_cells(
    shape: tuple[int, int], key: np.ndarray, amount: np.ndarray
) -> CellMatrix:
    """Add each ``amount`` into the cell at flat index ``key``.

    ``np.add.at`` adds in input order, and a stable sort keeps each
    cell's contributions in input order, so every cell sums the same
    values in the same order as a dense ``np.add.at`` scatter would.
    """
    order = np.argsort(key, kind="stable")
    key = key[order]
    starts = np.empty(key.shape[0], dtype=bool)
    starts[0] = True
    np.not_equal(key[1:], key[:-1], out=starts[1:])
    cell = np.cumsum(starts) - 1
    values = np.zeros(int(cell[-1]) + 1, dtype=np.float64)
    np.add.at(values, cell, amount[order])
    return CellMatrix(shape, key[starts], values)


def erlang_b_vector(
    load: np.ndarray,
    capacities: np.ndarray,
    service_slots: int,
    alive: np.ndarray,
) -> np.ndarray:
    """Eq. 18 Erlang-B for every server at once (lane-exact to the scalar).

    Each lane runs the identical stable recurrence ``B(k) = aB / (k +
    aB)``; dead servers report 1.0 and zero-load servers 0.0, matching
    :func:`repro.core.blocking.server_blocking_probabilities` bit for
    bit.
    """
    offered = load / capacities
    b = np.ones_like(offered)
    ab = np.empty_like(offered)
    den = np.empty_like(offered)
    for k in range(1, service_slots + 1):
        np.multiply(offered, b, out=ab)
        np.add(ab, float(k), out=den)
        np.divide(ab, den, out=b)
    out = np.where((offered > 0.0) & alive, b, 0.0)
    out[~alive] = 1.0
    return out
