"""The work-counter cost model: hardware-independent units of work.

Wall-clock alone cannot compare the epoch hot path across machines, nor
across the coming DES -> columnar -> mean-field backends (ROADMAP items
1-2): a 2x speedup on one laptop is invisible next to a 3x machine
difference.  :class:`WorkCounters` counts the *units of work* the
engine performs instead — partitions scanned by the service walk,
decision-tree evaluations, applied replicate/migrate/evict actions,
RNG draws per stream, ring lookups and WAN graph hops — numbers that
are bit-identical across same-seed runs on any machine, so a change in
them is an algorithmic change, never noise.

The counters are plain integer attributes incremented behind
``if work is not None`` guards on the hot path (the disabled path pays
one predictable branch per site).  Attach them through the engine::

    work = WorkCounters()
    sim = Simulation(config, work=work)
    sim.run(200)
    print(work.totals())

With a time-series recorder attached the engine also samples the
per-epoch deltas as ``work/<name>`` columns, so ``repro diff`` and
``repro dashboard`` see cost next to every quality metric.
"""

from __future__ import annotations

__all__ = ["WorkCounters"]

#: The fixed scalar counters, in reporting order.  ``rng_draws/<stream>``
#: columns join them dynamically, one per stream that drew.
_COUNTER_NAMES: tuple[str, ...] = (
    "partitions_scanned",
    "decisions_evaluated",
    "replicate_actions",
    "migrate_actions",
    "evict_actions",
    "ring_lookups",
    "graph_hops",
)


class WorkCounters:
    """Deterministic work counters threaded through the epoch hot path.

    Lifetime totals accumulate monotonically; :meth:`epoch_deltas`
    returns the work done since its previous call (the engine calls it
    once per epoch to fill the ``work/<name>`` time-series columns).
    """

    __slots__ = (
        "partitions_scanned",
        "decisions_evaluated",
        "replicate_actions",
        "migrate_actions",
        "evict_actions",
        "ring_lookups",
        "graph_hops",
        "rng_draws",
        "_baseline",
    )

    def __init__(self) -> None:
        self.partitions_scanned = 0
        self.decisions_evaluated = 0
        self.replicate_actions = 0
        self.migrate_actions = 0
        self.evict_actions = 0
        self.ring_lookups = 0
        self.graph_hops = 0
        #: Method invocations per named RNG stream (see
        #: :meth:`repro.sim.rng.RngTree.attach_draw_counter`).
        self.rng_draws: dict[str, int] = {}
        self._baseline: dict[str, float] = {}

    # ------------------------------------------------------------------
    def totals(self) -> dict[str, float]:
        """Lifetime totals as a flat ``{name: value}`` mapping.

        Stream draws appear as ``rng_draws/<stream>``, sorted by stream
        name so the mapping itself is deterministic.
        """
        out: dict[str, float] = {
            name: float(getattr(self, name)) for name in _COUNTER_NAMES
        }
        for stream in sorted(self.rng_draws):
            out[f"rng_draws/{stream}"] = float(self.rng_draws[stream])
        return out

    def epoch_deltas(self) -> dict[str, float]:
        """Work done since the previous call (the per-epoch sample)."""
        totals = self.totals()
        deltas = {
            name: value - self._baseline.get(name, 0.0)
            for name, value in totals.items()
        }
        self._baseline = totals
        return deltas
