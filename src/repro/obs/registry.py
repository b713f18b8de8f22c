"""Labelled instruments: counters and histograms.

A :class:`InstrumentRegistry` holds the aggregate view of an event
trace — running totals rebuilt from the events by
:func:`repro.obs.analysis.registry_from_events` and rendered by
:func:`repro.obs.analysis.to_prometheus`.  The naming convention
follows the de-facto metrics standard: a family name plus a label set,
e.g.::

    registry.counter("actions_total", kind="migrate", policy="rfh").inc()
    registry.histogram("replica_lifetime_epochs").observe(132.0)

Instruments are get-or-create: asking for the same (name, labels) twice
returns the same object, and differing label values create distinct
children under one family.  ``snapshot()`` renders everything to plain
JSON-able dicts.  Histograms keep every sample, so their quantiles are
exact.
"""

from __future__ import annotations

__all__ = ["Counter", "Histogram", "InstrumentRegistry"]

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing total."""

    __slots__ = ("labels", "value")

    def __init__(self, labels: dict[str, str]) -> None:
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got {amount}")
        self.value += amount


class Histogram:
    """Distribution summary (count/sum/min/max + every sample)."""

    __slots__ = ("labels", "samples", "_count", "_sum", "_min", "_max")

    def __init__(self, labels: dict[str, str]) -> None:
        self.labels = labels
        self.samples: list[float] = []
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        if self._count == 0:
            self._min = self._max = value
        else:
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value
        self._count += 1
        self._sum += value
        self.samples.append(value)

    def summary(self) -> dict[str, float]:
        if self._count == 0:
            return {
                "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
                "mean": 0.0, "p50": 0.0, "p95": 0.0,
            }
        ordered = sorted(self.samples)
        n = len(ordered)

        def pct(q: float) -> float:
            return ordered[min(n - 1, max(0, round(q * (n - 1))))]

        return {
            "count": self._count,
            "sum": self._sum,
            "min": self._min,
            "max": self._max,
            "mean": self._sum / self._count,
            "p50": pct(0.50),
            "p95": pct(0.95),
        }


class InstrumentRegistry:
    """Families of labelled counters and histograms."""

    def __init__(self) -> None:
        self._counters: dict[str, dict[LabelKey, Counter]] = {}
        self._histograms: dict[str, dict[LabelKey, Histogram]] = {}

    # -- get-or-create accessors ---------------------------------------
    def counter(self, name: str, **labels: str) -> Counter:
        family = self._counters.setdefault(name, {})
        key = _label_key(labels)
        inst = family.get(key)
        if inst is None:
            inst = family[key] = Counter({k: v for k, v in key})
        return inst

    def histogram(self, name: str, **labels: str) -> Histogram:
        family = self._histograms.setdefault(name, {})
        key = _label_key(labels)
        inst = family.get(key)
        if inst is None:
            inst = family[key] = Histogram({k: v for k, v in key})
        return inst

    # -- export --------------------------------------------------------
    def snapshot(self) -> dict[str, list[dict[str, object]]]:
        """Everything as plain dicts: ``{counters: [...], histograms:
        [...]}``, each entry ``{name, labels, ...}`` in sorted order."""

        def rows(families, render):
            out = []
            for name in sorted(families):
                for key in sorted(families[name]):
                    inst = families[name][key]
                    out.append({"name": name, "labels": dict(inst.labels), **render(inst)})
            return out

        return {
            "counters": rows(self._counters, lambda c: {"value": c.value}),
            "histograms": rows(self._histograms, lambda h: h.summary()),
        }
