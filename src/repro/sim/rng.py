"""Deterministic tree of named random-number streams.

Reproducibility rule (DESIGN.md Section 5): a single root seed must fully
determine every random draw in a simulation, and independent components
(workload, capacity draws, failure injection, policy tie-breaking) must
consume *independent* streams so that adding a draw in one component never
perturbs another.

:class:`RngTree` implements this with :class:`numpy.random.SeedSequence`:
each named child stream is derived from ``(root_seed, sha256(name))`` so
the mapping is stable across processes and Python versions (no reliance on
``hash()`` randomisation).
"""

from __future__ import annotations

import hashlib
from typing import Any, cast

import numpy as np

__all__ = ["RngTree", "stable_hash32"]


def stable_hash32(name: str) -> int:
    """Return a stable 32-bit integer digest of ``name``.

    Uses SHA-256 (not Python's ``hash``, which is salted per process) so
    that the same name always maps to the same stream key.
    """
    digest = hashlib.sha256(name.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


class _CountingStream:
    """Forwarding proxy that counts method invocations on a stream.

    The work counters (:class:`repro.obs.perf.WorkCounters`) want "RNG
    draws per stream" without touching any draw site: the proxy forwards
    every attribute to the real generator and bumps a shared counter
    once per *method call* (one vectorised ``poisson(size=N)`` call is
    one unit of work — the cost model counts kernel invocations, not
    variates).  The real generator stays in the tree's ``_streams``
    cache, so ``stream_states()`` and the determinism sanitizer are
    unaffected.
    """

    __slots__ = ("_gen", "_counts", "_name")

    def __init__(
        self, gen: np.random.Generator, counts: dict[str, int], name: str
    ) -> None:
        self._gen = gen
        self._counts = counts
        self._name = name

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        return self._gen.bit_generator

    def __getattr__(self, attr: str) -> Any:
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        counts, name = self._counts, self._name

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] = counts.get(name, 0) + 1
            return value(*args, **kwargs)

        return counted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_CountingStream({self._name!r}, {self._gen!r})"


class RngTree:
    """A root seed that hands out independent named generator streams.

    Examples
    --------
    >>> tree = RngTree(42)
    >>> a = tree.stream("workload")
    >>> b = tree.stream("failures")
    >>> a is not b
    True
    >>> tree2 = RngTree(42)
    >>> float(a.random()) == float(tree2.stream("workload").random())
    True
    """

    def __init__(self, root_seed: int) -> None:
        if root_seed < 0:
            raise ValueError(f"root seed must be non-negative, got {root_seed}")
        self._root_seed = int(root_seed)
        self._streams: dict[str, np.random.Generator] = {}
        self._draw_counts: dict[str, int] | None = None
        self._proxies: dict[str, _CountingStream] = {}

    @property
    def root_seed(self) -> int:
        """The root seed this tree was created with."""
        return self._root_seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object, so a component that stores the stream and one that
        re-fetches it by name see an identical sequence.
        """
        gen = self._streams.get(name)
        if gen is None:
            seq = np.random.SeedSequence([self._root_seed, stable_hash32(name)])
            gen = np.random.default_rng(seq)
            self._streams[name] = gen
        if self._draw_counts is None:
            return gen
        proxy = self._proxies.get(name)
        if proxy is None:
            proxy = self._proxies[name] = _CountingStream(
                gen, self._draw_counts, name
            )
        return cast(np.random.Generator, proxy)

    def attach_draw_counter(self, counts: dict[str, int]) -> None:
        """Count stream method invocations into ``counts`` (by name).

        Must be attached before components cache their streams: from
        then on :meth:`stream` hands out counting proxies (the cached
        real generators are untouched, so fingerprints and replay stay
        bit-identical with or without counting).
        """
        if self._streams:
            raise ValueError(
                "attach_draw_counter must be called before any stream is "
                f"created (streams exist: {sorted(self._streams)})"
            )
        self._draw_counts = counts

    def fresh(self, name: str) -> np.random.Generator:
        """Return a *new* generator for ``name`` positioned at its origin.

        Unlike :meth:`stream` this does not cache: every call restarts the
        sequence.  Used by trace replay to re-run a recorded workload from
        the beginning.
        """
        seq = np.random.SeedSequence([self._root_seed, stable_hash32(name)])
        return np.random.default_rng(seq)

    def stream_states(self) -> dict[str, dict]:
        """Bit-generator state of every stream created so far, by name.

        Sorted by stream name so the mapping itself is deterministic.
        The states are the raw ``bit_generator.state`` dicts — two trees
        whose streams have consumed identical draw sequences compare
        equal, which is what the determinism sanitizer fingerprints.
        """
        return {
            name: self._streams[name].bit_generator.state
            for name in sorted(self._streams)
        }

    def child(self, name: str) -> "RngTree":
        """Derive a whole sub-tree, e.g. one per experiment repetition."""
        return RngTree((self._root_seed * 0x9E3779B1 + stable_hash32(name)) % 2**31)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RngTree(root_seed={self._root_seed}, streams={sorted(self._streams)})"
