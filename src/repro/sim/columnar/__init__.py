"""Columnar vectorized epoch engine.

The scalar :class:`~repro.sim.engine.Simulation` walks partitions in
Python loops; this package keeps the same world objects (cluster, replica
map, RNG tree, policy) but mirrors the replica layout into numpy
arrays of its nonzero cells (:class:`SimState`) and replaces the
serve/observe/record hot paths with array kernels.

The contract (DESIGN.md §"Columnar engine"): **bit-identical results**.
Decision ordering, RNG draw sequences and every recorded metric value
match the scalar engine exactly, so the DeterminismSanitizer fingerprint
chain is identical between engines for the same seed.  The differential
suite ``tests/test_columnar_equivalence.py`` enforces this.
"""

from .engine import ColumnarSimulation
from .state import SimState

__all__ = ["ColumnarSimulation", "SimState"]
