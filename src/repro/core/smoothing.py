"""Exponentially-weighted moving averages (Eqs. 10–11).

"In order to compensate for steep changes of the query rate, we take
historical data into account and use a smoothing factor α":

    q̄_it  = α · q̄_i(t−1)  + (1 − α) · q_it      (Eq. 10, as printed)

**Convention note** (recorded in DESIGN.md): read literally, the printed
update with Table I's α = 0.2 weights the *newest* sample 80 % — it
barely "compensates for steep changes" at all, and at the paper's
per-partition query rates of O(1) query/epoch it leaves every threshold
comparison (Eqs. 12/13/15) noise-dominated, which contradicts the smooth
replica-count trajectories of Figs. 4 and 10.  The standard EWMA
convention — α as the weight of the *new* sample,

    x_t = (1 − α) · x_{t−1} + α · x_raw

— matches both the stated intent and the observed dynamics, so that is
what :class:`Ewma` implements: ``alpha`` is the new-sample weight, and
Table I's 0.2 yields history-heavy smoothing.  The first update
initialises the state to the raw value (no cold-start bias toward zero).

Array states are updated in place by :func:`ewma_update_rows`, one block
of :data:`EWMA_BLOCK_ROWS` rows at a time: the per-element operations are
the ones the whole-array expression performs, so the values are
bit-identical, but the only scratch is one block-sized buffer instead of
three full-size temporaries.  A raw sample that is zero outside a few
cells is folded in by :func:`ewma_update_cells` with one in-place pass
and a gather/scatter over the cells, again bit for bit.
:class:`ActiveRowEwma` keeps such a stream's state as the rows that have
ever held a nonzero value: every other row is +0.0 in the dense state
too, so leaving it out changes no bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError

if TYPE_CHECKING:
    from .traffic import CellMatrix

__all__ = ["EWMA_BLOCK_ROWS", "ActiveRowEwma", "Ewma", "ewma_update_cells", "ewma_update_rows"]

#: Rows per block of :func:`ewma_update_rows`.  At the 100-site scale a
#: block's scratch is 1,024 × 100 float64 values (0.8 MB), independent of
#: the partition count.  A memory knob only: blocking never changes a bit.
EWMA_BLOCK_ROWS = 1024


def ewma_update_rows(state: np.ndarray, raw: np.ndarray, alpha: float) -> np.ndarray:
    """``state ← (1 − α)·state + α·raw`` in place; returns ``state``.

    ``state`` is a float64 array of at least one dimension; ``raw`` has
    its shape and a float64 or integer dtype (integer counts promote to
    float64 with the values an explicit ``astype`` would give).  Per
    element this is the three IEEE-754 operations of the whole-array
    expression — the product ``(1 − α)·old``, the product ``α·raw``,
    then their sum — run over row blocks of :data:`EWMA_BLOCK_ROWS`, so
    the result is bit-identical while the scratch stays one block
    whatever the row count.
    """
    keep = 1.0 - alpha
    rows = state.shape[0]
    scratch = np.empty((min(rows, EWMA_BLOCK_ROWS),) + state.shape[1:])
    for lo in range(0, rows, EWMA_BLOCK_ROWS):
        block = state[lo : lo + EWMA_BLOCK_ROWS]
        fresh = scratch[: block.shape[0]]
        # α·raw is taken before the block is overwritten, so passing the
        # state itself as ``raw`` still reads the old values.
        np.multiply(raw[lo : lo + EWMA_BLOCK_ROWS], alpha, out=fresh)
        np.multiply(block, keep, out=block)
        np.add(block, fresh, out=block)
    return state


def ewma_update_cells(
    state: np.ndarray, index: np.ndarray, values: np.ndarray, alpha: float
) -> np.ndarray:
    """:func:`ewma_update_rows` for a raw sample given as its nonzero cells.

    ``state`` is a C-contiguous float64 array; the raw sample is zero
    except at the row-major flat positions ``index`` (distinct), where
    it holds ``values``.  The state is scaled by ``1 − α`` in place, then
    ``α·value`` is added on the cells: the same two products and sum the
    dense update performs there.  Off the cells the dense update adds
    ``α·0 = +0.0``, which leaves a non-negative value's bits unchanged,
    so for the non-negative signals this smooths (traffic and served
    counts) the result is bit-identical.  Returns ``state``.
    """
    if not state.flags.c_contiguous:
        raise ValueError("ewma_update_cells needs a C-contiguous state")
    np.multiply(state, 1.0 - alpha, out=state)
    flat = state.reshape(-1)  # a view, since the state is contiguous
    flat[index] += values * alpha
    return state


def _zero_row(cols: int) -> np.ndarray:
    row = np.zeros(cols)
    row.setflags(write=False)
    return row


class ActiveRowEwma:
    """EWMA of a non-negative ``(rows, cols)`` stream kept as its active rows.

    A row is *active* from the first sample that has a nonzero cell in
    it.  Active rows live in one dense block, in the order they joined;
    ``slot[i]`` is row ``i``'s block row, or −1 for a row never touched.
    Each update activates the sample's new rows (as zeros), then runs
    :func:`ewma_update_cells` on the block with every cell remapped
    through its row's slot, so each active element gets the three
    IEEE-754 operations the dense update performs.  An inactive row is
    +0.0 in the dense state as well (a zero first sample, then
    ``+0.0·(1 − α) + α·0``), so :meth:`dense` is the dense EWMA bit for
    bit.  The first sample initialises the state to its own values.

    The block holds exactly the active rows, so it never has more rows
    than the dense matrix.  It is reallocated when new rows join: a copy
    of the same order as the update's own pass over every active
    element.  A wider sample (servers joining) pads it with zero columns.
    """

    __slots__ = ("_alpha", "_slot", "_block", "_zero")

    def __init__(self, alpha: float) -> None:
        self._alpha = float(alpha)
        self._slot: np.ndarray | None = None
        self._block = np.zeros((0, 0))
        self._zero = _zero_row(0)

    @property
    def shape(self) -> tuple[int, int]:
        """``(rows, cols)`` of the dense state (``(0, 0)`` before an update)."""
        rows = 0 if self._slot is None else self._slot.shape[0]
        return (rows, self._block.shape[1])

    @property
    def active_rows(self) -> int:
        """Rows that have held a nonzero value."""
        return self._block.shape[0]

    def update(self, raw: "CellMatrix") -> "ActiveRowEwma":
        """Fold one raw sample, given as its nonzero cells, in; returns self."""
        rows, cols = raw.shape
        first = self._slot is None
        if first:
            self._slot = np.full(rows, -1, dtype=np.intp)
        elif rows != self._slot.shape[0]:
            raise ValueError(
                f"ActiveRowEwma rows changed from {self._slot.shape[0]} to {rows}"
            )
        if cols > self._block.shape[1]:
            self._widen(cols)
        cell_row = raw.index // cols
        slot = self._slot[cell_row]
        fresh = slot < 0
        if fresh.any():
            self._activate(cell_row[fresh])
            slot = self._slot[cell_row]
        index = slot * self._block.shape[1] + raw.index % cols
        if first:
            self._block.reshape(-1)[index] = raw.values
        else:
            ewma_update_cells(self._block, index, raw.values, self._alpha)
        return self

    def row(self, i: int) -> np.ndarray:
        """Row ``i``: a view of its block row, or the shared read-only zero row."""
        slot = self._slot[i]
        return self._zero if slot < 0 else self._block[slot]

    def cells(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """``dense()[rows, cols]``: one element per (row, col) pair, gathered
        from the block (+0.0 on a row never touched)."""
        slot = self._slot[rows]
        out = np.zeros(slot.shape[0])
        hit = slot >= 0
        out[hit] = self._block[slot[hit], cols[hit]]
        return out

    def dense(self) -> np.ndarray:
        """The whole dense state, built afresh on every call."""
        out = np.zeros(self.shape)
        hit = self._slot >= 0
        out[hit] = self._block[self._slot[hit]]
        return out

    def _activate(self, rows: np.ndarray) -> None:
        """Give block rows to ``rows``: inactive, non-decreasing, non-empty."""
        # The cells are in row-major order, so a row's repeats are adjacent
        # (a diff, not ``np.unique``, which would import ``numpy.ma``).
        first = np.empty(rows.shape[0], dtype=bool)
        first[0] = True
        np.not_equal(rows[1:], rows[:-1], out=first[1:])
        rows = rows[first]
        active, cols = self._block.shape
        grown = np.zeros((active + rows.shape[0], cols))
        grown[:active] = self._block
        self._block = grown
        self._slot[rows] = np.arange(active, grown.shape[0])

    def _widen(self, cols: int) -> None:
        grown = np.zeros((self._block.shape[0], cols))
        grown[:, : self._block.shape[1]] = self._block
        self._block = grown
        self._zero = _zero_row(cols)


class Ewma:
    """EWMA over a scalar or fixed-shape array stream.

    Examples
    --------
    >>> s = Ewma(alpha=0.2)
    >>> s.update(10.0)
    10.0
    >>> s.update(0.0)          # (1 - 0.2) * 10 + 0.2 * 0
    8.0
    """

    def __init__(self, alpha: float) -> None:
        if not 0.0 < alpha < 1.0:
            raise ConfigurationError(f"alpha must be in (0, 1), got {alpha}")
        self._alpha = float(alpha)
        self._value: np.ndarray | float | None = None

    @property
    def alpha(self) -> float:
        return self._alpha

    @property
    def initialized(self) -> bool:
        """Whether at least one update has been applied."""
        return self._value is not None

    @property
    def value(self) -> np.ndarray | float:
        """The current smoothed value.

        Raises ``ValueError`` before the first update — callers should
        not read a smoothed signal that does not exist yet.  An array
        value is the live state, which the next update overwrites in
        place; copy it to keep it.
        """
        if self._value is None:
            raise ValueError("Ewma has not been updated yet")
        return self._value

    def update(self, raw: np.ndarray | float) -> np.ndarray | float:
        """Fold one raw observation in; returns the new smoothed value.

        Array returns are defensive copies — mutating one never touches
        the smoothing state.
        """
        if isinstance(raw, np.ndarray):
            if self._value is None:
                self._value = raw.astype(np.float64, copy=True)
            elif not isinstance(self._value, np.ndarray):
                raise ValueError("Ewma updates must keep a consistent type")
            elif raw.shape != self._value.shape:
                raise ValueError(
                    f"Ewma shape changed from {self._value.shape} to {raw.shape}"
                )
            else:
                ewma_update_rows(self._value, raw, self._alpha)
            return self._value.copy()
        raw = float(raw)
        if self._value is None:
            self._value = raw
        elif isinstance(self._value, np.ndarray):
            raise ValueError("Ewma updates must keep a consistent type")
        else:
            self._value = (1.0 - self._alpha) * self._value + self._alpha * raw
        return self._value

    def reset(self) -> None:
        """Forget all history."""
        self._value = None
