"""Batched gate-level crossbar: R replications of one ``p x m`` switch.

The scalar :class:`~repro.networks.cells.DistributedCrossbar` settles each
request cycle with one Python call per cell — ``O(p * m)`` interpreter
round-trips per cycle, per replication.  This module keeps the identical
hardware semantics but holds the latch planes of ``R`` independent
replications in one ``(R, p, m)`` ``uint8`` array and settles all of them
together:

* :meth:`BatchedCrossbar.request_cycle` propagates the X/Y wavefront by
  **anti-diagonals** — all cells with ``i + j == d`` have their inputs
  ready once diagonal ``d - 1`` settled, exactly the 45-degree settling
  front of the hardware — evaluating each diagonal with one vectorized
  :func:`~repro.networks.cells.cell_logic_batch` call over every
  replication at once.  Gate-delay accounting reproduces the scalar
  model's worst paths: ``4 (p + m - 1)`` for a request cycle and
  ``p + m`` for a reset cycle.
* :meth:`BatchedCrossbar.match_requests` is the closed form of the same
  allocation (lowest requesting row takes the lowest available column not
  claimed by a smaller row), vectorized by rank pairing.  It mirrors the
  scalar :func:`~repro.networks.cells.priority_match` duality: the
  wavefront is the hardware model, the ranked matcher the cheap hot path,
  and a property test pins them equal on randomized batches.

The lockstep replication engine (:mod:`repro.sim.batched`) drives
:meth:`match_requests`; gate-level studies (Table I timing) use the full
wavefront.

Faulted switches: a dead crosspoint is *transparent* (it passes X and Y
through and never latches — see :func:`~repro.networks.cells.cell_logic`),
so rank pairing no longer applies (a row may have to skip a reachable-rank
column whose cell is dead).  :func:`masked_match_pairs_batch` instead runs
the anti-diagonal wavefront with the dead cells masked into the gate
planes, which is exactly the sequential greedy allocation the scalar
:class:`~repro.networks.crossbar.CrossbarFabric` performs around its
failed-component set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError, SchedulingError
from repro.networks.cells import (
    MODE_REQUEST,
    REQUEST_GATE_DELAY,
    RESET_GATE_DELAY,
    cell_logic_batch,
)


@dataclass(frozen=True)
class BatchedCycleResult:
    """Outcome of one batched request or reset cycle.

    Array fields are ``uint8`` masks over ``(R, p, m)`` (``granted``) or
    the corresponding edge, replication-major; ``gate_delays`` is the
    settle time of the wavefront, common to all replications (the worst
    path length depends only on the switch dimensions).
    """

    granted: np.ndarray        # (R, p, m) newly latched cells
    unsatisfied: np.ndarray    # (R, p) rows whose X fell off the right edge
    unallocated: np.ndarray    # (R, m) columns whose Y survived to the bottom
    gate_delays: int


def _as_mask(array: np.ndarray, shape: Tuple[int, ...], name: str) -> np.ndarray:
    mask = np.asarray(array, dtype=np.uint8)
    if mask.shape != shape:
        raise SchedulingError(
            f"{name} must have shape {shape}, got {mask.shape}")
    return mask


class BatchedCrossbar:
    """``R`` independent ``p x m`` distributed-scheduling crossbars."""

    def __init__(self, replications: int, processors: int, buses: int):
        if replications < 1 or processors < 1 or buses < 1:
            raise ConfigurationError(
                f"batched crossbar needs positive dimensions, got "
                f"{replications}x{processors}x{buses}")
        self.replications = replications
        self.processors = processors
        self.buses = buses
        self._latch = np.zeros((replications, processors, buses),
                               dtype=np.uint8)
        # Dead crosspoints are shared by all replications: the batch models
        # R copies of the *same* (possibly degraded) switch.
        self._alive = np.ones((processors, buses), dtype=np.uint8)
        # Anti-diagonal index vectors: cells (i, j) with i + j == d, for
        # d = 0 .. p + m - 2, precomputed once per switch shape.
        self._diagonals: List[Tuple[np.ndarray, np.ndarray]] = []
        for d in range(processors + buses - 1):
            rows = np.arange(max(0, d - buses + 1), min(processors - 1, d) + 1)
            self._diagonals.append((rows, d - rows))

    # -- state inspection ----------------------------------------------------
    @property
    def latches(self) -> np.ndarray:
        """A copy of the ``(R, p, m)`` latch planes."""
        return self._latch.copy()

    def connections(self) -> np.ndarray:
        """``(R, p)`` latched column per row, ``-1`` where unconnected."""
        if (self._latch.sum(axis=2) > 1).any():
            raise SchedulingError("row latched to two columns (hardware bug)")
        columns = self._latch.argmax(axis=2).astype(np.int64)
        columns[self._latch.sum(axis=2) == 0] = -1
        return columns

    @property
    def alive_mask(self) -> np.ndarray:
        """A copy of the shared ``(p, m)`` live-cell mask."""
        return self._alive.copy()

    # -- fault injection -----------------------------------------------------
    def fail_cell(self, row: int, column: int) -> None:
        """Mark cell ``(row, column)`` dead in every replication."""
        self._validate_cell(row, column)
        if self._latch[:, row, column].any():
            raise SchedulingError(
                f"cell ({row}, {column}) failed while latched; "
                f"sever the circuit first")
        self._alive[row, column] = 0

    def repair_cell(self, row: int, column: int) -> None:
        """Return cell ``(row, column)`` to service in every replication."""
        self._validate_cell(row, column)
        self._alive[row, column] = 1

    def _validate_cell(self, row: int, column: int) -> None:
        if not 0 <= row < self.processors:
            raise SchedulingError(f"row {row} out of range")
        if not 0 <= column < self.buses:
            raise SchedulingError(f"column {column} out of range")

    # -- cycles ------------------------------------------------------------
    def request_cycle(self, requesting: np.ndarray,
                      available: np.ndarray) -> BatchedCycleResult:
        """One request cycle for every replication, by anti-diagonals.

        ``requesting`` is the ``(R, p)`` X-edge (rows searching for a
        resource), ``available`` the ``(R, m)`` Y-edge (free bus with a
        free resource).  Newly granted cells are latched; granting an
        already-latched cell is a hardware bug, as in the scalar model.
        """
        shape = (self.replications, self.processors, self.buses)
        x_edge = _as_mask(requesting, shape[:2], "requesting")
        y_edge = _as_mask(available, (shape[0], shape[2]), "available")
        # X and Y carry one extra column/row so edge outputs fall through.
        x = np.zeros((shape[0], shape[1], shape[2] + 1), dtype=np.uint8)
        y = np.zeros((shape[0], shape[1] + 1, shape[2]), dtype=np.uint8)
        x[:, :, 0] = x_edge
        y[:, 0, :] = y_edge
        granted = np.zeros(shape, dtype=np.uint8)
        masked = bool((self._alive ^ 1).any())
        for rows, cols in self._diagonals:
            x_next, y_next, set_latch, _reset = cell_logic_batch(
                MODE_REQUEST, x[:, rows, cols], y[:, rows, cols],
                self._latch[:, rows, cols],
                alive=self._alive[rows, cols] if masked else None)
            x[:, rows, cols + 1] = x_next
            y[:, rows + 1, cols] = y_next
            granted[:, rows, cols] = set_latch
        if (granted & self._latch).any():
            raise SchedulingError("cell set while already latched")
        self._latch |= granted
        # Signals cross REQUEST_GATE_DELAY levels per cell; the worst path
        # runs the full main diagonal: (p - 1) + (m - 1) + 1 cells.
        worst = REQUEST_GATE_DELAY * (self.processors + self.buses - 1)
        return BatchedCycleResult(granted=granted,
                                  unsatisfied=x[:, :, self.buses],
                                  unallocated=y[:, self.processors, :],
                                  gate_delays=worst)

    def reset_cycle(self, resetting: np.ndarray) -> BatchedCycleResult:
        """Clear every latch on the ``(R, p)`` resetting rows."""
        shape = (self.replications, self.processors)
        rows = _as_mask(resetting, shape, "resetting")
        released = self._latch & rows[:, :, None]
        self._latch &= rows[:, :, None] ^ 1
        worst = RESET_GATE_DELAY * (self.processors + self.buses)
        return BatchedCycleResult(
            granted=released,
            unsatisfied=np.zeros(shape, dtype=np.uint8),
            unallocated=np.zeros((shape[0], self.buses), dtype=np.uint8),
            gate_delays=worst)

    # -- closed form ---------------------------------------------------------
    def match_requests(self, requesting: np.ndarray,
                       available: np.ndarray) -> np.ndarray:
        """Grants of :meth:`request_cycle` without touching latch state.

        Rank pairing: within each replication the k-th requesting row (in
        ascending index order) takes the k-th available column, for
        ``k < min(#requests, #available)`` — exactly what the wavefront
        computes when no latch blocks the Y edge.  Returns the ``(R, p, m)``
        grant mask.  State-free: the caller owns bus/latch bookkeeping.
        With dead cells the closed form no longer holds and the call routes
        through the masked wavefront instead.
        """
        shape = (self.replications, self.processors, self.buses)
        x_edge = _as_mask(requesting, shape[:2], "requesting")
        y_edge = _as_mask(available, (shape[0], shape[2]), "available")
        if (self._alive ^ 1).any():
            reps, rows, cols = masked_match_pairs_batch(x_edge, y_edge,
                                                        self._alive)
            grants = np.zeros(shape, dtype=np.uint8)
            grants[reps, rows, cols] = 1
            return grants
        return match_requests_batch(x_edge, y_edge)


def match_pairs_batch(requesting: np.ndarray, available: np.ndarray
                      ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank-paired priority matching over a ``(R, p)`` / ``(R, m)`` batch.

    The vectorized closed form of :func:`repro.networks.cells.priority_match`
    for every replication at once.  Returns the matched ``(replications,
    rows, columns)`` index triples, replication-major and row-ascending
    within each replication — the order the scalar broadcast dispatches in,
    and the layout the lockstep engine consumes directly (no dense grant
    cube in its hot path).
    """
    row_rank = requesting.cumsum(axis=1, dtype=np.int64)
    col_rank = available.cumsum(axis=1, dtype=np.int64)
    matched = np.minimum(row_rank[:, -1:], col_rank[:, -1:])
    row_take = (requesting != 0) & (row_rank <= matched)
    col_take = (available != 0) & (col_rank <= matched)
    rep_rows, rows = np.nonzero(row_take)
    rep_cols, cols = np.nonzero(col_take)
    # nonzero is row-major: entries come back replication-major and
    # ascending within a replication, so the k-th taken row and the k-th
    # taken column of each replication line up positionally.
    if rep_rows.shape != rep_cols.shape or (rep_rows != rep_cols).any():
        raise SchedulingError("rank pairing desynchronized (kernel bug)")
    return rep_rows, rows, cols


def masked_match_pairs_batch(requesting: np.ndarray, available: np.ndarray,
                             alive: np.ndarray
                             ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Priority matching around dead crosspoints, for every replication.

    ``alive`` is either one ``(p, m)`` live-cell mask shared by every
    replication or a ``(R, p, m)`` stack of per-replication masks (the
    lockstep engine batches rows of different partitions, each with its
    own dead cells).  Rank pairing assumes every requesting row can reach
    every available column; a dead cell breaks that, so this routes the
    ``(R, p)`` X-edge and ``(R, m)`` Y-edge through the latch-free
    anti-diagonal wavefront with the dead cells masked into the gate
    planes.  The wavefront *is* the sequential greedy allocation of the
    scalar fabric (rows ascending, each taking the lowest available
    column whose cell is live and that no smaller row claimed), so the
    returned ``(replications, rows, columns)`` triples come out
    replication-major and row-ascending — the same layout and order as
    :func:`match_pairs_batch`.
    """
    live = np.asarray(alive, dtype=np.uint8)
    reps, p = requesting.shape
    m = available.shape[1]
    if live.shape == (p, m):
        live = live[None]
    elif live.shape != (reps, p, m):
        raise SchedulingError(
            f"alive mask must have shape {(p, m)} or {(reps, p, m)}, "
            f"got {live.shape}")
    x = np.zeros((reps, p, m + 1), dtype=np.uint8)
    y = np.zeros((reps, p + 1, m), dtype=np.uint8)
    x[:, :, 0] = requesting
    y[:, 0, :] = available
    granted = np.zeros((reps, p, m), dtype=np.uint8)
    for d in range(p + m - 1):
        rows = np.arange(max(0, d - m + 1), min(p - 1, d) + 1)
        cols = d - rows
        x_in = x[:, rows, cols]
        x_next, y_next, set_latch, _reset = cell_logic_batch(
            MODE_REQUEST, x_in, y[:, rows, cols], np.zeros_like(x_in),
            alive=live[:, rows, cols])
        x[:, rows, cols + 1] = x_next
        y[:, rows + 1, cols] = y_next
        granted[:, rows, cols] = set_latch
    # nonzero on the (R, p, m) cube is row-major: replication-major, then
    # row-ascending (each row grants at most one column).
    return np.nonzero(granted)


def match_requests_batch(requesting: np.ndarray,
                         available: np.ndarray) -> np.ndarray:
    """:func:`match_pairs_batch` as a dense ``(R, p, m)`` grant mask; see
    :meth:`BatchedCrossbar.match_requests`."""
    reps, rows, cols = match_pairs_batch(requesting, available)
    grants = np.zeros(
        (requesting.shape[0], requesting.shape[1], available.shape[1]),
        dtype=np.uint8)
    grants[reps, rows, cols] = 1
    return grants
