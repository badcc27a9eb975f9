"""Tests for the batched (vectorized) crossbar kernel.

The batched kernel's contract is equivalence with the scalar gate-level
model: :func:`cell_logic_batch` must reproduce :func:`cell_logic` on every
input combination, the anti-diagonal wavefront must settle to the same
grants/latches as the scalar cell-by-cell sweep on arbitrary request
patterns, and the rank-paired matcher must agree with both the wavefront
and the closed-form :func:`priority_match`.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SchedulingError
from repro.networks import (
    MODE_REQUEST,
    MODE_RESET,
    REQUEST_GATE_DELAY,
    RESET_GATE_DELAY,
    BatchedCrossbar,
    DistributedCrossbar,
    cell_logic,
    cell_logic_batch,
    masked_match_pairs_batch,
    match_pairs_batch,
    match_requests_batch,
    priority_match,
)


class TestCellLogicBatch:
    @pytest.mark.parametrize("mode", [MODE_REQUEST, MODE_RESET])
    @pytest.mark.parametrize("x", [0, 1])
    @pytest.mark.parametrize("y", [0, 1])
    @pytest.mark.parametrize("latch", [0, 1])
    @pytest.mark.parametrize("alive", [0, 1])
    def test_all_thirtytwo_combinations_match_scalar(self, mode, x, y,
                                                     latch, alive):
        """Exhaustive: batched truth table == Table I (plus the dead-cell
        transparency rows), combo by combo."""
        expected = cell_logic(mode, x, y, bool(latch), alive=bool(alive))
        arrays = cell_logic_batch(
            mode, np.array([x], dtype=np.uint8), np.array([y], dtype=np.uint8),
            np.array([latch], dtype=np.uint8),
            alive=np.array([alive], dtype=np.uint8))
        assert tuple(int(value[0]) for value in arrays) == expected
        if alive:
            # alive=None must keep the original (unmasked) closed forms.
            unmasked = cell_logic_batch(
                mode, np.array([x], dtype=np.uint8),
                np.array([y], dtype=np.uint8),
                np.array([latch], dtype=np.uint8))
            assert tuple(int(v[0]) for v in unmasked) == expected

    def test_vectorized_over_all_combinations_at_once(self):
        """One call over the full 8-combination plane, both modes."""
        xs = np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.uint8)
        ys = np.array([0, 0, 1, 1, 0, 0, 1, 1], dtype=np.uint8)
        latches = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=np.uint8)
        for mode in (MODE_REQUEST, MODE_RESET):
            batch = cell_logic_batch(mode, xs, ys, latches)
            for index in range(8):
                scalar = cell_logic(mode, int(xs[index]), int(ys[index]),
                                    bool(latches[index]))
                assert tuple(int(v[index]) for v in batch) == scalar

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            cell_logic_batch("half-duplex", np.zeros(1, dtype=np.uint8),
                             np.zeros(1, dtype=np.uint8),
                             np.zeros(1, dtype=np.uint8))


def _scalar_reference(processors, buses, latched, requesting, available):
    """Scalar wavefront outcome for one replication's state and edges."""
    switch = DistributedCrossbar(processors, buses)
    for row, column in latched:
        switch._latch[row][column] = True
    return switch, switch.request_cycle(sorted(requesting), sorted(available))


class TestBatchedWavefront:
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_randomized_wavefronts_match_scalar(self, data):
        """Random latch states and edges: batched grants == scalar grants."""
        processors = data.draw(st.integers(1, 6), label="p")
        buses = data.draw(st.integers(1, 6), label="m")
        replications = data.draw(st.integers(1, 5), label="R")
        batched = BatchedCrossbar(replications, processors, buses)
        scalars = []
        requesting = np.zeros((replications, processors), dtype=np.uint8)
        available = np.zeros((replications, buses), dtype=np.uint8)
        for k in range(replications):
            rows = data.draw(st.sets(st.integers(0, processors - 1)),
                             label=f"rows{k}")
            columns = data.draw(st.sets(st.integers(0, buses - 1)),
                                label=f"cols{k}")
            # A consistent pre-latched state: at most one column per row.
            latched = []
            for row in range(processors):
                if data.draw(st.booleans(), label=f"latch{k}-{row}"):
                    column = data.draw(st.integers(0, buses - 1),
                                       label=f"latchcol{k}-{row}")
                    latched.append((row, column))
            # Scalar semantics latch each (row, col) pair independently;
            # rows already latched do not raise X in the paper's protocol.
            rows -= {row for row, _ in latched}
            batched._latch[k] = 0
            for row, column in latched:
                batched._latch[k, row, column] = 1
            requesting[k, sorted(rows)] = 1
            available[k, sorted(columns)] = 1
            scalars.append(_scalar_reference(processors, buses, latched,
                                             rows, columns))
        result = batched.request_cycle(requesting, available)
        for k, (switch, scalar) in enumerate(scalars):
            granted = {(row, int(col)) for row, col in scalar.granted.items()}
            batch_granted = {(int(r), int(c))
                             for r, c in zip(*np.nonzero(result.granted[k]))}
            assert batch_granted == granted
            assert {int(r) for r in np.nonzero(result.unsatisfied[k])[0]} \
                == scalar.unsatisfied
            assert {int(c) for c in np.nonzero(result.unallocated[k])[0]} \
                == scalar.unallocated
            for row in range(processors):
                for column in range(buses):
                    assert bool(batched._latch[k, row, column]) \
                        == switch._latch[row][column]

    def test_gate_delays_match_scalar_worst_path(self):
        """Batched request/reset delays equal the scalar model's bounds."""
        for processors, buses in ((1, 1), (4, 4), (16, 8), (3, 7)):
            batched = BatchedCrossbar(2, processors, buses)
            request = batched.request_cycle(
                np.ones((2, processors), dtype=np.uint8),
                np.ones((2, buses), dtype=np.uint8))
            scalar = DistributedCrossbar(processors, buses).request_cycle(
                list(range(processors)), list(range(buses)))
            assert request.gate_delays == scalar.gate_delays
            assert request.gate_delays == REQUEST_GATE_DELAY * (
                processors + buses - 1)
            reset = batched.reset_cycle(np.ones((2, processors),
                                                dtype=np.uint8))
            assert reset.gate_delays == RESET_GATE_DELAY * (processors + buses)

    def test_reset_cycle_clears_only_selected_rows(self):
        batched = BatchedCrossbar(2, 3, 3)
        batched.request_cycle(np.ones((2, 3), dtype=np.uint8),
                              np.ones((2, 3), dtype=np.uint8))
        resetting = np.array([[1, 0, 0], [0, 1, 1]], dtype=np.uint8)
        result = batched.reset_cycle(resetting)
        connections = batched.connections()
        assert connections[0].tolist() == [-1, 1, 2]
        assert connections[1].tolist() == [0, -1, -1]
        assert result.granted.sum() == 3

    def test_double_latch_is_a_hardware_bug(self):
        batched = BatchedCrossbar(1, 2, 2)
        batched.request_cycle(np.array([[1, 0]], dtype=np.uint8),
                              np.array([[1, 0]], dtype=np.uint8))
        with pytest.raises(SchedulingError):
            # Offering the latched cell's bus again while its row re-raises
            # X would re-set the latch — the scalar model raises too.
            batched.request_cycle(np.array([[1, 0]], dtype=np.uint8),
                                  np.array([[1, 0]], dtype=np.uint8))

    def test_shape_validation(self):
        batched = BatchedCrossbar(2, 3, 4)
        with pytest.raises(SchedulingError):
            batched.request_cycle(np.zeros((2, 4), dtype=np.uint8),
                                  np.zeros((2, 4), dtype=np.uint8))
        with pytest.raises(ConfigurationError):
            BatchedCrossbar(0, 3, 4)


class TestBatchedMatching:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_match_agrees_with_priority_match_and_wavefront(self, data):
        processors = data.draw(st.integers(1, 6), label="p")
        buses = data.draw(st.integers(1, 6), label="m")
        replications = data.draw(st.integers(1, 6), label="R")
        requesting = np.array(
            [[data.draw(st.integers(0, 1)) for _ in range(processors)]
             for _ in range(replications)], dtype=np.uint8)
        available = np.array(
            [[data.draw(st.integers(0, 1)) for _ in range(buses)]
             for _ in range(replications)], dtype=np.uint8)
        grants = match_requests_batch(requesting, available)
        batched = BatchedCrossbar(replications, processors, buses)
        wavefront = batched.request_cycle(requesting, available)
        assert (grants == wavefront.granted).all()
        for k in range(replications):
            rows = [int(r) for r in np.nonzero(requesting[k])[0]]
            columns = [int(c) for c in np.nonzero(available[k])[0]]
            expected = priority_match(rows, columns)
            got = {int(r): int(c) for r, c in zip(*np.nonzero(grants[k]))}
            assert got == expected

    def test_pairs_come_back_replication_major_row_ascending(self):
        requesting = np.array([[0, 1, 1], [1, 0, 1]], dtype=np.uint8)
        available = np.array([[1, 1], [1, 0]], dtype=np.uint8)
        reps, rows, cols = match_pairs_batch(requesting, available)
        assert reps.tolist() == [0, 0, 1]
        assert rows.tolist() == [1, 2, 0]
        assert cols.tolist() == [0, 1, 0]


class TestMaskedMatching:
    """The faulted-fabric kernel: dead cells masked into the gate planes."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_masked_wavefront_matches_faulted_distributed_crossbar(
            self, data):
        """Random dead-cell sets: masked grants == scalar faulted switch."""
        processors = data.draw(st.integers(1, 6), label="p")
        buses = data.draw(st.integers(1, 6), label="m")
        replications = data.draw(st.integers(1, 5), label="R")
        alive = np.ones((processors, buses), dtype=np.uint8)
        for row in range(processors):
            for column in range(buses):
                if data.draw(st.booleans(), label=f"dead{row}-{column}"):
                    alive[row, column] = 0
        requesting = np.array(
            [[data.draw(st.integers(0, 1)) for _ in range(processors)]
             for _ in range(replications)], dtype=np.uint8)
        available = np.array(
            [[data.draw(st.integers(0, 1)) for _ in range(buses)]
             for _ in range(replications)], dtype=np.uint8)
        reps, rows, cols = masked_match_pairs_batch(requesting, available,
                                                    alive)
        by_replication = {}
        for k, row, column in zip(reps.tolist(), rows.tolist(),
                                  cols.tolist()):
            by_replication.setdefault(k, {})[row] = column
        for k in range(replications):
            switch = DistributedCrossbar(processors, buses)
            for row in range(processors):
                for column in range(buses):
                    if not alive[row, column]:
                        switch.fail_cell(row, column)
            scalar = switch.request_cycle(
                [int(r) for r in np.nonzero(requesting[k])[0]],
                [int(c) for c in np.nonzero(available[k])[0]])
            assert by_replication.get(k, {}) == scalar.granted

    def test_all_alive_mask_equals_unmasked_matcher(self):
        requesting = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=np.uint8)
        available = np.array([[1, 0, 1], [1, 1, 1]], dtype=np.uint8)
        alive = np.ones((4, 3), dtype=np.uint8)
        masked = masked_match_pairs_batch(requesting, available, alive)
        plain = match_pairs_batch(requesting, available)
        for got, expected in zip(masked, plain):
            assert got.tolist() == expected.tolist()

    def test_masked_pairs_replication_major_row_ascending(self):
        """The dispatch-order contract the lockstep engine relies on."""
        requesting = np.ones((2, 3), dtype=np.uint8)
        available = np.ones((2, 3), dtype=np.uint8)
        alive = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=np.uint8)
        reps, rows, cols = masked_match_pairs_batch(requesting, available,
                                                    alive)
        order = list(zip(reps.tolist(), rows.tolist()))
        assert order == sorted(order)
        # Row 0 skips its dead (0,0) cell and takes column 1; row 1 takes
        # the still-free column 0; row 2's only remaining column is its
        # dead (2, 2) cell, so it stays unmatched.
        assert reps.tolist() == [0, 0, 1, 1]
        assert rows.tolist() == [0, 1, 0, 1]
        assert cols.tolist() == [1, 0, 1, 0]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_per_replication_masks_match_per_row_calls(self, data):
        """A ``(R, p, m)`` alive stack grants, replication by replication,
        what a one-row call with that replication's ``(p, m)`` mask does."""
        processors = data.draw(st.integers(1, 6), label="p")
        buses = data.draw(st.integers(1, 6), label="m")
        replications = data.draw(st.integers(1, 5), label="R")

        def plane(label, shape):
            return np.array(data.draw(st.lists(
                st.integers(0, 1), min_size=int(np.prod(shape)),
                max_size=int(np.prod(shape))), label=label),
                dtype=np.uint8).reshape(shape)

        alive = plane("alive", (replications, processors, buses))
        requesting = plane("requesting", (replications, processors))
        available = plane("available", (replications, buses))
        reps, rows, cols = masked_match_pairs_batch(requesting, available,
                                                    alive)
        expected = ([], [], [])
        for k in range(replications):
            _, one_rows, one_cols = masked_match_pairs_batch(
                requesting[k:k + 1], available[k:k + 1], alive[k])
            expected[0].extend([k] * one_rows.shape[0])
            expected[1].extend(one_rows.tolist())
            expected[2].extend(one_cols.tolist())
        assert (reps.tolist(), rows.tolist(), cols.tolist()) == expected

    def test_mask_shape_validated(self):
        with pytest.raises(SchedulingError):
            masked_match_pairs_batch(np.ones((1, 2), dtype=np.uint8),
                                     np.ones((1, 2), dtype=np.uint8),
                                     np.ones((3, 2), dtype=np.uint8))
        with pytest.raises(SchedulingError):
            # A per-replication stack must have one plane per replication.
            masked_match_pairs_batch(np.ones((2, 2), dtype=np.uint8),
                                     np.ones((2, 2), dtype=np.uint8),
                                     np.ones((3, 2, 2), dtype=np.uint8))

    def test_batched_crossbar_fail_and_repair_cell(self):
        batched = BatchedCrossbar(2, 2, 2)
        batched.fail_cell(0, 0)
        assert batched.alive_mask[0, 0] == 0
        result = batched.request_cycle(np.ones((2, 2), dtype=np.uint8),
                                       np.ones((2, 2), dtype=np.uint8))
        # Row 0's dead (0,0) is transparent: row 0 latches column 1, so
        # row 1 (whose cells are healthy) falls through to column 0.
        for k in range(2):
            granted = {(int(r), int(c))
                       for r, c in zip(*np.nonzero(result.granted[k]))}
            assert granted == {(0, 1), (1, 0)}
        with pytest.raises(SchedulingError):
            batched.fail_cell(0, 1)  # latched in both replications
        batched.reset_cycle(np.ones((2, 2), dtype=np.uint8))
        batched.fail_cell(0, 1)
        batched.repair_cell(0, 0)
        assert batched.alive_mask[0, 0] == 1
        with pytest.raises(SchedulingError):
            batched.fail_cell(5, 0)

    def test_scalar_crossbar_fail_cell_guards_latched_cells(self):
        switch = DistributedCrossbar(2, 2)
        switch.request_cycle([0], [0])
        with pytest.raises(SchedulingError):
            switch.fail_cell(0, 0)
        switch.reset_cycle([0])
        switch.fail_cell(0, 0)
        assert not switch.alive(0, 0)
        outcome = switch.request_cycle([0], [0, 1])
        assert outcome.granted == {0: 1}
        switch.repair_cell(0, 0)
        assert switch.alive(0, 0)
