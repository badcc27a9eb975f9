"""Tests for the three SBUS solvers and their degenerate-case agreement."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AnalysisError, UnstableSystemError
from repro.markov import (
    SbusChain,
    check_stability,
    solve_matrix_geometric,
    solve_sbus,
    solve_stage_recursion,
    solve_truncated_direct,
)
from repro.queueing import mm1_metrics, mmc_metrics


class TestDegenerateCases:
    def test_fast_transmission_reduces_to_mmr(self):
        """mu_n >> mu_s: the bus vanishes; the system is M/M/r (Section III)."""
        solution = solve_sbus(arrival_rate=2.0, transmission_rate=1e7,
                              service_rate=1.0, resources=4)
        reference = mmc_metrics(2.0, 1.0, servers=4)
        assert solution.mean_delay == pytest.approx(
            reference.mean_waiting_time, rel=1e-4)
        assert solution.mean_busy_resources == pytest.approx(2.0, rel=1e-4)

    def test_fast_service_reduces_to_mm1(self):
        """mu_s >> mu_n: resources vanish; the bus is an M/M/1 server."""
        solution = solve_sbus(arrival_rate=0.6, transmission_rate=1.0,
                              service_rate=1e7, resources=3)
        reference = mm1_metrics(0.6, 1.0)
        assert solution.mean_delay == pytest.approx(
            reference.mean_waiting_time, rel=1e-4)
        assert solution.bus_utilization == pytest.approx(0.6, rel=1e-4)

    def test_single_resource_is_tandem_bottleneck(self):
        """r = 1 saturates at the harmonic combination of the two rates."""
        chain = SbusChain(arrival_rate=0.49, transmission_rate=1.0,
                          service_rate=1.0, resources=1)
        solution = solve_matrix_geometric(chain)
        assert solution.mean_delay > 0
        unstable = SbusChain(arrival_rate=0.51, transmission_rate=1.0,
                             service_rate=1.0, resources=1)
        with pytest.raises(UnstableSystemError):
            check_stability(unstable)


def bus_capacity(ratio: float, resources: int) -> float:
    """Maximum sustainable arrival rate of the stall-coupled bus.

    Lower than min(mu_n, r mu_s) because the bus idles whenever every
    resource is busy; obtained from the QBD drift of the repeating levels.
    """
    from repro.markov.qbd import drift_condition
    probe = SbusChain(arrival_rate=1.0, transmission_rate=1.0,
                      service_rate=ratio, resources=resources)
    drift = drift_condition(*probe.qbd_blocks())
    return 1.0 - drift


class TestSolverAgreement:
    """The paper reports 4-digit agreement between its two methods (E14)."""

    @pytest.mark.parametrize("load,ratio,resources", [
        (0.5, 0.1, 2),
        (0.6, 0.5, 3),
        (0.6, 1.0, 4),
        (0.6, 2.0, 2),
    ])
    def test_all_three_methods_agree(self, load, ratio, resources):
        kwargs = dict(arrival_rate=load * bus_capacity(ratio, resources),
                      transmission_rate=1.0, service_rate=ratio,
                      resources=resources)
        exact = solve_sbus(method="matrix-geometric", **kwargs)
        direct = solve_sbus(method="truncated-direct", **kwargs)
        stages = solve_sbus(method="stage-recursion", **kwargs)
        assert direct.mean_delay == pytest.approx(exact.mean_delay, rel=1e-6)
        # The stage recursion trades precision for fidelity to the paper's
        # procedure; at these loads it keeps 2-3 digits.
        assert stages.mean_delay == pytest.approx(exact.mean_delay, rel=1e-2)

    @pytest.mark.parametrize("ratio,resources", [(0.5, 3), (1.0, 4), (2.0, 2)])
    def test_four_digit_agreement_at_moderate_load(self, ratio, resources):
        """The paper's 4-digit claim, reproduced at moderate utilization."""
        kwargs = dict(arrival_rate=0.35 * bus_capacity(ratio, resources),
                      transmission_rate=1.0, service_rate=ratio,
                      resources=resources)
        exact = solve_sbus(method="matrix-geometric", **kwargs)
        stages = solve_sbus(method="stage-recursion", **kwargs)
        assert stages.mean_delay == pytest.approx(exact.mean_delay, rel=1e-4)

    @settings(max_examples=15, deadline=None)
    @given(
        load=st.floats(min_value=0.1, max_value=0.8),
        ratio=st.floats(min_value=0.2, max_value=2.0),
        resources=st.integers(min_value=1, max_value=5),
    )
    def test_exact_vs_direct_property(self, load, ratio, resources):
        kwargs = dict(arrival_rate=load * bus_capacity(ratio, resources),
                      transmission_rate=1.0, service_rate=ratio,
                      resources=resources)
        exact = solve_sbus(method="matrix-geometric", **kwargs)
        direct = solve_sbus(method="truncated-direct", **kwargs)
        assert direct.mean_delay == pytest.approx(exact.mean_delay, rel=1e-5)


class TestSolutionInvariants:
    def test_utilizations_in_unit_interval(self):
        solution = solve_sbus(1.0, 1.5, 0.7, 3)
        assert 0.0 <= solution.bus_utilization <= 1.0
        assert 0.0 <= solution.resource_utilization <= 1.0

    def test_throughput_conservation(self):
        """Bus throughput mu_n * P(busy) must equal the arrival rate."""
        solution = solve_sbus(0.9, 2.0, 0.5, 3)
        assert solution.bus_utilization * 2.0 == pytest.approx(0.9, rel=1e-8)

    def test_resource_flow_conservation(self):
        """Resource throughput mu_s * E[s] must equal the arrival rate."""
        solution = solve_sbus(0.9, 2.0, 0.5, 3)
        assert solution.mean_busy_resources * 0.5 == pytest.approx(0.9, rel=1e-8)

    def test_normalized_delay(self):
        solution = solve_sbus(0.9, 2.0, 0.5, 3)
        assert solution.normalized_delay == pytest.approx(
            solution.mean_delay * 0.5)

    def test_delay_increases_with_load(self):
        capacity = bus_capacity(0.5, 2)
        delays = [solve_sbus(fraction * capacity, 1.0, 0.5, 2).mean_delay
                  for fraction in (0.2, 0.4, 0.6, 0.8)]
        assert delays == sorted(delays)
        assert delays[0] < delays[-1]

    def test_more_resources_reduce_delay(self):
        arrival = 0.7 * bus_capacity(0.3, 3)
        few = solve_sbus(arrival, 1.0, 0.3, 3).mean_delay
        many = solve_sbus(arrival, 1.0, 0.3, 6).mean_delay
        assert many < few


class TestNearSaturation:
    def test_matrix_geometric_answers_close_to_capacity(self):
        """The default method needs no truncation ladder, so it still
        answers where the queue is long and the delay steep."""
        nearer = solve_sbus(0.97, 1.0, 1.0, 4)
        farther = solve_sbus(0.9, 1.0, 1.0, 4)
        assert nearer.method == "matrix-geometric"
        assert math.isfinite(nearer.mean_delay)
        assert nearer.mean_delay > farther.mean_delay > 0.0


class TestErrorHandling:
    def test_unknown_method_rejected(self):
        with pytest.raises(AnalysisError):
            solve_sbus(1.0, 1.0, 1.0, 2, method="magic")

    def test_unstable_rejected_by_all_methods(self):
        for method in ("matrix-geometric", "truncated-direct", "stage-recursion"):
            with pytest.raises(UnstableSystemError):
                solve_sbus(10.0, 1.0, 1.0, 2, method=method)

    def test_truncated_fixed_level(self):
        solution = solve_truncated_direct(
            SbusChain(0.5, 1.0, 0.5, 2), max_level=64)
        assert solution.levels_used == 64

    def test_stage_recursion_needs_full_elementary_stage(self):
        with pytest.raises(AnalysisError):
            solve_stage_recursion(SbusChain(0.5, 1.0, 0.5, 4), initial_stage=2)
