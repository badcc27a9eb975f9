"""Tests for the lockstep batched replication engine.

The engine's single load-bearing property is *bit-identity*: replication k
of a batched run must equal the scalar engine run with the same seed, to
the last bit of the mean-delay estimate.  Everything else — the vectorized
stream tables, the sweep-point integration, the CRN comparison — leans on
that invariant, so these tests pin it over a randomized configuration grid
and then check the surrounding plumbing.
"""

import math
import random

import numpy as np
import pytest

from repro.analysis.approximations import saturation_intensity
from repro.analysis.sweep import workload_at
from repro.config import SystemConfig
from repro.core.system import simulate
from repro.errors import ConfigurationError
from repro.faults.models import CellFault, FaultConfig, FaultSchedule
from repro.networks.batched_omega import BatchedMultistageRouter
from repro.sim import (
    BatchedReplicationEngine,
    MegaBatchEngine,
    VariateTable,
    batched_replication_delays,
    batched_unsupported_reason,
    megabatch_figure_delays,
    spawn_seed,
    supports_batched,
    uniform_block_source,
)
from repro.sim.rng import RngStream
from repro.workload.arrivals import Workload, sample_time


def _random_cases(count, master_seed=7):
    """Randomized crossbar (config, workload) grid across the gate."""
    rng = random.Random(master_seed)
    cases = []
    for _ in range(count):
        processors = rng.choice([2, 4, 8, 12, 16])
        partitions = rng.choice([1, 2])
        if processors % partitions:
            partitions = 1
        buses = rng.choice([1, 2, 4, 8])
        resources = rng.choice([1, 2, 3])
        rho = rng.choice([0.02, 0.05, 0.08, 0.12])
        distribution = rng.choice(["exponential", "hyperexponential"])
        config = SystemConfig.parse(
            f"{processors}/{partitions}x{processors // partitions}x{buses} "
            f"XBAR/{resources}")
        workload = Workload(rho, 1.0, 0.1,
                            service_distribution=distribution)
        cases.append((config, workload))
    return cases


def _random_bus_cases(count, master_seed=13):
    """Randomized single-bus grid: shared and private buses, finite pools."""
    rng = random.Random(master_seed)
    cases = []
    for _ in range(count):
        processors = rng.choice([2, 4, 8, 12, 16])
        partitions = rng.choice([1, 2, 4, processors])
        if processors % partitions:
            partitions = 1
        resources = rng.choice([1, 2, 3])
        rho = rng.choice([0.02, 0.05, 0.08, 0.12])
        distribution = rng.choice(["exponential", "hyperexponential"])
        config = SystemConfig.parse(
            f"{processors}/{partitions}x1x1 SBUS/{resources}")
        workload = Workload(rho, 1.0, 0.1,
                            service_distribution=distribution)
        cases.append((config, workload))
    return cases


def _random_multistage_cases(count, master_seed=17):
    """Randomized multistage grid spanning all three wirings."""
    rng = random.Random(master_seed)
    cases = []
    for _ in range(count):
        partitions, size = rng.choice(
            [(1, 4), (1, 8), (1, 16), (2, 4), (2, 8), (4, 4)])
        kind = rng.choice(["OMEGA", "CUBE", "BASELINE"])
        resources = rng.choice([1, 2, 3])
        rho = rng.choice([0.02, 0.05, 0.08, 0.12])
        distribution = rng.choice(["exponential", "hyperexponential"])
        config = SystemConfig.parse(
            f"{partitions * size}/{partitions}x{size}x{size} "
            f"{kind}/{resources}")
        workload = Workload(rho, 1.0, 0.1,
                            service_distribution=distribution)
        cases.append((config, workload))
    return cases


def _check_lockstep_grid(cases, seed_base):
    """Per-replication delays must equal scalar ``simulate`` bit for bit."""
    for index, (config, workload) in enumerate(cases):
        seeds = [seed_base + index * 10 + k for k in range(4)]
        horizon, warmup = 400.0, 50.0
        batched = batched_replication_delays(
            config, workload, horizon=horizon, warmup=warmup, seeds=seeds)
        for k, seed in enumerate(seeds):
            scalar = simulate(config, workload, horizon=horizon,
                              warmup=warmup,
                              seed=seed).mean_queueing_delay
            if math.isnan(scalar):
                assert math.isnan(batched[k])
            else:
                assert batched[k] == scalar, (
                    f"replication {k} of {config} diverged")


class TestLockstepBitIdentity:
    def test_randomized_grid_matches_scalar_engine(self):
        _check_lockstep_grid(_random_cases(8), seed_base=2000)

    def test_randomized_bus_grid_matches_scalar_engine(self):
        """The widened gate: batched single-bus grants match scalar."""
        _check_lockstep_grid(_random_bus_cases(8), seed_base=2100)

    def test_randomized_multistage_grid_matches_scalar_engine(self):
        """The widened gate: plane-routed Omega/cube/baseline match scalar."""
        _check_lockstep_grid(_random_multistage_cases(8), seed_base=2200)

    def test_result_carries_counts_and_window(self):
        config = SystemConfig.parse("4/1x4x2 XBAR/2")
        workload = Workload(0.05, 1.0, 0.1)
        engine = BatchedReplicationEngine(config, workload, seeds=[1, 2, 3])
        result = engine.run(horizon=500.0, warmup=50.0)
        assert result.seeds == (1, 2, 3)
        assert len(result.mean_delays) == 3
        assert all(count >= 0 for count in result.delay_counts)
        assert all(done > 0 for done in result.completed)
        assert result.simulated_time == 500.0
        assert result.measurement_start == 50.0
        with pytest.raises(ConfigurationError):
            engine.run(horizon=500.0, warmup=50.0)  # single-shot, like scalar

    def test_scope_gate(self):
        workload = Workload(0.05, 1.0, 0.1)
        # Every fabric family in the grammar has a dispatch kernel now;
        # what gates a model is a *property*, never the fabric alone.
        assert supports_batched("16/1x16x8 XBAR/2", workload)
        assert supports_batched("16/1x16x16 OMEGA/2", workload)
        assert supports_batched("16/4x4x4 CUBE/1", workload)
        assert supports_batched("8/1x8x8 BASELINE/2", workload)
        assert supports_batched("16/16x1x1 SBUS/2", workload)
        assert not supports_batched("16/16x1x1 SBUS/inf", workload)
        assert not supports_batched("16/1x16x8 XBAR/2", workload,
                                    arbitration="random")
        # Deterministic *service* is in scope (ties stay measure-zero);
        # deterministic transmission or interarrival lattices timestamps
        # and stays gated.
        deterministic = Workload(0.05, 1.0, 0.1,
                                 service_distribution="deterministic")
        assert supports_batched("16/1x16x8 XBAR/2", deterministic)
        lattice = Workload(0.05, 1.0, 0.1,
                           transmission_distribution="deterministic")
        assert not supports_batched("16/1x16x8 XBAR/2", lattice)
        with pytest.raises(ConfigurationError):
            BatchedReplicationEngine("16/16x1x1 SBUS/inf", workload, seeds=[1])
        with pytest.raises(ConfigurationError):
            BatchedReplicationEngine("16/1x16x8 XBAR/2", workload, seeds=[])


def _assert_same_delay(left, right, context=""):
    if math.isnan(left):
        assert math.isnan(right), context
    else:
        assert left == right, context


def _check_megabatch_grid(cases, seed_base):
    """Mega-batch == per-point batched == scalar, bit for bit.

    Each case becomes a 3-point "curve" (three loads of the same
    configuration and distributions) with 3 replications per point —
    the full (point, replication) grid is checked against both the
    per-point batched engine and the scalar engine.
    """
    for index, (config, workload) in enumerate(cases):
        rhos = [workload.arrival_rate * scale
                for scale in (0.5, 1.0, 1.5)]
        workloads = [Workload(rho, 1.0, 0.1,
                              service_distribution=
                              workload.service_distribution)
                     for rho in rhos]
        groups = [[seed_base + index * 100 + point * 10 + k
                   for k in range(3)]
                  for point in range(len(workloads))]
        horizon, warmup = 400.0, 50.0
        mega = megabatch_figure_delays(config, workloads, horizon=horizon,
                                       warmup=warmup, seed_groups=groups)
        for point, point_workload in enumerate(workloads):
            per_point = batched_replication_delays(
                config, point_workload, horizon=horizon, warmup=warmup,
                seeds=groups[point])
            for k, seed in enumerate(groups[point]):
                _assert_same_delay(per_point[k], mega[point][k],
                                   f"case {index} point {point} rep {k}")
                scalar = simulate(config, point_workload, horizon=horizon,
                                  warmup=warmup,
                                  seed=seed).mean_queueing_delay
                _assert_same_delay(scalar, mega[point][k],
                                   f"case {index} point {point} rep {k}")


class TestMegaBatch:
    def test_randomized_grid_matches_per_point_and_scalar(self):
        _check_megabatch_grid(_random_cases(4, master_seed=11),
                              seed_base=5000)

    def test_randomized_bus_grid_matches_per_point_and_scalar(self):
        """The widened gate: whole single-bus curves in one mega-batch."""
        _check_megabatch_grid(_random_bus_cases(3, master_seed=19),
                              seed_base=6000)

    def test_randomized_multistage_grid_matches_per_point_and_scalar(self):
        """The widened gate: whole multistage curves in one mega-batch."""
        _check_megabatch_grid(_random_multistage_cases(3, master_seed=23),
                              seed_base=7000)

    def test_deterministic_service_matches_scalar(self):
        """The widened gate: deterministic service runs in lockstep."""
        config = SystemConfig.parse("8/2x4x4 XBAR/2")
        workload = Workload(0.06, 1.0, 0.1,
                            service_distribution="deterministic")
        assert supports_batched(config, workload)
        seeds = [901, 902, 903, 904]
        batched = batched_replication_delays(config, workload, horizon=500.0,
                                             warmup=50.0, seeds=seeds)
        for k, seed in enumerate(seeds):
            scalar = simulate(config, workload, horizon=500.0, warmup=50.0,
                              seed=seed).mean_queueing_delay
            _assert_same_delay(scalar, batched[k], f"replication {k}")

    def test_static_cell_faults_match_scalar(self):
        """The widened gate: a statically degraded fabric runs masked."""
        schedule = FaultSchedule.of(
            (0.0, "cell", (0, (0, 0)), "down"),
            (0.0, "cell", (0, (1, 2)), "down"),
            (0.0, "cell", (1, (3, 1)), "down"))
        config = SystemConfig.parse("8/2x4x4 XBAR/2").with_faults(
            FaultConfig(schedule=schedule))
        workload = Workload(0.06, 1.0, 0.1)
        assert batched_unsupported_reason(config, workload) is None
        seeds = [911, 912, 913]
        batched = batched_replication_delays(config, workload, horizon=500.0,
                                             warmup=50.0, seeds=seeds)
        healthy = batched_replication_delays(
            config.with_faults(None), workload, horizon=500.0, warmup=50.0,
            seeds=seeds)
        assert batched != healthy  # the dead cells must actually bite
        for k, seed in enumerate(seeds):
            scalar = simulate(config, workload, horizon=500.0, warmup=50.0,
                              seed=seed).mean_queueing_delay
            _assert_same_delay(scalar, batched[k], f"replication {k}")

    def test_per_partition_cell_faults_match_scalar(self):
        """Partitions with different dead cells, near saturation: the
        flattened dispatch gathers each pair's own alive plane."""
        schedule = FaultSchedule.of(
            (0.0, "cell", (0, (0, 0)), "down"),
            (0.0, "cell", (0, (2, 1)), "down"),
            (0.0, "cell", (1, (1, 3)), "down"),
            (0.0, "cell", (1, (3, 0)), "down"),
            (0.0, "cell", (1, (0, 2)), "down"))
        healthy = SystemConfig.parse("8/2x4x4 XBAR/1")
        config = healthy.with_faults(FaultConfig(schedule=schedule))
        workload = workload_at(0.8 * saturation_intensity(healthy, 0.1), 0.1,
                               processors=healthy.processors)
        assert batched_unsupported_reason(config, workload) is None
        seeds = [921, 922, 923]
        batched = batched_replication_delays(config, workload, horizon=500.0,
                                             warmup=50.0, seeds=seeds)
        unmasked = batched_replication_delays(healthy, workload,
                                              horizon=500.0, warmup=50.0,
                                              seeds=seeds)
        assert batched != unmasked  # the dead cells must actually bite
        for k, seed in enumerate(seeds):
            scalar = simulate(config, workload, horizon=500.0, warmup=50.0,
                              seed=seed).mean_queueing_delay
            _assert_same_delay(scalar, batched[k], f"replication {k}")

    def test_unsupported_reason_names_the_gate(self):
        workload = Workload(0.05, 1.0, 0.1)
        for triplet in ("16/1x16x8 XBAR/2", "16/1x16x16 OMEGA/2",
                        "16/4x4x4 CUBE/1", "8/1x8x8 BASELINE/2",
                        "16/16x1x1 SBUS/2"):
            assert batched_unsupported_reason(triplet, workload) is None
        assert "arbitration" in batched_unsupported_reason(
            "16/1x16x8 XBAR/2", workload, arbitration="random")
        assert "infinite resource pool" in batched_unsupported_reason(
            "16/16x1x1 SBUS/inf", workload)
        lattice = Workload(0.05, 1.0, 0.1,
                           interarrival_distribution="deterministic")
        assert "interarrival" in batched_unsupported_reason(
            "16/1x16x8 XBAR/2", lattice)
        stochastic = SystemConfig.parse("16/1x16x8 XBAR/2").with_faults(
            FaultConfig(models=(CellFault(mttf=100.0, mttr=10.0),)))
        assert "stochastic" in batched_unsupported_reason(stochastic,
                                                          workload)
        dynamic = SystemConfig.parse("16/1x16x8 XBAR/2").with_faults(
            FaultConfig(schedule=FaultSchedule.of(
                (5.0, "cell", (0, (0, 0)), "down"))))
        assert "dynamic" in batched_unsupported_reason(dynamic, workload)
        faulted_omega = SystemConfig.parse("16/1x16x16 OMEGA/2").with_faults(
            FaultConfig(schedule=FaultSchedule.of(
                (0.0, "cell", (0, (0, 0)), "down"))))
        assert "OMEGA" in batched_unsupported_reason(faulted_omega, workload)

    def test_every_reason_names_the_blocking_property(self):
        """Regression for the stale "XBAR fabrics only" phrasing.

        Each gated combination's reason must name the property that
        actually blocks it — never a fabric family that now has a
        dispatch kernel, and never the old blanket scope claim.
        """
        workload = Workload(0.05, 1.0, 0.1)
        faulted = FaultConfig(schedule=FaultSchedule.of(
            (0.0, "cell", (0, (0, 0)), "down")))
        gated = [
            ("16/16x1x1 SBUS/inf", workload, {}, "infinite resource pool"),
            ("16/1x16x8 XBAR/2", workload, {"arbitration": "random"},
             "'random' arbitration"),
            ("16/1x16x8 XBAR/2", workload, {"arbitration": "fifo"},
             "'fifo' arbitration"),
            ("16/1x16x8 XBAR/2",
             Workload(0.05, 1.0, 0.1,
                      transmission_distribution="deterministic"),
             {}, "'deterministic' transmission distribution"),
            ("16/1x16x8 XBAR/2",
             Workload(0.05, 1.0, 0.1,
                      interarrival_distribution="deterministic"),
             {}, "'deterministic' interarrival distribution"),
            (SystemConfig.parse("16/1x16x16 OMEGA/2").with_faults(faulted),
             workload, {}, "fault schedule on a OMEGA fabric"),
            (SystemConfig.parse("16/16x1x1 SBUS/2").with_faults(faulted),
             workload, {}, "fault schedule on a SBUS fabric"),
        ]
        for config, case_workload, kwargs, needle in gated:
            reason = batched_unsupported_reason(config, case_workload,
                                                **kwargs)
            assert reason is not None, f"{config} should be gated"
            assert needle in reason, f"{reason!r} must name {needle!r}"
            assert "fabrics only" not in reason

    def test_point_of_row_maps_rows_to_points(self):
        config = SystemConfig.parse("4/1x4x2 XBAR/2")
        workloads = [Workload(0.03, 1.0, 0.1), Workload(0.05, 1.0, 0.1)]
        engine = MegaBatchEngine(config, workloads,
                                 seed_groups=[[1, 2, 3], [4, 5]])
        assert engine.point_of_row.tolist() == [0, 0, 0, 1, 1]
        assert engine.seed_groups == ((1, 2, 3), (4, 5))

    def test_megabatch_validation(self):
        config = SystemConfig.parse("4/1x4x2 XBAR/2")
        workloads = [Workload(0.03, 1.0, 0.1), Workload(0.05, 1.0, 0.1)]
        with pytest.raises(ConfigurationError):
            MegaBatchEngine(config, [], seed_groups=[])
        with pytest.raises(ConfigurationError):
            MegaBatchEngine(config, workloads, seed_groups=[[1]])
        with pytest.raises(ConfigurationError):
            MegaBatchEngine(config, workloads, seed_groups=[[1], []])
        mixed = [Workload(0.03, 1.0, 0.1),
                 Workload(0.05, 1.0, 0.1,
                          service_distribution="deterministic")]
        with pytest.raises(ConfigurationError):
            MegaBatchEngine(config, mixed, seed_groups=[[1], [2]])


#: The paper's partitioned fabrics (Figs. 7/8 and 12/13).
PAPER_PARTITIONED = ("16/8x2x2 OMEGA/2", "16/4x4x4 OMEGA/2",
                     "16/4x4x8 XBAR/1", "16/4x4x4 XBAR/2")


class TestPartitionedDispatch:
    """One dispatch per lockstep step covers every (row, partition) pair.

    The randomized grids above stay at light loads and at most four
    partitions; these pin the paper's partitioned shapes, including the
    one-stage 2x2 Omega, at loads where one broadcast grants several
    connections.
    """

    @pytest.mark.parametrize("triplet", PAPER_PARTITIONED)
    def test_paper_partitioned_fabrics_match_scalar(self, triplet):
        config = SystemConfig.parse(triplet)
        points = [(0.4, 0.1), (0.8, 0.1), (0.8, 1.0)]
        workloads = [
            workload_at(fraction * saturation_intensity(config, ratio),
                        ratio, processors=config.processors)
            for fraction, ratio in points]
        groups = [[8100 + 10 * point + k for k in range(2)]
                  for point in range(len(points))]
        horizon, warmup = 400.0, 50.0
        mega = megabatch_figure_delays(config, workloads, horizon=horizon,
                                       warmup=warmup, seed_groups=groups)
        for point, workload in enumerate(workloads):
            for k, seed in enumerate(groups[point]):
                scalar = simulate(config, workload, horizon=horizon,
                                  warmup=warmup,
                                  seed=seed).mean_queueing_delay
                _assert_same_delay(scalar, mega[point][k],
                                   f"{triplet} point {point} rep {k}")

    def test_route_broadcast_never_repeats_a_batch_row(self, monkeypatch):
        """Each router call carries at most one partition per batch row,
        and calls do mix partitions (the partition axis is folded)."""
        calls = []
        original = BatchedMultistageRouter.route_broadcast

        def recording(router, reps, partitions, requests, acceptable):
            calls.append((reps.copy(), partitions.copy()))
            return original(router, reps, partitions, requests, acceptable)

        monkeypatch.setattr(BatchedMultistageRouter, "route_broadcast",
                            recording)
        config = SystemConfig.parse("16/8x2x2 OMEGA/2")
        workloads = [
            workload_at(fraction * saturation_intensity(config, 0.1), 0.1,
                        processors=config.processors)
            for fraction in (0.4, 0.8)]
        megabatch_figure_delays(config, workloads, horizon=300.0,
                                warmup=30.0,
                                seed_groups=[[1, 2, 3], [4, 5, 6]])
        assert calls
        for reps, partitions in calls:
            assert np.unique(reps).shape == reps.shape
            assert ((partitions >= 0)
                    & (partitions < config.num_networks)).all()
        assert any(np.unique(partitions).shape[0] > 1
                   for _, partitions in calls)


class TestVariateStreams:
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_uniform_block_sources_agree_with_random_random(self, vectorized):
        source = uniform_block_source(1234, vectorized)
        reference = random.Random(1234)
        drawn = source(100) + source(37) + source(256)
        assert drawn == [reference.random() for _ in range(393)]

    @pytest.mark.parametrize("distribution", ["exponential",
                                              "hyperexponential"])
    @pytest.mark.parametrize("vectorized", [True, False])
    def test_variate_table_matches_sample_time(self, distribution, vectorized):
        """Row s of the table draws exactly the scalar stream's variates."""
        seeds = [spawn_seed(9, "arrivals-0"), spawn_seed(9, "service-1")]
        table = VariateTable(seeds, rate=0.4, distribution=distribution,
                             block=16, vectorized=vectorized)
        for row, seed in enumerate(seeds):
            stream = RngStream(seed)
            for _ in range(40):
                expected = sample_time(stream, 0.4, distribution)
                assert table.draw_one(row) == expected

    def test_variate_table_validation(self):
        with pytest.raises(ConfigurationError):
            VariateTable([1], rate=0.0, distribution="exponential")
        with pytest.raises(ConfigurationError):
            VariateTable([1], rate=1.0, distribution="weibull")
        with pytest.raises(ConfigurationError):
            VariateTable([1], rate=1.0, distribution="exponential", block=3)
        with pytest.raises(ConfigurationError):
            VariateTable([1, 2], rate=[1.0], distribution="exponential")

    def test_per_row_rates_match_scalar_streams(self):
        """The mega-batch shape: one table, a different rate per row."""
        seeds = [spawn_seed(3, "arrivals-0"), spawn_seed(3, "arrivals-1")]
        rates = [0.25, 0.8]
        table = VariateTable(seeds, rate=rates, distribution="exponential",
                             block=16)
        for row, (seed, rate) in enumerate(zip(seeds, rates)):
            stream = RngStream(seed)
            for _ in range(20):
                expected = sample_time(stream, rate, "exponential")
                assert table.draw_one(row) == expected

    def test_deterministic_rows_draw_no_uniforms(self):
        table = VariateTable([7], rate=0.5, distribution="deterministic",
                             block=8)
        for _ in range(20):
            assert table.draw_one(0) == 2.0
        # sample_time's contract: deterministic draws touch no randomness,
        # so the equivalent scalar stream stays untouched too.
        stream = RngStream(7)
        before = stream.random()
        replay = RngStream(7)
        assert sample_time(replay, 0.5, "deterministic") == 2.0
        assert replay.random() == before


class TestVariateCrossover:
    def test_override_resolution(self, monkeypatch):
        from repro.sim.batched import (_VECTORIZED_REFILL_CROSSOVER,
                                       variate_refill_crossover)

        monkeypatch.delenv("REPRO_VARIATE_BLOCK", raising=False)
        assert variate_refill_crossover() == _VECTORIZED_REFILL_CROSSOVER
        monkeypatch.setenv("REPRO_VARIATE_BLOCK", "128")
        assert variate_refill_crossover() == 128
        assert variate_refill_crossover(override=7) == 7
        monkeypatch.setenv("REPRO_VARIATE_BLOCK", "soon")
        with pytest.raises(ConfigurationError):
            variate_refill_crossover()
        with pytest.raises(ConfigurationError):
            variate_refill_crossover(override=-1)

    def test_crossover_choice_is_bit_identical(self, monkeypatch):
        """Both refill backends emit the same variates; the knob cannot
        change results, only where generator construction is paid."""
        config = SystemConfig.parse("4/1x4x2 XBAR/2")
        workload = Workload(0.05, 1.0, 0.1)
        seeds = [21, 22]
        monkeypatch.delenv("REPRO_VARIATE_BLOCK", raising=False)
        default = BatchedReplicationEngine(
            config, workload, seeds).run(400.0, 40.0)
        monkeypatch.setenv("REPRO_VARIATE_BLOCK", "0")
        forced_numpy = BatchedReplicationEngine(
            config, workload, seeds).run(400.0, 40.0)
        monkeypatch.delenv("REPRO_VARIATE_BLOCK")
        forced_scalar = BatchedReplicationEngine(
            config, workload, seeds, crossover=10 ** 9).run(400.0, 40.0)
        assert all(not math.isnan(d) for d in default.mean_delays)
        assert default.mean_delays == forced_numpy.mean_delays
        assert default.mean_delays == forced_scalar.mean_delays


class TestSweepPointEngine:
    def test_unknown_engine_rejected(self):
        from repro.analysis.sweep import simulated_point

        with pytest.raises(ConfigurationError):
            simulated_point("16/1x16x8 XBAR/2", 0.1, 0.5, engine="warp")

    def test_batched_point_reports_replication_interval(self):
        from repro.analysis.sweep import simulated_point

        point = simulated_point("16/1x16x8 XBAR/2", 0.1, 0.4, horizon=2_000.0,
                                seed=5, engine="batched")
        assert point.normalized_delay is not None
        assert point.ci_halfwidth is not None and point.ci_halfwidth > 0

    def test_batched_point_falls_back_outside_scope(self):
        from repro.analysis.sweep import simulated_point

        # An infinite private-resource pool keeps the bus model gated, so
        # the batched request must quietly produce the scalar point.
        scalar = simulated_point("16/16x1x1 SBUS/inf", 0.1, 0.4,
                                 horizon=1_500.0, seed=5)
        batched = simulated_point("16/16x1x1 SBUS/inf", 0.1, 0.4,
                                  horizon=1_500.0, seed=5, engine="batched")
        assert batched == scalar

    def test_batched_point_runs_new_fabrics(self):
        """Omega and single-bus points run batched, matching scalar seeds
        replication for replication (same spawned seed names)."""
        from repro.analysis.sweep import simulated_point

        for triplet, intensity in (("8/1x8x8 OMEGA/2", 0.4),
                                   ("16/4x1x1 SBUS/2", 0.2)):
            point = simulated_point(triplet, 0.1, intensity, horizon=1_500.0,
                                    seed=5, engine="batched")
            assert point.normalized_delay is not None
            assert point.ci_halfwidth is not None and point.ci_halfwidth > 0

    def test_auto_engine_matches_batched_in_scope(self):
        from repro.analysis.sweep import simulated_point

        for triplet in ("16/1x16x8 XBAR/2", "8/1x8x8 OMEGA/2"):
            batched = simulated_point(triplet, 0.1, 0.4, horizon=1_000.0,
                                      seed=5, engine="batched")
            auto = simulated_point(triplet, 0.1, 0.4, horizon=1_000.0,
                                   seed=5, engine="auto")
            assert auto == batched

    def test_auto_engine_falls_back_to_scalar(self):
        from repro.analysis.sweep import simulated_point

        scalar = simulated_point("16/16x1x1 SBUS/inf", 0.1, 0.4,
                                 horizon=1_000.0, seed=5)
        auto = simulated_point("16/16x1x1 SBUS/inf", 0.1, 0.4,
                               horizon=1_000.0, seed=5, engine="auto")
        assert auto == scalar

    def test_saturated_point_short_circuits(self):
        from repro.analysis.sweep import simulated_point

        point = simulated_point("16/1x16x8 XBAR/2", 0.1, 5.0, engine="batched")
        assert point.normalized_delay is None


class TestCommonRandomNumbers:
    def test_crn_halfwidth_no_wider_than_unpaired(self):
        """The acceptance pin: pairing cancels common workload noise."""
        from repro.analysis.replication import compare_with_replications
        from repro.analysis.sweep import workload_at

        workload = workload_at(0.5, 0.1)
        shared = dict(workload=workload, horizon=1_500.0, warmup=150.0,
                      replications=8, base_seed=100, engine="batched")
        first, second = "16/1x16x8 XBAR/2", "16/1x16x16 XBAR/1"
        _, paired_half, _ = compare_with_replications(
            first, second, crn=True, **shared)
        _, unpaired_half, _ = compare_with_replications(
            first, second, crn=False, **shared)
        assert paired_half <= unpaired_half

    def test_crn_comparison_engines_agree(self):
        """Batched CRN comparison equals the scalar one bit for bit."""
        from repro.analysis.replication import compare_with_replications
        from repro.analysis.sweep import workload_at

        workload = workload_at(0.4, 0.1)
        shared = dict(workload=workload, horizon=800.0, warmup=80.0,
                      replications=4, base_seed=50, crn=True)
        first, second = "8/1x8x4 XBAR/2", "8/1x8x8 XBAR/1"
        scalar = compare_with_replications(first, second, engine="scalar",
                                           **shared)
        batched = compare_with_replications(first, second, engine="batched",
                                            **shared)
        assert scalar[0] == batched[0]
        assert scalar[1] == batched[1]


class TestBatchedEvaluator:
    def test_batched_wave_matches_scalar_units(self):
        """replication-delay-batched == one replication-delay per seed."""
        from repro.runner.evaluators import get_evaluator

        params = {
            "config": "8/1x8x4 XBAR/2",
            "arrival_rate": 0.05, "transmission_rate": 1.0,
            "service_rate": 0.1,
            "horizon": 600.0, "warmup": 60.0,
            "replications": 4,
        }
        wave = get_evaluator("replication-delay-batched")(300, params)
        scalar = get_evaluator("replication-delay")
        for index, value in enumerate(wave):
            assert value == scalar(300 + index, params)
