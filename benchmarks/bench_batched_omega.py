"""Batched multistage routing vs. the scalar event loop.

The widened batchability gate runs Omega (and cube/baseline) systems
through the lockstep engine: the backward availability labelling and
forward claim walk of the scalar
:class:`~repro.networks.omega.MultistageFabric` become a handful of
vectorized grant waves per status broadcast over every replication at
once (:meth:`~repro.networks.batched_omega.BatchedMultistageRouter.route_broadcast`).

This benchmark takes the paper's Omega delay configurations (Figures
12/13: one 16x16 network, four 4x4 and eight 2x2 partitions) at 80% of
their saturation intensity, computes a 64-replication wave both ways
(identical seeds, so the batched delays must equal the scalar engine's
bit for bit on the sampled prefix), and pins a replications-per-second
speedup floor of 2x for the batched path on the headline 16x16 network
(best-of-three on both sides).

``REPRO_BENCH_SMOKE=1`` shrinks the wave and horizon so CI can execute
the benchmark end to end in seconds; the speedup floor is asserted only
at full size (tiny runs are dominated by fixed setup costs).
"""

from __future__ import annotations

import math
import os
from time import perf_counter

import pytest

from repro.analysis.approximations import saturation_intensity
from repro.analysis.sweep import workload_at
from repro.config import SystemConfig
from repro.core.system import simulate
from repro.sim.batched import batched_replication_delays
from repro.sim.rng import spawn_seed

#: The 16x16 Omega network of the Figure 12/13 delay curves.
CONFIG = "16/1x16x16 OMEGA/2"
#: Every Figure 12/13 Omega curve; the partitioned ones dispatch all
#: their (row, partition) broadcasts in one router call per step.
AGREEMENT_CONFIGS = (CONFIG, "16/8x2x2 OMEGA/2", "16/4x4x4 OMEGA/2")
MU_RATIO = 0.1
INTENSITY_FRACTION = 0.8
MASTER_SEED = 1
WARMUP_FRACTION = 0.1

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
REPLICATIONS = 8 if SMOKE else 64
HORIZON = 400.0 if SMOKE else 2_000.0
#: Scalar replications actually run to estimate the per-replication cost
#: (scalar replications are i.i.d. in cost, so a prefix sample suffices).
SCALAR_SAMPLE = 4 if SMOKE else 8
SPEEDUP_FLOOR = 2.0


def _setup(triplet=CONFIG):
    config = SystemConfig.parse(triplet)
    intensity = INTENSITY_FRACTION * saturation_intensity(config, MU_RATIO)
    workload = workload_at(intensity, MU_RATIO,
                           processors=config.processors)
    seeds = [spawn_seed(MASTER_SEED, "bench-omega", index)
             for index in range(REPLICATIONS)]
    return config, workload, seeds


def _run_batched(config, workload, seeds):
    """One lockstep wave over every replication; (delays, seconds)."""
    start = perf_counter()
    delays = batched_replication_delays(
        config, workload, horizon=HORIZON,
        warmup=HORIZON * WARMUP_FRACTION, seeds=seeds)
    return delays, perf_counter() - start


def _run_scalar_sample(config, workload, seeds):
    """A scalar-prefix sample; (delays, estimated seconds for all R)."""
    start = perf_counter()
    delays = [simulate(config, workload, horizon=HORIZON,
                       warmup=HORIZON * WARMUP_FRACTION,
                       seed=seed).mean_queueing_delay
              for seed in seeds[:SCALAR_SAMPLE]]
    elapsed = perf_counter() - start
    return delays, elapsed * REPLICATIONS / SCALAR_SAMPLE


def _mismatches(batched, scalar):
    return sum(
        0 if left == right or (math.isnan(left) and math.isnan(right))
        else 1
        for left, right in zip(batched, scalar))


@pytest.mark.parametrize("triplet", AGREEMENT_CONFIGS)
def test_batched_omega_replications(benchmark, triplet):
    """Measure the batched Omega wave; record both paths in the payload."""
    config, workload, seeds = _setup(triplet)
    scalar_delays, scalar_time = _run_scalar_sample(config, workload, seeds)
    batched_delays, batched_time = benchmark.pedantic(
        lambda: _run_batched(config, workload, seeds),
        rounds=1, iterations=1)
    speedup = scalar_time / batched_time
    benchmark.extra_info["config"] = triplet
    benchmark.extra_info["replications"] = REPLICATIONS
    benchmark.extra_info["horizon"] = HORIZON
    benchmark.extra_info["scalar_estimate_s"] = round(scalar_time, 6)
    benchmark.extra_info["batched_s"] = round(batched_time, 6)
    benchmark.extra_info["replications_per_s"] = round(
        REPLICATIONS / batched_time, 3)
    benchmark.extra_info["speedup"] = round(speedup, 3)
    benchmark.extra_info["agreement"] = _mismatches(batched_delays,
                                                    scalar_delays) == 0
    benchmark.extra_info["smoke"] = SMOKE
    print(f"\n{REPLICATIONS} replications of {triplet}: scalar "
          f"{scalar_time:.2f}s (est), batched {batched_time:.2f}s, "
          f"speedup {speedup:.2f}x")
    assert _mismatches(batched_delays, scalar_delays) == 0, (
        "batched Omega delays diverged from the scalar engine — "
        "the lockstep invariant is broken")


def test_batched_omega_speedup_floor():
    """The batched Omega wave must clear the scalar loop by >= 2x.

    Best-of-three on both sides to damp scheduler noise; measured
    margin at full size is ~3x.  Skipped in smoke mode: a tiny wave
    leaves nothing for the batch width to amortize.
    """
    if SMOKE:
        pytest.skip("speedup floor asserted at full wave size only")
    config, workload, seeds = _setup()
    scalar_time = min(_run_scalar_sample(config, workload, seeds)[1]
                      for _ in range(3))
    batched_time = min(_run_batched(config, workload, seeds)[1]
                       for _ in range(3))
    speedup = scalar_time / batched_time
    print(f"\nspeedup: {speedup:.2f}x ({scalar_time:.2f}s scalar est vs "
          f"{batched_time:.2f}s batched)")
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched Omega kernel regressed: only {speedup:.2f}x over the "
        f"scalar loop (floor {SPEEDUP_FLOOR}x)")
