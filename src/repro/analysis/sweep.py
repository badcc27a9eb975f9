"""Parameter sweeps: delay-versus-traffic-intensity series.

This is the machinery behind every delay figure: fix ``mu_s / mu_n``, sweep
the traffic intensity of the hypothetical combined server (the paper's
x-axis), and record the normalized queueing delay ``mu_s * d`` for each
configuration — analytically where the configuration decomposes into
independent buses, by event simulation otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.analysis.approximations import saturation_intensity, sbus_delay
from repro.config import SystemConfig
from repro.core.system import simulate
from repro.errors import ConfigurationError, UnstableSystemError
from repro.queueing.littles_law import arrival_rate_for_intensity
from repro.workload.arrivals import Workload

#: Number of resources in the x-axis reference system (the paper's 32).
REFERENCE_RESOURCES = 32

#: Lockstep replications one batched sweep point splits its horizon over.
BATCHED_POINT_REPLICATIONS = 16

#: The simulation engines a sweep point can run on.  ``megabatch`` is the
#: 2-D generalization of ``batched``: a whole curve's (point, replication)
#: grid advances as one lockstep batch, with identical per-point results.
#: ``auto`` routes each curve to the fastest supported engine — megabatch
#: where the whole curve passes the batchability gate, per-point batched
#: where a point does, the scalar loop otherwise — so callers never pick
#: an engine by hand (gated curves surface one fallback note in the CLI).
ENGINES = ("scalar", "batched", "megabatch", "auto")


@dataclass(frozen=True)
class SweepPoint:
    """One (x, y) point: traffic intensity and normalized delay.

    A ``None`` delay marks a saturated configuration at this intensity
    (the paper's curves simply end where they blow up).
    """

    intensity: float
    normalized_delay: Optional[float]
    ci_halfwidth: Optional[float] = None


@dataclass(frozen=True)
class Series:
    """A labelled delay curve for one configuration."""

    label: str
    config: SystemConfig
    mu_ratio: float
    points: Tuple[SweepPoint, ...]
    method: str

    def finite_points(self) -> List[SweepPoint]:
        """Points below saturation."""
        return [p for p in self.points if p.normalized_delay is not None]


def workload_at(intensity: float, mu_ratio: float,
                processors: int = 16,
                reference_resources: int = REFERENCE_RESOURCES) -> Workload:
    """Workload hitting ``intensity`` on the paper's reference axis.

    Transmission rate is normalized to 1; the service rate is then
    ``mu_ratio`` and the per-processor arrival rate follows from the
    x-axis definition.
    """
    transmission_rate = 1.0
    service_rate = mu_ratio * transmission_rate
    arrival = arrival_rate_for_intensity(
        intensity, processors=processors, bus_rate=transmission_rate,
        total_resources=reference_resources, service_rate=service_rate)
    return Workload(arrival_rate=arrival, transmission_rate=transmission_rate,
                    service_rate=service_rate)


def analytic_point(config: Union[SystemConfig, str], mu_ratio: float,
                   intensity: float) -> SweepPoint:
    """One exact Markov-chain delay point (SBUS configurations)."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    workload = workload_at(intensity, mu_ratio, processors=config.processors)
    try:
        estimate = sbus_delay(config, workload)
    except UnstableSystemError:
        return SweepPoint(intensity=intensity, normalized_delay=None)
    return SweepPoint(
        intensity=intensity,
        normalized_delay=estimate.mean_delay * workload.service_rate)


def analytic_series(config: Union[SystemConfig, str], mu_ratio: float,
                    intensities: Sequence[float],
                    label: Optional[str] = None) -> Series:
    """Exact Markov-chain delay curve (SBUS configurations).

    Each point is an independent :func:`analytic_point` solve — the same
    computation the sweep runner's ``analytic-point`` units perform, so a
    series built here equals the matching figure curve exactly.
    """
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    points = [analytic_point(config, mu_ratio, intensity)
              for intensity in intensities]
    return Series(label=label or str(config), config=config, mu_ratio=mu_ratio,
                  points=tuple(points), method="markov-chain")


def simulated_series(config: Union[SystemConfig, str], mu_ratio: float,
                     intensities: Sequence[float], label: Optional[str] = None,
                     horizon: float = 30_000.0, warmup_fraction: float = 0.1,
                     seed: int = 1, arbitration: str = "priority",
                     saturation_guard: float = 0.98,
                     engine: str = "scalar") -> Series:
    """Event-simulation delay curve (crossbar / multistage configurations).

    Points at or beyond ``saturation_guard`` times the configuration's
    saturation intensity are reported as saturated rather than burning
    simulation time on a queue that only grows.
    """
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    if engine in ("megabatch", "auto"):
        grid = list(intensities)
        mega = megabatch_sweep_points(
            config, mu_ratio, grid, horizon=horizon,
            warmup_fraction=warmup_fraction, point_seeds=[seed] * len(grid),
            arbitration=arbitration, saturation_guard=saturation_guard)
        if mega is not None:
            return Series(label=label or str(config), config=config,
                          mu_ratio=mu_ratio, points=tuple(mega),
                          method="event-simulation")
    points = [simulated_point(config, mu_ratio, intensity, horizon=horizon,
                              warmup_fraction=warmup_fraction, seed=seed,
                              arbitration=arbitration,
                              saturation_guard=saturation_guard,
                              engine=engine)
              for intensity in intensities]
    return Series(label=label or str(config), config=config, mu_ratio=mu_ratio,
                  points=tuple(points), method="event-simulation")


def _batched_point(config: SystemConfig, workload: Workload, intensity: float,
                   horizon: float, warmup_fraction: float, seed: int,
                   arbitration: str) -> SweepPoint:
    """One sweep point as lockstep replications of the batched engine.

    The simulation budget (``horizon`` time units) is split over
    :data:`BATCHED_POINT_REPLICATIONS` independent replications advanced in
    lockstep, each with its own ``spawn_seed``-derived seed, and the point
    carries a Student-t interval across replications instead of the scalar
    engine's batch-means interval.  Estimates therefore differ from the
    scalar engine's by replication noise (not by model), which is exactly
    why the engine is cache-digest material.
    """
    from repro.sim.batched import batched_replication_delays
    from repro.sim.rng import spawn_seed
    from repro.sim.stats import confidence_interval

    seeds = [spawn_seed(seed, "batched-replication", index)
             for index in range(BATCHED_POINT_REPLICATIONS)]
    per_replication = horizon / BATCHED_POINT_REPLICATIONS
    delays = batched_replication_delays(
        config, workload, horizon=per_replication,
        warmup=per_replication * warmup_fraction, seeds=seeds,
        arbitration=arbitration)
    finite = [delay for delay in delays if not math.isnan(delay)]
    if not finite:
        return SweepPoint(intensity=intensity, normalized_delay=None)
    mean, halfwidth = confidence_interval(finite)
    return SweepPoint(
        intensity=intensity,
        normalized_delay=mean * workload.service_rate,
        ci_halfwidth=halfwidth * workload.service_rate)


def megabatch_curve_reason(config: Union[SystemConfig, str], mu_ratio: float,
                           arbitration: str = "priority") -> Optional[str]:
    """Why a figure curve cannot run as one mega-batch unit, or None.

    Figure workloads come from :func:`workload_at`, whose holding-time
    distributions are fixed (only the rates vary along the curve), so the
    batchability gate is constant across a curve's points — probing one
    representative workload decides the whole curve.
    """
    from repro.sim.batched import batched_unsupported_reason

    if isinstance(config, str):
        config = SystemConfig.parse(config)
    probe = workload_at(0.5, mu_ratio, processors=config.processors)
    return batched_unsupported_reason(config, probe, arbitration)


def megabatch_sweep_points(config: Union[SystemConfig, str], mu_ratio: float,
                           intensities: Sequence[float], horizon: float,
                           warmup_fraction: float,
                           point_seeds: Sequence[int],
                           arbitration: str = "priority",
                           saturation_guard: float = 0.98
                           ) -> Optional[List[SweepPoint]]:
    """A whole curve of sweep points as one 2-D mega-batch, or None.

    Saturated points short-circuit exactly as :func:`simulated_point`
    does; every *live* point must pass the batchability gate, and the
    remaining ``points x BATCHED_POINT_REPLICATIONS`` grid advances in
    one :func:`~repro.sim.batched.megabatch_figure_delays` call.  Each
    point derives the same ``spawn_seed`` replication streams from its
    entry in ``point_seeds`` that :func:`_batched_point` would, so the
    returned points equal the per-point batched path (and the scalar
    loop's per-replication runs) bit for bit.

    Returns None when any live point falls outside the batched gate —
    the caller runs the per-point loop (with its per-point scalar
    fallback) instead.
    """
    from repro.sim.batched import (batched_unsupported_reason,
                                   megabatch_figure_delays)
    from repro.sim.rng import spawn_seed
    from repro.sim.stats import confidence_interval

    if isinstance(config, str):
        config = SystemConfig.parse(config)
    grid = list(intensities)
    if len(point_seeds) != len(grid):
        raise ConfigurationError(
            f"need one seed per point: {len(grid)} intensities, "
            f"{len(point_seeds)} seeds")
    limit = saturation_guard * saturation_intensity(config, mu_ratio)
    points: List[Optional[SweepPoint]] = []
    live_indices: List[int] = []
    live_workloads: List[Workload] = []
    live_groups: List[List[int]] = []
    for intensity, seed in zip(grid, point_seeds):
        if intensity >= limit:
            points.append(SweepPoint(intensity=intensity,
                                     normalized_delay=None))
            continue
        workload = workload_at(intensity, mu_ratio,
                               processors=config.processors)
        if batched_unsupported_reason(config, workload,
                                      arbitration) is not None:
            return None
        points.append(None)
        live_indices.append(len(points) - 1)
        live_workloads.append(workload)
        live_groups.append(
            [spawn_seed(seed, "batched-replication", index)
             for index in range(BATCHED_POINT_REPLICATIONS)])
    if live_indices:
        per_replication = horizon / BATCHED_POINT_REPLICATIONS
        delay_groups = megabatch_figure_delays(
            config, live_workloads, horizon=per_replication,
            warmup=per_replication * warmup_fraction,
            seed_groups=live_groups, arbitration=arbitration)
        for index, workload, delays in zip(live_indices, live_workloads,
                                           delay_groups):
            intensity = grid[index]
            finite = [delay for delay in delays if not math.isnan(delay)]
            if not finite:
                points[index] = SweepPoint(intensity=intensity,
                                           normalized_delay=None)
                continue
            mean, halfwidth = confidence_interval(finite)
            points[index] = SweepPoint(
                intensity=intensity,
                normalized_delay=mean * workload.service_rate,
                ci_halfwidth=halfwidth * workload.service_rate)
    return [point for point in points if point is not None]


def simulated_point(config: Union[SystemConfig, str], mu_ratio: float,
                    intensity: float, horizon: float = 30_000.0,
                    warmup_fraction: float = 0.1, seed: int = 1,
                    arbitration: str = "priority",
                    saturation_guard: float = 0.98,
                    engine: str = "scalar") -> SweepPoint:
    """One event-simulation delay point (the work unit of parallel sweeps).

    This is deliberately a module-level function of plain picklable
    arguments: the :mod:`repro.runner` process pool ships exactly this
    computation to workers, and a parallel sweep must produce the same
    point, bit for bit, as the serial loop in :func:`simulated_series`.

    ``engine="batched"`` (and ``"megabatch"`` / ``"auto"``, which are the
    same thing at single-point granularity) computes the point with the
    lockstep replication engine of :mod:`repro.sim.batched` where the
    model is in its scope — any fabric in its per-fabric capability table
    under priority arbitration with finite resources (see
    :func:`repro.sim.batched.batched_unsupported_reason`) — splitting the
    horizon over :data:`BATCHED_POINT_REPLICATIONS` common-budget
    replications; models outside that scope (random/fifo arbiters,
    infinite resource pools, dynamic faults, discrete holding times) fall
    back to the scalar engine.  Engine choice is cache-digest material —
    see :mod:`repro.runner.workunit`.
    """
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown simulation engine {engine!r}; expected one of {ENGINES}")
    limit = saturation_guard * saturation_intensity(config, mu_ratio)
    if intensity >= limit:
        return SweepPoint(intensity=intensity, normalized_delay=None)
    workload = workload_at(intensity, mu_ratio, processors=config.processors)
    if engine in ("batched", "megabatch", "auto"):
        # A single point's mega-batch IS the batched path: one seed group.
        from repro.sim.batched import supports_batched

        if supports_batched(config, workload, arbitration):
            return _batched_point(config, workload, intensity, horizon,
                                  warmup_fraction, seed, arbitration)
    result = simulate(config, workload, horizon=horizon,
                      warmup=horizon * warmup_fraction, seed=seed,
                      arbitration=arbitration)
    return SweepPoint(
        intensity=intensity,
        normalized_delay=result.normalized_delay,
        ci_halfwidth=result.delay_ci_halfwidth * workload.service_rate)


def series_for(config: Union[SystemConfig, str], mu_ratio: float,
               intensities: Sequence[float], label: Optional[str] = None,
               **simulation_options) -> Series:
    """Dispatch: exact chain for buses, simulation for switched fabrics."""
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    if config.network_type == "SBUS":
        return analytic_series(config, mu_ratio, intensities, label=label)
    return simulated_series(config, mu_ratio, intensities, label=label,
                            **simulation_options)


def crossover_intensity(first: Series, second: Series) -> Optional[float]:
    """Approximate intensity where two curves cross (None if they do not).

    Scans shared finite x-points for a sign change of the delay difference
    and linearly interpolates within the bracketing interval.
    """
    shared = []
    second_by_x = {p.intensity: p for p in second.points}
    for point in first.points:
        other = second_by_x.get(point.intensity)
        if (other is None or point.normalized_delay is None
                or other.normalized_delay is None):
            continue
        shared.append((point.intensity,
                       point.normalized_delay - other.normalized_delay))
    for (x0, d0), (x1, d1) in zip(shared, shared[1:]):
        if d0 == 0:
            return x0
        if d0 * d1 < 0:
            return x0 + (x1 - x0) * abs(d0) / (abs(d0) + abs(d1))
    return None
