"""Analytic delay models for RSIN configurations (Sections III and IV).

* SBUS systems decompose into independent buses, each solved exactly by the
  Markov chain of Section III (with the M/M/1 special case for infinitely
  many private resources).
* Crossbar systems admit the paper's two approximations:

  - **light load** — other processors are invisible; a processor sees a
    private bus reaching all ``m r / p`` (per-processor share: in fact all
    ``m r``) resources, capped by what one processor can keep busy;
  - **heavy load** — the buses partition among the processors:
    ``p / m`` processors per bus when p > m, or ``m / p`` buses (hence
    ``m r / p`` resources) per processor when m > p.

  The paper reports the light-load form accurate for ``mu_s d <= 1`` and
  the heavy-load form for large ``mu_s d``, with simulation in between.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from repro.config import SystemConfig
from repro.errors import AnalysisError, ConfigurationError, UnstableSystemError
from repro.markov.solvers import SbusSolution, solve_sbus
from repro.queueing.mm1 import mm1_metrics
from repro.workload.arrivals import Workload


@dataclass(frozen=True)
class AnalyticDelay:
    """An analytic queueing-delay estimate for a configuration."""

    config: SystemConfig
    model: str
    mean_delay: float

    @property
    def normalized(self) -> float:
        """``mu_s * d`` given at construction time is folded in by callers."""
        raise AttributeError("use normalized_delay(workload.service_rate)")

    def normalized_delay(self, service_rate: float) -> float:
        """Delay in mean-service-time units."""
        return self.mean_delay * service_rate


def sbus_delay(config: SystemConfig, workload: Workload,
               method: str = "matrix-geometric") -> AnalyticDelay:
    """Exact mean queueing delay of any SBUS configuration.

    Partitions are independent and identically loaded, so the system delay
    equals the per-partition delay.  Infinite private resources reduce to
    an M/M/1 queue on the bus.
    """
    if config.network_type != "SBUS":
        raise ConfigurationError(f"{config} is not a bus system")
    processors_on_bus = config.processors_per_network
    aggregate_arrivals = processors_on_bus * workload.arrival_rate
    if config.resources_per_port == math.inf:
        metrics = mm1_metrics(aggregate_arrivals, workload.transmission_rate)
        return AnalyticDelay(config=config, model="mm1-infinite-resources",
                             mean_delay=metrics.mean_waiting_time)
    solution = solve_sbus(
        arrival_rate=aggregate_arrivals,
        transmission_rate=workload.transmission_rate,
        service_rate=workload.service_rate,
        resources=int(config.resources_per_port),
        method=method,
    )
    return AnalyticDelay(config=config, model=f"sbus-chain/{method}",
                         mean_delay=solution.mean_delay)


def crossbar_light_load_delay(config: SystemConfig, workload: Workload,
                              max_resources: int = 64) -> AnalyticDelay:
    """Light-load crossbar approximation: one processor, private bus view.

    The processor sees its own row of the crossbar as a private bus behind
    which the full resource pool sits.  The pool is capped (a single
    processor cannot keep more than a few dozen resources busy; larger
    values do not change the delay but inflate the chain).
    """
    _require_crossbar_like(config)
    pool = int(min(config.outputs_per_network * config.resources_per_port,
                   max_resources))
    solution = solve_sbus(
        arrival_rate=workload.arrival_rate,
        transmission_rate=workload.transmission_rate,
        service_rate=workload.service_rate,
        resources=pool,
    )
    return AnalyticDelay(config=config, model="crossbar-light-load",
                         mean_delay=solution.mean_delay)


def crossbar_heavy_load_delay(config: SystemConfig, workload: Workload) -> AnalyticDelay:
    """Heavy-load crossbar approximation: the buses partition (Section IV)."""
    _require_crossbar_like(config)
    processors = config.processors_per_network
    buses = config.outputs_per_network
    resources = int(config.resources_per_port)
    if processors >= buses:
        if processors % buses != 0:
            raise AnalysisError(
                "heavy-load partitioning needs p/m integral "
                f"(p={processors}, m={buses})")
        share = processors // buses
        solution = solve_sbus(
            arrival_rate=share * workload.arrival_rate,
            transmission_rate=workload.transmission_rate,
            service_rate=workload.service_rate,
            resources=resources,
        )
    else:
        if buses % processors != 0:
            raise AnalysisError(
                "heavy-load partitioning needs m/p integral "
                f"(p={processors}, m={buses})")
        solution = solve_sbus(
            arrival_rate=workload.arrival_rate,
            transmission_rate=workload.transmission_rate,
            service_rate=workload.service_rate,
            resources=resources * (buses // processors),
        )
    return AnalyticDelay(config=config, model="crossbar-heavy-load",
                         mean_delay=solution.mean_delay)


def crossbar_envelope_delay(config: SystemConfig, workload: Workload) -> AnalyticDelay:
    """Upper envelope of the two crossbar approximations.

    The light-load form under-counts contention and the heavy-load form
    over-partitions at light load; their pointwise maximum tracks the
    simulated delay within the accuracy the paper reports for each regime.
    If one side is unstable the other is returned.
    """
    light: Optional[float] = None
    heavy: Optional[float] = None
    try:
        light = crossbar_light_load_delay(config, workload).mean_delay
    except UnstableSystemError:
        pass
    try:
        heavy = crossbar_heavy_load_delay(config, workload).mean_delay
    except UnstableSystemError:
        pass
    if light is None and heavy is None:
        raise UnstableSystemError(math.inf, f"{config} saturated in both regimes")
    value = max(v for v in (light, heavy) if v is not None)
    return AnalyticDelay(config=config, model="crossbar-envelope", mean_delay=value)


def saturation_intensity(config: SystemConfig, ratio: float,
                         reference_resources: int = 32) -> float:
    """Traffic intensity (paper's x-axis) at which ``config`` saturates.

    ``ratio`` is ``mu_s / mu_n``.  The x-axis is anchored to the
    16-processor / 32-resource hypothetical server regardless of the
    configuration's own pool size, exactly as in Figs. 4-13.
    """
    if ratio <= 0:
        raise ConfigurationError(f"mu ratio must be positive, got {ratio}")
    transmission_rate = 1.0
    service_rate = ratio
    processors_on_network = config.processors_per_network
    if config.network_type == "SBUS":
        bus_capacity = transmission_rate
    else:
        # One bus per output port; the network itself is at least as fast.
        bus_capacity = config.outputs_per_network * transmission_rate
    if config.resources_per_port == math.inf:
        resource_capacity = math.inf
    else:
        resource_capacity = (config.outputs_per_network
                             * config.resources_per_port * service_rate)
    per_network_capacity = min(bus_capacity, resource_capacity)
    max_aggregate = config.num_networks * per_network_capacity
    per_processor = max_aggregate / config.processors
    # Map the per-processor rate onto the paper's x-axis.
    return config.processors * per_processor * (
        1.0 / (config.processors * transmission_rate)
        + 1.0 / (reference_resources * service_rate)
    )


def _require_crossbar_like(config: SystemConfig) -> None:
    if config.network_type not in ("XBAR", "OMEGA", "CUBE", "BASELINE"):
        raise ConfigurationError(
            f"approximation applies to port-per-processor networks, not {config}")
    if config.resources_per_port == math.inf:
        raise ConfigurationError("crossbar approximations need finite resources")
