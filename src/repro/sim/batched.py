"""Lockstep batched simulation: replications — and whole figures — as one
structure-of-arrays sweep.

The scalar path to a replication study is ``R`` independent
:class:`~repro.core.system.RsinSystem` runs: each simulated event costs a
heap pop, a callback dispatch, and a handful of Python object mutations.
This module advances many independent runs *in lockstep* instead — every
piece of mutable state lives in a structure-of-arrays layout over a
leading row axis, and each iteration of the outer loop advances **every
live row by exactly one event** with vectorized NumPy updates:

* the event calendar is one ``(K, 2 P + ports * r)`` ``float64`` array —
  next arrival per processor, transmission end per processor, service end
  per resource slot, side by side — so the calendar advance is a single
  axis-min plus one argmin over the live rows, and the flat column index
  *is* the event type;
* holding times come from :class:`VariateTable`\\ s: per-``(row, stream)``
  blocks of pre-transformed variates in one 2-D buffer, gathered for a
  whole event batch with one fancy index (see the class docstring for how
  block refills preserve bit-identity);
* FIFO queues are ring buffers of task creation times in one
  ``(K, P, capacity)`` array;
* dispatch is one call per step to a per-fabric batched kernel (see
  ``FABRIC_CAPABILITIES``): the priority matcher of
  :mod:`repro.networks.batched_crossbar` — the closed form of the
  crossbar cells' wavefront, or the masked wavefront itself when the
  fabric carries dead crosspoints; its single-column degenerate form in
  :mod:`repro.networks.batched_sbus` for the shared bus; and the grant
  waves of :mod:`repro.networks.batched_omega` for multistage fabrics,
  which replay the scalar broadcast's ascending retry order.  A row's
  one event re-offers exactly one partition (an arrival its processor's,
  a completion the freed port's), so every ``(row, partition)`` status
  broadcast of the step is one row of that single call;
* mean queueing delay accumulates by Welford's recurrence exactly as
  :class:`repro.sim.stats.TallyStat` does, vectorized when every granted
  row appears once and replayed sequentially when one row receives
  several grants in a single status broadcast.

**The 2-D mega-batch.**  :class:`MegaBatchEngine` generalizes the row
axis from "R replications of one sweep point" to ``K = sum of
(replications per point)`` rows spanning a whole figure curve: the
``point_of_row`` index map sends each row back to its sweep point, and
per-row arrival/transmission/service rates replace the single-point
scalars in the variate tables.  Because rows never interact, the merged
run is the per-point runs interleaved — same draws, same float
operations, same order within each row — while the outer Python loop runs
``max`` instead of ``sum`` of the per-point event counts, which is where
the throughput multiplier over :class:`BatchedReplicationEngine` (itself
a one-point mega-batch) comes from.

**The lockstep invariant.**  Row ``k`` of a batched run is
*bit-identical* to ``simulate(config, workload_of_row_k, horizon, warmup,
seed=row_seed_k)``: the same named streams (``arrivals-{p}``,
``transmission-{g}``, ``service-{g}``, seeds derived via
:func:`repro.sim.rng.spawn_seed` exactly as ``RandomStreams`` derives
them) are consumed in the same order with the same Mersenne Twister
variates, and every state update applies the same float operations in the
same per-row order.  The scalar engine's draw order is reproducible
because its streams are independent per concern: within
``transmission-{g}`` draws happen in dispatch order (ascending processor
index inside each status broadcast, chronological across events), within
``service-{g}`` in transmission-completion order, and within
``arrivals-{p}`` trivially — all orders the lockstep loop preserves.  A
regression test checks equality of per-row delay estimates over a
randomized ``(p, m, r, rho)`` grid.

Scope (see :func:`batched_unsupported_reason` for the precise gate):
every fabric family in the ``FABRIC_CAPABILITIES`` table — ``XBAR``,
``SBUS``, and the multistage wirings (``OMEGA``, ``CUBE``,
``BASELINE``) — under ``"priority"`` arbitration, with a finite resource
count per port and continuous interarrival and transmission
distributions.  The service distribution may additionally be
``"deterministic"``: service ends inherit continuous transmission-end
timestamps plus a constant, so their ties stay measure-zero, whereas a
deterministic transmission or interarrival time lattices event
timestamps and tie order is a heap-insertion property the lockstep
argmin cannot reproduce.  Fault configurations are supported exactly
when they reduce to a *static* degraded fabric the dispatch kernel can
mask: every stochastic model silent (``mttf = inf``), an infinite task
timeout, and — on ``XBAR`` only — an explicit schedule of cell-down
events at time 0, when the scalar run equals a healthy run with those
crosspoints masked out of dispatch (no circuit exists at time 0 to
sever, so no retries, no backoff draws, no queue expiry), which is
precisely what masking the dead cells into the matcher's gate planes
computes.  Bus and multistage kernels carry no fault planes, so any
fault schedule on them falls back to the scalar engine.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.config import SystemConfig
from repro.errors import ConfigurationError, SchedulingError
from repro.networks.batched_crossbar import (
    masked_match_pairs_batch,
    match_pairs_batch,
)
from repro.networks.batched_omega import BatchedMultistageRouter
from repro.networks.batched_sbus import match_bus_batch
from repro.networks.topology import make_topology
from repro.sim.rng import BATCH_BLOCK, spawn_seed, uniform_block_source

if TYPE_CHECKING:  # pragma: no cover - circular at runtime (arrivals uses rng)
    from repro.workload.arrivals import Workload

#: Initial per-processor queue ring-buffer capacity (power of two; doubles).
_INITIAL_QUEUE_CAPACITY = 32

#: Distributions whose holding times are continuous (ties measure-zero).
_CONTINUOUS_DISTRIBUTIONS = ("exponential", "hyperexponential")

#: Distributions a :class:`VariateTable` can serve.  ``deterministic``
#: rows refill with a constant block and consume no uniforms, matching
#: ``sample_time``'s no-draw contract for that distribution.
_TABLE_DISTRIBUTIONS = _CONTINUOUS_DISTRIBUTIONS + ("deterministic",)

#: Expected draws per stream above which a table's block refills use the
#: numpy generator (whose one-time construction costs ~15 blocks of scalar
#: generation — see :func:`repro.sim.rng.uniform_block_source`).
_VECTORIZED_REFILL_CROSSOVER = 4096

#: Environment variable overriding the refill crossover (an integer; 0
#: forces every stream onto the vectorized numpy backend).  Both backends
#: emit bit-identical sequences, so the knob tunes throughput only.
_CROSSOVER_ENV = "REPRO_VARIATE_BLOCK"

_INF = math.inf

_FloatArray = NDArray[np.float64]
_IntArray = NDArray[np.int64]


def variate_refill_crossover(override: Optional[int] = None) -> int:
    """The effective numpy/scalar refill crossover (expected draws).

    Resolution order: explicit ``override`` (an engine's ``crossover``
    constructor argument), then the ``REPRO_VARIATE_BLOCK`` environment
    variable, then the built-in default.  The crossover selects between
    two bit-identical uniform backends, so it can never change results —
    only where the generator-construction overhead is paid.
    """
    if override is None:
        raw = os.environ.get(_CROSSOVER_ENV, "").strip()
        if not raw:
            return _VECTORIZED_REFILL_CROSSOVER
        try:
            value = int(raw)
        except ValueError as error:
            raise ConfigurationError(
                f"{_CROSSOVER_ENV} must be an integer, got {raw!r}"
            ) from error
    else:
        value = int(override)
    if value < 0:
        raise ConfigurationError(
            f"variate refill crossover must be non-negative, got {value}")
    return value


class VariateTable:
    """``S`` parallel holding-time streams in structure-of-arrays form.

    Row ``s`` of the table is one named stream of a scalar run — its seed
    comes from :func:`~repro.sim.rng.spawn_seed`, its uniform blocks from
    :func:`~repro.sim.rng.uniform_block_source` (the numpy generator when
    ``vectorized``, which the engine requests for streams expected to
    consume thousands of draws) — but all ``S`` cursors and buffered
    variates live in flat arrays, so the engine draws one variate from
    each of a whole batch of streams with a single fancy index
    (:meth:`draw`).  Refills transform a block of uniforms with per-value
    :func:`math.log` (``numpy.log`` differs from libm by one ulp on a few
    per mille of arguments), keeping every variate bit-equal to
    ``sample_time`` on the scalar stream:

    * ``exponential`` — one uniform per variate, ``-log(1 - u) / rate``;
    * ``hyperexponential`` — exactly two uniforms per variate (branch,
      then magnitude), so a block of ``block`` uniforms yields ``block/2``
      variates with the same pairing the scalar draw order produces;
    * ``deterministic`` — constant ``1 / rate`` blocks, no uniforms at
      all (``sample_time`` does not touch the stream either).

    ``rate`` and ``vectorized`` accept either one value for every row or
    a per-row sequence — the mega-batch engine threads a different sweep
    point's rate through each row of one table.
    """

    __slots__ = ("rate", "distribution", "_block", "_draws_per_block",
                 "_sources", "_buffers", "_cursors", "_rates",
                 "_probability", "_fast_rates", "_slow_rates")

    def __init__(self, seeds: Sequence[int],
                 rate: Union[float, Sequence[float]],
                 distribution: str,
                 block: int = BATCH_BLOCK,
                 vectorized: Union[bool, Sequence[bool]] = True):
        count = len(seeds)
        if isinstance(rate, (int, float)):
            rates = [float(rate)] * count
        else:
            rates = [float(value) for value in rate]
        if len(rates) != count:
            raise ConfigurationError(
                f"need one rate per stream: {count} seeds, "
                f"{len(rates)} rates")
        for value in rates:
            if value <= 0:
                raise ConfigurationError(
                    f"rate must be positive, got {value}")
        if distribution not in _TABLE_DISTRIBUTIONS:
            raise ConfigurationError(
                f"variate table supports {_TABLE_DISTRIBUTIONS}, "
                f"got {distribution!r}")
        if block < 2 or block % 2:
            raise ConfigurationError(
                f"block must be a positive even count, got {block}")
        if isinstance(vectorized, bool):
            flags = [vectorized] * count
        else:
            flags = [bool(flag) for flag in vectorized]
        if len(flags) != count:
            raise ConfigurationError(
                f"need one vectorized flag per stream: {count} seeds, "
                f"{len(flags)} flags")
        self.rate = rate
        self.distribution = distribution
        self._block = block
        self._rates = rates
        self._draws_per_block = (block // 2
                                 if distribution == "hyperexponential"
                                 else block)
        # Deterministic rows never consume a uniform, so their sources
        # (and the generator construction behind them) are skipped.
        self._sources = (None if distribution == "deterministic" else
                         [uniform_block_source(int(seed), flag)
                          for seed, flag in zip(seeds, flags)])
        self._buffers: _FloatArray = np.empty(
            (count, self._draws_per_block), dtype=np.float64)
        # Cursors start exhausted: each row refills on first use.
        self._cursors: _IntArray = np.full(
            count, self._draws_per_block, dtype=np.int64)
        # The balanced-means two-phase constants of sample_time; rates are
        # precomputed with its exact expressions (2.0 * p * rate order).
        from repro.workload.arrivals import _HYPER_CV2

        probability = 0.5 * (1.0 + math.sqrt(
            (_HYPER_CV2 - 1.0) / (_HYPER_CV2 + 1.0)))
        self._probability = probability
        self._fast_rates = [2.0 * probability * value for value in rates]
        self._slow_rates = [2.0 * (1.0 - probability) * value
                            for value in rates]

    def _refill(self, row: int) -> None:
        if self._sources is None:
            self._buffers[row, :] = 1.0 / self._rates[row]
            self._cursors[row] = 0
            return
        uniforms = self._sources[row](self._block)
        log = math.log
        if self.distribution == "exponential":
            rate = self._rates[row]
            values = [-log(1.0 - u) / rate for u in uniforms]
        else:
            probability = self._probability
            fast = self._fast_rates[row]
            slow = self._slow_rates[row]
            pairs = iter(uniforms)
            values = [-log(1.0 - v) / (fast if u < probability else slow)
                      for u, v in zip(pairs, pairs)]
        self._buffers[row, :] = values
        self._cursors[row] = 0

    def draw(self, rows: _IntArray) -> _FloatArray:
        """One variate from each stream in ``rows`` (must be distinct)."""
        cursors = self._cursors
        position = cursors[rows]
        if int(position.max()) >= self._draws_per_block:
            for row in rows[position >= self._draws_per_block].tolist():
                self._refill(row)
            position = cursors[rows]
        values: _FloatArray = self._buffers[rows, position]
        cursors[rows] = position + 1
        return values

    def draw_one(self, row: int) -> float:
        """Scalar :meth:`draw`, for grant bursts that repeat a stream."""
        cursor = int(self._cursors[row])
        if cursor >= self._draws_per_block:
            self._refill(row)
            cursor = 0
        self._cursors[row] = cursor + 1
        return float(self._buffers[row, cursor])


@dataclass(frozen=True)
class BatchedReplicationResult:
    """Per-replication delay estimates of one batched run.

    ``mean_delays[k]`` equals the ``mean_queueing_delay`` of the scalar
    engine run with ``seeds[k]`` (NaN when no task was dispatched inside
    the measurement window); ``delay_counts`` and ``completed`` carry the
    matching sample and service-completion counts.
    """

    seeds: Tuple[int, ...]
    mean_delays: Tuple[float, ...]
    delay_counts: Tuple[int, ...]
    completed: Tuple[int, ...]
    simulated_time: float
    measurement_start: float


@dataclass(frozen=True)
class MegaBatchResult:
    """Per-(point, replication) delay estimates of one mega-batch run.

    Outer index is the sweep point, inner index the replication within
    that point's seed group; ``mean_delays[i][k]`` equals the scalar
    engine's ``mean_queueing_delay`` for point ``i`` with seed
    ``seed_groups[i][k]``.
    """

    seed_groups: Tuple[Tuple[int, ...], ...]
    mean_delays: Tuple[Tuple[float, ...], ...]
    delay_counts: Tuple[Tuple[int, ...], ...]
    completed: Tuple[Tuple[int, ...], ...]
    simulated_time: float
    measurement_start: float


@dataclass(frozen=True)
class FabricCapability:
    """What the lockstep engine can do for one fabric family.

    ``dispatch`` names the batched dispatch kernel — ``"crossbar"`` (the
    rank-paired priority matcher, or the masked wavefront on a degraded
    switch), ``"bus"`` (the single-column grant of
    :func:`~repro.networks.batched_sbus.match_bus_batch`), or
    ``"multistage"`` (the plane router of
    :class:`~repro.networks.batched_omega.BatchedMultistageRouter`).
    ``maskable_faults`` says whether a static time-0 component-down
    schedule can be masked into the kernel's gate planes; fabrics without
    it fall back to the scalar engine for any fault schedule.
    """

    dispatch: str
    maskable_faults: bool


#: The per-fabric batchability table: which dispatch kernel serves each
#: network type, and whether static fault schedules mask into it.  A
#: network type missing from this table has no batched kernel at all.
FABRIC_CAPABILITIES = {
    "XBAR": FabricCapability(dispatch="crossbar", maskable_faults=True),
    "SBUS": FabricCapability(dispatch="bus", maskable_faults=False),
    "OMEGA": FabricCapability(dispatch="multistage", maskable_faults=False),
    "CUBE": FabricCapability(dispatch="multistage", maskable_faults=False),
    "BASELINE": FabricCapability(dispatch="multistage",
                                 maskable_faults=False),
}


def _fault_reason(config: SystemConfig,
                  capability: FabricCapability) -> Optional[str]:
    """Why ``config.faults`` is not batchable, or None when it is.

    The batched engines support exactly the *static degraded fabric*: a
    fault configuration whose only effect is a fixed set of dead crossbar
    cells from time 0.  Then no circuit exists to sever when the events
    fire, no retry (and no backoff draw) ever happens, queue expiry is
    off, and the stochastic processes are provably silent — so the scalar
    run equals a healthy run with those crosspoints masked out of
    dispatch, which the masked wavefront matcher reproduces.  Only the
    crossbar kernel carries such gate planes
    (``capability.maskable_faults``); any fault schedule on another
    fabric blocks batching.
    """
    faults = config.faults
    if faults is None:
        return None
    for model in faults.models:
        if model.mttf != math.inf:
            return ("stochastic fault processes (only a static time-0 "
                    "cell-down schedule masks into the batched gate planes)")
    if faults.retry.task_timeout != math.inf:
        return ("a finite task timeout (queue expiry is a scalar-engine "
                "feature)")
    schedule = faults.schedule
    if schedule is None or len(schedule) == 0:
        return None
    if not capability.maskable_faults:
        return (f"a fault schedule on a {config.network_type} fabric "
                "(only crossbar cell-down schedules mask into the batched "
                "gate planes)")
    seen = set()
    for event in schedule.events:
        if event.kind != "cell":
            return (f"a {event.kind!r} fault schedule (only crossbar "
                    "cell faults mask into the batched kernel)")
        if event.time != 0.0 or event.action != "down":
            return ("a dynamic fault schedule (only cells dead from time "
                    "0 keep the run equal to a statically masked healthy "
                    "run)")
        try:
            partition, pair = event.component
            key = (int(partition), (int(pair[0]), int(pair[1])))
        except (TypeError, ValueError, IndexError):
            return (f"a malformed cell component {event.component!r} "
                    "(expected (partition, (input, output)))")
        if not (0 <= key[0] < config.num_networks
                and 0 <= key[1][0] < config.processors_per_network
                and 0 <= key[1][1] < config.outputs_per_network):
            return f"an out-of-range cell component {event.component!r}"
        if key in seen:
            return f"duplicate cell-down events for {event.component!r}"
        seen.add(key)
    return None


def batched_unsupported_reason(config: Union[SystemConfig, str],
                               workload: Workload,
                               arbitration: str = "priority"
                               ) -> Optional[str]:
    """Why this model cannot run on the batched path, or None when it can.

    The returned string names the *first* blocking property — the one the
    CLI's fallback note names when ``repro run`` (with any engine but
    ``scalar``) sends a curve to the scalar engine.  The gate, in order:

    * a fabric family with a dispatch kernel in ``FABRIC_CAPABILITIES``
      (all five grammar network types have one);
    * ``"priority"`` arbitration only (random arbitration draws
      per-dispatch randomness the dispatch kernels do not model);
    * a finite resource count per port (the calendar needs a fixed
      service-slot axis);
    * faults, if any, must reduce to a static time-0 cell-down schedule
      on a fabric whose kernel can mask it — ``XBAR`` only (see
      :func:`_fault_reason`);
    * continuous interarrival and transmission distributions (discrete
      holding times tie event timestamps, and tie order is a
      heap-insertion property the lockstep argmin cannot reproduce); the
      *service* distribution may also be ``"deterministic"``, because
      service ends inherit continuous transmission-end timestamps plus a
      constant and stay tie-free almost surely.
    """
    if isinstance(config, str):
        config = SystemConfig.parse(config)
    capability = FABRIC_CAPABILITIES.get(config.network_type)
    if capability is None:
        return (f"{config.network_type} fabrics (no batched dispatch "
                "kernel in the capability table)")
    if arbitration != "priority":
        return (f"{arbitration!r} arbitration (per-dispatch randomness "
                "the lockstep dispatch kernels do not model)")
    if config.resources_per_port == math.inf:
        return ("an infinite resource pool (the calendar needs a fixed "
                "service-slot axis)")
    fault_reason = _fault_reason(config, capability)
    if fault_reason is not None:
        return fault_reason
    for name, distribution in (
            ("interarrival", workload.interarrival_distribution),
            ("transmission", workload.transmission_distribution)):
        if distribution not in _CONTINUOUS_DISTRIBUTIONS:
            return (f"a {distribution!r} {name} distribution (equal "
                    "timestamps would tie, and tie order is a "
                    "heap-insertion property the lockstep calendar "
                    "cannot reproduce)")
    if workload.service_distribution not in _TABLE_DISTRIBUTIONS:
        return (f"a {workload.service_distribution!r} service "
                "distribution (no variate-table transform for it)")
    return None


def _require_batchable(config: SystemConfig, workload: Workload,
                       arbitration: str) -> None:
    """Reject models whose scalar event order lockstep cannot reproduce."""
    reason = batched_unsupported_reason(config, workload, arbitration)
    if reason is not None:
        raise ConfigurationError(
            f"batched engine does not support {reason}; "
            "use the scalar engine")


def _static_cell_masks(config: SystemConfig) -> Optional[np.ndarray]:
    """Per-partition live-cell masks of a statically degraded fabric.

    Returns a ``(partitions, per_partition, ports)`` ``uint8`` array with
    0 at each dead crosspoint, or None for a healthy fabric.  Callers
    must have validated the configuration via the batchability gate; this
    only translates the schedule into mask form.
    """
    faults = config.faults
    if (faults is None or faults.schedule is None
            or len(faults.schedule) == 0):
        return None
    masks = np.ones((config.num_networks, config.processors_per_network,
                     config.outputs_per_network), dtype=np.uint8)
    for event in faults.schedule.events:
        partition, pair = event.component
        masks[int(partition), int(pair[0]), int(pair[1])] = 0
    return masks


class MegaBatchEngine:
    """``K = points x replications`` lockstep rows spanning a figure curve.

    Each *point* is one ``(workload, seed group)`` pair sharing the
    configuration and holding-time distributions; row ``k`` of the merged
    batch simulates replication ``seed_groups[point_of_row[k]]...`` of its
    point, bit-identically to the scalar engine with that seed.

    >>> from repro import SystemConfig, Workload
    >>> from repro.sim.batched import MegaBatchEngine
    >>> engine = MegaBatchEngine(
    ...     SystemConfig.parse("16/1x16x8 XBAR/2"),
    ...     [Workload(0.05, 1.0, 0.1), Workload(0.08, 1.0, 0.1)],
    ...     seed_groups=[range(8), range(8)])
    >>> result = engine.run(horizon=2000.0, warmup=200.0)

    May be run once per instance, like the scalar system.
    """

    def __init__(self, config: Union[SystemConfig, str],
                 workloads: Sequence[Workload],
                 seed_groups: Sequence[Sequence[int]],
                 arbitration: str = "priority",
                 crossover: Optional[int] = None):
        if isinstance(config, str):
            config = SystemConfig.parse(config)
        workload_list = list(workloads)
        if not workload_list:
            raise ConfigurationError(
                "mega-batch engine needs at least one point")
        if len(seed_groups) != len(workload_list):
            raise ConfigurationError(
                f"need one seed group per point: {len(workload_list)} "
                f"workloads, {len(seed_groups)} seed groups")
        group_list = [[int(seed) for seed in group] for group in seed_groups]
        if any(not group for group in group_list):
            raise ConfigurationError("batched engine needs at least one seed")
        for workload in workload_list:
            _require_batchable(config, workload, arbitration)
        first = workload_list[0]
        for workload in workload_list[1:]:
            if (workload.interarrival_distribution,
                    workload.transmission_distribution,
                    workload.service_distribution) != (
                    first.interarrival_distribution,
                    first.transmission_distribution,
                    first.service_distribution):
                raise ConfigurationError(
                    "mega-batch points must share their holding-time "
                    "distributions (rates may differ per point)")
        self.config = config
        self.workloads: Tuple[Workload, ...] = tuple(workload_list)
        self.seed_groups: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(group) for group in group_list)
        self._started = False
        self._crossover = variate_refill_crossover(crossover)
        self._alive_masks = _static_cell_masks(config)

        self._row_seeds: List[int] = [seed for group in group_list
                                      for seed in group]
        self._row_points: List[int] = [index
                                       for index, group in
                                       enumerate(group_list)
                                       for _ in group]
        #: Row -> sweep-point index map of the flattened 2-D batch.
        self.point_of_row: _IntArray = np.asarray(self._row_points,
                                                  dtype=np.int64)

        rows = len(self._row_seeds)
        processors = config.processors
        partitions = config.num_networks
        ports = config.outputs_per_network
        total_ports = partitions * ports
        resources = int(config.resources_per_port)
        self._rows = rows
        self._processors = processors
        self._partitions = partitions
        self._per_partition = config.processors_per_network
        self._ports = ports
        self._resources = resources

        capability = FABRIC_CAPABILITIES[config.network_type]
        self._dispatch_kind = capability.dispatch
        self._router: Optional[BatchedMultistageRouter] = None
        if capability.dispatch == "multistage":
            self._router = BatchedMultistageRouter(
                make_topology(config.network_type,
                              config.inputs_per_network),
                rows=rows, partitions=partitions)

        # The calendar: [0, P) next arrivals, [P, 2P) transmission ends,
        # [2P, 2P + total_ports * r) service ends, one row per
        # (point, replication).
        width = 2 * processors + total_ports * resources
        self._calendar: _FloatArray = np.full(
            (rows, width), _INF, dtype=np.float64)
        self._next_arrival = self._calendar[:, :processors]
        self._transmission_end = self._calendar[:, processors:2 * processors]
        self._service_end = self._calendar[:, 2 * processors:].reshape(
            rows, total_ports, resources)

        self._connected_port: _IntArray = np.full(
            (rows, processors), -1, dtype=np.int64)
        self._queue_capacity = _INITIAL_QUEUE_CAPACITY
        self._queue_created: _FloatArray = np.zeros(
            (rows, processors, self._queue_capacity), dtype=np.float64)
        self._queue_start: _IntArray = np.zeros(
            (rows, processors), dtype=np.int64)
        self._queue_length: _IntArray = np.zeros(
            (rows, processors), dtype=np.int64)
        self._bus_busy: NDArray[np.uint8] = np.zeros(
            (rows, total_ports), dtype=np.uint8)
        self._busy_resources: _IntArray = np.zeros(
            (rows, total_ports), dtype=np.int64)
        # Welford accumulators, matching TallyStat.record exactly.
        self._delay_count: _IntArray = np.zeros(rows, dtype=np.int64)
        self._delay_mean: _FloatArray = np.zeros(rows, dtype=np.float64)
        self._completed: _IntArray = np.zeros(rows, dtype=np.int64)
        self._transmission_table: VariateTable

    def _build_tables(self, horizon: float
                      ) -> Tuple[VariateTable, VariateTable, VariateTable]:
        """Stream tables, one row per (batch row, scalar stream).

        Each table row carries its own rate (its point's workload) and
        picks its refill backend by expected consumption: the numpy
        generator's one-time construction only beats scalar block
        generation for streams that will be drawn from thousands of times
        (per-processor arrival streams usually will not; per-partition
        transmission and service streams on long horizons will).
        """
        workloads = self.workloads
        processors = self._processors
        partitions = self._partitions
        per_partition = self._per_partition
        crossover = self._crossover
        first = workloads[0]

        arrival_seeds: List[int] = []
        arrival_rates: List[float] = []
        arrival_flags: List[bool] = []
        stream_seeds: List[int] = []
        transmission_rates: List[float] = []
        service_rates: List[float] = []
        stream_flags: List[bool] = []
        for seed, point in zip(self._row_seeds, self._row_points):
            workload = workloads[point]
            arrivals_expected = workload.arrival_rate * horizon
            # In a stable system every arrival is eventually dispatched
            # and served, so per-partition streams see
            # ~arrivals-per-partition.
            dispatches_expected = (workload.arrival_rate * per_partition
                                   * horizon)
            for p in range(processors):
                arrival_seeds.append(spawn_seed(seed, f"arrivals-{p}"))
                arrival_rates.append(workload.arrival_rate)
                arrival_flags.append(arrivals_expected >= crossover)
            for g in range(partitions):
                stream_seeds.append(spawn_seed(seed, f"transmission-{g}"))
                transmission_rates.append(workload.transmission_rate)
                service_rates.append(workload.service_rate)
                stream_flags.append(dispatches_expected >= crossover)
        arrival_table = VariateTable(
            arrival_seeds, arrival_rates, first.interarrival_distribution,
            vectorized=arrival_flags)
        transmission_table = VariateTable(
            stream_seeds, transmission_rates,
            first.transmission_distribution, vectorized=stream_flags)
        service_table = VariateTable(
            [spawn_seed(seed, f"service-{g}")
             for seed in self._row_seeds for g in range(partitions)],
            service_rates, first.service_distribution,
            vectorized=stream_flags)
        return arrival_table, transmission_table, service_table

    # -- queue ring buffers -----------------------------------------------
    def _grow_queues(self) -> None:
        """Double the ring capacity, linearizing wrapped contents."""
        capacity = self._queue_capacity
        order = (self._queue_start[:, :, None]
                 + np.arange(capacity, dtype=np.int64)) % capacity
        linear = np.take_along_axis(self._queue_created, order, axis=2)
        grown = np.zeros(
            (self._rows, self._processors, capacity * 2),
            dtype=np.float64)
        grown[:, :, :capacity] = linear
        self._queue_created = grown
        self._queue_capacity = capacity * 2
        self._queue_start.fill(0)

    # -- the lockstep loop -------------------------------------------------
    def run(self, horizon: float, warmup: float = 0.0) -> MegaBatchResult:
        """Advance every row to ``horizon``; discard ``warmup``."""
        self._advance(horizon, warmup)
        mean_delays: List[Tuple[float, ...]] = []
        delay_counts: List[Tuple[int, ...]] = []
        completed: List[Tuple[int, ...]] = []
        start = 0
        for group in self.seed_groups:
            end = start + len(group)
            mean_delays.append(tuple(
                float(self._delay_mean[k]) if self._delay_count[k]
                else math.nan
                for k in range(start, end)))
            delay_counts.append(tuple(
                int(count) for count in self._delay_count[start:end]))
            completed.append(tuple(
                int(count) for count in self._completed[start:end]))
            start = end
        return MegaBatchResult(
            seed_groups=self.seed_groups,
            mean_delays=tuple(mean_delays),
            delay_counts=tuple(delay_counts),
            completed=tuple(completed),
            simulated_time=float(horizon),
            measurement_start=float(warmup))

    def _advance(self, horizon: float, warmup: float) -> None:
        if self._started:
            raise ConfigurationError(
                f"{type(self).__name__}.run may only be called once")
        if warmup < 0 or horizon <= warmup:
            raise ConfigurationError(
                f"need 0 <= warmup < horizon, got warmup={warmup} "
                f"horizon={horizon}")
        self._started = True
        rows_total = self._rows
        processors = self._processors
        partitions = self._partitions
        per_partition = self._per_partition
        ports = self._ports
        resources = self._resources
        calendar = self._calendar
        router = self._router
        arrival_table, transmission_table, service_table = (
            self._build_tables(horizon))
        self._transmission_table = transmission_table

        # Initial arrival per processor (draw order across streams is
        # immaterial: streams are independent per name).
        first = arrival_table.draw(
            np.arange(rows_total * processors, dtype=np.int64))
        self._next_arrival[:, :] = first.reshape(rows_total, processors)

        # (row, partition, ·) views of the per-processor and per-port
        # state: one status broadcast is one (row, partition) pair.
        pair_shape = (rows_total, partitions, per_partition)
        port_shape = (rows_total, partitions, ports)
        queue_length = self._queue_length.reshape(pair_shape)
        transmission_end = self._transmission_end.reshape(pair_shape)
        bus_busy = self._bus_busy.reshape(port_shape)
        busy_resources = self._busy_resources.reshape(port_shape)
        times = np.empty(rows_total, dtype=np.float64)
        request = np.zeros(pair_shape, dtype=np.uint8)
        flat_request = request.reshape(rows_total, processors)
        while True:
            calendar.min(axis=1, out=times)
            live = times <= horizon
            reps = np.nonzero(live)[0]
            if reps.size == 0:
                break
            if reps.size == rows_total:
                now = times
                slots = calendar.argmin(axis=1)
            else:
                now = times[live]
                slots = calendar[reps].argmin(axis=1)
            request.fill(0)
            # The partition each live row re-offers after its event: the
            # one whose port a completion freed (an arrival only
            # redispatches its own processor).
            broadcast = np.empty(reps.shape[0], dtype=np.int64)

            is_arrival = slots < processors
            is_service = slots >= 2 * processors
            is_transmission = ~is_arrival & ~is_service

            # --- service completions -----------------------------------
            if is_service.any():
                sub = np.nonzero(is_service)[0]
                sv_reps = reps[sub]
                port_index = (slots[sub] - 2 * processors) // resources
                calendar[sv_reps, slots[sub]] = _INF
                self._busy_resources[sv_reps, port_index] -= 1
                self._completed[sv_reps[now[sub] > warmup]] += 1
                broadcast[sub] = port_index // ports

            # --- transmission completions ------------------------------
            if is_transmission.any():
                sub = np.nonzero(is_transmission)[0]
                tr_reps = reps[sub]
                rows = slots[sub] - processors
                partition = rows // per_partition
                port_index = (partition * ports
                              + self._connected_port[tr_reps, rows])
                calendar[tr_reps, slots[sub]] = _INF
                self._connected_port[tr_reps, rows] = -1
                self._bus_busy[tr_reps, port_index] = 0
                if router is not None:
                    # Tear down the multistage circuits (no draws happen
                    # here, so ordering against the service draw below is
                    # immaterial — only the broadcast must see freed links).
                    router.release_batch(tr_reps, partition,
                                         rows - partition * per_partition)
                self._busy_resources[tr_reps, port_index] += 1
                free_slot = (self._service_end[tr_reps, port_index]
                             == _INF).argmax(axis=1)
                durations = service_table.draw(tr_reps * partitions
                                               + partition)
                self._service_end[tr_reps, port_index, free_slot] = (
                    now[sub] + durations)
                broadcast[sub] = partition

            # --- arrivals ----------------------------------------------
            if is_arrival.any():
                sub = np.nonzero(is_arrival)[0]
                ar_reps = reps[sub]
                rows = slots[sub]
                lengths = self._queue_length[ar_reps, rows]
                if (lengths >= self._queue_capacity).any():
                    self._grow_queues()
                position = ((self._queue_start[ar_reps, rows] + lengths)
                            & (self._queue_capacity - 1))
                self._queue_created[ar_reps, rows, position] = now[sub]
                self._queue_length[ar_reps, rows] = lengths + 1
                durations = arrival_table.draw(ar_reps * processors + rows)
                calendar[ar_reps, rows] = now[sub] + durations
                # The arriving processor redispatches if idle (it re-checks
                # candidates; nothing else changed for its partition).
                idle = self._transmission_end[ar_reps, rows] == _INF
                flat_request[ar_reps[idle], rows[idle]] = 1
            if not is_arrival.all():
                offered = ~is_arrival
                b_reps = reps[offered]
                b_parts = broadcast[offered]
                request[b_reps, b_parts] = (
                    (queue_length[b_reps, b_parts] > 0)
                    & (transmission_end[b_reps, b_parts] == _INF))

            # --- status broadcasts: one dispatch for every pair ---------
            kk, gg = np.nonzero(request.any(axis=2))
            if kk.size == 0:
                continue
            if (kk[1:] == kk[:-1]).any():
                raise SchedulingError(
                    "row broadcast in two partitions in one step "
                    "(engine bug)")
            requests = request[kk, gg]
            acceptable = ((bus_busy[kk, gg] == 0)
                          & (busy_resources[kk, gg] < resources))
            if router is not None:
                # Grant waves replay the scalar broadcast's ascending
                # retry order (see route_broadcast); each wave's dispatch
                # bookkeeping applies before the next is routed.
                for positions, inputs, out_ports in router.route_broadcast(
                        kk, gg, requests, acceptable):
                    self._apply_grants(kk[positions], gg[positions], inputs,
                                       out_ports, times, warmup)
                continue
            pairs, grant_rows, grant_cols = self._match(gg, requests,
                                                        acceptable)
            if pairs.size:
                self._apply_grants(kk[pairs], gg[pairs], grant_rows,
                                   grant_cols, times, warmup)

    def _match(self, partitions: _IntArray, requests: np.ndarray,
               acceptable: np.ndarray
               ) -> Tuple[_IntArray, _IntArray, _IntArray]:
        """One batched dispatch of crossbar or bus broadcasts.

        Row ``i`` of ``requests``/``acceptable`` is a broadcast in
        partition ``partitions[i]``.  All three matchers return the same
        pair-major, processor-ascending ``(pairs, rows, columns)`` triple
        layout.
        """
        if self._dispatch_kind == "bus":
            return match_bus_batch(requests, acceptable)
        masks = self._alive_masks
        if masks is None:
            return match_pairs_batch(requests, acceptable)
        return masked_match_pairs_batch(requests, acceptable,
                                        masks[partitions])

    def _apply_grants(self, grant_reps: _IntArray,
                      grant_partitions: _IntArray,
                      grant_rows: _IntArray, grant_cols: _IntArray,
                      times: _FloatArray, warmup: float) -> None:
        """Dispatch the matched (row, partition, processor, column) grants.

        ``grant_rows`` and ``grant_cols`` are partition-local.  Every
        dispatch kernel — the three matchers and each router wave —
        returns grants row-major and processor-ascending, the scalar
        broadcast's dispatch order, so when every batch row appears once
        the queue pops, Welford updates and transmission draws all
        vectorize; a row granted several connections in one broadcast
        replays them sequentially instead.
        """
        rows = grant_partitions * self._per_partition + grant_rows
        port_index = grant_partitions * self._ports + grant_cols
        table_rows = grant_reps * self._partitions + grant_partitions
        capacity = self._queue_capacity
        if grant_reps.size == 1 or (grant_reps[1:] != grant_reps[:-1]).all():
            moments = times[grant_reps]
            starts = self._queue_start[grant_reps, rows]
            created = self._queue_created[grant_reps, rows, starts]
            self._queue_start[grant_reps, rows] = (starts + 1) & (capacity - 1)
            self._queue_length[grant_reps, rows] -= 1
            measured = moments > warmup
            if measured.any():
                m_reps = grant_reps[measured]
                counts = self._delay_count[m_reps] + 1
                self._delay_count[m_reps] = counts
                delta = (moments[measured] - created[measured]
                         ) - self._delay_mean[m_reps]
                self._delay_mean[m_reps] += delta / counts
            durations = self._transmission_table.draw(table_rows)
            self._transmission_end[grant_reps, rows] = moments + durations
            self._connected_port[grant_reps, rows] = grant_cols
            self._bus_busy[grant_reps, port_index] = 1
            return
        for index in range(grant_reps.shape[0]):
            k = int(grant_reps[index])
            row = int(rows[index])
            start = int(self._queue_start[k, row])
            created_one = float(self._queue_created[k, row, start])
            self._queue_start[k, row] = (start + 1) & (capacity - 1)
            self._queue_length[k, row] -= 1
            moment = float(times[k])
            if moment > warmup:
                count = int(self._delay_count[k]) + 1
                self._delay_count[k] = count
                delta_one = (moment - created_one) - float(self._delay_mean[k])
                self._delay_mean[k] += delta_one / count
            duration = self._transmission_table.draw_one(int(table_rows[index]))
            self._transmission_end[k, row] = moment + duration
            self._connected_port[k, row] = int(grant_cols[index])
            self._bus_busy[k, int(port_index[index])] = 1


class BatchedReplicationEngine(MegaBatchEngine):
    """``R`` replications of one ``(config, workload)`` point in lockstep.

    The one-point specialization of :class:`MegaBatchEngine` — a single
    seed group, a single workload, and the flat
    :class:`BatchedReplicationResult` the replication tooling consumes.

    >>> from repro import SystemConfig, Workload
    >>> from repro.sim.batched import BatchedReplicationEngine
    >>> engine = BatchedReplicationEngine(
    ...     SystemConfig.parse("16/1x16x8 XBAR/2"),
    ...     Workload(0.05, 1.0, 0.1), seeds=range(100, 108))
    >>> result = engine.run(horizon=2000.0, warmup=200.0)

    May be run once per instance, like the scalar system.
    """

    def __init__(self, config: Union[SystemConfig, str], workload: Workload,
                 seeds: Sequence[int], arbitration: str = "priority",
                 crossover: Optional[int] = None):
        seed_list = [int(seed) for seed in seeds]
        if not seed_list:
            raise ConfigurationError("batched engine needs at least one seed")
        super().__init__(config, [workload], [seed_list],
                         arbitration=arbitration, crossover=crossover)
        self.workload = workload
        self.seeds: Tuple[int, ...] = tuple(seed_list)

    def run(self, horizon: float,  # type: ignore[override]
            warmup: float = 0.0) -> BatchedReplicationResult:
        """Advance every replication to ``horizon``; discard ``warmup``."""
        result = super().run(horizon=horizon, warmup=warmup)
        return BatchedReplicationResult(
            seeds=self.seeds,
            mean_delays=result.mean_delays[0],
            delay_counts=result.delay_counts[0],
            completed=result.completed[0],
            simulated_time=result.simulated_time,
            measurement_start=result.measurement_start)


def batched_replication_delays(config: Union[SystemConfig, str],
                               workload: Workload, horizon: float,
                               warmup: float, seeds: Sequence[int],
                               arbitration: str = "priority") -> List[float]:
    """Front door: per-replication mean queueing delays, seed for seed.

    ``batched_replication_delays(c, w, h, u, seeds)[k]`` equals
    ``simulate(c, w, horizon=h, warmup=u, seed=seeds[k]).mean_queueing_delay``
    to the last bit — the lockstep invariant this module exists to keep.
    """
    engine = BatchedReplicationEngine(config, workload, seeds,
                                      arbitration=arbitration)
    return list(engine.run(horizon=horizon, warmup=warmup).mean_delays)


def megabatch_figure_delays(config: Union[SystemConfig, str],
                            workloads: Sequence[Workload], horizon: float,
                            warmup: float,
                            seed_groups: Sequence[Sequence[int]],
                            arbitration: str = "priority"
                            ) -> List[List[float]]:
    """Front door: a whole figure curve as one 2-D mega-batch.

    ``megabatch_figure_delays(c, ws, h, u, groups)[i][k]`` equals
    ``batched_replication_delays(c, ws[i], h, u, groups[i])[k]`` — and
    therefore the scalar engine with seed ``groups[i][k]`` — to the last
    bit, while advancing every point of the curve in the same lockstep
    arrays.
    """
    engine = MegaBatchEngine(config, workloads, seed_groups,
                             arbitration=arbitration)
    result = engine.run(horizon=horizon, warmup=warmup)
    return [list(delays) for delays in result.mean_delays]


def supports_batched(config: Union[SystemConfig, str], workload: Workload,
                     arbitration: str = "priority") -> bool:
    """Whether the batched engines can run this model (see module scope)."""
    return batched_unsupported_reason(config, workload, arbitration) is None
