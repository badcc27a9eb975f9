"""The evaluator registry: what a work unit actually computes.

Evaluators are module-level functions of ``(seed, params)`` — the shape the
process pool requires (workers unpickle the function by qualified name, so
lambdas and closures cannot cross the boundary; lint rule SIM005 enforces
this for every pool call site).  Each evaluator re-derives its inputs from
the JSON-safe ``params`` mapping, runs one independent seeded computation,
and returns a picklable result.

Registered evaluators:

* ``sweep-point``        — one event-simulation figure point (``SweepPoint``);
* ``analytic-point``     — one exact Markov-chain figure point (``SweepPoint``);
* ``replication-delay``  — one replication's mean queueing delay (``float``);
* ``replication-delay-batched`` — a whole wave of replications advanced in
  lockstep by the batched engine (``list[float]``, seed order);
* ``megabatch-figure``   — a whole figure curve as one 2-D mega-batch
  (``list[SweepPoint]``, intensity order), bit-identical per point to the
  ``sweep-point`` units it replaces.
"""

from __future__ import annotations

import time  # lint: disable=SIM002 - wall time of workers, not simulated time
import traceback
from typing import Any, Callable, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError
from repro.runner.chaos import resolve_chaos

Evaluator = Callable[..., Any]

#: Evaluator functions by id; workers resolve work units against this table.
EVALUATORS: Dict[str, Evaluator] = {}

#: Declared digest-material reads per evaluator id: exactly the ``params``
#: keys the evaluator consumes (``None`` when a registration declares
#: nothing).  Every key here is covered by the work-unit digest via
#: :data:`repro.runner.workunit.DIGEST_MATERIAL`; the static analyzer's
#: SIM007 rule cross-checks each evaluator body against its declaration,
#: so a new ``params[...]`` read that someone forgets to declare — digest
#: drift — fails lint instead of silently serving stale cache entries.
EVALUATOR_READS: Dict[str, Optional[Tuple[str, ...]]] = {}


def evaluator(evaluator_id: str,
              reads: Optional[Tuple[str, ...]] = None
              ) -> Callable[[Evaluator], Evaluator]:
    """Register a module-level function as the evaluator ``evaluator_id``.

    ``reads`` declares the ``params`` keys the evaluator consumes (its
    digest-material surface); the declaration is enforced statically by
    lint rule SIM007 and exposed at runtime via :data:`EVALUATOR_READS`.
    """

    def register(function: Evaluator) -> Evaluator:
        if evaluator_id in EVALUATORS:
            raise ConfigurationError(
                f"evaluator {evaluator_id!r} registered twice")
        EVALUATORS[evaluator_id] = function
        EVALUATOR_READS[evaluator_id] = reads
        return function

    return register


def get_evaluator(evaluator_id: str) -> Evaluator:
    """Look up an evaluator, with a helpful error for unknown ids."""
    function = EVALUATORS.get(evaluator_id)
    if function is None:
        raise ConfigurationError(
            f"unknown evaluator {evaluator_id!r}; "
            f"expected one of {sorted(EVALUATORS)}")
    return function


def execute_payload(
        payload: Tuple[str, int, dict, str],
        attempt: int = 0,
        chaos_spec: Optional[str] = None,
        in_worker: bool = True,
) -> Tuple[str, Any, Optional[str], float]:
    """Run one unit's payload: returns ``(digest, value, error, wall_time)``.

    This is the function the process pool ships to workers, so it lives at
    module level (workers unpickle it by qualified name; SIM005).  All
    exceptions — including evaluator-lookup failures and injected chaos —
    are marshalled as traceback text so one bad unit cannot poison the
    pool.  ``attempt`` salts the chaos draws: a unit that crashed on one
    attempt rolls fresh dice on the next, which is what makes retry an
    effective recovery under a constant injection rate.  ``chaos_spec``
    carries an explicit policy across the process boundary; when absent,
    ``REPRO_CHAOS`` (inherited by workers) applies.
    """
    evaluator_id, seed, params, digest = payload
    start = time.perf_counter()
    try:
        chaos = resolve_chaos(spec=chaos_spec)
        if chaos.active:
            chaos.maybe_inject(digest, attempt, in_worker=in_worker)
        value = get_evaluator(evaluator_id)(seed, params)
    except BaseException:
        return digest, None, traceback.format_exc(), time.perf_counter() - start
    return digest, value, None, time.perf_counter() - start


@evaluator("sweep-point", reads=("config", "mu_ratio", "intensity",
                                 "horizon", "warmup_fraction",
                                 "arbitration", "saturation_guard",
                                 "engine"))
def sweep_point(seed: int, params: Mapping[str, Any]):
    """One simulated delay point; params mirror ``simulated_point``."""
    from repro.analysis.sweep import simulated_point

    return simulated_point(
        params["config"], params["mu_ratio"], params["intensity"],
        horizon=params["horizon"],
        warmup_fraction=params.get("warmup_fraction", 0.1),
        seed=seed,
        arbitration=params.get("arbitration", "priority"),
        saturation_guard=params.get("saturation_guard", 0.98),
        engine=params.get("engine", "scalar"))


@evaluator("analytic-point", reads=("config", "mu_ratio", "intensity"))
def analytic_point(seed: int, params: Mapping[str, Any]):
    """One exact SBUS delay point (the seed is irrelevant and ignored)."""
    from repro.analysis.sweep import analytic_point as exact_point

    return exact_point(params["config"], params["mu_ratio"],
                       params["intensity"])


@evaluator("replication-delay", reads=("config", "arrival_rate",
                                       "transmission_rate",
                                       "service_rate", "horizon",
                                       "warmup", "arbitration"))
def replication_delay(seed: int, params: Mapping[str, Any]) -> float:
    """Mean queueing delay of one independent replication."""
    from repro.core.system import simulate
    from repro.workload.arrivals import Workload

    workload = Workload(arrival_rate=params["arrival_rate"],
                        transmission_rate=params["transmission_rate"],
                        service_rate=params["service_rate"])
    result = simulate(params["config"], workload, horizon=params["horizon"],
                      warmup=params["warmup"], seed=seed,
                      arbitration=params.get("arbitration", "priority"))
    return result.mean_queueing_delay


@evaluator("replication-delay-batched",
           reads=("config", "arrival_rate", "transmission_rate",
                  "service_rate", "replications", "horizon", "warmup",
                  "arbitration"))
def replication_delay_batched(seed: int, params: Mapping[str, Any]) -> list:
    """Mean delays of ``params["replications"]`` lockstep replications.

    ``seed`` is the base seed; replication ``i`` runs with ``seed + i``,
    so the returned list is element-for-element what ``replication-delay``
    units with those seeds would produce (the batched engine's lockstep
    invariant) — just computed several times faster by advancing the whole
    wave at once.
    """
    from repro.sim.batched import batched_replication_delays
    from repro.workload.arrivals import Workload

    workload = Workload(arrival_rate=params["arrival_rate"],
                        transmission_rate=params["transmission_rate"],
                        service_rate=params["service_rate"])
    seeds = [seed + index for index in range(int(params["replications"]))]
    return batched_replication_delays(
        params["config"], workload, horizon=params["horizon"],
        warmup=params["warmup"], seeds=seeds,
        arbitration=params.get("arbitration", "priority"))


@evaluator("megabatch-figure", reads=("config", "mu_ratio", "intensities",
                                      "horizon", "warmup_fraction",
                                      "arbitration", "saturation_guard"))
def megabatch_figure(seed: int, params: Mapping[str, Any]) -> list:
    """A whole figure curve of sweep points as one 2-D mega-batch.

    ``seed`` is the figure's master seed; each point derives the same
    ``spawn_seed(seed, config, intensity)`` seed the per-point
    ``sweep-point`` units of that figure carry, so the returned points
    equal a per-point ``engine="batched"`` run bit for bit — the curve's
    (point, replication) grid just advances in one lockstep batch.  The
    per-point loop is kept as a fallback so a curve that slips past the
    gate probe still evaluates (point by point, scalar where needed)
    rather than failing the sweep.
    """
    from repro.analysis.sweep import megabatch_sweep_points, simulated_point
    from repro.sim.rng import spawn_seed

    triplet = params["config"]
    intensities = list(params["intensities"])
    point_seeds = [spawn_seed(seed, triplet, intensity)
                   for intensity in intensities]
    shared = dict(
        horizon=params["horizon"],
        warmup_fraction=params.get("warmup_fraction", 0.1),
        arbitration=params.get("arbitration", "priority"),
        saturation_guard=params.get("saturation_guard", 0.98))
    points = megabatch_sweep_points(
        triplet, params["mu_ratio"], intensities,
        point_seeds=point_seeds, **shared)
    if points is not None:
        return points
    return [simulated_point(triplet, params["mu_ratio"], intensity,
                            seed=point_seed, engine="batched", **shared)
            for intensity, point_seed in zip(intensities, point_seeds)]
