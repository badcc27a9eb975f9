"""Per-layer tracing from outside the program.

The benchmark never edits ``src/``: it replaces the public entry points of
each layer with timing wrappers, in the defining module and in every
``repro`` module that bound the same object by ``from ... import``.  A
wrapper records a span per call; a layer's self time is its spans'
duration minus the part covered by spans of other wrapped calls nested in
them.  Counts come from the same wrappers, so they are taken where the
work happens.

:data:`LAYERS` is the single table of what is wrapped; ``perfbench/README.md``
states what each layer metric should move, and on which workload.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (metric stem, call count, entry points as "module:attr" or
#: "module:Class.method").  The stem names the ``<stem>_s`` self time.
LAYERS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("experiments.plan", "experiments.plans",
     ("repro.experiments.figures:figure_work_units",)),
    ("experiments.report", "experiments.reports",
     ("repro.experiments.report:format_series_table",
      "repro.experiments.report:format_rows")),
    ("runner.probe", "runner.probes",
     ("repro.runner.cache:ResultCache.get_many",)),
    ("runner.put", "runner.puts",
     ("repro.runner.cache:ResultCache.put",)),
    ("runner.journal", "runner.journal_records",
     ("repro.runner.journal:SweepJournal.record",)),
    ("runner.run", "runner.runs",
     ("repro.runner.pool:SweepRunner.run",)),
    ("markov.solve", "markov.solves",
     ("repro.markov.solvers:solve_sbus",)),
    ("sim.advance_self", "sim.engine_runs",
     ("repro.sim.batched:MegaBatchEngine.run",)),
    ("sim.draw", "sim.draws",
     ("repro.sim.batched:VariateTable.draw",
      "repro.sim.batched:VariateTable.draw_one")),
    ("networks.match", "networks.matches",
     ("repro.networks.batched_crossbar:match_pairs_batch",
      "repro.networks.batched_crossbar:masked_match_pairs_batch",
      "repro.networks.batched_sbus:match_bus_batch")),
    ("networks.route", "networks.broadcasts",
     ("repro.networks.batched_omega:BatchedMultistageRouter.route_broadcast",)),
    ("networks.release", "networks.releases",
     ("repro.networks.batched_omega:BatchedMultistageRouter.release_batch",)),
    ("core.simulate", "core.simulations",
     ("repro.core.system:simulate",
      "repro.core.packet_system:simulate_packet_switched",
      "repro.core.central_system:simulate_centralized")),
)

#: Generator entry points: each resume is a span, the caller's work
#: between resumes is not.
_GENERATORS = {"route_broadcast"}

#: The scalar event loop, observed without a span for the events it
#: scheduled (``Timeout`` inlines ``Environment.schedule``, so the count is
#: read from the sequence number every scheduled event consumes).
_EVENT_LOOP = "repro.sim.environment:Environment.run"

#: Counts read from results, not from calls.
_DERIVED_COUNTS = ("experiments.units", "runner.hits", "runner.misses",
                   "runner.computed", "runner.deduped", "runner.retries",
                   "runner.degraded", "sim.scheduled_events")


class Tracer:
    """Span and count accumulators for one traced process."""

    def __init__(self) -> None:
        self.self_time: Dict[str, float] = defaultdict(float)
        self.total_time: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._open: List[float] = []   # child time of each open span
        # Environment has no weakref slot: hold each one, so no id is reused.
        self._events_seen: Dict[int, Tuple[Any, int]] = {}

    def _close(self, layer: str, elapsed: float) -> None:
        child = self._open.pop()
        self.self_time[layer] += elapsed - child
        self.total_time[layer] += elapsed
        if self._open:
            self._open[-1] += elapsed

    def wrap(self, fn: Callable, layer: Optional[str] = None,
             count: Optional[str] = None,
             after: Optional[Callable[[tuple, Any], None]] = None
             ) -> Callable:
        """``fn`` with a span on ``layer``, a call count on ``count`` and
        ``after(args, result)`` once each call returns."""
        clock = time.perf_counter
        opened = self._open
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if count is not None:
                counts[count] += 1
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                opened.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(layer, clock() - start)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, fn: Callable, layer: str, count: str) -> Callable:
        clock = time.perf_counter
        opened = self._open
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            counts[count] += 1
            inner = fn(*args, **kwargs)
            while True:
                opened.append(0.0)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(layer, clock() - start)
                yield item

        return traced

    # -- counts read from results ------------------------------------------

    def _after_plan(self, _args: tuple, plan: Any) -> None:
        self.counts["experiments.units"] += len(plan[2])

    def _after_probe(self, args: tuple, found: Any) -> None:
        digests = args[1]
        hits = sum(1 for digest in digests if digest in found)
        self.counts["runner.hits"] += hits
        self.counts["runner.misses"] += len(digests) - hits

    def _after_run(self, args: tuple, _outcomes: Any) -> None:
        runner = args[0]
        report = runner.last_report
        self.counts["runner.computed"] += report.computed
        self.counts["runner.deduped"] += report.deduped
        self.counts["runner.retries"] += report.retries
        self.counts["runner.degraded"] += len(report.degradations)
        self.self_time["runner.eval"] += sum(
            outcome.wall_time for outcome in runner.last_outcomes)

    def _after_event_loop(self, args: tuple, _result: Any) -> None:
        env = args[0]
        _, before = self._events_seen.get(id(env), (env, 0))
        self.counts["sim.scheduled_events"] += env._sequence - before
        self._events_seen[id(env)] = (env, env._sequence)

    def metrics(self) -> Dict[str, float]:
        """Flat per-layer metrics: ``<stem>_s`` self times and counts."""
        out: Dict[str, float] = {}
        for stem, count, _ in LAYERS:
            if stem != "runner.run":   # reported as runner.dispatch_s
                out[f"{stem}_s"] = self.self_time.get(stem, 0.0)
            out[count] = self.counts.get(count, 0)
        for name in _DERIVED_COUNTS:
            out[name] = self.counts.get(name, 0)
        out["runner.eval_s"] = self.self_time.get("runner.eval", 0.0)
        # Runner time that is none of probe, put, journal or evaluation.
        out["runner.dispatch_s"] = (
            self.total_time.get("runner.run", 0.0)
            - self.total_time.get("runner.probe", 0.0)
            - self.total_time.get("runner.put", 0.0)
            - self.total_time.get("runner.journal", 0.0)
            - out["runner.eval_s"])
        return out


def _resolve(entry: str) -> Tuple[Any, str, Any]:
    """``module:attr`` or ``module:Class.method`` -> (owner, name, object)."""
    module_name, _, path = entry.partition(":")
    owner: Any = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name, owner.__dict__[name]


def _replace(entry: str, wrapper_for: Callable[[Callable], Callable]) -> None:
    """Install ``wrapper_for(original)`` for a method on its class, or for a
    function in every loaded ``repro`` module that bound it."""
    owner, name, original = _resolve(entry)
    wrapper = wrapper_for(original)
    if isinstance(owner, type):
        setattr(owner, name, wrapper)
        return
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = wrapper


def install(tracer: Tracer) -> None:
    """Wrap every entry point of :data:`LAYERS` and the scalar event loop."""
    importlib.import_module("repro.cli")
    importlib.import_module("repro.runner")
    after = {
        "repro.experiments.figures:figure_work_units": tracer._after_plan,
        "repro.runner.cache:ResultCache.get_many": tracer._after_probe,
        "repro.runner.pool:SweepRunner.run": tracer._after_run,
    }
    for stem, count, entries in LAYERS:
        for entry in entries:
            if entry.rsplit(".", 1)[-1] in _GENERATORS:
                _replace(entry, lambda fn: tracer.wrap_generator(
                    fn, stem, count))
            else:
                _replace(entry, lambda fn: tracer.wrap(
                    fn, stem, count, after.get(entry)))
    _replace(_EVENT_LOOP,
             lambda fn: tracer.wrap(fn, after=tracer._after_event_loop))
