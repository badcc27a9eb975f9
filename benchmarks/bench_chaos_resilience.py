"""Chaos resilience: a faulted sweep must reproduce the fault-free bytes.

The fault-tolerant execution layer claims value transparency: worker
crashes, transient failures, and cache corruption are absorbed by retry,
pool respawn, and quarantine without changing a single result byte.  This
benchmark runs a real figure sweep (fig7 crossbar points) twice — once
clean and serial, once under ~10% injected worker crashes plus injected
cache corruption on a two-worker pool — and pins

* byte-identity (``pickle.dumps``) of the assembled series, and
* sweep completion with zero exhausted-budget failures and zero
  pool->serial fallbacks (retries alone absorb this fault rate),

while recording the fault-tolerance counters (retries, pool respawns,
quarantined writes) and the wall-time overhead of surviving the chaos in
the benchmark payload.

``REPRO_BENCH_SMOKE=1`` shrinks the sweep to one intensity so CI can run
the benchmark end to end in seconds.
"""

from __future__ import annotations

import os
import pickle
from time import perf_counter

from repro.experiments import figure_series
from repro.runner import ChaosPolicy, ResultCache, SupervisorPolicy, SweepRunner

EXP_ID = "fig7"
SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
INTENSITIES = [0.4] if SMOKE else [0.4, 0.8]
#: The acceptance fault rates: one in ten executions crashes its worker,
#: one in twenty raises, one in twenty cache writes is corrupted.
CHAOS = ChaosPolicy(crash=0.10, fail=0.05, corrupt=0.05, seed=17)
#: Generous budget, microsecond backoff: per-unit exhaustion probability
#: at these rates is ~(0.15)^8, so the serial fallback should never fire.
POLICY = SupervisorPolicy(max_attempts=8)


def _clean_series():
    start = perf_counter()
    series = figure_series(EXP_ID, intensities=INTENSITIES,
                           runner=SweepRunner(jobs=1))
    return series, perf_counter() - start


def _chaos_series(cache_dir):
    runner = SweepRunner(jobs=2, cache=ResultCache(cache_dir),
                         supervisor=POLICY, chaos=CHAOS)
    start = perf_counter()
    series = figure_series(EXP_ID, intensities=INTENSITIES, runner=runner)
    return series, perf_counter() - start, runner


def test_chaos_sweep_is_byte_identical(benchmark, tmp_path):
    clean, clean_time = _clean_series()
    series, chaos_time, runner = benchmark.pedantic(
        lambda: _chaos_series(tmp_path / "cache"), rounds=1, iterations=1)
    report = runner.last_report
    verify = ResultCache(tmp_path / "cache").verify(repair=True)

    benchmark.extra_info["points"] = report.total
    benchmark.extra_info["clean_serial_s"] = round(clean_time, 6)
    benchmark.extra_info["chaos_pool_s"] = round(chaos_time, 6)
    benchmark.extra_info["retries"] = report.retries
    benchmark.extra_info["pool_respawns"] = report.pool_respawns
    benchmark.extra_info["quarantined_writes"] = len(verify.corrupt)
    benchmark.extra_info["chaos_spec"] = CHAOS.spec()
    benchmark.extra_info["smoke"] = SMOKE
    print(f"\n{report.total} points of {EXP_ID}: clean {clean_time:.2f}s "
          f"(serial), chaos {chaos_time:.2f}s (2 jobs, {report.retries} "
          f"retries, {report.pool_respawns} pool respawns, "
          f"{len(verify.corrupt)} corrupted writes quarantined)")

    assert pickle.dumps(series) == pickle.dumps(clean), (
        "chaos changed result bytes — the supervisor is not "
        "value-transparent")
    assert not report.failures, "retry budget exhausted under 10% chaos"
    assert not report.degradations, (
        "pool->serial fallback fired — retries should absorb this "
        "fault rate")
    assert not verify.legacy
