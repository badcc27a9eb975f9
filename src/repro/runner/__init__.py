"""Parallel sweep execution: work units, process pool, result cache.

The paper's figures are sweeps of independent seeded simulations — an
embarrassingly parallel shape.  This package decomposes sweeps into
content-addressed :class:`WorkUnit` objects, fans them out over a
:class:`SweepRunner` process pool, and memoizes results in an on-disk
:class:`ResultCache`, with the contract that parallel results are
byte-identical to serial results for the same seeds.

Execution is fault-tolerant: a :class:`Supervisor` retries failed or
timed-out units with deterministic backoff and runs a unit the pool could
not finish once inline (pool → serial) before failing loudly — every unit
computes exactly what its digest names; a :class:`SweepJournal` logs each
outcome, and a killed sweep restarts by plain rerun (finished units are
cache hits); cache entries are checksummed envelopes and corruption is
quarantined, never served.  A :class:`ChaosPolicy`
(``REPRO_CHAOS``) injects worker crashes, hangs, and cache corruption
deterministically to prove all of the above under test.

It is also built to share: an advisory :class:`CacheIndex` (WAL-mode
SQLite next to the store) makes ``stats``/``prune``/startup probes index
queries instead of directory walks, equal-digest units within one run
execute once (in-flight dedup, outcome-transparent), and the supervisor
drives any :class:`ExecutorBackend` transport — serial, local process
pool, or a future distributed executor.

Quick start::

    from repro.experiments import figure_series
    from repro.runner import ResultCache, SweepRunner

    runner = SweepRunner(jobs=8, cache=ResultCache())   # ~/.cache/repro
    series = figure_series("fig7", quality="fast", runner=runner)
"""

from repro.runner.cache import (
    CACHE_DIR_ENV,
    ENVELOPE_VERSION,
    QUARANTINE_DIR,
    CacheStats,
    ResultCache,
    VerifyReport,
    decode_entry,
    default_cache_dir,
    encode_entry,
    format_bytes,
)
from repro.runner.chaos import CHAOS_ENV, ChaosPolicy, resolve_chaos
from repro.runner.evaluators import (
    EVALUATORS,
    evaluator,
    execute_payload,
    get_evaluator,
)
from repro.runner.executors import (
    BackendBroken,
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    terminate_pool,
)
from repro.runner.index import (
    INDEX_FILENAME,
    INDEX_SCHEMA_VERSION,
    CacheIndex,
    FastVerifyReport,
    ReindexReport,
    row_drift,
)
from repro.runner.journal import (
    JournalSummary,
    SweepJournal,
    sweep_digest,
)
from repro.runner.pool import (
    JOBS_ENV,
    SweepRunner,
    UnitOutcome,
    resolve_jobs,
)
from repro.runner.supervisor import (
    RunReport,
    Supervisor,
    SupervisorPolicy,
)
from repro.runner.workunit import (
    CACHE_SCHEMA_VERSION,
    WorkUnit,
    canonical_params,
    code_version,
    work_unit_digest,
)

__all__ = [
    "CACHE_DIR_ENV",
    "CACHE_SCHEMA_VERSION",
    "CHAOS_ENV",
    "ENVELOPE_VERSION",
    "INDEX_FILENAME",
    "INDEX_SCHEMA_VERSION",
    "QUARANTINE_DIR",
    "BackendBroken",
    "CacheIndex",
    "CacheStats",
    "ChaosPolicy",
    "EVALUATORS",
    "ExecutorBackend",
    "FastVerifyReport",
    "JOBS_ENV",
    "JournalSummary",
    "ProcessPoolBackend",
    "ReindexReport",
    "ResultCache",
    "RunReport",
    "SerialBackend",
    "Supervisor",
    "SupervisorPolicy",
    "SweepJournal",
    "SweepRunner",
    "UnitOutcome",
    "VerifyReport",
    "WorkUnit",
    "canonical_params",
    "code_version",
    "decode_entry",
    "default_cache_dir",
    "encode_entry",
    "evaluator",
    "execute_payload",
    "format_bytes",
    "get_evaluator",
    "resolve_chaos",
    "resolve_jobs",
    "row_drift",
    "sweep_digest",
    "terminate_pool",
    "work_unit_digest",
]
