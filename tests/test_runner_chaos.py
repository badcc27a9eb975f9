"""Chaos tests for the fault-tolerant execution layer (repro.runner).

The contract under test: with deterministic fault injection enabled —
worker crashes, transient failures, hangs, cache-byte corruption — a sweep
still completes through retry, pool respawn, and serial fallback, and the
values it produces are byte-identical to a fault-free run (retries and
pool-level recovery recompute pure functions; they cannot change results).
A killed sweep leaves an append-only journal behind, and a plain rerun
recomputes only the missing units.
"""

import os
import pickle
import time  # lint: disable=SIM002 - tests supervise wall-clock execution

import pytest

from repro.errors import ChaosError, ConfigurationError, WorkerError
from repro.experiments import figure_series
from repro.faults import RetryPolicy
from repro.runner import (
    ChaosPolicy,
    ResultCache,
    SupervisorPolicy,
    SweepJournal,
    SweepRunner,
    WorkUnit,
    resolve_chaos,
)
from repro.runner.evaluators import evaluator


@evaluator("chaos-square")
def _square(seed, params):
    return params["x"] ** 2 + seed


@evaluator("chaos-marker-hang")
def _marker_hang(seed, params):
    """Hangs on the first execution only: the marker file is the memory.

    The first worker to run the unit creates the marker and sleeps far past
    any test timeout; after the supervisor kills it, the retry sees the
    marker and returns immediately — a real hung worker, a real recovery.
    """
    marker = params["marker"]
    if not os.path.exists(marker):
        with open(marker, "w", encoding="utf-8") as handle:
            handle.write("hung once")
        time.sleep(60.0)
    return params["x"] * 10


def _units(count, seed=0):
    return [WorkUnit("chaos-square", seed, {"x": x}) for x in range(count)]


def _fast_policy(max_attempts=5, **kwargs):
    """A supervisor policy whose backoff is measured in microseconds."""
    return SupervisorPolicy(
        max_attempts=max_attempts,
        retry=RetryPolicy(max_retries=max(1, max_attempts),
                          backoff_base=1e-4, backoff_factor=1.0,
                          backoff_cap=1e-3, jitter=0.0),
        **kwargs)


class TestChaosPolicy:
    def test_parse_and_spec_round_trip(self):
        policy = ChaosPolicy.parse("crash=0.1, fail=0.05,seed=7")
        assert policy.crash == 0.1
        assert policy.fail == 0.05
        assert policy.seed == 7
        assert ChaosPolicy.parse(policy.spec()) == policy

    def test_bad_specs_rejected(self):
        for spec in ("crash=1.5", "fail=-0.1", "hang_seconds=0",
                     "bogus=0.5", "crash=notanumber", "crash0.5"):
            with pytest.raises(ConfigurationError):
                ChaosPolicy.parse(spec)

    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert not resolve_chaos().active
        monkeypatch.setenv("REPRO_CHAOS", "fail=0.25,seed=3")
        assert resolve_chaos().fail == 0.25
        explicit = ChaosPolicy(crash=0.5)
        assert resolve_chaos(explicit) is explicit
        assert resolve_chaos(spec="hang=0.1").hang == 0.1

    def test_decisions_are_deterministic(self):
        first = ChaosPolicy(fail=0.5, corrupt=0.5, seed=11)
        second = ChaosPolicy(fail=0.5, corrupt=0.5, seed=11)
        digests = [unit.config_digest for unit in _units(32)]
        for digest in digests:
            assert (first.should_corrupt(digest)
                    == second.should_corrupt(digest))
        # Attempt-salting: the same unit rolls fresh dice each attempt, so
        # under a 50% rate some units fail attempt 1 and pass attempt 2.
        def fails(policy, digest, attempt):
            try:
                policy.maybe_inject(digest, attempt, in_worker=False)
            except ChaosError:
                return True
            return False

        outcomes = {(d, a): fails(first, d, a)
                    for d in digests for a in (1, 2)}
        assert outcomes == {(d, a): fails(second, d, a)
                            for d in digests for a in (1, 2)}
        assert any(outcomes[(d, 1)] and not outcomes[(d, 2)]
                   for d in digests)

    def test_corrupt_bytes_flips_exactly_one_byte(self):
        policy = ChaosPolicy(corrupt=1.0, seed=2)
        blob = bytes(range(256))
        damaged = policy.corrupt_bytes("abcd" * 16, blob)
        assert damaged != blob
        assert len(damaged) == len(blob)
        assert sum(1 for a, b in zip(blob, damaged) if a != b) == 1
        assert damaged == policy.corrupt_bytes("abcd" * 16, blob)

    def test_inline_crash_degrades_to_error(self):
        policy = ChaosPolicy(crash=1.0)
        with pytest.raises(ChaosError):
            policy.maybe_inject("deadbeef", 1, in_worker=False)


class TestSupervisorPolicy:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(unit_timeout=0.0)
        with pytest.raises(ConfigurationError):
            SupervisorPolicy(max_pool_respawns=0)

    def test_backoff_is_deterministic_and_positive(self):
        policy = SupervisorPolicy(seed=4)
        delays = [policy.delay_for("cafe" * 16, attempt)
                  for attempt in (1, 2, 3)]
        assert delays == [policy.delay_for("cafe" * 16, attempt)
                          for attempt in (1, 2, 3)]
        assert all(delay > 0 for delay in delays)
        assert max(delays) <= 2.0 * 1.5  # cap 2 s, jitter <= +50%


class TestSupervisedRuns:
    def test_injected_failures_converge_byte_identical_serial(self):
        units = _units(12, seed=3)
        baseline = SweepRunner(jobs=1).run_values(units)
        chaos = ChaosPolicy(fail=0.4, seed=5)
        runner = SweepRunner(jobs=1, supervisor=_fast_policy(8), chaos=chaos)
        assert runner.run_values(units) == baseline
        assert runner.last_report.retries > 0
        assert pickle.dumps(baseline) == pickle.dumps(
            [outcome.value for outcome in runner.last_outcomes])

    def test_injected_crashes_converge_byte_identical_pool(self):
        units = _units(10, seed=1)
        chaos = ChaosPolicy(crash=0.25, seed=9)
        # Precondition: the chosen seed really does crash someone's first
        # attempt, so the pool-respawn path is exercised, not skipped.
        assert any(chaos._draw("crash", unit.config_digest, 1) < chaos.crash
                   for unit in units)
        baseline = SweepRunner(jobs=1).run_values(units)
        runner = SweepRunner(jobs=2, supervisor=_fast_policy(8), chaos=chaos)
        assert runner.run_values(units) == baseline
        assert runner.last_report.pool_respawns >= 1

    def test_injected_hangs_recover_via_retry(self):
        units = _units(6, seed=2)
        chaos = ChaosPolicy(hang=0.5, hang_seconds=0.05, seed=13)
        runner = SweepRunner(jobs=2, supervisor=_fast_policy(8), chaos=chaos)
        assert runner.run_values(units) == SweepRunner(jobs=1).run_values(units)

    def test_unit_timeout_kills_a_real_hang(self, tmp_path):
        marker = tmp_path / "hang.marker"
        units = [WorkUnit("chaos-marker-hang", 0,
                          {"x": 7, "marker": str(marker)}),
                 WorkUnit("chaos-square", 0, {"x": 5})]
        runner = SweepRunner(
            jobs=2, supervisor=_fast_policy(4, unit_timeout=1.0))
        start = time.monotonic()
        values = runner.run_values(units)
        assert time.monotonic() - start < 30.0
        assert values == [70, 25]
        assert runner.last_report.timeouts >= 1
        assert runner.last_report.pool_respawns >= 1
        assert marker.exists()

    def test_budget_exhaustion_surfaces_worker_error(self):
        chaos = ChaosPolicy(fail=1.0)
        runner = SweepRunner(jobs=1, supervisor=_fast_policy(2), chaos=chaos)
        with pytest.raises(WorkerError):
            runner.run(_units(2))
        outcomes = runner.run(_units(2), raise_on_error=False)
        assert all(not outcome.ok for outcome in outcomes)
        assert all("ChaosError" in outcome.error for outcome in outcomes)
        assert runner.last_report.failures

    def test_permanent_crash_walks_pool_to_serial(self):
        chaos = ChaosPolicy(crash=1.0)
        runner = SweepRunner(jobs=2, supervisor=_fast_policy(2), chaos=chaos)
        outcomes = runner.run(_units(4), raise_on_error=False)
        assert all(not outcome.ok for outcome in outcomes)
        assert all("pool->serial" in outcome.degraded
                   for outcome in outcomes)
        assert runner.last_report.serial_fallbacks == 4

    def test_keyboard_interrupt_cancels_and_propagates(self, tmp_path,
                                                       monkeypatch):
        import repro.runner.supervisor as supervisor_module

        def interrupted(*_args, **_kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(supervisor_module, "wait_futures", interrupted)
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp_path))
        with pytest.raises(KeyboardInterrupt):
            runner.run(_units(8))
        # Atomic writes: an interrupted run leaves no torn temp files.
        # (The advisory SQLite entry index and its WAL companions live
        # beside the store by design — they are not torn state.)
        from repro.runner.index import INDEX_FILENAME

        leftovers = [path for path in tmp_path.rglob("*")
                     if path.is_file() and not path.name.endswith(".pkl")
                     and not path.name.startswith(INDEX_FILENAME)]
        assert leftovers == []


class TestCacheChaos:
    def test_corrupted_puts_are_quarantined_never_served(self, tmp_path):
        units = _units(3, seed=7)
        chaos = ChaosPolicy(corrupt=1.0, seed=1)
        writer = SweepRunner(jobs=1, cache=ResultCache(tmp_path, chaos=chaos))
        baseline = writer.run_values(units)

        clean = ResultCache(tmp_path)
        report = clean.verify()
        assert len(report.corrupt) == 3 and report.ok == 0
        for unit in units:
            hit, _value = clean.get(unit.config_digest)
            assert hit is False
        assert clean.corrupt == 3
        assert clean.stats().quarantined == 3

        # Recompute without chaos: values identical, store now verified.
        rerun = SweepRunner(jobs=1, cache=clean)
        assert rerun.run_values(units) == baseline
        assert clean.verify().clean

    def test_runner_chaos_reaches_cache_writes(self, tmp_path):
        chaos = ChaosPolicy(corrupt=1.0, seed=1)
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path), chaos=chaos)
        runner.run_values(_units(2))
        assert len(ResultCache(tmp_path).verify().corrupt) == 2


class TestJournalResume:
    def test_resume_recomputes_only_missing_units(self, tmp_path):
        """Resuming a killed sweep is a plain rerun: the cache serves the
        finished units and only the rest are computed."""
        units = _units(6, seed=4)
        killed_after = 2
        cache = ResultCache(tmp_path)
        journal = SweepJournal.for_sweep(tmp_path, "chaos-test", 4)

        class Killed(Exception):
            pass

        stored = []
        real_put = cache.put

        def put_until_killed(digest, value, **kwargs):
            if len(stored) == killed_after:
                raise Killed   # the process dies before this unit lands
            stored.append(digest)
            real_put(digest, value, **kwargs)

        cache.put = put_until_killed
        with pytest.raises(Killed):
            SweepRunner(jobs=1, cache=cache, journal=journal).run(units)
        del cache.put
        assert [entry["digest"] for entry in journal.entries()] == [
            unit.config_digest for unit in units[:killed_after]]

        second = SweepRunner(jobs=1, cache=cache, journal=journal)
        values = second.run_values(units)
        assert values == [unit.params["x"] ** 2 + 4 for unit in units]
        report = second.last_report
        assert report.cache_hits == killed_after
        assert report.computed == len(units) - killed_after

        summary = journal.summary()
        assert summary.ok == killed_after + len(units)
        assert summary.cached == killed_after
        assert summary.failed == 0

    def test_torn_journal_lines_are_skipped(self, tmp_path):
        journal = SweepJournal(tmp_path / "torn.jsonl")
        journal.record("a" * 64, "ok")
        with journal.path.open("a", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "digest": "b", "status"')  # torn
        journal.record("c" * 64, "failed", attempts=3,
                       error="Traceback\nChaosError: injected")
        entries = journal.entries()
        assert len(entries) == 2
        assert journal.summary().skipped_lines == 1
        assert [entry["digest"] for entry in entries] == ["a" * 64, "c" * 64]
        assert entries[1]["error"].startswith("ChaosError")

    def test_figure_series_journals_and_resumes(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache)
        first = figure_series("fig4", intensities=[0.3, 0.6], runner=runner)
        assert runner.journal is not None and runner.journal.exists()
        computed = runner.last_report.computed
        assert computed == len(runner.last_outcomes)

        rerun = SweepRunner(jobs=1, cache=cache)
        second = figure_series("fig4", intensities=[0.3, 0.6], runner=rerun)
        assert second == first
        assert rerun.journal.path == runner.journal.path
        assert rerun.last_report.computed == 0
        assert rerun.last_report.cache_hits == computed
        assert rerun.journal.summary().cached == computed


class TestEndToEndChaos:
    def test_ten_percent_chaos_sweep_is_byte_identical(self, tmp_path):
        """The acceptance bar: 10% crashes + 5% corruption, same bytes."""
        units = _units(16, seed=6)
        baseline = pickle.dumps(SweepRunner(jobs=1).run_values(units))
        chaos = ChaosPolicy(crash=0.10, fail=0.05, corrupt=0.05, seed=17)
        runner = SweepRunner(jobs=2, cache=ResultCache(tmp_path),
                             supervisor=_fast_policy(8), chaos=chaos)
        values = runner.run_values(units)
        assert pickle.dumps(values) == baseline
        report = runner.last_report
        assert not report.failures
        assert not report.degradations   # retries alone must absorb this
        # And the store holds no silent lies: every surviving entry verifies.
        verify = ResultCache(tmp_path).verify(repair=True)
        assert verify.ok + len(verify.corrupt) == verify.checked
