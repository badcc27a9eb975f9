"""Tests for the parallel sweep runner (repro.runner).

The runner's contract is the determinism of the whole PR: parallel
execution must be byte-identical to serial, the cache must hit exactly
when the causal inputs are unchanged, worker failures must surface as
real tracebacks, and the wave-based replication procedure must reproduce
the sequential stopping rule bit for bit.
"""

import os
import pickle

import pytest

from repro.errors import ConfigurationError, WorkerError
from repro.experiments import figure_series, figure_work_units
from repro.runner import (
    ResultCache,
    SupervisorPolicy,
    SweepRunner,
    UnitOutcome,
    WorkUnit,
    resolve_jobs,
    work_unit_digest,
)
from repro.runner.evaluators import evaluator
from repro.sim import spawn_seed
from repro.workload.arrivals import Workload

#: Deliberately failing evaluator, registered at import (module level so
#: pool workers can unpickle it; SIM005).
@evaluator("test-explode")
def _explode(seed, params):
    raise ValueError(f"boom from seed {seed}")


@evaluator("test-square")
def _square(seed, params):
    return params["x"] ** 2 + seed


def _square_units(count, seed=0):
    return [WorkUnit("test-square", seed, {"x": x}) for x in range(count)]


class TestWorkUnit:
    def test_digest_is_stable_across_key_order(self):
        first = work_unit_digest("sweep-point", 3, {"a": 1, "b": 2})
        second = work_unit_digest("sweep-point", 3, {"b": 2, "a": 1})
        assert first == second

    def test_digest_changes_with_each_component(self):
        base = work_unit_digest("sweep-point", 3, {"a": 1})
        assert work_unit_digest("analytic-point", 3, {"a": 1}) != base
        assert work_unit_digest("sweep-point", 4, {"a": 1}) != base
        assert work_unit_digest("sweep-point", 3, {"a": 2}) != base

    def test_unit_computes_and_pins_digest(self):
        unit = WorkUnit("sweep-point", 3, {"a": 1})
        assert unit.config_digest == work_unit_digest("sweep-point", 3,
                                                      {"a": 1})
        with pytest.raises(ConfigurationError):
            WorkUnit("sweep-point", 3, {"a": 1}, config_digest="deadbeef")

    def test_params_are_read_only(self):
        unit = WorkUnit("sweep-point", 3, {"a": 1})
        with pytest.raises(TypeError):
            unit.params["a"] = 2

    def test_non_json_params_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkUnit("sweep-point", 3, {"a": object()})

    def test_payload_round_trips_through_pickle(self):
        unit = WorkUnit("sweep-point", 3, {"a": 1})
        payload = pickle.loads(pickle.dumps(unit.payload()))
        assert payload == ("sweep-point", 3, {"a": 1}, unit.config_digest)


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert resolve_jobs() == 1

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        assert resolve_jobs(2) == 2  # explicit argument wins

    def test_bad_values_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "many")
        with pytest.raises(ConfigurationError):
            resolve_jobs()
        with pytest.raises(ConfigurationError):
            resolve_jobs(0)


class TestSweepRunner:
    def test_serial_and_parallel_results_identical(self):
        units = _square_units(9)
        serial = SweepRunner(jobs=1).run_values(units)
        parallel = SweepRunner(jobs=3).run_values(units)
        assert serial == parallel == [x ** 2 for x in range(9)]

    def test_outcomes_come_back_in_submission_order(self):
        units = _square_units(7)
        outcomes = SweepRunner(jobs=2).run(units)
        assert [o.unit.config_digest for o in outcomes] == [
            u.config_digest for u in units]
        assert all(isinstance(o, UnitOutcome) and o.ok and not o.cached
                   for o in outcomes)
        assert all(o.wall_time >= 0.0 for o in outcomes)

    def test_worker_exception_carries_remote_traceback(self):
        units = [WorkUnit("test-square", 0, {"x": 1}),
                 WorkUnit("test-explode", 7, {})]
        runner = SweepRunner(jobs=2)
        with pytest.raises(WorkerError) as excinfo:
            runner.run(units)
        assert "boom from seed 7" in excinfo.value.remote_traceback
        assert "ValueError" in excinfo.value.remote_traceback
        assert excinfo.value.digest == units[1].config_digest

    def test_raise_on_error_false_returns_outcomes(self):
        units = [WorkUnit("test-explode", 7, {}),
                 WorkUnit("test-square", 0, {"x": 2})]
        outcomes = SweepRunner(jobs=1).run(units, raise_on_error=False)
        assert not outcomes[0].ok and "boom" in outcomes[0].error
        assert outcomes[1].ok and outcomes[1].value == 4

    def test_chunk_size_knob_is_gone(self):
        # The IPC-chunking knob died with supervised per-unit dispatch;
        # any value — previously "valid" or not — is a configuration
        # error that points at the supervisor policy instead.
        for value in (0, 1, 16):
            with pytest.raises(ConfigurationError,
                               match="SupervisorPolicy"):
                SweepRunner(chunk_size=value)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, value = cache.get("ab" + "0" * 62)
        assert not hit and value is None
        cache.put("ab" + "0" * 62, {"answer": 42})
        hit, value = cache.get("ab" + "0" * 62)
        assert hit and value == {"answer": 42}
        assert cache.misses == 1 and cache.hits == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = "cd" + "0" * 62
        cache.put(digest, 1.0)
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        path.write_bytes(b"not a pickle")
        hit, value = cache.get(digest)
        assert not hit and value is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"{index:02d}" + "0" * 62, index)
        stats = cache.stats()
        assert stats.entries == 3 and stats.total_bytes > 0
        assert "entries" in stats.format()
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_stats_format_is_human_readable(self):
        from repro.runner import CacheStats

        stats = CacheStats(root="/r", entries=2, total_bytes=3 * 1024 * 1024,
                           session_hits=1, session_misses=0)
        assert "3.0 MiB" in stats.format()
        small = CacheStats(root="/r", entries=1, total_bytes=512,
                           session_hits=0, session_misses=0)
        assert "512 B" in small.format()

    def test_format_bytes_scales_units(self):
        from repro.runner import format_bytes

        assert format_bytes(0) == "0 B"
        assert format_bytes(1023) == "1023 B"
        assert format_bytes(1536) == "1.5 KiB"
        assert format_bytes(5 * 1024 * 1024) == "5.0 MiB"
        assert format_bytes(3 * 1024 ** 3) == "3.0 GiB"

    def test_prune_evicts_least_recently_used_first(self, tmp_path):
        cache = ResultCache(tmp_path)
        digests = [f"{index:02d}" + "0" * 62 for index in range(4)]
        for index, digest in enumerate(digests):
            cache.put(digest, b"x" * 100)
            path = tmp_path / digest[:2] / f"{digest}.pkl"
            os.utime(path, (1_000_000 + index, 1_000_000 + index))
        entry_size = cache.stats().total_bytes // 4
        removed, remaining = cache.prune(entry_size * 2)
        assert removed == 2 and remaining == entry_size * 2
        # The two oldest-written entries are gone, the newest two survive.
        assert not cache.get(digests[0])[0] and not cache.get(digests[1])[0]
        cache.hits = cache.misses = 0
        assert cache.get(digests[2])[0] and cache.get(digests[3])[0]

    def test_prune_within_budget_removes_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ef" + "0" * 62, 1.0)
        total = cache.stats().total_bytes
        assert cache.prune(total) == (0, total)
        assert cache.prune(10 * 1024 * 1024) == (0, total)
        with pytest.raises(ValueError):
            cache.prune(-1)

    def test_prune_to_zero_empties_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"{index:02d}" + "0" * 62, index)
        removed, remaining = cache.prune(0)
        assert removed == 3 and remaining == 0
        assert cache.stats().entries == 0

    def test_env_var_sets_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        cache = ResultCache()
        assert cache.root == tmp_path / "envcache"

    def test_runner_serves_repeat_work_from_cache(self, tmp_path):
        units = _square_units(5)
        first = SweepRunner(jobs=1, cache=tmp_path)
        cold = first.run(units)
        assert not any(o.cached for o in cold)
        second = SweepRunner(jobs=1, cache=tmp_path)
        warm = second.run(units)
        assert all(o.cached and o.wall_time == 0.0 for o in warm)
        assert [o.value for o in warm] == [o.value for o in cold]

    def test_config_change_invalidates(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=ResultCache(tmp_path))
        runner.run(_square_units(3, seed=0))
        changed = runner.run(_square_units(3, seed=1))
        assert not any(o.cached for o in changed)

    def test_failures_are_not_cached(self, tmp_path):
        runner = SweepRunner(jobs=1, cache=tmp_path)
        unit = WorkUnit("test-explode", 1, {})
        runner.run([unit], raise_on_error=False)
        again = runner.run([unit], raise_on_error=False)
        assert not again[0].cached and not again[0].ok


class TestFigureParity:
    @pytest.mark.parametrize("exp_id", ["fig4", "fig5"])
    def test_analytic_series_equals_figure_curve(self, exp_id):
        """The public API and the runner solve SBUS curves one way."""
        from repro.analysis import analytic_series
        from repro.experiments import FIGURE_SPECS

        grid = [0.1, 0.4, 0.7, 1.0]
        spec = FIGURE_SPECS[exp_id]
        curves = figure_series(exp_id, quality="fast", intensities=grid,
                               jobs=1)
        for (label, triplet), curve in zip(spec.curves, curves):
            assert analytic_series(triplet, spec.mu_ratio, grid,
                                   label=label) == curve

    def test_work_units_have_independent_seeds(self):
        _spec, _grid, units = figure_work_units("fig7", quality="fast",
                                                intensities=[0.3, 0.6])
        simulated = [u for u in units if u.evaluator_id == "sweep-point"]
        assert len(simulated) == len({u.seed for u in simulated})
        assert len({u.config_digest for u in units}) == len(units)

    def test_spawn_seed_is_key_determined(self):
        assert spawn_seed(1, "a", 0.3) == spawn_seed(1, "a", 0.3)
        assert spawn_seed(1, "a", 0.3) != spawn_seed(1, "a", 0.6)
        assert spawn_seed(1, "a", 0.3) != spawn_seed(2, "a", 0.3)

    def test_spawn_seeds_collision_free_across_figure_registry(self):
        """Derived per-point seeds never collide over the whole registry."""
        from repro.experiments import FIGURE_SPECS

        seen = {}
        for exp_id in FIGURE_SPECS:
            for quality in ("fast", "normal"):
                _spec, _grid, units = figure_work_units(exp_id,
                                                        quality=quality)
                for unit in units:
                    if unit.evaluator_id != "sweep-point":
                        continue
                    key = (unit.params["config"], unit.params["intensity"])
                    previous = seen.setdefault(unit.seed, key)
                    # The same (curve, intensity) pair legitimately reuses
                    # its seed across qualities; distinct pairs must not.
                    assert previous == key, (
                        f"seed collision: {previous} vs {key}")
        assert len(seen) > 50

    def test_engine_tag_separates_cache_identities(self):
        """Scalar and batched sweep points never share a digest, on
        crossbar and multistage figures alike."""
        for exp_id in ("fig7", "fig8", "fig12", "fig13"):
            _spec, _grid, scalar_units = figure_work_units(
                exp_id, intensities=[0.3, 0.6], engine="scalar")
            _spec, _grid, batched_units = figure_work_units(
                exp_id, intensities=[0.3, 0.6], engine="batched")
            scalar_digests = {u.config_digest for u in scalar_units}
            batched_digests = {u.config_digest for u in batched_units}
            assert not scalar_digests & batched_digests
        with pytest.raises(ConfigurationError):
            figure_work_units("fig7", engine="warp")

    def test_megabatch_units_never_cross_other_engines(self):
        """Megabatch curve units share no digest with scalar or batched
        point units (a megabatch cache entry is a whole curve)."""
        for exp_id in ("fig7", "fig8", "fig12", "fig13"):
            digests = {}
            for engine in ("scalar", "batched", "megabatch"):
                _spec, _grid, units = figure_work_units(
                    exp_id, intensities=[0.3, 0.6], engine=engine)
                digests[engine] = {u.config_digest for u in units}
            assert not digests["megabatch"] & digests["scalar"]
            assert not digests["megabatch"] & digests["batched"]
        # Every simulated figure family is mega-batch eligible now: all
        # of fig7's XBAR curves and all of fig12's Omega + crossbar
        # curves become one curve-level unit each.
        for exp_id in ("fig7", "fig12"):
            spec, _grid, units = figure_work_units(
                exp_id, intensities=[0.3, 0.6], engine="megabatch")
            assert [u.evaluator_id for u in units] == (
                ["megabatch-figure"] * len(spec.curves))

    def test_every_simulated_figure_family_is_megabatch_eligible(self):
        """The closed fabric gate: no simulated figure falls back when
        asked for the mega-batch engine (SBUS figures stay analytic)."""
        from repro.experiments import FIGURE_SPECS

        simulated = 0
        for exp_id, spec in FIGURE_SPECS.items():
            _spec, _grid, units = figure_work_units(
                exp_id, intensities=[0.3, 0.6], engine="megabatch")
            kinds = {u.evaluator_id for u in units}
            assert "sweep-point" not in kinds, (
                f"{exp_id} still falls back to per-point units")
            if "megabatch-figure" in kinds:
                simulated += 1
        assert simulated >= 4  # figs 7, 8, 12, 13 at least

    def test_auto_engine_shares_megabatch_digests(self):
        """``auto`` routes to the same units (and cache entries) as an
        explicit megabatch request — the routing is digest-invisible."""
        for exp_id in ("fig7", "fig12", "fig4"):
            _spec, _grid, mega_units = figure_work_units(
                exp_id, intensities=[0.3, 0.6], engine="megabatch")
            _spec, _grid, auto_units = figure_work_units(
                exp_id, intensities=[0.3, 0.6], engine="auto")
            assert [u.config_digest for u in auto_units] == [
                u.config_digest for u in mega_units]

    def test_schema_bump_separates_fabric_gate_digests(self, monkeypatch):
        """Widening the gate to SBUS/multistage fabrics bumped the cache
        schema, so pre-gate entries can never serve for the new kernels."""
        from repro.runner import workunit

        assert workunit.CACHE_SCHEMA_VERSION >= 6
        assert (f"schema{workunit.CACHE_SCHEMA_VERSION}"
                in workunit.code_version())
        params = {"config": "16/1x16x16 OMEGA/2", "mu_ratio": 0.1,
                  "intensity": 0.3, "engine": "batched"}
        current = work_unit_digest("sweep-point", 3, params)
        monkeypatch.setattr(workunit, "CACHE_SCHEMA_VERSION", 5)
        assert work_unit_digest("sweep-point", 3, params) != current

    def test_megabatch_evaluator_matches_per_point_units(self):
        """The megabatch-figure unit value == its sweep-point units."""
        from repro.runner.evaluators import get_evaluator

        intensities = [0.3, 0.6]
        master_seed = 9
        params = {"config": "16/1x16x8 XBAR/2", "mu_ratio": 0.1,
                  "intensities": intensities, "horizon": 1_000.0}
        curve = get_evaluator("megabatch-figure")(master_seed, params)
        sweep = get_evaluator("sweep-point")
        for intensity, point in zip(intensities, curve):
            expected = sweep(
                spawn_seed(master_seed, params["config"], intensity),
                {"config": params["config"], "mu_ratio": 0.1,
                 "intensity": intensity, "horizon": 1_000.0,
                 "engine": "batched"})
            assert point == expected

    def test_engine_flows_from_params_to_simulated_point(self):
        """A batched-tagged unit runs the batched engine (distinct value)."""
        from repro.runner.evaluators import get_evaluator

        params = {"config": "16/1x16x8 XBAR/2", "mu_ratio": 0.1,
                  "intensity": 0.4, "horizon": 1_000.0}
        sweep = get_evaluator("sweep-point")
        scalar_point = sweep(9, params)
        batched_point = sweep(9, {**params, "engine": "batched"})
        assert scalar_point.normalized_delay is not None
        assert batched_point.normalized_delay is not None
        assert batched_point.normalized_delay != scalar_point.normalized_delay

    def test_serial_and_parallel_figures_identical(self):
        grid = [0.3, 0.6]
        serial = figure_series("fig7", quality="fast", intensities=grid,
                               jobs=1)
        parallel = figure_series("fig7", quality="fast", intensities=grid,
                                 jobs=4)
        assert serial == parallel

    def test_cached_figure_is_identical_to_fresh(self, tmp_path):
        grid = [0.4]
        cold_runner = SweepRunner(jobs=1, cache=tmp_path)
        cold = figure_series("fig4", quality="fast", intensities=grid,
                             runner=cold_runner)
        warm_runner = SweepRunner(jobs=1, cache=tmp_path)
        warm = figure_series("fig4", quality="fast", intensities=grid,
                             runner=warm_runner)
        assert warm == cold
        assert all(o.cached for o in warm_runner.last_outcomes)


class TestReplicationWaves:
    WORKLOAD = Workload(arrival_rate=0.04, transmission_rate=1.0,
                        service_rate=0.2)

    def _replicate(self, **kwargs):
        from repro.analysis.replication import replicate_delay

        return replicate_delay("8/1x1x1 SBUS/4", self.WORKLOAD,
                               horizon=2_000.0, warmup=200.0,
                               target_relative_halfwidth=0.2,
                               max_replications=30, **kwargs)

    def test_wave_estimate_matches_sequential(self):
        sequential = self._replicate(jobs=1)
        for jobs in (2, 3, 7):
            waved = self._replicate(jobs=jobs)
            assert waved.mean_delay == sequential.mean_delay
            assert waved.ci_halfwidth == sequential.ci_halfwidth
            assert waved.replications == sequential.replications
            assert waved.values == sequential.values

    def test_wave_runner_path_at_jobs_one_matches_sequential(self):
        # Force the wave code path with an explicit runner even at one job.
        sequential = self._replicate(jobs=1)
        waved = self._replicate(runner=SweepRunner(jobs=1))
        assert waved == sequential


class TestJobsEnvIntegration:
    def test_repro_jobs_env_drives_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "2")
        runner = SweepRunner()
        assert runner.effective_jobs == 2
        values = runner.run_values(_square_units(4))
        assert values == [0, 1, 4, 9]


class TestCacheIntegrity:
    """The checksummed-envelope contract: damage is detected, never served."""

    def _digest(self, index=0):
        return f"{index:02x}" + "e" * 62

    def test_envelope_round_trip_and_statuses(self):
        from repro.runner import decode_entry, encode_entry

        digest = self._digest()
        blob = encode_entry(digest, {"answer": 42})
        assert decode_entry(digest, blob) == ("ok", {"answer": 42})
        # Stored under the wrong digest: corrupt, not a value.
        assert decode_entry(self._digest(1), blob)[0] == "corrupt"
        # A flipped byte anywhere in the payload: corrupt.
        damaged = blob[:-10] + bytes([blob[-10] ^ 0xFF]) + blob[-9:]
        assert decode_entry(digest, damaged)[0] in ("corrupt", "legacy")
        # Truncation: corrupt.
        assert decode_entry(digest, blob[: len(blob) // 2])[0] == "corrupt"
        # A pre-envelope plain pickle: legacy (a miss, not quarantine bait).
        assert decode_entry(digest, pickle.dumps(42))[0] == "legacy"

    def test_corrupt_get_quarantines_the_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = self._digest(2)
        cache.put(digest, [1.0, 2.0])
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        blob = path.read_bytes()
        path.write_bytes(blob[:-4] + bytes([blob[-4] ^ 0xFF]) + blob[-3:])
        hit, value = cache.get(digest)
        assert not hit and value is None
        assert not path.exists()
        quarantined = list(cache.quarantine_root.iterdir())
        assert [p.name for p in quarantined] == [f"{digest}.pkl.quar"]
        stats = cache.stats()
        assert stats.entries == 0
        assert stats.quarantined == 1 and stats.session_corrupt == 1
        # Quarantine never blocks a fresh write of the same digest.
        cache.put(digest, [3.0])
        assert cache.get(digest) == (True, [3.0])

    def test_legacy_entry_is_a_miss_and_overwritten_in_place(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = self._digest(3)
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        path.parent.mkdir(parents=True)
        path.write_bytes(pickle.dumps({"pre-envelope": True}))
        assert cache.get(digest) == (False, None)
        assert path.exists()          # a miss, not quarantine bait
        cache.put(digest, "fresh")
        assert cache.get(digest) == (True, "fresh")

    def test_verify_reports_and_repairs(self, tmp_path):
        cache = ResultCache(tmp_path)
        good = self._digest(4)
        bad = self._digest(5)
        legacy = self._digest(6)
        cache.put(good, 1)
        cache.put(bad, 2)
        bad_path = tmp_path / bad[:2] / f"{bad}.pkl"
        bad_path.write_bytes(b"\x00garbage")
        legacy_path = tmp_path / legacy[:2] / f"{legacy}.pkl"
        legacy_path.parent.mkdir(parents=True, exist_ok=True)
        legacy_path.write_bytes(pickle.dumps(3))

        report = cache.verify()
        assert (report.checked, report.ok) == (3, 1)
        assert report.corrupt == (bad,)
        assert report.legacy == (legacy,)
        assert not report.clean
        assert bad in report.format()

        repaired = cache.verify(repair=True)
        assert repaired.quarantined == 2
        assert not bad_path.exists() and not legacy_path.exists()
        assert cache.verify().clean
        assert cache.get(good) == (True, 1)

    def test_scans_tolerate_entries_vanishing_mid_walk(self, tmp_path):
        # A dangling symlink is a faithful stand-in for the race: the scan
        # lists the entry, but stat/read raise when another runner has
        # already pruned it.
        cache = ResultCache(tmp_path)
        cache.put(self._digest(7), "survivor")
        ghost = tmp_path / "aa" / (self._digest(8)[2:] + ".pkl")
        ghost.parent.mkdir(parents=True, exist_ok=True)
        ghost.symlink_to(tmp_path / "never-existed.pkl")

        stats = cache.stats()
        assert stats.entries == 1
        report = cache.verify()
        assert report.checked == 1 and report.clean
        removed, remaining = cache.prune(0)
        assert removed == 1 and remaining == 0

    def test_clear_sweeps_quarantine_too(self, tmp_path):
        cache = ResultCache(tmp_path)
        digest = self._digest(9)
        cache.put(digest, 1)
        path = tmp_path / digest[:2] / f"{digest}.pkl"
        path.write_bytes(b"torn")
        cache.get(digest)
        assert list(cache.quarantine_root.iterdir())
        assert cache.clear() == 0     # the only entry was quarantined
        assert not cache.quarantine_root.exists()


@evaluator("test-engine-sensitive")
def _engine_sensitive(seed, params):
    if params.get("engine") == "batched":
        raise ValueError("batched path deliberately broken")
    return {"seed": seed, "engine": params.get("engine"), "x": params["x"]}


@evaluator("test-log-execution")
def _log_execution(seed, params):
    # Appends one line per *execution* to a file the test names; dedup
    # tests count lines to prove each unique digest ran exactly once.
    with open(params["log"], "a", encoding="utf-8") as handle:
        handle.write(f"{seed}:{params['x']}\n")
    return params["x"] * 10 + seed


class TestInFlightDedup:
    def _duplicated_units(self, log, uniques=3, copies=3):
        units = []
        for copy in range(copies):
            units.extend(WorkUnit("test-log-execution", 1,
                                  {"x": x, "log": str(log)})
                         for x in range(uniques))
        return units

    def test_each_unique_digest_executes_once(self, tmp_path):
        log = tmp_path / "executions.log"
        units = self._duplicated_units(log, uniques=3, copies=3)
        runner = SweepRunner(jobs=1)
        outcomes = runner.run(units)
        assert log.read_text().count("\n") == 3  # 9 units, 3 executions
        report = runner.last_report
        assert (report.total, report.computed, report.deduped) == (9, 3, 6)
        assert sum(1 for o in outcomes if o.deduped) == 6
        # Every follower carries its leader's value, re-keyed to its unit.
        assert [o.value for o in outcomes] == [1, 11, 21] * 3
        assert [o.unit.config_digest for o in outcomes] == [
            u.config_digest for u in units]

    def test_dedup_pool_path_executes_once_per_digest(self, tmp_path):
        log = tmp_path / "executions.log"
        units = self._duplicated_units(log, uniques=4, copies=2)
        runner = SweepRunner(jobs=2)
        outcomes = runner.run(units)
        assert log.read_text().count("\n") == 4
        assert runner.last_report.deduped == 4
        assert [o.value for o in outcomes] == [1, 11, 21, 31] * 2

    def test_byte_identical_to_dedup_off(self, tmp_path):
        units = []
        for copy in range(2):
            units.extend(WorkUnit("test-square", 5, {"x": x})
                         for x in range(4))
        on = SweepRunner(jobs=1).run(units)
        off_runner = SweepRunner(jobs=1,
                                 supervisor=SupervisorPolicy(dedup=False))
        off = off_runner.run(units)
        assert [pickle.dumps(o.value) for o in on] == \
               [pickle.dumps(o.value) for o in off]
        assert off_runner.last_report.deduped == 0
        assert off_runner.last_report.computed == 8

    def test_leader_failure_fails_followers_with_same_error(self):
        units = [WorkUnit("test-explode", 7, {}),
                 WorkUnit("test-explode", 7, {}),
                 WorkUnit("test-square", 0, {"x": 2})]
        policy = SupervisorPolicy(max_attempts=1)
        runner = SweepRunner(jobs=1, supervisor=policy)
        outcomes = runner.run(units, raise_on_error=False)
        assert not outcomes[0].ok and not outcomes[1].ok
        assert outcomes[0].error == outcomes[1].error
        assert "boom from seed 7" in outcomes[1].error
        assert not outcomes[0].deduped and outcomes[1].deduped
        assert outcomes[2].ok and not outcomes[2].deduped

    def test_counter_invariant_with_cache_hits(self, tmp_path):
        units = [WorkUnit("test-square", 2, {"x": x}) for x in (1, 1, 2, 3)]
        cache = ResultCache(tmp_path)
        warm = SweepRunner(jobs=1, cache=cache)
        warm.run([units[3]])  # pre-warm x=3
        runner = SweepRunner(jobs=1, cache=cache)
        runner.run(units)
        report = runner.last_report
        assert report.cache_hits == 1
        assert report.computed + report.deduped + report.cache_hits \
            == report.total == 4
        assert report.deduped == 1

    def test_deduped_run_report_format_mentions_counters(self):
        units = [WorkUnit("test-square", 0, {"x": 1}),
                 WorkUnit("test-square", 0, {"x": 1})]
        runner = SweepRunner(jobs=1)
        runner.run(units)
        text = runner.last_report.format()
        assert "1 deduped" in text
        assert "hit rate" in text


class TestFailingUnitFailsLoudly:
    """A unit that keeps failing is never swapped for another estimator:
    it is retried under its own digest and then surfaces as an error."""

    def _units(self, count):
        return [WorkUnit("test-engine-sensitive", 3,
                         {"x": x, "engine": "batched"})
                for x in range(count)]

    def test_serial_path_raises_after_retries(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=1, cache=cache,
                             supervisor=SupervisorPolicy(max_attempts=2))
        with pytest.raises(WorkerError) as excinfo:
            runner.run(self._units(1))
        assert "batched path deliberately broken" in \
            excinfo.value.remote_traceback
        [outcome] = runner.last_outcomes
        assert (outcome.attempts, outcome.degraded) == (2, ())
        report = runner.last_report
        assert report.retries == 1 and report.degradations == []
        assert cache.stats().entries == 0

    def test_pool_path_records_only_the_serial_fallback(self, tmp_path):
        units = self._units(2)
        cache = ResultCache(tmp_path)
        runner = SweepRunner(jobs=2, cache=cache,
                             supervisor=SupervisorPolicy(max_attempts=2))
        with pytest.raises(WorkerError):
            runner.run(units)
        assert [o.degraded for o in runner.last_outcomes] == \
            [("pool->serial",)] * 2
        assert sorted(runner.last_report.degradations) == sorted(
            (unit.config_digest, "pool->serial") for unit in units)
        assert cache.stats().entries == 0


class TestExecutorBackendSeam:
    def test_custom_backend_drives_the_parallel_path(self):
        from repro.runner import SerialBackend

        class CountingBackend(SerialBackend):
            def __init__(self, workers):
                self.workers = workers
                self.submitted = 0
                self.lifecycle = []

            def start(self):
                self.lifecycle.append("start")

            def submit(self, payload, attempt, chaos_spec):
                self.submitted += 1
                return super().submit(payload, attempt, chaos_spec)

            def terminate(self):
                self.lifecycle.append("terminate")

            def shutdown(self):
                self.lifecycle.append("shutdown")

        built = []

        def factory(workers):
            backend = CountingBackend(workers)
            built.append(backend)
            return backend

        units = _square_units(6)
        runner = SweepRunner(jobs=3, backend_factory=factory)
        values = runner.run_values(units)
        assert values == SweepRunner(jobs=1).run_values(units)
        [backend] = built
        assert backend.workers == 3
        assert backend.submitted == 6
        assert backend.lifecycle == ["start", "shutdown"]

    def test_broken_backend_walks_recovery_to_serial(self):
        from repro.runner import BackendBroken, SerialBackend

        class FlakyBackend(SerialBackend):
            """Breaks on every submit: the supervisor must respawn it and
            eventually degrade the work to inline serial execution."""

            broken_exceptions = (BackendBroken,)

            def __init__(self, workers):
                self.workers = workers

            def submit(self, payload, attempt, chaos_spec):
                raise BackendBroken("no transport today")

        policy = SupervisorPolicy(max_attempts=1, max_pool_respawns=1)
        runner = SweepRunner(jobs=2, backend_factory=FlakyBackend,
                             supervisor=policy)
        units = _square_units(4)
        values = runner.run_values(units)
        assert values == [x ** 2 for x in range(4)]
        report = runner.last_report
        assert report.pool_respawns >= 1
        assert report.serial_fallbacks == 4
