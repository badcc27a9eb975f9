"""Tests for the whole-program analyzer (repro.lint.project) and the
production engine around it: ProjectIndex, SIM006-SIM010, the incremental
cache, parallel runs, the baseline ratchet, and the SARIF emitter."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import (
    ALL_RULES,
    LintSession,
    check_baseline,
    collect_suppressions,
    extract_module,
    fingerprint,
    format_json,
    format_sarif,
    lint_paths,
    lint_source,
    load_baseline,
    write_baseline,
)
from repro.lint.project import DERIVATION_CALLS as LINT_DERIVATION_CALLS
from repro.lint.project import ProjectIndex, module_name_for
from repro.sim.rng import DERIVATION_CALLS as RNG_DERIVATION_CALLS


def write_tree(root, files):
    """Materialize ``{relative_path: source}`` under ``root``."""
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def run_lint(root, **session_kwargs):
    session_kwargs.setdefault("use_cache", False)
    return LintSession(**session_kwargs).run([str(root)])


def codes(findings):
    return [finding.code for finding in findings]


def index_of(root, files):
    write_tree(root, files)
    modules = []
    for relative in files:
        path = root / relative
        source = path.read_text()
        per_line, file_codes = collect_suppressions(source)
        modules.append(extract_module(source, str(path), per_line,
                                      file_codes))
    return ProjectIndex(modules)


class TestModuleNames:
    def test_package_module_dotted(self, tmp_path):
        write_tree(tmp_path, {"pkg/__init__.py": "", "pkg/mod.py": ""})
        assert module_name_for(tmp_path / "pkg" / "mod.py") == "pkg.mod"
        assert module_name_for(tmp_path / "pkg" / "__init__.py") == "pkg"

    def test_bare_file_is_its_stem(self, tmp_path):
        (tmp_path / "script.py").write_text("")
        assert module_name_for(tmp_path / "script.py") == "script"


class TestProjectIndex:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/helpers.py": """\
            _STATE = {}


            def bump():
                _STATE["count"] = _STATE.get("count", 0) + 1


            def pure(x):
                return x + 1
            """,
        "pkg/main.py": """\
            from pkg.helpers import bump

            import pkg.helpers


            def entry(pool, items):
                return [pool.submit(worker, item) for item in items]


            def worker(item):
                bump()
                return pkg.helpers.pure(item)
            """,
    }

    def test_import_graph_project_edges_only(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        graph = index.import_graph()
        assert graph["pkg.main"] == ["pkg.helpers"]
        assert graph["pkg.helpers"] == []

    def test_resolve_from_import_and_alias(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        main_info = index.by_module["pkg.main"]
        assert index.resolve_call(main_info, "bump") == [
            ("pkg.helpers", "bump")]
        assert ("pkg.helpers", "pure") in index.resolve_call(
            main_info, "pkg.helpers.pure")

    def test_worker_entry_points_include_pool_submission(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        assert ("pkg.main", "worker") in index.worker_entry_points()

    def test_reachable_from_crosses_modules(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        reached = index.reachable_from([("pkg.main", "worker")])
        assert ("pkg.helpers", "bump") in reached
        assert reached[("pkg.helpers", "bump")] == ("pkg.main", "worker")

    def test_mutable_globals_recorded(self, tmp_path):
        index = index_of(tmp_path, self.FILES)
        assert "_STATE" in index.by_module["pkg.helpers"].mutable_globals


class TestSim006StreamCollision:
    def test_cross_module_spawn_seed_collision(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """\
                from repro.sim.rng import spawn_seed


                def seed_a(master):
                    return spawn_seed(master, "fig3", "arrivals")
                """,
            "pkg/b.py": """\
                from repro.sim.rng import spawn_seed


                def seed_b(master):
                    return spawn_seed(master, "fig3", "arrivals")
                """,
        })
        findings = run_lint(tmp_path).findings
        assert codes(findings) == ["SIM006", "SIM006"]
        assert {Path(f.path).name for f in findings} == {"a.py", "b.py"}
        assert "pkg.b" in findings[0].message

    def test_dynamic_key_component_is_exempt(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": """\
                from repro.sim.rng import spawn_seed


                def seed_a(master, index):
                    return spawn_seed(master, "fig3", index)
                """,
            "pkg/b.py": """\
                from repro.sim.rng import spawn_seed


                def seed_b(master, index):
                    return spawn_seed(master, "fig3", index)
                """,
        })
        assert run_lint(tmp_path).findings == []

    def test_distinct_keys_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'left')\n"),
            "pkg/b.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'right')\n"),
        })
        assert run_lint(tmp_path).findings == []

    def test_injected_collision_in_real_module_caught(self, tmp_path):
        """The issue's seeded injection: make blocking.py derive the same
        chained stream twice and SIM006 must fire on both sites."""
        original = Path("src/repro/analysis/blocking.py").read_text()
        tainted = original.replace('"permutation-blocking"',
                                   '"blocking-comparison"')
        assert tainted != original
        write_tree(tmp_path, {"analysis/blocking.py": ""})
        (tmp_path / "analysis" / "blocking.py").write_text(tainted)
        findings = run_lint(tmp_path).findings
        assert codes(findings) == ["SIM006", "SIM006"]
        assert all("blocking-comparison" in f.message for f in findings)


class TestSim007DigestDrift:
    def test_undeclared_params_read_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator


                @evaluator("drifted", reads=("alpha",))
                def drifted(seed, params):
                    return params["alpha"] + params["beta"]
                """,
        })
        findings = run_lint(tmp_path).findings
        assert codes(findings) == ["SIM007"]
        assert "params['beta']" in findings[0].message

    def test_declared_reads_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator


                @evaluator("honest", reads=("alpha", "beta"))
                def honest(seed, params):
                    return params["alpha"] * params.get("beta", 1.0)
                """,
        })
        assert run_lint(tmp_path).findings == []

    def test_aliased_decorator_still_recognized(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator as register


                @register("aliased", reads=())
                def aliased(seed, params):
                    return params["gamma"]
                """,
        })
        assert codes(run_lint(tmp_path).findings) == ["SIM007"]

    def test_environ_read_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                import os

                from repro.runner.evaluators import evaluator


                @evaluator("envy", reads=("alpha",))
                def envy(seed, params):
                    return params["alpha"] * float(os.environ["SCALE"])
                """,
        })
        findings = run_lint(tmp_path).findings
        assert "SIM007" in codes(findings)
        assert any("environment" in f.message for f in findings)

    def test_dynamic_key_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator


                @evaluator("dynamic", reads=("alpha",))
                def dynamic(seed, params):
                    key = "alpha"
                    return params[key]
                """,
        })
        findings = run_lint(tmp_path).findings
        assert codes(findings) == ["SIM007"]
        assert "computed at runtime" in findings[0].message

    def test_injected_drift_in_real_registry_caught(self, tmp_path):
        """The issue's seeded injection: drop one declared key from the
        real sweep-point registration and SIM007 must fire."""
        original = Path("src/repro/runner/evaluators.py").read_text()
        tainted = original.replace('"intensity",\n', "", 1)
        assert tainted != original
        write_tree(tmp_path, {"runner/__init__.py": ""})
        (tmp_path / "runner" / "evaluators.py").write_text(tainted)
        findings = run_lint(tmp_path).findings
        assert any(f.code == "SIM007" and "intensity" in f.message
                   for f in findings)


class TestSim008WorkerImpurity:
    def test_global_write_traced_across_modules(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                _COUNTS = {}


                def bump(name):
                    _COUNTS[name] = _COUNTS.get(name, 0) + 1
                """,
            "pkg/evals.py": """\
                from pkg.state import bump

                from repro.runner.evaluators import evaluator


                @evaluator("impure", reads=("alpha",))
                def impure(seed, params):
                    bump("impure")
                    return params["alpha"]
                """,
        })
        findings = run_lint(tmp_path).findings
        assert codes(findings) == ["SIM008"]
        assert "_COUNTS" in findings[0].message
        assert "pkg.evals" in findings[0].message

    def test_write_outside_worker_path_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/state.py": """\
                _COUNTS = {}


                def bump(name):
                    _COUNTS[name] = _COUNTS.get(name, 0) + 1
                """,
        })
        assert run_lint(tmp_path).findings == []

    def test_local_mutation_in_worker_clean(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/evals.py": """\
                from repro.runner.evaluators import evaluator


                @evaluator("pure", reads=("alpha",))
                def pure(seed, params):
                    acc = {}
                    acc["value"] = params["alpha"]
                    return acc
                """,
        })
        assert run_lint(tmp_path).findings == []


class TestSim009UnorderedReduction:
    def test_set_iteration_into_accumulation_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "sim/hot.py": """\
                def total(first, second):
                    pending = {first, second}
                    acc = 0.0
                    for value in pending:
                        acc += value
                    return acc
                """,
        })
        findings = run_lint(tmp_path).findings
        assert codes(findings) == ["SIM009"]
        assert "sorted" in findings[0].message

    def test_sorted_iteration_clean(self, tmp_path):
        write_tree(tmp_path, {
            "sim/hot.py": """\
                def total(first, second):
                    pending = {first, second}
                    acc = 0.0
                    for value in sorted(pending):
                        acc += value
                    return acc
                """,
        })
        assert run_lint(tmp_path).findings == []

    def test_outside_hot_paths_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "analysis/cold.py": """\
                def total(first, second):
                    pending = {first, second}
                    acc = 0.0
                    for value in pending:
                        acc += value
                    return acc
                """,
        })
        assert run_lint(tmp_path).findings == []


class TestSim010NonAtomicWrite:
    def test_bare_write_open_in_runner_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "runner/store.py": """\
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
        })
        findings = run_lint(tmp_path).findings
        assert codes(findings) == ["SIM010"]
        assert "os.replace" in findings[0].message

    def test_atomic_replace_pattern_clean(self, tmp_path):
        write_tree(tmp_path, {
            "runner/store.py": """\
                import os


                def save(path, data):
                    temporary = path + ".tmp"
                    with open(temporary, "w") as handle:
                        handle.write(data)
                    os.replace(temporary, path)
                """,
        })
        assert run_lint(tmp_path).findings == []

    def test_outside_persistence_layers_not_flagged(self, tmp_path):
        write_tree(tmp_path, {
            "analysis/export.py": """\
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
        })
        assert run_lint(tmp_path).findings == []


class TestSuppressionOfProjectFindings:
    def test_inline_pragma_silences_one_site(self, tmp_path):
        write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": (
                "from repro.sim.rng import spawn_seed\n\n\n"
                "def f(s):\n"
                "    return spawn_seed(s, 'dup')  # lint: disable=SIM006\n"),
            "pkg/b.py": (
                "from repro.sim.rng import spawn_seed\n\n\n"
                "def f(s):\n    return spawn_seed(s, 'dup')\n"),
        })
        findings = run_lint(tmp_path).findings
        assert codes(findings) == ["SIM006"]
        assert Path(findings[0].path).name == "b.py"

    def test_file_level_disable_silences_module(self, tmp_path):
        write_tree(tmp_path, {
            "runner/store.py": """\
                # lint: disable-file=SIM010
                def save(path, data):
                    with open(path, "w") as handle:
                        handle.write(data)
                """,
        })
        assert run_lint(tmp_path).findings == []


class TestIncrementalCache:
    FILES = {
        "pkg/__init__.py": "",
        "pkg/a.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                     "def f(s):\n    return spawn_seed(s, 'dup')\n"),
        "pkg/b.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                     "def f(s):\n    return spawn_seed(s, 'dup')\n"),
    }

    def test_second_run_hits_cache_for_every_file(self, tmp_path):
        root = write_tree(tmp_path / "tree", self.FILES)
        cache = tmp_path / "cache" / "findings.json"
        first = run_lint(root, cache_path=cache, use_cache=True)
        assert first.stats.cache_hits == 0
        assert first.stats.analyzed == first.stats.files == 3
        second = run_lint(root, cache_path=cache, use_cache=True)
        assert second.stats.cache_hits == second.stats.files == 3
        assert second.stats.analyzed == 0
        assert second.stats.project_cached
        assert format_json(second.findings) == format_json(first.findings)

    def test_edited_file_misses_cache_alone(self, tmp_path):
        root = write_tree(tmp_path / "tree", self.FILES)
        cache = tmp_path / "cache" / "findings.json"
        run_lint(root, cache_path=cache, use_cache=True)
        (root / "pkg" / "b.py").write_text(
            "from repro.sim.rng import spawn_seed\n\n\n"
            "def f(s):\n    return spawn_seed(s, 'other')\n")
        result = run_lint(root, cache_path=cache, use_cache=True)
        assert result.stats.analyzed == 1
        assert result.stats.cache_hits == 2
        assert not result.stats.project_cached
        assert result.findings == []

    def test_corrupt_cache_degrades_to_full_run(self, tmp_path):
        root = write_tree(tmp_path / "tree", self.FILES)
        cache = tmp_path / "cache" / "findings.json"
        cache.parent.mkdir(parents=True)
        cache.write_text("{not json")
        result = run_lint(root, cache_path=cache, use_cache=True)
        assert result.stats.analyzed == 3
        assert codes(result.findings) == ["SIM006", "SIM006"]


class TestParallelRuns:
    def test_jobs_2_output_byte_identical_to_serial(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'dup')\n"),
            "pkg/b.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'dup')\n"),
            "sim/hot.py": ("def total(a, b):\n"
                           "    pending = {a, b}\n"
                           "    acc = 0.0\n"
                           "    for value in pending:\n"
                           "        acc += value\n"
                           "    return acc\n"),
        })
        serial = run_lint(root, jobs=1)
        parallel = run_lint(root, jobs=2)
        assert parallel.stats.jobs == 2
        assert format_json(parallel.findings) == format_json(serial.findings)
        assert codes(serial.findings) == ["SIM006", "SIM006", "SIM009"]


class TestBaselineRatchet:
    def _finding_tree(self, tmp_path):
        return write_tree(tmp_path / "tree", {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'dup')\n"),
            "pkg/b.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'dup')\n"),
        })

    def test_baselined_findings_tolerated_new_ones_fail(self, tmp_path):
        root = self._finding_tree(tmp_path)
        findings = run_lint(root).findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        check = check_baseline(findings, load_baseline(baseline_path))
        assert check.clean
        assert check.matched == 2
        (root / "pkg" / "c.py").write_text(
            "from repro.sim.rng import spawn_seed\n\n\n"
            "def f(s):\n    return spawn_seed(s, 'dup')\n")
        grown = run_lint(root).findings
        check = check_baseline(grown, load_baseline(baseline_path))
        assert not check.clean
        assert any(Path(f.path).name == "c.py" for f in check.new_findings)

    def test_resolved_entries_reported(self, tmp_path):
        root = self._finding_tree(tmp_path)
        findings = run_lint(root).findings
        baseline_path = tmp_path / "baseline.json"
        write_baseline(baseline_path, findings)
        (root / "pkg" / "b.py").write_text("def clean():\n    return 1\n")
        check = check_baseline(run_lint(root).findings,
                               load_baseline(baseline_path))
        assert check.clean
        assert check.resolved  # the fixed debt shows up for ratcheting down

    def test_fingerprint_ignores_line_numbers(self):
        from repro.lint import Finding

        one = Finding(path="a.py", line=3, column=1, code="SIM006",
                      message="collides")
        moved = Finding(path="a.py", line=9, column=5, code="SIM006",
                        message="collides")
        assert fingerprint(one) == fingerprint(moved)

    def test_bad_baseline_raises_value_error(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text("[]")
        with pytest.raises(ValueError):
            load_baseline(bad)


class TestSarif:
    def test_sarif_structure_and_rule_index(self, tmp_path):
        root = write_tree(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'dup')\n"),
            "pkg/b.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'dup')\n"),
        })
        findings = run_lint(root).findings
        payload = json.loads(format_sarif(findings, rules=ALL_RULES))
        assert payload["version"] == "2.1.0"
        run = payload["runs"][0]
        rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert set(rule_ids) >= {f"SIM{n:03d}" for n in range(1, 11)}
        result = run["results"][0]
        assert result["ruleId"] == "SIM006"
        assert rule_ids[result["ruleIndex"]] == "SIM006"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"].endswith("a.py")
        assert location["region"]["startLine"] == 5

    def test_sarif_output_is_stable(self, tmp_path):
        root = write_tree(tmp_path, {"pkg/a.py": "x = 1\n"})
        first = format_sarif(run_lint(root).findings, rules=ALL_RULES)
        second = format_sarif(run_lint(root).findings, rules=ALL_RULES)
        assert first == second


class TestVocabularySync:
    def test_lint_and_rng_derivation_calls_agree(self):
        """SIM006 indexes literals at exactly the runtime's derivation
        call names; the two vocabularies must never drift apart."""
        assert LINT_DERIVATION_CALLS == RNG_DERIVATION_CALLS

    def test_digest_material_matches_declared_contract(self):
        from repro.runner.workunit import DIGEST_MATERIAL

        assert DIGEST_MATERIAL == ("code_version", "evaluator_id", "seed",
                                   "params")

    def test_every_production_evaluator_declares_reads(self):
        import repro.runner.evaluators as evaluators

        for evaluator_id, function in evaluators.EVALUATORS.items():
            if function.__module__ != "repro.runner.evaluators":
                continue  # test suites register throwaway evaluators freely
            assert evaluators.EVALUATOR_READS[evaluator_id] is not None, (
                f"evaluator {evaluator_id!r} must declare reads=(...) so "
                "SIM007 can audit its digest material")


class TestRepoMetaLint:
    def test_whole_repo_is_baseline_clean_under_all_rules(self):
        """The issue's CI meta-test: the tree linted with SIM001-SIM010
        has no findings beyond the committed baseline."""
        result = LintSession(use_cache=False).run(["src"])
        baseline = load_baseline(".lint-baseline.json")
        check = check_baseline(result.findings, baseline)
        assert check.clean, [f.format() for f in check.new_findings]

    def test_catalogue_is_complete(self):
        assert sorted(rule.code for rule in ALL_RULES) == [
            f"SIM{n:03d}" for n in range(1, 11)]
        assert all(rule.summary for rule in ALL_RULES)


class TestCliIntegration:
    def _dirty_tree(self, tmp_path):
        return write_tree(tmp_path / "tree", {
            "pkg/__init__.py": "",
            "pkg/a.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'dup')\n"),
            "pkg/b.py": ("from repro.sim.rng import spawn_seed\n\n\n"
                         "def f(s):\n    return spawn_seed(s, 'dup')\n"),
        })

    def test_sarif_format_round_trips(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        assert main(["lint", str(root), "--no-cache",
                     "--format", "sarif"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["runs"][0]["results"][0]["ruleId"] == "SIM006"

    def test_stats_go_to_stderr_not_stdout(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        assert main(["lint", str(root), "--no-cache", "--stats",
                     "--format", "json"]) == 1
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays machine-parseable
        assert "cache hits" in captured.err

    def test_baseline_write_then_check_workflow(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert main(["lint", str(root), "--no-cache", "--baseline", "write",
                     "--baseline-file", str(baseline)]) == 0
        assert main(["lint", str(root), "--no-cache", "--baseline", "check",
                     "--baseline-file", str(baseline)]) == 0
        assert "baseline-clean" in capsys.readouterr().out
        (root / "pkg" / "c.py").write_text(
            "from repro.sim.rng import spawn_seed\n\n\n"
            "def f(s):\n    return spawn_seed(s, 'dup')\n")
        assert main(["lint", str(root), "--no-cache", "--baseline", "check",
                     "--baseline-file", str(baseline)]) == 1
        assert "new finding(s)" in capsys.readouterr().out

    def test_jobs_flag_accepted(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        assert main(["lint", str(root), "--no-cache", "--jobs", "2",
                     "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 2

    def test_cache_dir_flag_isolates_cache(self, tmp_path, capsys):
        root = self._dirty_tree(tmp_path)
        cache_dir = tmp_path / "lintcache"
        assert main(["lint", str(root), "--cache-dir", str(cache_dir)]) == 1
        assert (cache_dir / "findings.json").exists()
        capsys.readouterr()

    def test_list_rules_covers_whole_catalogue(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for number in range(1, 11):
            assert f"SIM{number:03d}" in out


class TestSatelliteRegressions:
    def test_sim002_dotted_datetime_flagged(self):
        source = ("import datetime\n\n\n"
                  "def f():\n    return datetime.datetime.now()\n")
        findings = lint_source(source, "src/repro/sim/clockuse.py")
        assert codes(findings) == ["SIM002"]

    def test_sim002_unrelated_dotted_tail_clean(self):
        source = ("def f(self):\n    return self.clock.time()\n")
        assert lint_source(source, "src/repro/sim/clockuse.py") == []

    def test_overlapping_targets_lint_each_file_once(self, tmp_path):
        write_tree(tmp_path, {"pkg/dirty.py": "import random\n"})
        once = lint_paths([str(tmp_path)])
        twice = lint_paths([str(tmp_path), str(tmp_path / "pkg"),
                            str(tmp_path / "pkg" / "dirty.py")])
        assert codes(once) == codes(twice) == ["SIM001"]

    def test_file_level_disable_in_first_comment_block(self):
        source = ("# generated file\n"
                  "# lint: disable-file=SIM001\n"
                  "import random\n")
        assert lint_source(source, "pkg/module.py") == []

    def test_disable_file_after_code_is_not_honored(self):
        source = ("import random\n"
                  "# lint: disable-file=SIM001\n")
        assert codes(lint_source(source, "pkg/module.py")) == ["SIM001"]

    def test_disable_file_all_swallows_syntax_errors(self):
        source = ("# lint: disable-file=ALL\n"
                  "def broken(:\n")
        assert lint_source(source, "pkg/module.py") == []
