"""Command-line interface: ``python -m repro <command> ...``.

Commands:

* ``list``       — show every registered experiment id;
* ``experiment`` — regenerate one of the paper's tables/figures;
* ``run``        — regenerate an experiment through the parallel sweep
  runner: ``--jobs N`` fans figure points out over worker processes and
  results are memoized in the content-addressed cache;
* ``cache``      — inspect (``stats [--json]``), empty (``clear``),
  size-bound (``prune --max-size``), integrity-check
  (``verify [--repair|--fast]``), or rebuild the entry index of
  (``reindex``) that cache;
* ``simulate``   — run one configuration at a load point;
* ``solve``      — exact Markov-chain analysis of a shared bus;
* ``recommend``  — the Table II advisor over the standard candidates;
* ``blocking``   — the Section V blocking comparison;
* ``faults``     — fault-injected run with availability report and the
  degraded-capacity prediction;
* ``lint``       — the two-pass determinism lint (per-file SIM001-SIM005
  plus whole-program SIM006-SIM010) with incremental caching, ``--jobs``
  parallel analysis, a ``--baseline`` ratchet, and ``--format json|sarif``
  for CI.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import ReproError


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Resource-sharing interconnection networks: a "
                     "reproduction of Wah (1983)."),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    commands.add_parser("list", help="list experiment ids")

    experiment = commands.add_parser(
        "experiment", help="regenerate a table or figure")
    experiment.add_argument("exp_id", help="experiment id (see 'list')")
    experiment.add_argument("--quality", default="fast",
                            choices=["fast", "normal", "full"])
    experiment.add_argument("--plot", action="store_true",
                            help="draw delay figures as an ASCII chart")
    experiment.add_argument("--jobs", type=int, default=None,
                            help="worker processes for figure sweeps "
                                 "(default: REPRO_JOBS or 1)")

    run = commands.add_parser(
        "run", help="regenerate an experiment via the parallel sweep runner")
    run.add_argument("exp_id", help="experiment id (see 'list')")
    run.add_argument("--quality", default="fast",
                     choices=["fast", "normal", "full"])
    run.add_argument("--jobs", type=int, default=None,
                     help="worker processes (default: REPRO_JOBS or 1)")
    run.add_argument("--seed", type=int, default=1,
                     help="master seed for per-point replications")
    run.add_argument("--engine", default="auto",
                     choices=["auto", "scalar", "batched", "megabatch"],
                     help="simulation engine for simulated points: 'auto' "
                          "(the default) routes each curve to the fastest "
                          "supported engine — whole curves as one 2-D "
                          "mega-batch, per-point lockstep batched "
                          "replications, then the scalar event loop — and "
                          "prints one fallback note per gated curve; the "
                          "named engines force one path (engine choice is "
                          "cache-digest material)")
    run.add_argument("--cache-dir", default=None,
                     help="result cache directory "
                          "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    run.add_argument("--no-cache", action="store_true",
                     help="recompute every point, bypassing the cache")
    run.add_argument("--max-attempts", type=int, default=3,
                     help="executions per point before the supervisor "
                          "runs it once inline and, if that fails too, "
                          "fails the sweep (default: 3)")
    run.add_argument("--unit-timeout", type=float, default=None,
                     help="seconds before an in-flight point counts as "
                          "hung and its worker pool is recycled "
                          "(default: no timeout)")
    run.add_argument("--plot", action="store_true",
                     help="draw delay figures as an ASCII chart")
    run.add_argument("--profile", action="store_true",
                     help="profile the run with cProfile and print the "
                          "top-25 functions by cumulative time")
    run.add_argument("--profile-out", default="repro_profile.pstats",
                     help="pstats dump written when --profile is given "
                          "(default: repro_profile.pstats)")

    cache = commands.add_parser(
        "cache", help="inspect, clear, prune, audit, or reindex the sweep "
                      "result cache")
    cache.add_argument("action", choices=["stats", "clear", "prune",
                                          "verify", "reindex"])
    cache.add_argument("--cache-dir", default=None,
                       help="cache directory "
                            "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    cache.add_argument("--max-size", type=float, default=None, metavar="MB",
                       help="prune: evict least-recently-used entries "
                            "until the cache fits in this many megabytes")
    cache.add_argument("--repair", action="store_true",
                       help="verify: quarantine corrupted entries and "
                            "evict unverifiable legacy-format ones")
    cache.add_argument("--fast", action="store_true",
                       help="verify: index-driven existence/size audit "
                            "(no payload reads or checksums)")
    cache.add_argument("--json", action="store_true",
                       help="stats: emit machine-readable JSON for "
                            "dashboards instead of the text report")

    simulate = commands.add_parser(
        "simulate", help="simulate one configuration at a load point")
    simulate.add_argument("config", help="triplet, e.g. '16/1x16x16 OMEGA/2'")
    simulate.add_argument("--rho", type=float, default=0.5,
                          help="traffic intensity on the paper's axis")
    simulate.add_argument("--ratio", type=float, default=0.1,
                          help="mu_s / mu_n")
    simulate.add_argument("--horizon", type=float, default=30_000.0)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--arbitration", default="priority",
                          choices=["priority", "random", "fifo"])

    solve = commands.add_parser(
        "solve", help="exact shared-bus Markov analysis")
    solve.add_argument("arrival", type=float, help="aggregate arrival rate")
    solve.add_argument("transmission", type=float, help="mu_n")
    solve.add_argument("service", type=float, help="mu_s")
    solve.add_argument("resources", type=int, help="resources on the bus")
    solve.add_argument("--method", default="matrix-geometric",
                       choices=["matrix-geometric", "truncated-direct",
                                "stage-recursion"])

    recommend = commands.add_parser(
        "recommend", help="Table II advisor over the standard candidates")
    recommend.add_argument("--resource-cost", type=float, required=True,
                           help="cost of one resource in crosspoints")
    recommend.add_argument("--ratio", type=float, default=0.1)
    recommend.add_argument("--rho", type=float, default=0.8)

    blocking = commands.add_parser(
        "blocking", help="Section V blocking comparison")
    blocking.add_argument("--size", type=int, default=8)
    blocking.add_argument("--trials", type=int, default=200)

    faults = commands.add_parser(
        "faults", help="fault-injected simulation with availability report")
    faults.add_argument("config", help="triplet, e.g. '16/1x16x16 OMEGA/2'")
    faults.add_argument("--kind", default="resource",
                        choices=["resource", "bus", "cell", "interchange"],
                        help="component class to fail")
    faults.add_argument("--mttf", type=float, default=1000.0,
                        help="mean time to failure per component")
    faults.add_argument("--mttr", type=float, default=100.0,
                        help="mean time to repair per component")
    faults.add_argument("--rho", type=float, default=0.5,
                        help="traffic intensity on the paper's axis")
    faults.add_argument("--ratio", type=float, default=0.1,
                        help="mu_s / mu_n")
    faults.add_argument("--max-retries", type=int, default=5)
    faults.add_argument("--task-timeout", type=float, default=None,
                        help="abandon queued tasks older than this")
    faults.add_argument("--horizon", type=float, default=30_000.0)
    faults.add_argument("--seed", type=int, default=1)

    lint = commands.add_parser(
        "lint", help="two-pass determinism lint (SIM001-SIM010) over the "
                     "source tree")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", dest="lint_format", default="text",
                      choices=["text", "json", "sarif"],
                      help="report format (json is stable for CI; sarif "
                           "annotates PRs inline)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalogue and exit")
    lint.add_argument("--jobs", type=int, default=None,
                      help="worker processes for file analysis "
                           "(default: REPRO_JOBS or 1; output is "
                           "byte-identical to serial)")
    lint.add_argument("--baseline", choices=["write", "check"], default=None,
                      help="ratchet mode: 'write' snapshots current "
                           "findings, 'check' fails only on findings not "
                           "in the snapshot")
    lint.add_argument("--baseline-file", default=None, metavar="PATH",
                      help="baseline location "
                           "(default: .lint-baseline.json)")
    lint.add_argument("--no-cache", action="store_true",
                      help="disable the incremental finding cache")
    lint.add_argument("--cache-dir", default=None,
                      help="directory for the incremental finding cache "
                           "(default: <REPRO_CACHE_DIR or "
                           "~/.cache/repro>/_lint)")
    lint.add_argument("--stats", action="store_true",
                      help="print cache effectiveness and phase timings "
                           "to stderr")
    return parser


def _command_list(_args) -> int:
    from repro.experiments import EXPERIMENT_IDS
    for exp_id in EXPERIMENT_IDS:
        print(exp_id)
    return 0


def _command_experiment(args) -> int:
    from repro.experiments import FIGURE_SPECS, run_experiment
    result = run_experiment(args.exp_id, quality=args.quality, jobs=args.jobs)
    print(result.report)
    if args.plot and args.exp_id in FIGURE_SPECS:
        from repro.experiments.render import render_series
        print()
        print(render_series(result.data, title=result.description))
    return 0


def _command_run(args) -> int:
    import time

    from repro.experiments import (
        FIGURE_SPECS,
        figure_series,
        format_series_table,
        run_experiment,
    )
    from repro.runner import ResultCache, SupervisorPolicy, SweepRunner

    if args.exp_id not in FIGURE_SPECS:
        # Non-figure experiments have no point decomposition (and nothing
        # cacheable); run them through the registry with the jobs knob.
        result = run_experiment(args.exp_id, quality=args.quality,
                                jobs=args.jobs)
        print(result.report)
        return 0

    if args.engine in ("auto", "batched", "megabatch"):
        # One line per curve that will fall back to the scalar engine,
        # naming the gate property that blocks it.
        from repro.analysis.sweep import megabatch_curve_reason
        from repro.config import SystemConfig

        spec = FIGURE_SPECS[args.exp_id]
        for label, triplet in spec.curves:
            config = SystemConfig.parse(triplet)
            if config.network_type == "SBUS":
                continue  # exact chain, no simulation engine involved
            reason = megabatch_curve_reason(config, spec.mu_ratio)
            if reason is not None:
                print(f"note: {triplet} ({label}) falls back to the "
                      f"scalar engine: the batched engine does not "
                      f"support {reason}", file=sys.stderr)

    cache = None if args.no_cache else ResultCache(args.cache_dir)
    policy = SupervisorPolicy(max_attempts=args.max_attempts,
                              unit_timeout=args.unit_timeout,
                              seed=args.seed)
    runner = SweepRunner(jobs=args.jobs, cache=cache, supervisor=policy)
    profiler = None
    if args.profile:
        import cProfile
        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    series = figure_series(args.exp_id, quality=args.quality, seed=args.seed,
                           runner=runner, engine=args.engine)
    elapsed = time.perf_counter() - start
    if profiler is not None:
        profiler.disable()
    title = f"{args.exp_id}: {FIGURE_SPECS[args.exp_id].title}"
    print(format_series_table(series, title=title))
    if args.plot:
        from repro.experiments.render import render_series
        print()
        print(render_series(series, title=title))
    outcomes = runner.last_outcomes
    hits = sum(1 for outcome in outcomes if outcome.cached)
    print()
    points = sum(len(curve.points) for curve in series)
    print(f"{points} points ({len(outcomes)} units) in {elapsed:.2f}s "
          f"({runner.effective_jobs} job(s), {hits} cache hit(s), "
          f"cache {'off' if cache is None else cache.root})")
    report = runner.last_report
    if not report.clean or report.deduped:
        print(report.format())
    if profiler is not None:
        import pstats
        profiler.dump_stats(args.profile_out)
        print()
        print(f"profile written to {args.profile_out}")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(25)
    return 0


def _command_cache(args) -> int:
    from repro.runner import ResultCache
    from repro.runner.cache import format_bytes

    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached result(s) from {cache.root}")
        return 0
    if args.action == "prune":
        if args.max_size is None:
            print("error: cache prune requires --max-size <MB>",
                  file=sys.stderr)
            return 2
        max_bytes = int(args.max_size * 1024 * 1024)
        removed, remaining = cache.prune(max_bytes)
        print(f"removed {removed} cached result(s) from {cache.root} "
              f"({format_bytes(remaining)} remain, "
              f"limit {format_bytes(max_bytes)})")
        return 0
    if args.action == "verify":
        if args.fast:
            fast_report = cache.verify_fast()
            print(fast_report.format())
            return 0 if fast_report.clean else 1
        report = cache.verify(repair=args.repair)
        print(report.format())
        return 0 if report.clean else 1
    if args.action == "reindex":
        print(cache.reindex().format())
        return 0
    if args.json:
        import json
        print(json.dumps(cache.stats().as_dict(), indent=2, sort_keys=True))
        return 0
    print(cache.stats().format())
    return 0


def _command_simulate(args) -> int:
    from repro.analysis import workload_at
    from repro.config import SystemConfig
    from repro.core import simulate
    config = SystemConfig.parse(args.config)
    workload = workload_at(args.rho, args.ratio, processors=config.processors)
    result = simulate(config, workload, horizon=args.horizon,
                      warmup=args.horizon * 0.1, seed=args.seed,
                      arbitration=args.arbitration)
    print(f"configuration   : {config}")
    print(f"traffic rho     : {args.rho} (mu_s/mu_n = {args.ratio})")
    print(f"result          : {result}")
    return 0


def _command_solve(args) -> int:
    from repro.markov import solve_sbus
    solution = solve_sbus(args.arrival, args.transmission, args.service,
                          args.resources, method=args.method)
    print(f"method                 : {solution.method}")
    print(f"mean queueing delay d  : {solution.mean_delay:.6f}")
    print(f"normalized mu_s * d    : {solution.normalized_delay:.6f}")
    print(f"mean queue length      : {solution.mean_queue_length:.6f}")
    print(f"bus utilization        : {solution.bus_utilization:.6f}")
    print(f"resource utilization   : {solution.resource_utilization:.6f}")
    return 0


def _command_recommend(args) -> int:
    from repro.analysis import CostModel, recommend
    from repro.analysis.selection import classify
    from repro.analysis.sweep import workload_at
    from repro.config import SystemConfig
    from repro.experiments.figures import TABLE2_CANDIDATES
    candidates = [SystemConfig.parse(text) for text in TABLE2_CANDIDATES]
    workload = workload_at(args.rho, args.ratio)
    model = CostModel(resource_unit_cost=args.resource_cost,
                      bus_tap_cost=0.25)
    recommendation = recommend(candidates, workload, model)
    print(f"build: {recommendation.winner.config}  "
          f"[{classify(recommendation.winner.config).value}]")
    for evaluation in recommendation.ranking:
        marker = "*" if evaluation is recommendation.winner else " "
        print(f" {marker} {str(evaluation.config):<22} "
              f"cost {evaluation.cost:>8.1f}  d = {evaluation.mean_delay:.4f}")
    return 0


def _command_blocking(args) -> int:
    from repro.analysis import blocking_comparison, full_permutation_blocking
    from repro.experiments import format_blocking_table
    points = blocking_comparison(size=args.size,
                                 request_sizes=(3, 4, 5, 6),
                                 trials=args.trials)
    full = full_permutation_blocking(size=args.size, trials=args.trials)
    print(format_blocking_table(points, full=full))
    return 0


def _command_faults(args) -> int:
    import math

    from repro.analysis import workload_at
    from repro.analysis.degraded import degraded_system_metrics
    from repro.config import SystemConfig
    from repro.core import simulate
    from repro.faults import MODEL_CLASSES, FaultConfig, RetryPolicy

    model = MODEL_CLASSES[args.kind](mttf=args.mttf, mttr=args.mttr)
    retry = RetryPolicy(
        max_retries=args.max_retries,
        task_timeout=(math.inf if args.task_timeout is None
                      else args.task_timeout))
    config = SystemConfig.parse(args.config).with_faults(
        FaultConfig(models=(model,), retry=retry))
    workload = workload_at(args.rho, args.ratio, processors=config.processors)
    result = simulate(config, workload, horizon=args.horizon,
                      warmup=args.horizon * 0.1, seed=args.seed)
    report = result.availability
    print(f"configuration    : {config}")
    print(f"fault model      : {args.kind} mttf={args.mttf} mttr={args.mttr} "
          f"(A = {model.availability:.4f})")
    print(f"result           : {result}")
    print(f"throughput       : {result.throughput:.4f} tasks/time")
    print(f"failures         : {report.total_failures} "
          f"(downtime {report.total_downtime:.1f})")
    print(f"observed mttf    : {report.observed_mttf(args.kind):.1f}")
    print(f"observed mttr    : {report.observed_mttr(args.kind):.1f}")
    print(f"capacity offered : {report.time_weighted_capacity():.4f}")
    if args.kind == "resource":
        prediction = degraded_system_metrics(config, workload)
        print(f"degraded model   : throughput {prediction.throughput:.4f}, "
              f"E[resources up] {prediction.expected_resources_up:.2f}, "
              f"P(port saturated) {prediction.saturated_probability:.3g}")
    return 0


def _command_lint(args) -> int:
    from pathlib import Path

    from repro.lint import (
        ALL_RULES,
        LintSession,
        check_baseline,
        format_json,
        format_sarif,
        format_text,
        load_baseline,
        write_baseline,
    )
    from repro.lint.baseline import DEFAULT_BASELINE_FILE

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.summary}")
        return 0
    cache_path = (Path(args.cache_dir) / "findings.json"
                  if args.cache_dir else None)
    session = LintSession(jobs=args.jobs, cache_path=cache_path,
                          use_cache=not args.no_cache)
    try:
        result = session.run(args.paths)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.stats:
        print(result.stats.format(), file=sys.stderr)
    findings = result.findings
    baseline_path = args.baseline_file or DEFAULT_BASELINE_FILE

    if args.baseline == "write":
        recorded = write_baseline(baseline_path, findings)
        print(f"baseline written to {baseline_path}: {recorded} "
              f"fingerprint(s) over {len(findings)} finding(s)")
        return 0

    if args.baseline == "check":
        try:
            baseline = load_baseline(baseline_path)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        check = check_baseline(findings, baseline)
        if args.lint_format == "sarif":
            # SARIF under baseline check reports only the *new* debt, so
            # CI annotations match what actually fails the build.
            print(format_sarif(check.new_findings, rules=ALL_RULES))
            print(check.format(), file=sys.stderr)
        elif args.lint_format == "json":
            print(format_json(check.new_findings))
            print(check.format(), file=sys.stderr)
        else:
            print(check.format())
        return 0 if check.clean else 1

    if args.lint_format == "sarif":
        print(format_sarif(findings, rules=ALL_RULES))
    elif args.lint_format == "json":
        print(format_json(findings))
    else:
        print(format_text(findings))
    return 1 if findings else 0


_COMMANDS = {
    "list": _command_list,
    "experiment": _command_experiment,
    "run": _command_run,
    "cache": _command_cache,
    "simulate": _command_simulate,
    "solve": _command_solve,
    "recommend": _command_recommend,
    "blocking": _command_blocking,
    "faults": _command_faults,
    "lint": _command_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
