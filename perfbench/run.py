"""Benchmark of record: regenerate the paper's artifacts through the CLI.

Run from the repository root::

    python3 perfbench/run.py --workload omega-fig12 --seed 1 --seconds 10 --trace 0

``--workload all`` runs every workload in turn and names the metrics of
the result ``<workload>/<metric>``.

One client in a closed loop: the benchmark launches one
``python -m repro run <id>`` process at a time and waits for it.  A cycle
is a *cold pass* over the workload's artifacts against a fresh, empty
cache directory, then a *warm pass* of the same commands against the
cache the cold pass filled.  A new cycle starts while at least half of
one more fits in ``--seconds``; after the last, warm passes go on until
``--seconds`` have passed and the warm passes add up to the workload's
``warm_min_s``.  So the samples of both kinds spread over the whole run.
``--seed`` is the master ``--seed`` of every command.

``--trace 0`` reports the end-to-end metrics (``cold_s``, ``warm_s``,
``setup_s``, ``peak_rss_mb``).  ``--trace 1`` runs one cold and one warm
pass with every layer wrapped from outside the program
(``perfbench/tracing.py``), an untraced cold pass, and the traced pair
again; it fails unless the two traces count exactly the same work, and
reports the per-layer metrics of the cold and the warm pass.

Every artifact's table is parsed, digested and checked against the
headline claim of its ``benchmarks/bench_*`` module; the warm table must
equal the cold one byte for byte.  The last stdout line is the JSON
result; the exit code is 1 when any check failed, 2 on a usage error or
when the checkout has no ``src/repro`` to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
PYTHON = sys.executable

#: Samples of ``python -m repro list`` per run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Samples of ``-X importtime`` per traced run; the median is reported.
IMPORT_SAMPLES = 3
#: A run starts no new pass that would likely end after this many seconds.
RUN_BUDGET_S = 150.0
#: Environment knobs that would change what the CLI does, or how many
#: threads its linear algebra uses: the benchmark measures the defaults.
SCRUBBED_ENV = ("REPRO_CHAOS", "REPRO_JOBS", "REPRO_CACHE_DIR",
                "REPRO_VARIATE_BLOCK", "OMP_NUM_THREADS",
                "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class Failures:
    """Artifact regenerations attempted and failed, with the reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, label: str, failure: Optional[str]) -> None:
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            self.reasons.append(f"{label}: {failure}")

    def fail(self, label: str, failure: str) -> None:
        """A check over a whole run, not over one regeneration."""
        self.reasons.append(f"{label}: {failure}")


@dataclass
class Child:
    status: int
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: Sequence[str], env: Dict[str, str], work: Path) -> Child:
    """Run one process to completion; rusage is this child's alone."""
    out_path, err_path = work / "stdout.txt", work / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(list(argv), stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, usage.ru_maxrss / 1024.0,
                 out_path.read_text(), err_path.read_text())


@dataclass
class Pass:
    wall_s: float
    children: List[Child]
    traces: List[Dict[str, float]]


def run_pass(workload: Workload, seed: int, cache: Path,
             env: Dict[str, str], work: Path, traced: bool) -> Pass:
    """Regenerate every artifact once, one process after another."""
    commands, trace_paths = [], []
    for index, artifact in enumerate(workload.artifacts):
        argv = artifact.argv(seed, str(cache))
        if traced:
            trace_path = work / f"trace-{index}.json"
            trace_path.unlink(missing_ok=True)   # never read a stale trace
            trace_paths.append(trace_path)
            commands.append([PYTHON, str(HERE / "trace_child.py"),
                             str(trace_path), *argv])
        else:
            commands.append([PYTHON, "-m", "repro", *argv])
    start = time.perf_counter()
    children = [run_child(command, env, work) for command in commands]
    wall = time.perf_counter() - start
    traces = [json.loads(path.read_text()) if path.exists() else {}
              for path in trace_paths]
    return Pass(wall, children, traces)


def check_pass(workload: Workload, run: Pass, label: str,
               failures: Failures, reference: Dict[str, dict]) -> None:
    """Check every artifact of a pass against its claim and ``reference``.

    The first table seen for an artifact becomes its reference (sha256
    and point count); every later pass of the run (warm, another cycle,
    traced) must print the same bytes.
    """
    for artifact, child in zip(workload.artifacts, run.children):
        name = f"{label} {artifact.exp_id}"
        if child.status != 0:
            tail = child.stderr.strip().splitlines()[-1:] or [""]
            failures.record(name, f"exit status {child.status}: {tail[0]}")
            continue
        table, failure = artifact.check(child.stdout)
        if table is not None and failure is None:
            expected = reference.setdefault(
                artifact.exp_id,
                {"sha256": table.sha256, "points": table.points})["sha256"]
            if table.sha256 != expected:
                failure = (f"table sha256 {table.sha256[:16]} differs from "
                           f"{expected[:16]}")
        failures.record(name, failure)


def child_env(src: Path) -> Dict[str, str]:
    env = {key: value for key, value in os.environ.items()
           if key not in SCRUBBED_ENV}
    env["PYTHONPATH"] = str(src)
    return env


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    low, median, high = statistics.quantiles(values, n=4)
    return low, median, high


# -- end-to-end run --------------------------------------------------------


def measure(workload: Workload, seed: int, seconds: int,
            env: Dict[str, str], work: Path, failures: Failures,
            tables: Dict[str, dict]) -> Tuple[Dict[str, float], dict]:
    setup = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        child = run_child([PYTHON, "-m", "repro", "list"], env, work)
        setup.append(time.perf_counter() - start)
        if child.status != 0 or "fig12" not in child.stdout.split():
            failures.fail("setup", f"'repro list' failed: {child.stderr}")
    cold: List[float] = []
    warm: List[float] = []
    rss = 0.0

    def one_pass(cache: Path, label: str) -> float:
        nonlocal rss
        run = run_pass(workload, seed, cache, env, work, traced=False)
        rss = max([rss] + [child.rss_mb for child in run.children])
        check_pass(workload, run, label, failures, tables)
        return run.wall_s

    began = time.perf_counter()
    while True:
        cycle_start, cycle = time.perf_counter(), len(cold)
        cache = work / f"cache-{cycle}"
        cold.append(one_pass(cache, f"cycle {cycle} cold"))
        warm.append(one_pass(cache, f"cycle {cycle} warm"))
        now = time.perf_counter()
        # Another cycle starts when --seconds would pass nearer its end
        # than its start, so a run ends near --seconds on either side.
        if now - began + (now - cycle_start) / 2 > min(seconds, RUN_BUDGET_S):
            break
        shutil.rmtree(cache, ignore_errors=True)
    while (time.perf_counter() - began < seconds
           or sum(warm) < workload.warm_min_s):
        if time.perf_counter() - began + warm[-1] > RUN_BUDGET_S:
            break
        warm.append(one_pass(cache, f"cycle {cycle} warm {len(warm)}"))
    shutil.rmtree(cache, ignore_errors=True)
    samples = {"cold_s": cold, "warm_s": warm, "setup_s": setup}
    metrics = {name: statistics.median(values)
               for name, values in samples.items()}
    metrics["peak_rss_mb"] = rss
    return metrics, samples


# -- traced run ------------------------------------------------------------


def _sum_traces(traces: List[Dict[str, float]]) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for trace in traces:
        for name, value in trace.items():
            total[name] = total.get(name, 0) + value
    return total


def import_times(env: Dict[str, str], modules: Sequence[str],
                 work: Path) -> Dict[str, float]:
    """Cumulative import seconds of repro, scipy and numpy.

    ``-X importtime`` prints one line per module after its children, with
    the nesting depth as indentation; a package's time is the cumulative
    time of its outermost imports.
    """
    code = "; ".join(f"import {module}" for module in modules)
    child = run_child([PYTHON, "-X", "importtime", "-c", code], env, work)
    if child.status != 0:
        raise RuntimeError(f"import of {modules} failed: {child.stderr}")
    entries = []
    for line in child.stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue   # the header line
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(cumulative) / 1e6))
    totals = {"cli.import_s": 0.0, "cli.import_scipy_s": 0.0,
              "cli.import_numpy_s": 0.0}
    packages = {"scipy": "cli.import_scipy_s", "numpy": "cli.import_numpy_s"}
    ancestors: List[Tuple[int, str]] = []
    for depth, name, cumulative in reversed(entries):   # parents first
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if depth == 0 and package == "repro":
            totals["cli.import_s"] += cumulative
        if package in packages and not any(
                outer.split(".")[0] == package for _, outer in ancestors):
            totals[packages[package]] += cumulative
        ancestors.append((depth, name))
    return totals


def per_layer_names() -> List[str]:
    """Every metric a ``--trace 1`` run reports, in the order of
    ``BENCHMARK.json``'s ``per_layer`` list."""
    from tracing import Tracer

    layer = list(Tracer().metrics())
    return (["cli.import_s", "cli.import_scipy_s", "cli.import_numpy_s",
             "trace.overhead_s"]
            + [f"{phase}.{name}" for phase in ("cold", "warm")
               for name in layer])


def trace(workload: Workload, seed: int, env: Dict[str, str], work: Path,
          failures: Failures, tables: Dict[str, dict]
          ) -> Tuple[Dict[str, float], dict]:
    def traced_cycle(repeat: int) -> Dict[str, Tuple[float, dict]]:
        cache = work / f"cache-traced-{repeat}"
        phases = {}
        for phase in ("cold", "warm"):
            run = run_pass(workload, seed, cache, env, work, traced=True)
            check_pass(workload, run, f"traced {repeat} {phase}", failures,
                       tables)
            phases[phase] = (run.wall_s, _sum_traces(run.traces))
        shutil.rmtree(cache, ignore_errors=True)
        return phases

    first_cycle = traced_cycle(0)
    # The untraced pass sits between the traced ones, so drift in machine
    # speed weighs on both sides of trace.overhead_s alike.
    cache = work / "cache-untraced"
    untraced = run_pass(workload, seed, cache, env, work, traced=False)
    check_pass(workload, untraced, "untraced cold", failures, tables)
    shutil.rmtree(cache, ignore_errors=True)
    repeats = [first_cycle, traced_cycle(1)]

    first, second = ({f"{phase}.{name}": value
                      for phase, (_, counts) in cycle.items()
                      for name, value in counts.items()}
                     for cycle in repeats)
    for repeat, counts in enumerate((first, second)):
        for name, value in _self_check_failures(workload, counts):
            failures.fail(f"self-check {repeat}",
                          f"{name} = {value}, expected 0")
    metrics: Dict[str, float] = {}
    for name, value in first.items():
        if name.endswith("_s"):
            metrics[name] = (value + second.get(name, 0.0)) / 2
        else:
            metrics[name] = value
            if second.get(name) != value:
                failures.fail("determinism",
                              f"{name} is {value} then {second.get(name)}")

    imports = [import_times(env, workload.import_modules, work)
               for _ in range(IMPORT_SAMPLES)]
    for name in imports[0]:
        metrics[name] = statistics.median(sample[name] for sample in imports)
    traced_cold = [phases["cold"][0] for phases in repeats]
    metrics["trace.overhead_s"] = (statistics.mean(traced_cold)
                                   - untraced.wall_s)
    samples = {"untraced_cold_s": [untraced.wall_s],
               "traced_cold_s": traced_cold,
               "traced_warm_s": [phases["warm"][0] for phases in repeats]}
    names = per_layer_names()
    missing = [name for name in names if name not in metrics]
    if missing:
        failures.fail("trace", f"no value for {', '.join(missing)}")
    return {name: metrics[name] for name in names if name in metrics}, samples


def _self_check_failures(workload: Workload, metrics: Dict[str, float]
                         ) -> List[Tuple[str, float]]:
    """Counts whose non-zero value means the workload measures the wrong
    thing: cache hits on a cold pass, misses on a warm one, retries,
    degradations, and the workload's own ``expect_zero`` list."""
    zero = ["cold.runner.hits", "warm.runner.misses"]
    zero += [f"{phase}.{name}" for phase in ("cold", "warm")
             for name in ("runner.retries", "runner.degraded")
             + workload.expect_zero]
    return [(name, metrics.get(name)) for name in zero
            if metrics.get(name) != 0]


# -- provenance and reporting ---------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True)
    except OSError:
        return "unknown (no git)"
    return result.stdout.strip() or "unknown"


def _tree_digest(src: Path) -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, src: Path) -> Dict[str, object]:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(root),
        "src_sha256": _tree_digest(src),
    }


def unit_of(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    return "s" if name.endswith("_s") else "count"


def report(workload: Workload, metrics: Dict[str, float],
           samples: Dict[str, List[float]], failures: Failures,
           tables: Dict[str, dict]) -> None:
    print(f"workload {workload.name}")
    for exp_id, table in tables.items():
        print(f"  artifact {exp_id:<10} {table['points']:4d} points  "
              f"sha256 {table['sha256']}")
    for name, values in samples.items():
        low, median, high = quartiles(values)
        print(f"  {name:<16} median {median:10.4f} s  "
              f"quartiles {low:.4f}..{high:.4f}  n={len(values)}")
    rate = failures.failed / failures.attempted if failures.attempted else 0
    print(f"  {'error_rate':<16} {rate:.4f} ratio  "
          f"({failures.failed} of {failures.attempted} regenerations failed)")
    for name, value in metrics.items():
        if name not in samples:
            print(f"  {name:<28} {value:14.6f} {unit_of(name)}")
    for reason in failures.reasons:
        print(f"  FAILED {reason}")


def run_workload(workload: Workload, seed: int, seconds: int, trace_run: bool,
                 root: Path, env: Dict[str, str]
                 ) -> Tuple[Failures, Dict[str, float]]:
    """Measure (or trace) one workload; print its report and record."""
    work = root / ".perfbench_work" / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True)
    failures = Failures()
    tables: Dict[str, dict] = {}
    try:
        if trace_run:
            metrics, samples = trace(workload, seed, env, work, failures,
                                     tables)
        else:
            metrics, samples = measure(workload, seed, seconds, env, work,
                                       failures, tables)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": workload.name,
        "commands": [["python", "-m", "repro", *a.argv(seed, "<fresh>")]
                     for a in workload.artifacts],
        "seed": seed, "seconds": seconds, "trace": int(trace_run),
        "tables": tables, "samples": samples,
        "failures": failures.reasons,
        "provenance": provenance(root, root / "src"),
    }
    report(workload, metrics, samples, failures, tables)
    print("record: " + json.dumps(record, sort_keys=True))
    results = root / ".perfbench_results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{workload.name}-seed{seed}-trace{int(trace_run)}-{stamp}"
               f"-{os.getpid()}.json").write_text(
        json.dumps(dict(record, metrics=metrics), indent=2, sort_keys=True))
    return failures, metrics


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or 'all' in turn (metrics are "
                             "then named <workload>/<metric>)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository "
              f"root", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: need --seed >= 0 and --seconds >= 1", file=sys.stderr)
        return 2
    env = child_env(src)
    # Compile the sources once so no timed process pays for bytecode.
    subprocess.run([PYTHON, "-m", "compileall", "-q", str(src)],
                   env=env, check=True, stdout=subprocess.DEVNULL)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct, attempted, failed = True, 0, 0
    metrics: Dict[str, float] = {}
    for name in names:
        failures, measured = run_workload(WORKLOADS[name], args.seed,
                                          args.seconds, bool(args.trace),
                                          root, env)
        correct = correct and not failures.reasons
        attempted += failures.attempted
        failed += failures.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update((prefix + metric, value)
                       for metric, value in measured.items())
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value,
                           "unit": unit_of(name.rsplit("/", 1)[-1])}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
