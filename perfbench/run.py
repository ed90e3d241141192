#!/usr/bin/env python3
"""The repository benchmark: build the harness from source, run one workload.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --self-check [--workload <name> ...] [--runs 10]

The first form builds perfbench_harness (CMake, Release) into
.bench_build/perfbench, runs one workload and prints a human-readable
summary followed by one JSON line:

  {"correct": true, "attempted": N, "failed": 0,
   "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. The exit code is 0 when every correctness
check passed, 1 when one failed, 2 when the benchmark could not run.

--self-check runs two sets of --runs runs per workload on the same build
(seeds 1..N, then 101..100+N) and prints each end-to-end metric's median
and quartiles per set; a metric whose spread exceeds its bound, or whose
second median is worse than the first by more than the bound, is marked
unresolved.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
BUILD_JOBS = "4"


class BenchError(Exception):
    """The benchmark could not run (exit code 2, no result printed)."""


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_base():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return target if os.path.isabs(target) else os.path.join(ROOT, target)


def build():
    """Configure (once) and build the harness; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        raise BenchError("no gather sources next to perfbench/ (CMakeLists.txt, src/)")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    build_dir = os.path.join(build_base(), "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_build_step(configure)
    run_build_step(
        [cmake, "--build", build_dir, "--target", "perfbench_harness", "-j", BUILD_JOBS]
    )
    binary = os.path.join(build_dir, "perfbench_harness")
    if not os.path.isfile(binary):
        raise BenchError("build produced no perfbench_harness")
    return binary


def run_build_step(cmd):
    try:
        done = subprocess.run(
            cmd,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            timeout=BUILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"build step timed out: {' '.join(cmd)}") from e
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-4000:])
        raise BenchError(f"build step failed: {' '.join(cmd)}")


def git_describe():
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def run_harness(binary, workload, seed, seconds, trace, deadline):
    cmd = [
        binary,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    if trace:
        spans_dir = os.path.join(build_base(), "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out", os.path.join(spans_dir, f"{workload}-seed{seed}.tsv")]
    timeout = max(10.0, deadline - time.monotonic())
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{workload}: harness exceeded {timeout:.0f} s") from e
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or not lines:
        raise BenchError(f"{workload}: harness exited with {done.returncode}")
    return json.loads(lines[-1])


def measure(binary, workload, seed, seconds, trace, deadline):
    """One run: the harness report plus the benchmark-level checks."""
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    manifest = load_json(os.path.join(HERE, "manifest.json"))
    report = run_harness(binary, workload, seed, seconds, trace, deadline)
    failed = report["failed"]
    notes = []
    if seed == manifest["default_seed"]:
        pinned = manifest["pinned_digests"][workload]
        if report["digest"] != pinned:
            failed += 1
            notes.append(f"output digest {report['digest']} != pinned {pinned}")
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        if spec["name"] not in report["metrics"]:
            raise BenchError(f"{workload}: harness did not report {spec['name']}")
        metrics[spec["name"]] = {
            "value": report["metrics"][spec["name"]],
            "unit": spec["unit"],
        }
    return {
        "correct": report["correct"] and failed == 0,
        "attempted": report["attempted"],
        "failed": failed,
        "metrics": metrics,
        "report": report,
        "notes": notes,
    }


def print_summary(workload, seed, seconds, trace, result):
    report = result["report"]
    print(
        f"# machine: nproc={os.cpu_count()} compiler={report['compiler']} "
        f"build_type={report['build_type']} git={git_describe()}"
    )
    print(f"# workload={workload} seed={seed} seconds={seconds} trace={trace}")
    for name, m in result["metrics"].items():
        print(f"{name:48s} {m['value']:>16.6g} {m['unit']}")
    calls = report["attempted"]
    print(f"{'failed_frac':48s} {result['failed'] / max(1, calls):>16.6g} ratio "
          f"({result['failed']} of {calls} calls)")
    for name, value in report["details"].items():
        print(f"  {name:46s} {value:>16.6g}")
    for note in result["notes"]:
        print(f"# check failed: {note}")


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def self_check(args):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    seconds = args.seconds or bench["run_seconds"]
    binary = build()
    all_resolved = True
    machine_printed = False
    for workload in workloads:
        sets = []
        for first_seed in (1, 101):
            runs = []
            for seed in range(first_seed, first_seed + args.runs):
                deadline = time.monotonic() + RUN_TIMEOUT_S
                result = measure(binary, workload, seed, seconds, 0, deadline)
                if not result["correct"]:
                    raise BenchError(f"{workload} seed {seed}: correctness check failed")
                if not machine_printed:
                    machine_printed = True
                    report = result["report"]
                    print(f"# machine: nproc={os.cpu_count()} compiler={report['compiler']} "
                          f"build_type={report['build_type']} git={git_describe()} "
                          f"runs={args.runs} seconds={seconds}", flush=True)
                runs.append(result["metrics"])
            sets.append(runs)
        print(f"## {workload}")
        for spec in bench["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            stats = [quartiles([r[name]["value"] for r in runs]) for runs in sets]
            spreads = [(q3 - q1) / med if med else 0.0 for q1, med, q3 in stats]
            drift = (stats[1][1] - stats[0][1]) / stats[0][1] if stats[0][1] else 0.0
            if spec["better"] == "higher":
                drift = -drift
            unresolved = any(s > bound for s in spreads if name != "setup_s") or drift > bound
            all_resolved &= not unresolved
            cells = "  ".join(
                f"set{i + 1} med={med:.6g} q1={q1:.6g} q3={q3:.6g} spread={s:.3f}"
                for i, ((q1, med, q3), s) in enumerate(zip(stats, spreads))
            )
            print(f"{name:18s} bound={bound:.2f} {cells}  worse_by={drift:+.3f}"
                  f"{'  UNRESOLVED' if unresolved else ''}")
    return 0 if all_resolved else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    try:
        if args.self_check:
            return self_check(args)
        if not args.workload or len(args.workload) != 1:
            parser.error("give exactly one --workload")
        seconds = args.seconds or load_json(os.path.join(ROOT, "BENCHMARK.json"))["run_seconds"]
        binary = build()
        deadline = time.monotonic() + RUN_TIMEOUT_S
        workload = args.workload[0]
        result = measure(binary, workload, args.seed, seconds, args.trace, deadline)
        print_summary(workload, args.seed, seconds, args.trace, result)
        line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
        print(json.dumps(line), flush=True)
        return 0 if result["correct"] else 1
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
