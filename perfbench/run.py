#!/usr/bin/env python3
"""Build and run the campaign benchmark from the root of a checkout.

    python3 perfbench/run.py --workload triage --seed 1234 --seconds 30 --trace 0

Configures perfbench/ with CMake into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), builds the repository's libraries and
the benchmark, runs the benchmark's arithmetic tests, then runs
perfbench_campaign. Its report goes to stdout; the last line is the
JSON summary restricted to the metrics BENCHMARK.json lists for the
chosen --trace mode. Exits non-zero when the build, the arithmetic tests
or a correctness check fails.
"""

import argparse
import json
import os
import subprocess
import sys


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_quiet(command):
    """Run a build step, sending its output to stderr."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def git_commit(root):
    # Look for a repository at the checkout only, never above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        result = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                                capture_output=True, text=True, timeout=10,
                                cwd=root, env=env)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    root = os.getcwd()
    source = os.path.join(root, "perfbench")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        log(f"perfbench: cannot read BENCHMARK.json: {error}")
        return 2
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("perfbench: run from the root of a checkout (no src/ here)")
        return 2

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build = os.path.join(root, target, "perfbench")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", source, "-B", build]):
            log("perfbench: configure failed")
            return 1
    if not run_quiet(["cmake", "--build", build, "-j", jobs, "--target",
                      "perfbench_campaign", "perfbench_arith_test"]):
        log("perfbench: build failed")
        return 1
    if not run_quiet([os.path.join(build, "perfbench_arith_test"),
                      "--gtest_brief=1"]):
        log("perfbench: arithmetic tests failed")
        return 1

    command = [os.path.join(build, "perfbench_campaign"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(build, "results"),
               "--commit", git_commit(root)]
    result = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = result.stdout.rstrip("\n").split("\n")
    summary_line = lines.pop() if lines else ""
    for line in lines:
        print(line)
    sys.stdout.flush()
    try:
        summary = json.loads(summary_line)
    except ValueError:
        print(summary_line)
        log(f"perfbench: no JSON summary (exit code {result.returncode})")
        return result.returncode or 1

    wanted = spec["end_to_end" if args.trace == 0 else "per_layer"]
    metrics = {}
    for metric in wanted:
        name = metric["name"]
        if name not in summary["metrics"]:
            log(f"perfbench: metric {name} missing from the run")
            return 1
        metrics[name] = summary["metrics"][name]
    summary["metrics"] = metrics
    print(json.dumps(summary))
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
