#!/usr/bin/env python3
"""End-to-end benchmark of the live burst-search service.

Usage (from the repository root):

    python3 perfbench/run.py --workload serving --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --self-test

Builds the stburst library and the benchmark binary from source into
.bench_build/ (first run only; later runs rebuild incrementally), runs one
workload, and forwards the binary's report. The last stdout line is the
result JSON: {"correct", "attempted", "failed", "metrics"}, with every
end-to-end metric of BENCHMARK.json under --trace 0 and every per-layer
metric under --trace 1. A full record (host fingerprint, tail percentiles,
sample counts) goes to .bench_build/results/. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "stburst"))):
        log(f"no stburst sources at {ROOT}; cannot build the benchmark")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
                  "perfbench", "perfbench_helpers_test"])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result line.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build step failed: {err}")
            return False
        if done.returncode != 0:
            log(f"build step failed ({done.returncode}): {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    """{name: unit} the result line must carry, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def check_result(line, trace):
    """Problems with the binary's result line against BENCHMARK.json."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return [f"result keys are {sorted(result)}"]
    problems = []
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        problems.append(f"metrics differ from BENCHMARK.json: missing "
                        f"{missing}, extra {extra}, unit mismatch {units}")
    return problems


def run(args):
    binary = os.path.join(BUILD_DIR, "perfbench")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    out = os.path.join(RESULTS_DIR,
                       f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 1
    lines = stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        log(f"benchmark binary exited with {proc.returncode}")
        return proc.returncode or 1
    problems = check_result(lines[-1], args.trace)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for p in problems:
            log(p)
        return 1
    sys.stdout.write(stdout if stdout.endswith("\n") else stdout + "\n")
    sys.stdout.flush()
    return 0


def self_test():
    done = subprocess.run([os.path.join(BUILD_DIR, "perfbench_helpers_test")],
                          check=False, timeout=RUN_TIMEOUT_S)
    return done.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper tests only")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        return 2
    return self_test() if args.self_test else run(args)


if __name__ == "__main__":
    sys.exit(main())
