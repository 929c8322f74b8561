#!/usr/bin/env python3
"""End-to-end benchmark runner.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the qra library and the e2ebench binary from this checkout
(CMake, Release) into $CARGO_TARGET_DIR/e2ebench (default
.bench_build/e2ebench) and runs one workload: fresh processes of the
same seed, one after another, until --seconds have passed (at least
MIN_PROCESSES of them). Each times the workload's fixed
JOBS_PER_PROCESS, 2-4 s on a 4-vCPU Xeon, so its peak RSS does not
depend on how fast it ran; with --trace 1 it replays them traced as
well, and each per-layer metric is the median over the processes.

Each end-to-end metric but setup_s is the better quartile over the
processes (the first quartile of a lower-is-better metric, the third
of a higher-is-better one); setup_s is their median. On a shared
4-vCPU VM, hypervisor steal makes throughput vary 10-30% from one
process to the next. Steal only ever slows a process, so the better
quartile follows the program and ignores up to three quarters of the
processes being hit.

The last stdout line is the JSON result; its metric names and units
are checked against BENCHMARK.json (end_to_end for --trace 0,
per_layer for --trace 1), and a mismatch marks the result incorrect.
Build output goes to stderr. Exits non-zero, printing no result, when
the sources are missing or the build or a run fails.
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
MIN_PROCESSES = 5
BUILD_TIMEOUT_S = 800
# Timed jobs per process (per pass with --trace 1): at least 100, so
# that ten latency samples lie beyond p90.
JOBS_PER_PROCESS = {
    "paper_ibmqx4": 360,
    "debug_corpus": 6000,
    "wide_sweep": 240,
}


def fail(message):
    print(f"e2ebench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(len(os.sched_getaffinity(0)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "e2ebench",
                    "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "e2ebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in whys:
        fail(f"unknown workload {args.workload!r}; "
             f"known: {', '.join(whys)}")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("qra sources (src/CMakeLists.txt) not found next to "
             "e2ebench/; run from a full checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as err:
        fail(f"build failed: {err}")

    command = [binary, "--workload", args.workload, "--seed",
               str(args.seed), "--jobs",
               str(JOBS_PER_PROCESS[args.workload]), "--trace",
               str(args.trace)]
    trace_out = ["--trace-out", os.path.join(
        build_dir, f"trace-{args.workload}.json")] if args.trace else []

    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    runs = [run_once(command + trace_out, deadline)]
    while (len(runs) < MIN_PROCESSES or
           time.monotonic() - start < args.seconds):
        runs.append(run_once(command, deadline))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = combine([r for _, r in runs], None if args.trace else
                     {m["name"]: m["better"] for m in declared})

    want = {m["name"]: m["unit"] for m in declared}
    for _, r in runs:
        got = {name: m["unit"] for name, m in r["metrics"].items()}
        if got != want:
            print("e2ebench: printed metrics do not match BENCHMARK.json: "
                  f"missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))}, unit mismatches "
                  f"{sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}",
                  file=sys.stderr)
            result["correct"] = False

    print(f"why: {whys[args.workload]}")
    for line in runs[0][0]:
        print(line)
    print(f"{'medians' if args.trace else 'better quartiles'} over "
          f"{len(runs)} processes of {JOBS_PER_PROCESS[args.workload]} "
          "jobs each (the report above is the first):")
    for name, m in result["metrics"].items():
        values = " ".join(f"{r['metrics'][name]['value']:.6g}"
                          for _, r in runs)
        print(f"  {name:34s} {m['value']:12.6g} {m['unit']:5s} [{values}]")
    print(json.dumps(result))


def run_once(command, deadline):
    """Run the binary once; return its report lines and JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail(f"runs exceeded {RUN_TIMEOUT_S} s")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"runs exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"e2ebench exited with {proc.returncode}")
    try:
        return lines[:-1], json.loads(lines[-1])
    except json.JSONDecodeError:
        sys.stdout.write(proc.stdout)
        fail("no JSON result line")


def combine(results, better):
    """Each metric's better quartile over the runs (its median when
    `better` is None, and always for setup_s); counts summed.

    A process's setup_s, the median of its set-ups, falls in one of
    two modes (about 6 or 8 us on a 4-vCPU Xeon) that hold for the
    whole process, so a quartile over a few processes flips between
    them while the median stays in the common one."""
    metrics = {}
    for name, m in results[0]["metrics"].items():
        values = [r["metrics"].get(name, m)["value"] for r in results]
        if better is None or name == "setup_s":
            value = statistics.median(values)
        else:
            quartiles = statistics.quantiles(values, n=4)
            value = (quartiles[2] if better.get(name) == "higher"
                     else quartiles[0])
        metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


if __name__ == "__main__":
    main()
