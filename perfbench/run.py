#!/usr/bin/env python3
"""Builds and runs the DUET wall-clock benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload <fleet-tiny|compile-zoo> \\
        --seed <n> --seconds <s> --trace <0|1>

The first run configures and builds the library and the benchmark binary
with CMake under $CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json, or with --trace 1 its per-layer metrics. A traced run first
repeats the workload untraced, with the same seed and length, and reports
tracing overhead as trace.overhead.<metric>_pct, the relative difference of
each end-to-end metric. Exits non-zero without a result when the build fails,
and non-zero after the result when an output or cross-check was wrong.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_BUDGET_S = 170.0  # one run, build excluded, must end within 180 s


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", build_dir, "--target", "duet_perfbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("error: build step failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "duet_perfbench")


def run_binary(binary, args, trace, deadline, trace_out=None):
    """Runs one workload; returns (exit code, final JSON object or None)."""
    cmd = [binary, "--workload", args.workload, "--seed", args.seed,
           "--seconds", str(args.seconds), "--trace", "1" if trace else "0"]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log("error: %s run exceeded its time budget" % args.workload)
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(("[traced] " if trace else "") + line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("error: the benchmark printed no result")
        return proc.returncode or 1, None
    return proc.returncode, result


def expect_names(metrics, names, what):
    missing = [n for n in names if n not in metrics]
    if missing:
        log("error: %s metrics missing: %s" % (what, ", ".join(missing)))
        return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", default="1")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", default="0", choices=["0", "1"])
    args = parser.parse_args()
    if not args.seed.isdigit():
        parser.error("--seed must be a non-negative integer")

    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        parser.error("unknown workload " + args.workload)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    binary = build(build_dir)
    if binary is None:
        return 1
    deadline = time.monotonic() + RUN_BUDGET_S

    code, untraced = run_binary(binary, args, False, deadline)
    if untraced is None or not expect_names(untraced["metrics"], e2e, "end-to-end"):
        return code or 1
    if args.trace == "0":
        untraced["metrics"] = {n: untraced["metrics"][n] for n in e2e}
        print(json.dumps(untraced))
        return code

    trace_out = os.path.join(root, target, "trace-%s-seed%s.json" %
                             (args.workload, args.seed))
    traced_code, traced = run_binary(binary, args, True, deadline, trace_out)
    if traced is None:
        return traced_code or 1
    metrics = traced["metrics"]
    for name in e2e:
        before = untraced["metrics"][name]["value"]
        after = metrics[name]["value"]
        pct = 100.0 * (after - before) / before if before else 0.0
        metrics["trace.overhead.%s_pct" % name] = {"value": pct, "unit": "%"}
        print("tracing overhead: %-16s untraced %.6g, traced %.6g (%+.2f%%)"
              % (name, before, after, pct))
    if not expect_names(metrics, layers, "per-layer"):
        return 1
    traced["metrics"] = {n: metrics[n] for n in layers}
    traced["correct"] = bool(traced["correct"] and untraced["correct"])
    print(json.dumps(traced))
    return code or traced_code


if __name__ == "__main__":
    sys.exit(main())
