#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the Reduce pipeline.

    python3 perfbench/run.py --workload mlp_lot --seed 1 --seconds 16 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

The harness (perfbench/src, built by perfbench/CMakeLists.txt together with
the library sources under src/) is compiled into .bench_build/perfbench of
the checkout on first use and rebuilt incrementally afterwards. Build output
goes to stderr; the harness's own report lines go to stdout, and the last
stdout line is the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Reports and Chrome trace files land in .bench_build/perfbench-out.

See perfbench/METRICS.md for the workloads, every metric and the output
gate.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
BINARY = os.path.join(BUILD_DIR, "reduce_bench")
WORKLOADS = ["mlp_lot", "vgg_lot", "dist_timeline"]

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build_jobs():
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(4, cpus))


def build():
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found next to perfbench/; run from a full checkout")
    env = dict(os.environ, CCACHE_DISABLE="1")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, env=env,
                       timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", str(build_jobs())], check=True,
                   stdout=sys.stderr, env=env, timeout=BUILD_TIMEOUT_S)


def run_one(workload, seed, seconds, trace):
    """Runs the harness once; returns the parsed result object."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", OUT_DIR]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S), 1)
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stdout.write(out)
        fail("%s exited with code %d" % (workload, proc.returncode), proc.returncode)
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s printed a malformed result line" % workload, 1)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="one of %s, or all" % WORKLOADS)
    parser.add_argument("--seed", type=int, default=20230309)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    names = WORKLOADS if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        fail("unknown workload %r; choose from %s or all" % (args.workload, WORKLOADS))
    if args.seed < 0:
        fail("--seed must be a non-negative integer")

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        fail("build failed: %s" % err, 1)

    results = {name: run_one(name, args.seed, args.seconds, args.trace) for name in names}
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name + "." + metric: value for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
