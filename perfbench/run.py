#!/usr/bin/env python3
"""Build and run the engine benchmark.

    python3 perfbench/run.py --workload point_read --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The engine (src/) and the benchmark
program (perfbench/src/) are built with CMake into .bench_build/, the workload runs
against databases in a private directory under .bench_build/db/ that is
removed afterwards, and a traced run (--trace 1) writes its spans as a
Chrome trace to .bench_build/traces/. The last line printed is the JSON
result; its metrics are checked against BENCHMARK.json before it is printed.
"""
import argparse
import fcntl
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(HERE, "..", "src", "db", "database.h")):
        fail("engine sources (src/) not found next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        tree = os.path.join(BUILD, "perfbench")
        steps = []
        if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", tree,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", tree, "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("build failed: " + " ".join(cmd))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("result has keys %s" % sorted(result))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s" %
             (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, m in result["metrics"].items():
        v = m["value"]
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail("metric %s has value %r" % (name, v))


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    build()
    os.makedirs(os.path.join(BUILD, "db"), exist_ok=True)
    os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=args.workload + "-",
                               dir=os.path.join(BUILD, "db"))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", run_dir]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            BUILD, "traces", "%s-seed%d.json" % (args.workload, args.seed))]

    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        shutil.rmtree(run_dir, ignore_errors=True)
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        print(lines[-1])
        fail("benchmark exited with %d" % proc.returncode)
    check_result(lines[-1], args.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()
