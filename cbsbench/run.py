#!/usr/bin/env python3
"""Build the CBSVM benchmark from source and run one workload.

    python3 cbsbench/run.py --workload adaptive-suite --seed 1 \
        --seconds 36 --trace 0

Run from the repository root. The first run configures and builds the
repository's src/ libraries plus the benchmark into the build directory
($CARGO_TARGET_DIR if set, else .bench_build); later runs rebuild
incrementally. Every run first executes the planted-fault self-test of
the benchmark's output checks, then the workload. The last line of
standard output is the workload's JSON result; build output goes to
standard error. Exits non-zero, without a result, when the build, the
self-test or the workload fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("adaptive-suite", "accuracy-sweep", "fuzz-campaign")
# A workload run must end well inside the 180 s a run is allowed.
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds; returns False on failure."""
    os.makedirs(out, exist_ok=True)
    # One build at a time, should two runs start together.
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "-j4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                # A failed configure must not leave a cache that makes
                # the next run skip configuring.
                if cmd[1] == "-S":
                    shutil.rmtree(os.path.join(out, "CMakeFiles"),
                                  ignore_errors=True)
                    try:
                        os.remove(os.path.join(out, "CMakeCache.txt"))
                    except FileNotFoundError:
                        pass
                return False
    return True


def valid_result(line, trace):
    """The result has its four keys and exactly the metrics that
    BENCHMARK.json lists for this kind of run."""
    try:
        r = json.loads(line)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            listed = json.load(f)["per_layer" if trace else "end_to_end"]
    except (OSError, ValueError, KeyError):
        return False
    return (isinstance(r, dict)
            and set(r) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(r["attempted"], int) and r["attempted"] >= 1
            and set(r["metrics"]) == {m["name"] for m in listed})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    out = build_dir()
    if not build(out):
        print("cbsbench: build failed", file=sys.stderr)
        return 1
    selftest = subprocess.run([os.path.join(out, "cbsbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr,
                              timeout=RUN_TIMEOUT_S)
    if selftest.returncode != 0:
        print("cbsbench: the output checks' self-test failed",
              file=sys.stderr)
        return 1

    work = os.path.join(out, "work-%d" % os.getpid())
    try:
        proc = subprocess.run(
            [os.path.join(out, "cbsbench"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", work],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("cbsbench: workload exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not valid_result(lines[-1], args.trace):
        sys.stderr.write(proc.stdout)
        print("cbsbench: workload failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
