#!/usr/bin/env python3
"""Steadiness check: run one workload N times and report each end-to-end
metric's spread against its bound in BENCHMARK.json.

    python3 cbsbench/steady.py --workload fuzz-campaign --runs 10 \
        [--seed-base 1] [--seconds 20] [--json out.json]

Run from the repository root. Run i uses seed seed-base + i. For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)), the quartile spread (Q3 - Q1) and the
max-min spread as shares of the median, and the bound. A spread above
the bound fails (setup_s is exempt from the spread rule, as its bound
only limits how far its median may move); a spread above a third of the
bound is flagged as the margin to aim for. It also reports the share of
failed ops, which must be the same in every run. Exits 1 when a spread
fails or a run fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="defaults to run_seconds from BENCHMARK.json")
    ap.add_argument("--json", help="write the raw results here")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["end_to_end"]

    results = []
    for i in range(args.runs):
        seed = args.seed_base + i
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            cwd=ROOT)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print("run with seed %d failed (exit %d)" % (seed,
                                                          proc.returncode))
            return 1
        r = json.loads(proc.stdout.rstrip("\n").split("\n")[-1])
        r["seed"] = seed
        results.append(r)
        print("seed %d: attempted %d failed %d correct %s" %
              (seed, r["attempted"], r["failed"], r["correct"]),
              flush=True)

    ok = all(r["correct"] for r in results)
    shares = {r["failed"] / r["attempted"] for r in results}
    print("failed share per run: %s" % sorted(shares))
    if len(shares) != 1:
        print("FAIL: the failed share differs between runs")
        ok = False

    print("%-22s %12s %12s %12s %8s %8s %6s  %s" %
          ("metric", "median", "q1", "q3", "iqr", "range", "bound",
           "verdict"))
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        iqr = (q3 - q1) / med if med else float("inf")
        rng = (max(values) - min(values)) / med if med else float("inf")
        bound = m["bound"]
        if m["name"] == "setup_s":
            verdict = "exempt"
        elif iqr > bound:
            verdict = "FAIL"
            ok = False
        elif iqr > bound / 3:
            verdict = "above bound/3"
        else:
            verdict = "ok"
        print("%-22s %12.6g %12.6g %12.6g %7.2f%% %7.2f%% %5.0f%%  %s" %
              (m["name"], med, q1, q3, 100 * iqr, 100 * rng, 100 * bound,
               verdict))
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "seconds": seconds,
                       "runs": results}, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
