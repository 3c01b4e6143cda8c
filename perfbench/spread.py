#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds S]

Run from the repository root. Runs the benchmark once per seed (tracing
off) and prints, for each end-to-end metric, the median of the runs and
the spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median, next to
the metric's bound from BENCHMARK.json. The result lines are kept in
`.bench_build/spread-<workload>.jsonl`.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    args = ap.parse_args()

    log = os.path.join(".bench_build", "spread-%s.jsonl" % args.workload)
    os.makedirs(".bench_build", exist_ok=True)
    values = {}
    with open(log, "w") as out:
        for seed in seeds(args.seeds):
            done = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"),
                 "--workload", args.workload, "--seed", str(seed),
                 "--seconds", repr(args.seconds), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            line = done.stdout.strip().splitlines()[-1]
            result = json.loads(line)
            out.write(line + "\n")
            if done.returncode != 0 or not result["correct"]:
                print("seed %d: run failed" % seed)
                return 1
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print("seed %d: %s" % (seed, "  ".join(
                "%s=%.4g" % (k, v["value"])
                for k, v in result["metrics"].items())), flush=True)

    print("%-18s %12s %8s %6s" % ("metric", "median", "spread", "bound"))
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        print("%-18s %12.6g %8.4f %6.3f" % (m["name"], med, (q3 - q1) / med,
                                          m["bound"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
