#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

    python3 perfbench/selftest.py [--runs]

Run from the repository root. Builds the driver, then checks:

  - the driver's own tests (`perfbench --selftest`): a tampered verdict and
    a tampered witness each raise failed_frac, and latency_tail_ms picks a
    percentile with at least ten samples beyond it;
  - every metric name the driver prints matches [A-Za-z0-9_.-]+ and is
    listed in BENCHMARK.json with the same unit, and every metric listed in
    BENCHMARK.json is printed.

With --runs it also runs every workload for one second in both modes and
checks the names and units in each printed result line.
"""

import json
import os
import re
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def declared():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]},
            [w["name"] for w in bench["workloads"]])


def compare(kind, printed, wanted, errors):
    for name, unit in printed.items():
        if not NAME.match(name):
            errors.append("%s metric %r has a bad name" % (kind, name))
        elif name not in wanted:
            errors.append("%s metric %s is not in BENCHMARK.json" % (kind, name))
        elif wanted[name] != unit:
            errors.append("%s metric %s has unit %s, BENCHMARK.json says %s"
                          % (kind, name, unit, wanted[name]))
    for name in wanted:
        if name not in printed:
            errors.append("%s metric %s is never printed" % (kind, name))


def main():
    errors = []
    binary = run.build(os.getcwd())
    if binary is None:
        return 2
    if subprocess.run([binary, "--selftest"]).returncode != 0:
        errors.append("perfbench --selftest failed")

    end_to_end, per_layer, workloads = declared()
    listed = {"end_to_end": {}, "per_layer": {}}
    out = subprocess.run([binary, "--list-metrics"], stdout=subprocess.PIPE,
                         text=True, check=True).stdout
    for line in out.splitlines():
        kind, name, unit = line.split()
        listed[kind][name] = unit
    compare("end_to_end", listed["end_to_end"], end_to_end, errors)
    compare("per_layer", listed["per_layer"], per_layer, errors)

    if "--runs" in sys.argv[1:]:
        for workload in workloads:
            for trace, wanted in ((0, end_to_end), (1, per_layer)):
                done = subprocess.run(
                    [sys.executable, os.path.join("perfbench", "run.py"),
                     "--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace)],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                if done.returncode != 0 or not result["correct"]:
                    errors.append("%s trace %d: run failed" % (workload, trace))
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                compare("%s trace %d" % (workload, trace), printed, wanted,
                        errors)
                print("ran %s --trace %d" % (workload, trace))

    for e in errors:
        print("FAIL", e)
    print("selftest.py %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
