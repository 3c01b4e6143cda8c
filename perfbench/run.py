#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library, `getafixd` (which serve-mixed
starts) and the `perfbench` driver are built from source into
`.bench_build/perfbench` (Release) before every run; an up-to-date build
costs about a second. With `--trace 1` the Chrome trace
is written to `.bench_build/trace-<workload>-<seed>.json`.

The driver's last line of standard output is the JSON result. Build output
goes to standard error. Exit codes: the driver's own (0 correct, 1 a failed
query), or 2 when the build or the run cannot be made.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("bluetooth-k4", "seq-drivers", "serve-mixed")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build(root):
    """Configures and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(root, "CMakeLists.txt")):
        print("error: no CMakeLists.txt at %s: run from the repository root"
              % root, file=sys.stderr)
        return None
    build_dir = os.path.join(root, BUILD_DIR)
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench",
              "-j", "4"]]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print("error: build step failed: %s" % " ".join(cmd),
                  file=sys.stderr)
            return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    root = os.getcwd()
    binary = build(root)
    if binary is None:
        return 2
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-file", os.path.join(
            root, ".bench_build",
            "trace-%s-%d.json" % (args.workload, args.seed))]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("error: the run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 2
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
