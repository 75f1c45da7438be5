#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage, from the repository root:

    python3 repobench/run.py --workload apps-fixed --seed 1 --seconds 20 --trace 0

The executable is built with CMake (Ninja when available) into
.bench_build/repobench; build output goes to stderr, so the last line of
stdout is the benchmark's JSON result. A traced run (--trace 1) also writes
its spans to .bench_build/traces/<workload>-seed<n>.json.
See repobench/README.md for the workloads and metrics.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "repobench")
EXE = os.path.join(BUILD_DIR, "cswitch_repobench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
WORKLOADS = ("apps-fixed", "apps-adaptive", "session-server")


def build():
    """Configures once, then builds incrementally; True on success."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("error: no src/ next to repobench/; run from a full checkout",
              file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    return subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    return parser.parse_args(argv)


def run(args):
    """Builds, runs the benchmark and returns its exit code. Its stdout
    passes through untouched."""
    if not build():
        print("error: build failed", file=sys.stderr)
        return 2
    command = [EXE, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        os.makedirs(TRACE_DIR, exist_ok=True)
        command += ["--trace-out", os.path.join(
            TRACE_DIR, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    child = subprocess.Popen(command, cwd=ROOT)
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    # A terminated wrapper still stops (and waits for) the benchmark.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(run(parse_args(sys.argv[1:])))
