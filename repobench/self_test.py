#!/usr/bin/env python3
"""Self-test of the repository benchmark, in a short smoke mode.

Usage, from the repository root:

    python3 repobench/self_test.py [--seconds 1]

Checks BENCHMARK.json against the benchmark's contract, then runs every
workload it names untraced and traced for a short time, and checks that:
  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics;
  * every end_to_end metric (untraced) or per_layer metric (traced) is
    emitted with its declared unit and a finite value, and no other;
  * every name matches [A-Za-z0-9_.-]+;
  * the run is correct and failed_frac is 0;
  * the traced run wrote its spans.
Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES = []


def expect(ok, what):
    if not ok:
        FAILURES.append(what)
        print("FAIL: " + what)
    return ok


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
           "BENCHMARK.json has exactly the contract's keys")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    expect(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end_to_end metrics")
    expect(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per_layer metrics")
    expect(isinstance(spec["run_seconds"], int) and
           1 <= spec["run_seconds"] <= 60, "run_seconds is 1..60")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        expect(NAME.match(name), "name %r matches [A-Za-z0-9_.-]+" % name)
    expect(len(names) == len(set(names)), "every name is used once")
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200,
               "workload %s has a name and a short why" % w["name"])
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"},
               "end_to_end %s has name, unit, better, bound" % m["name"])
        expect(0 < m["bound"] <= 0.25, "bound of %s is in (0, 0.25]" %
               m["name"])
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"},
               "per_layer %s has name, unit, better" % m["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        expect(UNIT.match(m["unit"]), "unit of %s is well-formed" % m["name"])
        expect(m["better"] in ("lower", "higher"),
               "better of %s is lower or higher" % m["name"])
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and
           setup[0]["better"] == "lower" and
           setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is declared in s, lower, with the largest bound")


def run_once(spec, workload, trace, seconds):
    command = spec["command"] + ["--workload", workload, "--seed", "1",
                                 "--seconds", str(seconds),
                                 "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          universal_newlines=True, timeout=900)
    label = "%s --trace %d" % (workload, trace)
    if not expect(proc.returncode == 0, label + " exits 0"):
        return
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        expect(False, label + " ends with a JSON line")
        return
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           label + " result has exactly correct/attempted/failed/metrics")
    expect(result.get("correct") is True and result.get("failed") == 0,
           label + " is correct with no failed check")
    expect(isinstance(result.get("attempted"), int) and
           result["attempted"] >= 1, label + " attempted at least one check")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result.get("metrics", {})
    expect(set(metrics) == {m["name"] for m in declared},
           label + " emits exactly the declared metrics (missing %s, extra %s)"
           % (sorted({m["name"] for m in declared} - set(metrics)),
              sorted(set(metrics) - {m["name"] for m in declared})))
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        expect(set(got) == {"value", "unit"} and got["unit"] == m["unit"],
               "%s: %s has unit %s" % (label, m["name"], m["unit"]))
        value = got.get("value")
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               "%s: %s is a finite number" % (label, m["name"]))
        if not trace:
            expect(value != 0, "%s: end-to-end %s is not 0" %
                   (label, m["name"]))
    for name in metrics:
        expect(NAME.match(name), "%s: metric name %r is well-formed" %
               (label, name))
    if trace:
        expect(metrics.get("failed_frac", {}).get("value") == 0,
               label + " reports failed_frac 0")
        spans = os.path.join(ROOT, ".bench_build", "traces",
                             "%s-seed1.json" % workload)
        try:
            with open(spans) as f:
                expect(len(json.load(f)["spans"]) > 0,
                       label + " wrote its spans")
        except (OSError, ValueError, KeyError):
            expect(False, label + " wrote a readable span file")
    else:
        info = json.loads(lines[-2]).get("info", {})
        expect(info.get("notes", {}).get("failed_frac", "").startswith("0 "),
               label + " prints failed_frac 0 by name")
        expect(set(info.get("machine", {})) >=
               {"nproc", "cpu", "build_type", "compiler", "seed"},
               label + " records the machine")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    for workload in spec["workloads"]:
        for trace in (0, 1):
            run_once(spec, workload["name"], trace, args.seconds)
    print("self-test: %s (%d failed checks)" %
          ("PASS" if not FAILURES else "FAIL", len(FAILURES)))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
