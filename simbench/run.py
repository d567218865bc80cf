#!/usr/bin/env python3
"""Build the SD-PCM simulator benchmark from source, run one workload and
print its result as one JSON line.

    python3 simbench/run.py --workload write-mcf --seed 1 --seconds 25 --trace 0
    python3 simbench/run.py --refresh-digests

Run it from the repository root. The harness is built into
.bench_build/simbench (Release) on every call; an up-to-date build is a
no-op. With --trace 0 the result holds the end-to-end metrics, with
--trace 1 the per-layer ones, both named and given units by
BENCHMARK.json. Every simulated cell the harness runs is checked: its
cores must finish, the integrity oracle (when armed) must see no
mismatch, and its simulated-statistics digest must equal the recorded
one in simbench/digests.json when that seed is recorded, and must agree
with every other run of the same cell in any case. --refresh-digests
re-records the digests; do it only when a change is meant to alter
simulated results.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "simbench")
HARNESS = os.path.join(BUILD_DIR, "simbench")
DIGESTS = os.path.join(HERE, "digests.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

WORKLOADS = ("write-mcf", "read-bwaves", "sweep", "observed-mcf")
# observed-mcf runs the write-mcf cell, so it shares those digests.
RECORDED_WORKLOADS = ("write-mcf", "read-bwaves", "sweep")
RECORDED_SEEDS = range(1, 17)
HARNESS_TIMEOUT_S = 170


def fail(message):
    print("simbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_jobs():
    return str(max(1, min(4, os.cpu_count() or 1)))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no simulator sources under %s/src; run from a full checkout"
             % ROOT)
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", build_jobs()]]
    if os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode:
            fail("build failed: " + " ".join(cmd))


def run_harness(flags):
    try:
        proc = subprocess.run([HARNESS] + flags, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("harness timed out after %d s" % HARNESS_TIMEOUT_S)
    if proc.returncode:
        fail("harness exited with code %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("harness printed no result")
    return json.loads(lines[-1])


def load_digests():
    if not os.path.isfile(DIGESTS):
        return {}
    with open(DIGESTS) as f:
        return json.load(f)["cells"]


def git_sha():
    # The ceiling keeps git from adopting a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              env=env, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def check_runs(runs, seed):
    """Count failed cell runs; print why each failed."""
    recorded = {cell: seeds[str(seed)]
                for cell, seeds in load_digests().items()
                if str(seed) in seeds}
    expected = {}
    failed = 0
    for run in runs:
        cell = run["cell"]
        if cell not in expected:
            expected[cell] = recorded.get(cell, run["digest"])
        reasons = []
        if not run["finished"]:
            reasons.append("a core did not finish its trace")
        if run["oracle_mismatches"]:
            reasons.append("%d oracle mismatches" % run["oracle_mismatches"])
        if run["digest"] != expected[cell]:
            reasons.append("digest %s != %s %s" % (
                run["digest"], expected[cell],
                "recorded" if cell in recorded else "of its first run"))
        if reasons:
            failed += 1
            print("simbench: FAILED %s (%s pass): %s"
                  % (cell, run["pass"], "; ".join(reasons)), file=sys.stderr)
    cells = sorted(expected)
    unrecorded = [c for c in cells if c not in recorded]
    if unrecorded:
        print("simbench: seed %d has no recorded digest for %d of %d cells;"
              " those are checked for agreement across runs only"
              % (seed, len(unrecorded), len(cells)), file=sys.stderr)
    return failed


def refresh_digests():
    cells = {}
    for seed in RECORDED_SEEDS:
        for workload in RECORDED_WORKLOADS:
            result = run_harness(["--workload=" + workload,
                                  "--seed=%d" % seed, "--record=1"])
            for run in result["runs"]:
                if not run["finished"]:
                    fail("%s seed %d did not finish" % (run["cell"], seed))
                cells.setdefault(run["cell"], {})[str(seed)] = run["digest"]
        print("simbench: recorded seed %d" % seed, file=sys.stderr)
    with open(DIGESTS, "w") as f:
        json.dump({"note": "Simulated-statistics digests per cell and seed;"
                           " regenerate with simbench/run.py"
                           " --refresh-digests.",
                   "cells": cells}, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--refresh-digests", action="store_true")
    args = parser.parse_args()
    if not args.refresh_digests and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    build()
    if args.refresh_digests:
        refresh_digests()
        return

    if not os.path.isfile(SPEC):
        fail("BENCHMARK.json not found at " + SPEC)
    with open(SPEC) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    result = run_harness(["--workload=" + args.workload,
                          "--seed=%d" % args.seed,
                          "--seconds=%d" % args.seconds,
                          "--trace=%d" % args.trace])
    runs = result["runs"]
    failed = check_runs(runs, args.seed)
    values = dict(result["metrics"])
    values["pass_frac"] = (len(runs) - failed) / len(runs)

    for name, samples in sorted(result["samples"].items()):
        print("simbench: %s: %d samples, %.6g to %.6g"
              % (name, len(samples), min(samples), max(samples)),
              file=sys.stderr)
    listed = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name in sorted(set(values) - listed):
        print("simbench: %s: %.6g (not in BENCHMARK.json)"
              % (name, values[name]), file=sys.stderr)
    provenance = dict(result["provenance"], git_sha=git_sha(),
                      workload=args.workload, trace=args.trace)
    print("provenance: " + json.dumps(provenance, sort_keys=True))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail("harness did not report " + ", ".join(missing))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(runs),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
