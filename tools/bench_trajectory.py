#!/usr/bin/env python3
"""Run the simbench benchmark and append its result to BENCH_simbench.json.

    python3 tools/bench_trajectory.py --workload read-bwaves --seed 7
    python3 tools/bench_trajectory.py --workload read-bwaves --seed 7 \\
        --runs 10 --baseline ../parent-checkout --label "typed events"

Runs `python3 simbench/run.py --trace 0` for one workload and seed, --runs
times, in the checkout this script belongs to. Each run lasts run_seconds
from BENCHMARK.json. It then appends one entry to BENCH_simbench.json at
that checkout's root: {sha, provenance, correct, metrics}, where each
end-to-end metric holds the median, the quartiles and every sample of its
runs.

`sha` is the commit that was measured. A checkout whose tracked files
differ from HEAD (BENCH_simbench.json aside) has no such commit: its
entry gets `"sha": null` and names HEAD as `uncommitted_on` instead.
Set `sha` by hand once those changes are committed. simbench's own
`provenance.git_sha` is always HEAD.

With --baseline DIR, a checkout of another commit such as the parent,
the runs are interleaved pairs that alternate which side runs first. An
entry is appended for each side, baseline first. The second entry also
counts, per metric, the pairs it won; ties count for neither side.

Both sides build themselves (simbench/run.py does) and run once, untimed,
before the pairs start. Run it from anywhere; nothing under simbench/ is
changed.

With --traced pcm.bytes_per_line,..., each side also runs once with
--trace 1 after the pairs, and its entry stores those per-layer metrics
under "traced".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_NAME = "BENCH_simbench.json"
OUT = os.path.join(ROOT, OUT_NAME)
WORKLOADS = ("write-mcf", "read-bwaves", "sweep")
WARMUP_SECONDS = 1


def fail(message):
    print("bench_trajectory: " + message, file=sys.stderr)
    sys.exit(2)


def git(checkout, *args):
    # The ceiling keeps git from adopting a repository above the checkout.
    env = dict(os.environ,
               GIT_CEILING_DIRECTORIES=os.path.dirname(checkout))
    proc = subprocess.run(["git"] + list(args), cwd=checkout, env=env,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def attribution(checkout):
    """{"sha": HEAD}, or {"sha": None, "uncommitted_on": HEAD} when
    tracked files other than the trajectory itself differ from HEAD."""
    head = git(checkout, "rev-parse", "HEAD")
    changed = git(checkout, "status", "--porcelain", "--untracked-files=no",
                  "--", ".", ":(exclude)" + OUT_NAME)
    if head and changed == "":
        return {"sha": head}
    return {"sha": None, "uncommitted_on": head}


def run_once(checkout, args, seconds, trace=0):
    cmd = [sys.executable, os.path.join("simbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode:
        fail("%s exited with code %d in %s"
             % (" ".join(cmd), proc.returncode, checkout))
    provenance = None
    lines = proc.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("provenance: "):
            provenance = json.loads(line[len("provenance: "):])
    if not lines or provenance is None:
        fail("no result from simbench/run.py in " + checkout)
    result = json.loads(lines[-1])
    result["provenance"] = provenance
    return result


def summarize(checkout, runs, args, seconds, label):
    metrics = {}
    for name in runs[0]["metrics"]:
        samples = [r["metrics"][name]["value"] for r in runs]
        q1, median, q3 = (statistics.quantiles(samples, n=4,
                                               method="inclusive")
                          if len(samples) > 1 else samples * 3)
        metrics[name] = {"value": median, "q1": q1, "q3": q3,
                         "unit": runs[0]["metrics"][name]["unit"],
                         "samples": samples}
    entry = dict(attribution(checkout),
                 provenance=runs[0]["provenance"],
                 correct=all(r["correct"] for r in runs),
                 metrics=metrics,
                 workload=args.workload, seed=args.seed,
                 seconds=seconds, runs=len(runs))
    if label:
        entry["label"] = label
    return entry


def pair_wins(benchmark, base_runs, runs):
    """Per metric, the pairs `runs` won against `base_runs`."""
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    wins = {}
    for name in runs[0]["metrics"]:
        sign = 1 if better.get(name, "higher") == "higher" else -1
        wins[name] = sum(
            1 for b, c in zip(base_runs, runs)
            if sign * (c["metrics"][name]["value"] -
                       b["metrics"][name]["value"]) > 0)
    return wins


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--baseline",
                        help="checkout to interleave pairs against")
    parser.add_argument("--label", default="",
                        help="note stored with this checkout's entry")
    parser.add_argument("--baseline-label", default="",
                        help="note stored with the baseline's entry")
    parser.add_argument("--traced", default="",
                        help="comma-separated per-layer metrics to store "
                             "from one --trace 1 run per side")
    args = parser.parse_args()
    if args.seed < 0 or args.runs < 1:
        parser.error("needs --seed >= 0 and --runs >= 1")
    benchmark = load_benchmark()
    seconds = benchmark["run_seconds"]
    baseline = os.path.abspath(args.baseline) if args.baseline else None
    if baseline and not os.path.isfile(
            os.path.join(baseline, "simbench", "run.py")):
        fail("no simbench/run.py under --baseline " + baseline)

    sides = [baseline, ROOT] if baseline else [ROOT]
    for checkout in sides:
        run_once(checkout, args, WARMUP_SECONDS)  # build and warm up
    results = {checkout: [] for checkout in sides}
    for i in range(args.runs):
        order = sides if i % 2 == 0 else sides[::-1]
        for checkout in order:
            result = run_once(checkout, args, seconds)
            results[checkout].append(result)
            print("bench_trajectory: run %d/%d %s: %s" % (
                i + 1, args.runs, checkout,
                json.dumps({k: v["value"]
                            for k, v in result["metrics"].items()})),
                file=sys.stderr)

    traced = {}
    names = [n for n in args.traced.split(",") if n]
    for checkout in sides if names else []:
        metrics = run_once(checkout, args, WARMUP_SECONDS, trace=1)["metrics"]
        missing = [n for n in names if n not in metrics]
        if missing:
            fail("no per-layer metric " + ", ".join(missing))
        traced[checkout] = {n: metrics[n]["value"] for n in names}

    entries = []
    if baseline:
        entries.append(summarize(baseline, results[baseline], args,
                                 seconds, args.baseline_label))
    entry = summarize(ROOT, results[ROOT], args, seconds, args.label)
    if baseline:
        entry["pairs"] = {"against": entries[0]["sha"],
                          "wins": pair_wins(benchmark, results[baseline],
                                            results[ROOT])}
    entries.append(entry)
    for checkout, e in zip(sides, entries):
        if checkout in traced:
            e["traced"] = traced[checkout]

    doc = {"note": "simbench end-to-end medians per commit, appended by"
                   " tools/bench_trajectory.py", "entries": []}
    if os.path.isfile(OUT):
        with open(OUT) as f:
            doc = json.load(f)
    doc["entries"].extend(entries)
    with open(OUT, "w") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    for e in entries:
        print(json.dumps({"sha": e["sha"], "correct": e["correct"],
                          "metrics": {k: v["value"]
                                      for k, v in e["metrics"].items()}}))


if __name__ == "__main__":
    main()
