#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

usage: python3 perfbench/steady.py [--runs N] [--workloads A,B]
                                   [--first-seed S] [--record FILE]

Run from the repository root. Runs the BENCHMARK.json command N times
per workload (untraced, each run with the next seed), then prints, per
end-to-end metric, the median, the quartiles (statistics.quantiles,
n=4), the min-max range, and the spread: the interquartile distance as
a share of the median, set beside the metric's bound. A spread should
stay under a third of its bound; every metric is held to that. With
--record, this set (the table and every raw value) is appended to the
file's JSON list of sets. The unscaled medians and the host-speed
kernel's median of the same runs are shown and recorded beside the
metrics (raw_req_per_s, raw_setup_s, kernel_s) for comparison.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


# jordbench's stderr line with the unscaled medians of an untraced run.
RAW = re.compile(r"measured medians ([0-9.e+-]+) simulated req/s, set-up "
                 r"([0-9.e+-]+) s; kernel median ([0-9.e+-]+) s")


def run_once(cmd, workload, seed, seconds):
    out = subprocess.run(
        cmd + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "0"],
        capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed (exit {out.returncode}):"
                 f"\n{out.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output check failed")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    raw = RAW.search(out.stderr)
    if raw:
        values.update(raw_req_per_s=float(raw.group(1)),
                      raw_setup_s=float(raw.group(2)),
                      kernel_s=float(raw.group(3)))
    return values


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "spread": spread,
            "range": (max(values) - min(values)) / med if med else 0.0,
            "bound": bound, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--record", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    table = {}
    for name in names:
        runs = []
        for i in range(args.runs):
            seed = args.first_seed + i
            runs.append(run_once(bench["command"], name, seed,
                                 bench["run_seconds"]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{k}={v:.6g}" for k, v in runs[-1].items()),
                file=sys.stderr, flush=True)
        table[name] = {metric: summarize([r[metric] for r in runs], bound)
                       for metric, bound in bounds.items()}
        # The unscaled figures of the same runs, for comparison only.
        for extra, like in (("raw_req_per_s", "sim_req_per_s"),
                            ("raw_setup_s", "setup_s"),
                            ("kernel_s", "setup_s")):
            if all(extra in r for r in runs):
                table[name][extra] = summarize([r[extra] for r in runs],
                                               bounds[like])

    print(f"{'workload':18} {'metric':14} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'range':>8} {'bound':>6}")
    worst = 0.0
    for name, metrics in table.items():
        for metric, s in metrics.items():
            flag = ""
            if metric not in bounds:
                flag = "  (unscaled, not a metric)"
            elif s["spread"] > s["bound"] / 3:
                flag = "  over bound/3"
            if metric in bounds:
                worst = max(worst, s["spread"] / s["bound"])
            print(f"{name:18} {metric:14} {s['median']:12.6g} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:8.4f} "
                  f"{s['range']:8.4f} {s['bound']:6.3f}{flag}")
    print(f"worst spread / bound: {worst:.3f}")
    if args.record:
        sets = []
        if os.path.exists(args.record):
            with open(args.record) as f:
                sets = json.load(f)["sets"]
        sets.append({"runs": args.runs, "first_seed": args.first_seed,
                     "run_seconds": bench["run_seconds"],
                     "clock": "thread_cpu scaled to nominal host speed",
                     "workloads": table})
        with open(args.record, "w") as f:
            json.dump({"sets": sets}, f, indent=1)
            f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
