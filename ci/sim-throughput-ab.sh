#!/usr/bin/env bash
# Same-host A/B of the event core's host throughput.
#
#   ci/sim-throughput-ab.sh BASE_BUILD HEAD_BUILD [OUT_DIR]
#
# Runs BASE_BUILD/bench/sim_throughput --quick and the HEAD_BUILD one
# five times each, alternating which side goes first, and takes the
# per-key median of each side's BENCH JSON. Each events/s key is gated
# with HEAD_BUILD/tools/jordprof diff at a band of 10% or the base
# side's interquartile range over its median, whichever is wider: a
# 0.2-0.5 s timed region on a shared host spreads more than 10% between
# runs of one build, and a fixed band would then fail or pass a change
# on noise. Both sides run on this host in this invocation, so the gate
# compares code, not runners. Locally, point BASE_BUILD at a build of
# the parent commit:
#
#   git archive HEAD~1 | tar -x -C /tmp/base-src
#   cmake -B /tmp/base-build -S /tmp/base-src
#   cmake --build /tmp/base-build --target sim_throughput
#   ci/sim-throughput-ab.sh /tmp/base-build build
set -eu

if [ "$#" -lt 2 ] || [ "$#" -gt 3 ]; then
    echo "usage: $0 BASE_BUILD HEAD_BUILD [OUT_DIR]" >&2
    exit 2
fi
base_bin="$1/bench/sim_throughput"
head_bin="$2/bench/sim_throughput"
jordprof="$2/tools/jordprof"
out="${3:-sim-throughput-ab}"
runs=5

for bin in "$base_bin" "$head_bin" "$jordprof"; do
    if [ ! -x "$bin" ]; then
        echo "$0: missing executable $bin" >&2
        exit 2
    fi
done
mkdir -p "$out"

for i in $(seq 1 "$runs"); do
    if [ $((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi
    for side in $order; do
        if [ "$side" = base ]; then bin="$base_bin"; else bin="$head_bin"; fi
        if ! "$bin" --quick --json "$out/$side.$i.json" > /dev/null; then
            echo "$0: $side sim_throughput failed on run $i ($bin)" >&2
            exit 1
        fi
    done
done

# Per-key medians, in jordprof's flat JSON format: <side>.median.json
# holds every key; <side>.<section>.json holds one events/s key, and
# the line "<section> <band>" in bands.txt its gate.
python3 - "$out" "$runs" <<'PY'
import json
import statistics
import sys

out, runs = sys.argv[1], int(sys.argv[2])
samples = {}
for side in ("base", "head"):
    for i in range(1, runs + 1):
        with open(f"{out}/{side}.{i}.json") as f:
            for key, value in json.load(f).items():
                samples.setdefault((side, key), []).append(value)


def write(path, values):
    with open(path, "w") as f:
        json.dump(values, f, indent=2)
        f.write("\n")


# A side may carry keys the other lacks (a change that adds a counter):
# each side's median file holds its own keys.
keys = sorted({key for _, key in samples})
median = {sk: statistics.median(v) for sk, v in samples.items()}
for side in ("base", "head"):
    write(f"{out}/{side}.median.json",
          {key: median[(side, key)] for key in keys
           if (side, key) in median})
with open(f"{out}/bands.txt", "w") as bands:
    for key in keys:
        if "events_per_sec" not in key:
            continue
        section = key.split(".")[1]
        q1, _, q3 = statistics.quantiles(samples[("base", key)], n=4)
        band = max(0.10, (q3 - q1) / median[("base", key)])
        bands.write(f"{section} {band:.4f}\n")
        for side in ("base", "head"):
            values = samples[(side, key)]
            write(f"{out}/{side}.{section}.json", {key: median[(side, key)]})
            print(f"{side} {key}: median {median[(side, key)]:.0f} "
                  f"(min {min(values):.0f}, max {max(values):.0f})")
        print(f"{key}: gate band {100 * band:.1f}%")
PY

status=0
while read -r section band; do
    "$jordprof" diff "$out/base.$section.json" "$out/head.$section.json" \
        --threshold "$band" || status=1
done < "$out/bands.txt"
exit "$status"
