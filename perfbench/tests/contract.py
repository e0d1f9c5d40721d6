#!/usr/bin/env python3
"""Check BENCHMARK.json's shape and that it lists what jordbench reports.

usage: contract.py JORDBENCH BENCHMARK_JSON
"""

import json
import re
import subprocess
import sys

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def main():
    jordbench, path = sys.argv[1], sys.argv[2]
    with open(path) as f:
        bench = json.load(f)
    errors = []

    def expect(ok, what):
        if not ok:
            errors.append(what)

    expect(set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}, "top-level keys")
    expect(isinstance(bench["run_seconds"], int)
           and 1 <= bench["run_seconds"] <= 60, "run_seconds")
    names = set()
    for w in bench["workloads"]:
        expect(set(w) == {"name", "why"}, f"workload keys {w}")
        expect(len(w["why"]) <= 200 and "\n" not in w["why"],
               f"why of {w['name']}")
        names.add(w["name"])
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in bench[section]:
            expect(set(m) == keys, f"{section} keys {m}")
            expect(m["better"] in ("higher", "lower"), f"better {m}")
            expect(UNIT.fullmatch(m["unit"]) is not None, f"unit {m}")
            if "bound" in m:
                expect(0 < m["bound"] <= 0.25, f"bound {m}")
    all_names = ([w["name"] for w in bench["workloads"]]
                 + [m["name"] for m in bench["end_to_end"]]
                 + [m["name"] for m in bench["per_layer"]])
    for name in all_names:
        expect(NAME.fullmatch(name) is not None, f"name {name}")
    expect(len(all_names) == len(set(all_names)), "names used once")
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s"
           and setup[0]["better"] == "lower", "setup_s metric")
    expect(setup and setup[0]["bound"] == max(
        m["bound"] for m in bench["end_to_end"]), "setup_s largest bound")

    listing = subprocess.run([jordbench, "--list"], check=True,
                             capture_output=True, text=True).stdout
    listed = {"workload": [], "end_to_end": [], "per_layer": []}
    for line in listing.splitlines():
        kind, name, *unit = line.split()
        listed[kind].append((name, unit[0]) if unit else name)
    expect(listed["workload"] == [w["name"] for w in bench["workloads"]],
           "workloads differ from jordbench --list")
    for section in ("end_to_end", "per_layer"):
        expect(listed[section] == [(m["name"], m["unit"])
                                   for m in bench[section]],
               f"{section} differs from jordbench --list")

    for error in errors:
        print("contract:", error)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
