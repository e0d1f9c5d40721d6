#!/usr/bin/env python3
"""Check that the benchmark's fingerprinted outputs are jordsim's.

usage: jordsim_match.py JORDBENCH JORDSIM

For every workload, `jordbench --outputs` prints blocks of
"$ <jordsim flags>" followed by CSV rows (and "+ " lines for outputs
jordsim does not print). jordsim run with those flags plus --csv must
print exactly those rows after its header line. This shows the
benchmark drives the simulator the way a jordsim user does, observers
attached or not.
"""

import argparse
import shlex
import subprocess
import sys


def blocks(outputs):
    """Yield (flags, rows) per "$ " block of jordbench --outputs."""
    flags, rows = None, []
    for line in outputs.splitlines():
        if line.startswith("$ "):
            if flags is not None:
                yield flags, rows
            flags, rows = shlex.split(line[2:]), []
        elif flags is not None and not line.startswith(("+ ", "fingerprint ")):
            rows.append(line)
    if flags is not None:
        yield flags, rows


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("jordbench")
    parser.add_argument("jordsim")
    args = parser.parse_args()

    listing = subprocess.run([args.jordbench, "--list"], check=True,
                             capture_output=True, text=True).stdout
    names = [l.split()[1] for l in listing.splitlines()
             if l.startswith("workload ")]
    failures = 0
    for name in names:
        outputs = subprocess.run(
            [args.jordbench, "--workload", name, "--outputs"],
            check=True, capture_output=True, text=True).stdout
        found = list(blocks(outputs))
        if not found:
            print(f"{name}: no jordsim blocks in the outputs")
            failures += 1
        for flags, rows in found:
            got = subprocess.run([args.jordsim] + flags + ["--csv"],
                                 check=True, capture_output=True,
                                 text=True).stdout.splitlines()[1:]
            verdict = "ok" if got == rows else "MISMATCH"
            print(f"{name}: jordsim {' '.join(flags)}: {verdict}")
            if got != rows:
                failures += 1
                print("  benchmark:\n    " + "\n    ".join(rows))
                print("  jordsim:\n    " + "\n    ".join(got))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
