#!/usr/bin/env python3
"""Regenerates expected.json, the recorded quality values per seed.

Run from the root of a checkout:  python3 e2ebench/record.py [FIRST LAST]

Records seeds FIRST..LAST (default 0..63) for the seeded workloads and the
single seed-independent record of partial_scan_seq. Only regenerate when a
change to the library is meant to change test results, and say so.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def record(workload, seed):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", "0", "--record"],
        stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    first, last = (int(a) for a in sys.argv[1:3]) if len(sys.argv) > 2 \
        else (0, 63)
    expected = {}
    for workload, seeds in (("fullscan_report", range(first, last + 1)),
                            ("sweep_grid", range(first, last + 1)),
                            ("partial_scan_seq", [0])):
        for seed in seeds:
            rec = record(workload, seed)
            expected.setdefault(workload, {})[rec["seed"]] = rec["points"]
            print(workload, rec["seed"], file=sys.stderr)
    write_expected(expected)


def write_expected(expected):
    """One line per (workload, seed), keys sorted, seeds in numeric order."""
    lines = []
    for workload in sorted(expected):
        seeds = sorted(expected[workload],
                       key=lambda s: int(s) if s.isdigit() else -1)
        rows = ['    "%s": %s' % (s, json.dumps(expected[workload][s],
                                             sort_keys=True))
                for s in seeds]
        lines.append('  "%s": {\n%s\n  }' % (workload, ",\n".join(rows)))
    with open(os.path.join(HERE, "expected.json"), "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
