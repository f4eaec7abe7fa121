#!/usr/bin/env python3
"""Builds and runs the tsyn end-to-end benchmark.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload fullscan_report --seed 1 \
        --seconds 30 --trace 0

The first run configures and builds the benchmark (Release) from ../src
into $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); later runs
only re-check the build. Run-time files go to $CARGO_TARGET_DIR/work. The
benchmark's last stdout line is its JSON result; this script adds nothing
to stdout and exits with the benchmark's exit code.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKLOADS = ("fullscan_report", "partial_scan_seq", "sweep_grid")
RUN_TIMEOUT_S = 175


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(os.path.join(build_dir, ".lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps.append(["cmake", "--build", build_dir, "--target", "e2ebench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              check=False).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "e2ebench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--record", action="store_true",
                    help="print this seed's quality record (see README.md)")
    args = ap.parse_args()
    if args.seed < 0:
        fail("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "CMakeLists.txt")):
        fail("library sources not found next to the benchmark (" + SRC + ")")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(target, "e2ebench"))
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work", os.path.join(target, "work"),
           "--expected", os.path.join(HERE, "expected.json")]
    if args.record:
        cmd.append("--record")
    sys.stdout.flush()
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("benchmark exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(code)


if __name__ == "__main__":
    main()
