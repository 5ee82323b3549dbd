#!/usr/bin/env python3
"""Build and run the workload benchmark of this checkout.

    python3 perfbench/run.py --workload {sensorlife,gps_walk,serve_fleet}
                             --seed N --seconds S --trace {0,1}

Run from the root of the checkout. The first run configures and builds
the benchmark program (perfbench/CMakeLists.txt, Release) and the
library it links from the checkout's own sources into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
rebuild what changed. Build output goes to standard error. The
program's report lines and its final JSON line go to standard output;
--trace 1 also writes the spans as Chrome trace-event JSON under
<build dir>/traces/.

Exits non-zero, without a result line, when the library sources are
missing or the build fails, and with the program's exit code when an
output check fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("sensorlife", "gps_walk", "serve_fleet")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def run_quiet(command, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                                timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return False
    return result.returncode == 0


def build(bench_dir, build_dir):
    """Configure once, then bring the benchmark program up to date."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", bench_dir, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    if not run_quiet(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs], BUILD_TIMEOUT_S):
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print(f"perfbench: no library sources under {root}", file=sys.stderr)
        return 2
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(bench_dir, build_dir)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(
            trace_dir, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S,
                              check=False).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
