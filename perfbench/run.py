#!/usr/bin/env python3
"""Builds the serving benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sim_sharegpt --seed 1 --seconds 8 --trace 0

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; build output goes to stderr so that the last line of stdout is
the benchmark's JSON result. Every other argument is passed through to the
perfbench binary (see perfbench/README.md).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(proc.returncode or 1)


def main():
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            sys.stderr.write("perfbench: %s not found at the checkout root; "
                             "the benchmark builds the library from source\n"
                             % needed)
            return 2
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    run_quiet(["cmake", "--build", out, "--target", "perfbench", "-j", jobs])
    binary = os.path.join(out, "perfbench")
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(out, "perfbench-out")]
    proc = subprocess.run([binary] + args, cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
