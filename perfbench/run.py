#!/usr/bin/env python3
"""Build and run the PIER end-to-end benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <netmon|tenants|filesharing|join>
                             --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path.  This script builds it in
release mode into $CARGO_TARGET_DIR (default: .bench_build under the current
directory), then runs it with the given arguments.  Build output goes to
standard error; the benchmark's report, ending in one JSON line, goes to
standard output.  The exit code is the benchmark's, or nonzero when the
build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The benchmark itself stops after --seconds plus one cycle of repetitions;
# this only guards against a hang.
RUN_TIMEOUT_S = 170


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 3
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 4
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
