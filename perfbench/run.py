#!/usr/bin/env python3
"""Builds the benchmark and the `pmc` binary from source, then makes one run.

Run from the repository root:

    python3 perfbench/run.py --workload pack-sparse --seed 1 --seconds 20 --trace 0

Build output goes to `$CARGO_TARGET_DIR` (default `.bench_build`); run
scratch (server journals, trace files) to `<target>/perfbench`. The last
line of standard output is the run's JSON result; everything cargo prints
goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "pmc"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(cmd)}")


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo workspace next to the benchmark; run it from a full checkout")
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(target)
    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"), *sys.argv[1:],
        "--pmc", os.path.join(release, "pmc"),
        "--out", os.path.join(target, "perfbench"),
    ]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
