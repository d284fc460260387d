#!/usr/bin/env python3
"""Builds the end-to-end benchmark and the `bugdoc` binary from the tree this
file sits in, then runs one workload:

    python3 e2e_bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Build output goes to standard error; the benchmark's last line of standard
output is its JSON result. Builds go to $CARGO_TARGET_DIR (default
.bench_build at the repository root).
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build(args, target):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit(f"run.py: {' '.join(cmd)} failed with exit code {done.returncode}")


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build(["--manifest-path", os.path.join("e2e_bench", "Cargo.toml")], target)
    build(["-p", "bugdoc-cli", "--bin", "bugdoc"], target)
    bench = os.path.join(target, "release", "e2e-bench")
    bugdoc = os.path.join(target, "release", "bugdoc")
    done = subprocess.run([bench] + sys.argv[1:] + ["--bugdoc", bugdoc], cwd=ROOT)
    return done.returncode


if __name__ == "__main__":
    try:
        sys.exit(main())
    except OSError as e:
        sys.exit(f"run.py: {e}")
