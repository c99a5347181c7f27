#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload wire-kv --seed 1 --seconds 10 --trace 0

Run from the root of the repository. The build goes to $CARGO_TARGET_DIR
(default: .bench_build). Build output goes to standard error, so the last
line of standard output is the benchmark's JSON result. A failed build
exits with 2 and prints no result.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main():
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", str(HERE / "Cargo.toml")],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    binary = target / "release" / "terp-perfbench"
    sys.stdout.flush()
    return subprocess.run([str(binary)] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
