#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <spec-optimize|pc-analyze|serve-edit> \
        --seed <n> --seconds <s> --trace <0|1>

The Rust package next to this file links the repository's crates by path.
It is built in release mode into $CARGO_TARGET_DIR (default
`.bench_build`); build output goes to stderr. The benchmark's own stdout
passes through unchanged: one row per input, the totals, every metric
with its unit, and as the last line one JSON object. Spans of a traced
run are written under `<target dir>/perfbench/`. The exit code is the
benchmark's, or 1 when the build fails, in which case no result is
printed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    out_dir = os.path.join(target, "perfbench")
    sys.stdout.flush()
    return subprocess.run([exe, *sys.argv[1:], "--out-dir", out_dir], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
