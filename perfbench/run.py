#!/usr/bin/env python3
"""Builds the repository benchmark and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload plan|serve|sim --seed N --seconds S --trace 0|1

The benchmark is its own Cargo package (perfbench/Cargo.toml) that
depends on the repository's crates by path; it is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build) on every call, which is
a no-op once built. Build output goes to stderr, so the last line on
stdout is the benchmark's JSON result. Traced runs (--trace 1) write
their Chrome trace-event export into the same target directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    env = dict(os.environ)
    target = os.path.abspath(os.path.join(ROOT, env.get("CARGO_TARGET_DIR") or ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    env["PERFBENCH_OUT"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--locked", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
