#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload table1-paper|chains-warm|verifyd-open \
        --seed N --seconds S --trace 0|1

Builds the `perfbench` package (this directory) and the `verifyd` daemon
from source into `$CARGO_TARGET_DIR` (default `.bench_build`), then runs the
benchmark. Cargo output goes to stderr; the benchmark's last line of stdout
is its JSON result. Exits non-zero when the build fails, a verdict
contradicts its known answer, or an open-loop run was invalid.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        ["cargo", "build", "--release", "--offline", "--locked",
         "-p", "portfolio", "--bin", "verifyd"],
    ]
    for command in builds:
        try:
            built = subprocess.run(command, cwd=root, env=env, stdout=sys.stderr)
        except OSError as error:
            print(f"perfbench: cannot run cargo: {error}", file=sys.stderr)
            return 1
        if built.returncode != 0:
            print(f"perfbench: build failed: {' '.join(command)}", file=sys.stderr)
            return 1
    release = os.path.join(target, "release")
    command = [
        os.path.join(release, "perfbench"),
        *sys.argv[1:],
        "--verifyd", os.path.join(release, "verifyd"),
        "--work", os.path.join(root, ".perfbench_work"),
    ]
    with subprocess.Popen(command, cwd=root, env=env) as bench:
        try:
            return bench.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            bench.kill()
            bench.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
