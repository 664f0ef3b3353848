#!/usr/bin/env python3
"""Build and run the repository benchmark from the repository root.

    python3 perfbench/run.py --workload zipf --seed 1 --seconds 30 --trace 0

The benchmark itself is the OCaml program perfbench/main.ml; this script
builds it and era_cli (which serves the serve-mix leg) with dune, then
runs it with the given arguments. Build output goes to stderr, so the
last line of stdout is the benchmark's JSON result. Outside a checkout of
the repository (no dune-project or lib/) it exits with code 2.
"""

import os
import subprocess
import sys

BENCH = "perfbench/main.exe"
ERA_CLI = "bin/era_cli.exe"


def main() -> int:
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root "
              "(dune-project and lib/ not found)", file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "-j", "2", "./" + BENCH, "./" + ERA_CLI],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    bench = subprocess.run(
        ["_build/default/" + BENCH, "--era-cli", "_build/default/" + ERA_CLI]
        + sys.argv[1:])
    return bench.returncode


if __name__ == "__main__":
    sys.exit(main())
