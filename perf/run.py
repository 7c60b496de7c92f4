#!/usr/bin/env python3
"""Build the performance benchmark from source, then run it.

Run from the repository root:

    python3 perf/run.py --workload figures --seed 1 --seconds 20 --trace 0

Every argument is passed to perf.exe (see perf/perf.ml). The build goes to
the repository's own _build directory with dune's shared cache disabled, so
nothing is written outside the repository. Build output goes to stderr; the
benchmark's last stdout line is its JSON result. Exits 2 without running
anything if the build fails.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perf", "perf.exe")


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perf/perf.exe"],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perf/run.py: build failed", file=sys.stderr)
        sys.exit(2)
    sys.stdout.flush()
    os.execve(EXE, [EXE] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
