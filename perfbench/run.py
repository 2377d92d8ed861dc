#!/usr/bin/env python3
"""Builds and runs the DynACE benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload hotloop --seed 0 --seconds 20 --trace 0

The first call configures and builds perfbench/ (the simulator sources
from src/ plus the harness) as a Release build under .bench_build/perfbench;
later calls only run the incremental build. Build output goes to stderr,
so stdout carries only the harness's lines, the last of which is the JSON
result. See perfbench/README.md for the workloads and metrics.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "dynace_perfbench")


def build():
    """Configures (once) and builds the harness; returns True on success."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def main(argv):
    if not build():
        print("error: building the benchmark failed", file=sys.stderr)
        return 2
    workload = "bench"
    if "--workload" in argv[:-1]:
        workload = argv[argv.index("--workload") + 1]
    scratch = os.path.join(BUILD, "run-%d" % os.getpid())
    spans = os.path.join(BUILD, "spans-%s.tsv" % os.path.basename(workload))
    try:
        return subprocess.run([BINARY] + argv + ["--scratch", scratch,
                                                 "--spans", spans],
                              cwd=ROOT).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
