#!/usr/bin/env python3
"""Build and run the end-to-end benchmark.

Run from the root of the repository:

    python3 e2ebench/run.py --workload sdi-coarse --seed 1 --seconds 20 --trace 0

Configures and builds e2ebench/ (CMake, Release) into
.bench_build/e2ebench, then runs the benchmark binary there. The
binary's result line is the last line of standard output; build
output goes to standard error. Exits non-zero, printing no result,
when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "e2ebench")
# Relative to ROOT: the daemon's socket lives here, and a unix socket
# path must stay short whatever the checkout's own path.
WORK = os.path.join(".bench_build", "e2ebench", "run")

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170


def run_quietly(command, timeout):
    """Run a build step with its output sent to standard error."""
    return subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode == 0


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    # A configure step that failed leaves a cache but no build files.
    if not any(os.path.exists(os.path.join(BUILD, f))
               for f in ("Makefile", "build.ninja")):
        if not run_quietly(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return False
    return run_quietly(["cmake", "--build", BUILD, "--target", "e2ebench",
                        "-j", jobs], BUILD_TIMEOUT_S)


def main(argv):
    try:
        if not build():
            print("e2ebench: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("e2ebench: build timed out", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(ROOT, WORK), exist_ok=True)
    # subprocess.run kills the benchmark on timeout and waits for it.
    try:
        result = subprocess.run([BINARY] + argv + ["--work-dir", WORK],
                                cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("e2ebench: run timed out", file=sys.stderr)
        return 1
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
