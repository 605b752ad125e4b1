#!/usr/bin/env python3
"""Build and run the HERO performance benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload c10 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The benchmark binary is built from source into .bench_build (CMake, its own
package in perfbench/ that pulls in the program's src/ tree). Build output
goes to standard error; the binary's standard output is passed through, and
its last line is the JSON result. The exit code is the binary's, or 2 when
the program's sources are missing or the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        print("perfbench: no program sources (CMakeLists.txt, src/) next to perfbench/",
              file=sys.stderr)
        return False
    # The benchmark fixes its own flags; inherited compiler flags would
    # change the host-speed reference between environments.
    env = {k: v for k, v in os.environ.items() if k not in ("CXXFLAGS", "CPPFLAGS", "LDFLAGS")}
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return os.path.isfile(BINARY)


def main():
    if not build():
        return 2
    sys.stdout.flush()
    return subprocess.run([BINARY] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
