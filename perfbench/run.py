#!/usr/bin/env python3
"""Builds the GraphSig benchmark from source and runs one workload.

    python3 perfbench/run.py --workload mine_screen|serve_mixed|ingest_stream|all
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds
perfbench/CMakeLists.txt (the graphsig library from src/ plus the
benchmark binary) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, with build output on stderr, then runs the
binary. Its last stdout line is the JSON result; spans of a
traced run and scratch files go to .bench_out/. The exit code is the
binary's: non-zero when a correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build():
    """Builds the benchmark binary and returns its path.

    Exits non-zero when the sources are missing or the build fails.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no library sources under src/; run from a "
                 "checkout of the repository")
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def main(argv):
    binary = build()
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    sys.stdout.flush()
    done = subprocess.run([binary] + argv + ["--out-dir", out_dir])
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
