#!/usr/bin/env python3
"""corebench: builds the benchmark driver from source and runs one workload.

    python3 corebench/run.py --workload <bestk-text|bestk-triangles|churn|serve>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The first run configures and builds the
corekit library plus corebench_driver into .bench_build/ (CMake + Ninja or
Make, Release); later runs only re-check the build.  The driver's last
line of standard output is the result JSON; build output goes to standard
error.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "corebench")


def build():
    configured = any(os.path.exists(os.path.join(BUILD, name))
                     for name in ("build.ninja", "Makefile"))
    if not configured:
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "corebench_driver",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "corebench_driver")


def main():
    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"corebench: build failed: {error}", file=sys.stderr)
        return 1
    result = subprocess.run([driver] + sys.argv[1:], cwd=ROOT)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
