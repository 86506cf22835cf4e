#!/usr/bin/env python3
"""Build driveperf and its benchmark from source, then run one workload.

Run from the root of a driveperf checkout:

    python3 drivebench/run.py --workload report_seq --seed 1 --seconds 12 --trace 0

All arguments go to the benchmark (drivebench/bench.ml); see
drivebench/README.md. The last line of stdout is the JSON result. Build
output goes to stderr. Exits non-zero, without a result, when the
checkout holds no driveperf sources or the build fails.
"""

import os
import shutil
import subprocess
import sys

BENCH = os.path.join("_build", "default", "drivebench", "bench.exe")
DRIVEPERF = os.path.join("_build", "default", "bin", "driveperf.exe")


def fail(msg):
    print("drivebench: " + msg, file=sys.stderr)
    return 2


def main(argv):
    for need in ("dune-project", os.path.join("bin", "dune"), "lib"):
        if not os.path.exists(need):
            return fail("no %s here: run from the root of a driveperf checkout" % need)
    dune = shutil.which("dune")
    if dune is None:
        return fail("dune is not on PATH")
    build = subprocess.run(
        [dune, "build", "--root", ".", "./" + BENCH, "./" + DRIVEPERF],
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if build.returncode != 0:
        return fail("build failed")
    sys.stdout.flush()
    return subprocess.run([BENCH, "--driveperf", DRIVEPERF] + argv).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
