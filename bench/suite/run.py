#!/usr/bin/env python3
"""Build odex_bench from this checkout and run one measurement.

    python3 bench/suite/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The executable is built with dune into
$CARGO_TARGET_DIR (default .bench_build) and its file-backed stores go to
a scratch directory under the same root, so the run reads and writes only
inside the checkout. Every argument is passed on to `odex_bench run`; the
last line printed is the run's JSON result.
"""

import os
import shutil
import subprocess
import sys

EXE = "bench/suite/odex_bench.exe"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def main():
    root = os.getcwd()
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.exit("run.py: run from the root of an ODEX checkout (no dune-project or lib/ here)")
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(out, "dune")
    os.makedirs(out, exist_ok=True)
    build = subprocess.run(
        ["dune", "build", "--root", root, "--build-dir", build_dir, "--profile", "release",
         "--cache", "disabled", "--display", "quiet", "./" + EXE],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    try:
        run = subprocess.run([os.path.join(build_dir, "default", EXE), "run"] + sys.argv[1:],
                             env=env, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
