#!/usr/bin/env python3
"""Build and run the VYRD pipeline benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload composite-replay --seed 1 \
      --seconds 10 --trace 0
  python3 perfbench/run.py --selftest --seed 1

The first call configures and builds perfbench/ (which compiles ../src)
into the directory named by CARGO_TARGET_DIR, default .bench_build; later
calls only rebuild what changed. Build output goes to stderr. The
benchmark's last line of stdout is its JSON result; see README.md.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def cached_source_dir(build_dir):
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return None
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                return line.split("=", 1)[1].strip()
    return None


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: the VYRD sources (src/) are not next to perfbench/")
        return None
    if cached_source_dir(build_dir) not in (None, HERE):
        # A build tree configured for another checkout: start afresh.
        shutil.rmtree(os.path.join(build_dir, "CMakeFiles"),
                      ignore_errors=True)
        os.remove(os.path.join(build_dir, "CMakeCache.txt"))
    if cached_source_dir(build_dir) is None:
        r = subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                            "-DCMAKE_BUILD_TYPE=Release"], stdout=sys.stderr)
        if r.returncode != 0:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    r = subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                        "--target", "vyrd-perfbench"], stdout=sys.stderr)
    if r.returncode != 0:
        return None
    return os.path.join(build_dir, "vyrd-perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="replay a buggy composite recording and require a "
                        "violation attributed to 'multiset'")
    a = p.parse_args()
    if not a.selftest and not a.workload:
        p.error("--workload is required")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("error: build failed")
        return 2
    cmd = [binary, "--seed", str(a.seed),
           "--work-dir", os.path.join(build_dir, "perfbench-work")]
    if a.selftest:
        cmd.append("--selftest")
    else:
        cmd += ["--workload", a.workload, "--seconds", str(a.seconds),
                "--trace", str(a.trace)]
    # Replace this process with the benchmark, so stopping run.py stops
    # the benchmark too and no child is left behind.
    sys.stdout.flush()
    sys.stderr.flush()
    os.execv(binary, cmd)


if __name__ == "__main__":
    sys.exit(main())
