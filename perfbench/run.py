#!/usr/bin/env python3
"""Build the benchmark program from source and run one workload.

    python3 perfbench/run.py --workload fleet_churn --seed 1 --seconds 35 --trace 0

The program (perfbench/CMakeLists.txt, which builds the mapa library from
the repository's own CMake project) is configured and built into
.bench_build/ at the repository root on first use and rebuilt
incrementally afterwards. Build output goes to .bench_build/build.log;
on a failed build its tail is copied to stderr and the exit status is 1.
All arguments are passed to the program, whose standard output (a metric
table, then one JSON line) and exit status become this script's.
`--workload all` runs every workload in turn with the other arguments and
exits non-zero when any of them does.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "mapa_perfbench")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
WORKLOADS = ("fleet_churn", "search16_faults", "daemon_open_loop")


def build():
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    configured = any(os.path.exists(os.path.join(BUILD, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD, "--target", "mapa_perfbench",
                  "-j", jobs])
    with open(log_path, "a") as log:
        for cmd in steps:
            log.write("$ " + " ".join(cmd) + "\n")
            log.flush()
            try:
                code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = -1
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.readlines()[-40:]
                sys.stderr.write("perfbench: build failed:\n" + "".join(tail))
                return False
    return True


def run(args):
    try:
        return subprocess.run([BINARY] + args, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


def main():
    if not build():
        return 1
    args = sys.argv[1:]
    at = [i for i in range(len(args) - 1)
          if args[i] == "--workload" and args[i + 1] == "all"]
    if not at:
        return run(args)
    codes = [run(args[:at[0] + 1] + [workload] + args[at[0] + 2:])
             for workload in WORKLOADS]
    return next((code for code in codes if code != 0), 0)


if __name__ == "__main__":
    sys.exit(main())
