#!/usr/bin/env python3
"""Builds and runs the cqac_serve closed-loop benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload rewrite_mix --seed 1 --seconds 10 --trace 0

The first call configures and builds a Release tree under .bench_build/
(the repository's libraries, cqac_serve and the perfbench binary); later
calls only rebuild what changed. That binary then replaces this process, so
the benchmark is one process. Its last stdout line is the JSON result; see
perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["rewrite_mix", "ivm_stream", "join_scan"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    for needed in ("src/CMakeLists.txt", "tools/cqac_serve.cc"):
        if not os.path.isfile(os.path.join(root, needed)):
            sys.exit("perfbench: %s not found; run from a cqac checkout"
                     % needed)

    build_dir = os.path.join(root, ".bench_build", "perfbench")
    log_path = os.path.join(root, ".bench_build", "build.log")
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target",
                  "cqac_serve", "perfbench"])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=subprocess.STDOUT):
                log.close()
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                sys.exit("perfbench: build failed (%s)" % " ".join(step))

    work_dir = os.path.join(root, ".bench_build", "run", args.workload)
    binary = os.path.join(build_dir, "perfbench")
    os.execv(binary, [binary,
                      "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--serve-bin", os.path.join(build_dir, "cqac_serve"),
                      "--work-dir", work_dir])


if __name__ == "__main__":
    main()
