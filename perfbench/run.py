#!/usr/bin/env python3
"""Wire-to-wire serving benchmark for `efd_cli serve`.

Run from the repository root:

    python3 perfbench/run.py --workload paper-paced --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --self-test

Builds the repository's `efd_cli` and the `efd_perfbench` client (Release,
under $CARGO_TARGET_DIR or .bench_build), then runs the client, whose last
stdout line is the JSON result. Workloads, metrics and bounds are listed in
BENCHMARK.json at the repository root; the first recorded baseline is in
perfbench/BASELINE.json.
"""

import argparse
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["efd_cli", "efd_perfbench", "perfbench_selftest"]
RUN_TIMEOUT_S = 175


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the targets; build output goes to stderr."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
                  "--target"] + TARGETS)
    for step in steps:
        result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("no EFD sources next to perfbench/ (need CMakeLists.txt and src/)")
        return 2

    target_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target_root):
        target_root = os.path.join(ROOT, target_root)
    build_dir = os.path.join(target_root, "perfbench")
    if not build(build_dir):
        return 1

    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "perfbench_selftest")]).returncode

    command = [
        os.path.join(build_dir, "efd_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--efd-cli", os.path.join(build_dir, "efd", "efd_cli"),
        "--work-dir", os.path.join(target_root, "perfbench-work"),
    ]
    # Own process group, so a timeout also stops the `serve` children.
    child = subprocess.Popen(command, cwd=ROOT, preexec_fn=os.setpgrp)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("efd_perfbench exceeded %d s; stopping it" % RUN_TIMEOUT_S)
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        return 1


if __name__ == "__main__":
    sys.exit(main())
