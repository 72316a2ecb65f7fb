#!/usr/bin/env python3
"""Build and run the SEC benchmark from the root of a checkout.

One run of one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints context lines, each metric as "name value unit", and as its last
line one JSON object {correct, attempted, failed, metrics}: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

With no --workload, every workload runs untraced and then every workload
runs traced. The exit status is non-zero when a build or an output check
fails. See perfbench/README.md.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
EXE = BUILD / "default" / "perfbench" / "main.exe"
WORKLOADS = ["native-mixed", "sim-contended", "sim-uncontended"]
RUN_TIMEOUT_S = 170


def build():
    for needed in ("dune-project", "lib", "perfbench/dune"):
        if not (ROOT / needed).exists():
            sys.exit(f"perfbench: {needed} is missing from {ROOT}; "
                     "run from a full checkout of the repository")
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = subprocess.run(
        ["dune", "build", "--root", str(ROOT), "--build-dir", str(BUILD),
         "--profile", "release", "./perfbench/main.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")


def run(workload, seed, seconds, trace):
    return subprocess.run(
        [str(EXE), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    args = parser.parse_args()
    build()
    traces = [args.trace] if args.trace is not None else [0, 1]
    workloads = [args.workload] if args.workload else WORKLOADS
    status = 0
    for trace in traces:
        for workload in workloads:
            status = max(status, run(workload, args.seed, args.seconds, trace))
    sys.exit(status)


if __name__ == "__main__":
    main()
